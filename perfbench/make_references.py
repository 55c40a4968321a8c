"""Regenerate references.json, the expected (status, weight) per instance.

    python3 perfbench/make_references.py

Grid instances take their answer from oracle_solve (and the solver must agree
with it). The n=50/60 instances are out of the oracle's reach, and a compact
MIP model does not finish on them in minutes, so their reference is the
solver's own answer at the checkout's commit (read with git), with the
coloring re-checked by validate_coloring. Takes about two minutes on 2 cores.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import ORACLE_WORKLOADS, REFERENCES, WORKLOADS, instance_key

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from listchroma import GenConfig, generate, oracle_solve, solve, validate_coloring  # noqa: E402


def solver_commit() -> str:
    """The commit the solver is built from, marked when src/ has local changes."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        raise SystemExit("references record the solver's commit: run from a git checkout")
    dirty = git("status", "--porcelain", "--", "src").stdout.strip()
    return head.stdout.strip() + (" with local changes to src/" if dirty else "")


def reference(cfg: dict, use_oracle: bool, commit: str) -> dict:
    inst = generate(GenConfig(**cfg))
    report = solve(inst)
    if report.coloring is not None:
        if validate_coloring(inst, report.coloring.as_dict()) != report.weight:
            raise SystemExit(f"{instance_key(cfg)}: solver coloring fails validation")
    if not use_oracle:
        return {"status": report.status, "weight": report.weight,
                "source": f"solve at {commit}, coloring checked by validate_coloring"}
    oracle = oracle_solve(inst)
    status = "optimal" if oracle.feasible else "infeasible"
    if (status, oracle.optimum) != (report.status, report.weight):
        raise SystemExit(f"{instance_key(cfg)}: solver {report.weight} != oracle {oracle.optimum}")
    return {"status": status, "weight": oracle.optimum, "source": "oracle_solve",
            "oracle_explored": oracle.assignments_explored}


def write_references(refs: dict[str, dict]) -> None:
    """One instance per line, so a changed answer shows as a one-line diff."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(refs.items())]
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        fh.write('{"instances": {\n' + ",\n".join(lines) + "\n}}\n")


def main() -> None:
    commit = solver_commit()
    refs = {}
    for name, cfgs in WORKLOADS.items():
        for cfg in cfgs:
            refs[instance_key(cfg)] = reference(cfg, name in ORACLE_WORKLOADS, commit)
        print(f"{name}: {len(cfgs)} references", file=sys.stderr)
    write_references(refs)


if __name__ == "__main__":
    main()
