"""Solve a panel of configs with two source trees and compare the answers.

    python3 tools/same_answers.py TREE_A TREE_B [PANEL ...]

TREE_A and TREE_B are checkouts of this repository, say a parent commit and
a change; each tree's src/ is imported in an interpreter of its own, and
the two run side by side. A panel is a workload of
perfbench/workloads.WORKLOADS in the checkout that holds this script, or
`hard`: three off-benchmark trees of 100-300 nodes, which take about 8 s
per tree. With no PANEL named the script runs every workload, but not
`hard`. Each tree generates and solves the configs with its own code. Per
config the script compares status, weight, nodes, pricing_rounds,
columns_generated, mwss_nodes, incumbent_node and the coloring. It prints
per panel how many configs are identical, on how many status and weight are
equal, and the total nodes and pricing rounds of each tree, then the first
difference. It exits 1 on any difference, 2 on an unknown panel or tree.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, instance_key  # noqa: E402

# Trees the benchmark's 1-9 node trees cannot show moving. At the change that
# added them each solved to optimality: (weight, nodes, pricing rounds,
# columns, mwss_nodes, incumbent node) was (10, 117, 356, 2576, 621894, 1),
# (18, 291, 1005, 2935, 1395292, 49) and (20, 125, 287, 3671, 242009, 1).
HARD = [
    dict(n=50, p=0.5, c=1.0, q=0.5, seed=3, weight_range=None),  # the c7 cell, proof side
    dict(n=50, p=0.5, c=1.0, q=0.5, seed=7004, weight_range=(1, 10)),
    dict(n=70, p=0.75, c=1.0, q=0.5, seed=7001, weight_range=None),
]
PANELS = {**WORKLOADS, "hard": HARD}

FIELDS = (
    "status",
    "weight",
    "nodes",
    "pricing_rounds",
    "columns_generated",
    "mwss_nodes",
    "incumbent_node",
    "coloring",
)

# Reads [[workload, key, config], ...] on stdin and prints one JSON list of
# answers; refuses to run on a listchroma from anywhere but {src}.
_WORKER = """
import json, os, sys
import listchroma
from listchroma import GenConfig, generate, solve
if not os.path.abspath(listchroma.__file__).startswith(os.path.join({src!r}, "")):
    sys.exit(f"imported {{listchroma.__file__}}, not the tree's")
answers = []
for name, key, cfg in json.load(sys.stdin):
    if cfg["weight_range"] is not None:
        cfg["weight_range"] = tuple(cfg["weight_range"])
    report = solve(generate(GenConfig(**cfg)))
    answer = {{field: getattr(report, field) for field in {fields!r}[:-1]}}
    coloring = report.coloring
    answer["coloring"] = None if coloring is None else sorted(coloring.assignment)
    answers.append([name, key, answer])
print(json.dumps(answers))
"""


def start(tree: str, configs: list) -> subprocess.Popen:
    """An interpreter that solves configs with tree's src/."""
    src = os.path.join(os.path.abspath(tree), "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", _WORKER.format(src=src, fields=FIELDS)],
        cwd=src,
        env={**os.environ, "PYTHONPATH": src},
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    proc.stdin.write(json.dumps(configs))
    proc.stdin.close()
    return proc


def answers_of(proc: subprocess.Popen, tree: str) -> list:
    out = proc.stdout.read()
    if proc.wait() != 0:
        raise RuntimeError(f"solving with {tree} failed (exit {proc.returncode})")
    return json.loads(out)


@dataclass
class Tally:
    """One workload's comparison, with the total nodes and rounds of trees A and B."""

    configs: int = 0
    identical: int = 0
    same_answer: int = 0  # status and weight equal
    nodes_a: int = 0
    nodes_b: int = 0
    rounds_a: int = 0
    rounds_b: int = 0

    def lines(self, name: str) -> list[str]:
        return [
            f"{name}: {self.identical} of {self.configs} configs identical",
            f"  status and weight equal on {self.same_answer} of {self.configs}",
            f"  nodes {self.nodes_a} vs {self.nodes_b}, "
            f"pricing rounds {self.rounds_a} vs {self.rounds_b}",
        ]


def compare(answers_a: list, answers_b: list) -> tuple[dict[str, Tally], str | None]:
    """A tally per workload, and the first difference (None: none)."""
    counts: dict[str, Tally] = {}
    first = None
    for (name, key, a), (_, _, b) in zip(answers_a, answers_b, strict=True):
        tally = counts.setdefault(name, Tally())
        tally.configs += 1
        tally.same_answer += (a["status"], a["weight"]) == (b["status"], b["weight"])
        tally.nodes_a += a["nodes"]
        tally.nodes_b += b["nodes"]
        tally.rounds_a += a["pricing_rounds"]
        tally.rounds_b += b["pricing_rounds"]
        differ = [field for field in FIELDS if a[field] != b[field]]
        if not differ:
            tally.identical += 1
        elif first is None:
            field = differ[0]
            first = f"{name} {key}: {field} {a[field]} vs {b[field]}"
    return counts, first


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    tree_a, tree_b, *names = argv
    names = names or list(WORKLOADS)
    errors = [f"unknown panel {name!r}" for name in names if name not in PANELS]
    errors += [f"{tree} has no src/" for tree in (tree_a, tree_b) if not os.path.isdir(f"{tree}/src")]
    if errors:
        print(f"error: {'; '.join(errors)}", file=sys.stderr)
        return 2
    configs = [[name, instance_key(cfg), cfg] for name in names for cfg in PANELS[name]]
    procs = [start(tree_a, configs), start(tree_b, configs)]
    counts, first = compare(answers_of(procs[0], tree_a), answers_of(procs[1], tree_b))
    for name, tally in counts.items():
        print("\n".join(tally.lines(name)))
    if first is not None:
        print(f"first difference: {first}")
        return 1
    print(f"all {len(configs)} configs identical in {', '.join(FIELDS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
