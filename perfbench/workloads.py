"""Workload definitions and the reference answers every run is checked against.

Every workload is a fixed list of generator configs, so the instances (and
therefore node counts and answers) never depend on the run's --seed; the seed
only shuffles the order in which a pass visits them. A pass over any one
workload takes about 10 s on 2 cores, so that a run holds two or more
samples of every instance, or one pass solved both untraced and traced.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# The oracle's cost is exponential, and four grid instances take 76 s of its
# 84 s. A pass must fit in a run, so only instances whose reference oracle
# run explored at most this many assignments are re-proved each pass.
ORACLE_MAX_EXPLORED = 2_000_000


def _cell(n: int, p: float, c: float, q: float, seeds) -> list[dict]:
    return [dict(n=n, p=p, c=c, q=q, seed=s, weight_range=None) for s in seeds]


def _acceptance_grid() -> list[dict]:
    """The 324 configs of the acceptance suite's oracle-equivalence grid."""
    out = []
    idx = 0
    for p in (0.25, 0.5, 0.75):
        for q in (0.25, 0.5, 0.75):
            for c in (0.5, 1.0, 1.5):
                for weight_range in (None, (1, 10)):
                    for _rep in range(6):
                        out.append(
                            dict(n=6 + idx % 7, p=p, c=c, q=q, seed=20000 + idx,
                                 weight_range=weight_range)
                        )
                        idx += 1
    return out


# Seeds are a subset of 7000-7004 per cell: the full five take 26-37 s,
# which does not fit into a run several times.
WORKLOADS: dict[str, list[dict]] = {
    # LP and pricing balanced, deepest trees: search-layer changes show here.
    "c7": _cell(50, 0.5, 1.0, 0.5, (7001, 7002, 7003)),
    # q=1: all colors form one class, so the master LP dominates.
    "gcp-lp": _cell(50, 0.5, 1.0, 1.0, (7000, 7001, 7002)),
    # ~90 classes on small vertex sets, so pricing dominates.
    "dense-pricing": _cell(60, 0.75, 1.5, 0.5, (7000, 7001, 7002)),
    # Hundreds of tiny solves plus the brute-force oracle.
    "grid-oracle": _acceptance_grid(),
}

ORACLE_WORKLOADS = frozenset({"grid-oracle"})


def instance_key(cfg: dict) -> str:
    key = f"n{cfg['n']}_p{cfg['p']}_c{cfg['c']}_q{cfg['q']}_s{cfg['seed']}"
    if cfg["weight_range"] is not None:
        lo, hi = cfg["weight_range"]
        key += f"_w{lo}-{hi}"
    return key


def load_references() -> dict[str, dict]:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["instances"]


def oracle_checked(name: str, key: str, refs: dict[str, dict]) -> bool:
    """Whether the benchmark re-proves this instance with oracle_solve."""
    return name in ORACLE_WORKLOADS and refs[key]["oracle_explored"] <= ORACLE_MAX_EXPLORED
