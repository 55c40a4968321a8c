"""Span recording around the solver's layer boundaries, from outside the package.

Wrappers are installed on the names the caller looks up at run time: bnp
imports solve_lp, price_all, preprocess_singletons, ... by name, so those are
patched on listchroma.bnp; price_all calls mwss_search through the pricing
module's globals; bnp reaches the assignment module through its module
object. A wrapper on listchroma.master.solve_lp would record nothing.
"""

from __future__ import annotations

import gzip
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory spans (name, start, end, parent index, request) plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request: str | None = None
        self.offers: list[tuple[str, float, int]] = []  # (request, time, weight)
        self.finals: dict[str, int | None] = {}
        self._open: list[int] = []

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")


def _solve_lp(t, span, args, kwargs, res):
    t.counts["lp_columns"] += len(args[0].columns)


def _price_all(t, span, args, kwargs, outcome):
    early_exit = args[3] if len(args) > 3 else kwargs.get("early_exit", True)
    if not early_exit:
        t.counts["exact_rounds"] += 1
    t.counts["mwss_nodes"] += outcome.stats.nodes
    t.counts["cache_hits"] += outcome.stats.cache_hits
    t.counts["classes_priced"] += len(outcome.per_class)
    if any(col is not None for col in outcome.per_class.values()):
        t.counts["useful_rounds"] += 1


def _preprocess(t, span, args, kwargs, state):
    if state is None:
        t.counts["infeasible_prunes"] += 1


def _inherit(t, span, args, kwargs, kept):
    t.counts["inherit_parent"] += len(args[0])
    t.counts["inherit_kept"] += len(kept)


def _incumbent(t, span, args, kwargs, result):
    t.offers.append((span[4], span[1], args[1].weight))


def _solve(t, span, args, kwargs, report):
    t.counts["nodes"] += report.nodes
    t.counts["pricing_rounds"] += report.pricing_rounds
    t.counts["columns_generated"] += report.columns_generated
    t.finals[span[4]] = report.weight


def _oracle(t, span, args, kwargs, result):
    t.counts["assignments_explored"] += result.assignments_explored


@contextmanager
def instrumented(tracer: Tracer):
    """Patch the layer entry points for the duration of the block."""
    import listchroma.assignment as assignment
    import listchroma.bnp as bnp
    import listchroma.pricing as pricing

    targets = [
        (bnp, "solve_lp", "master.solve_lp", _solve_lp),
        (bnp, "add_columns", "master.add_columns", None),
        (bnp, "extract_integer_solution", "master.extract", None),
        (bnp, "price_all", "pricing.price_all", _price_all),
        (pricing, "mwss_search", "pricing.mwss_search", None),
        (bnp, "preprocess_singletons", "core.preprocess_singletons", _preprocess),
        (bnp, "partition_colors", "core.partition_colors", None),
        (bnp, "branch_same", "core.branch_same", None),
        (bnp, "branch_differ", "core.branch_differ", None),
        (bnp, "inherit_columns", "bnp.inherit_columns", _inherit),
        (bnp, "select_branching_pair", "bnp.select_branching_pair", None),
        (bnp, "update_incumbent", "bnp.update_incumbent", _incumbent),
        (assignment, "all_complete", "assignment.all_complete", None),
        (assignment, "solve_assignment", "assignment.solve_assignment", None),
    ]
    saved = []
    try:
        for module, attr, name, hook in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, hook))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def wrap_solve(tracer: Tracer, solve):
    return tracer.wrap("bnp.solve", solve, _solve)


def wrap_oracle(tracer: Tracer, oracle_solve):
    return tracer.wrap("oracle.oracle_solve", oracle_solve, _oracle)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass whose loop took wall_s."""
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    covered: defaultdict = defaultdict(float)
    for name, start, end, parent, _ in tracer.spans:
        calls[name] += 1
        busy[name] += end - start
        if parent >= 0:
            covered[parent] += end - start
    solve_self = sum(
        end - start - covered[i]
        for i, (name, start, end, _, _) in enumerate(tracer.spans)
        if name == "bnp.solve"
    )
    solve_start = {req: start for name, start, _, _, req in tracer.spans if name == "bnp.solve"}
    to_best = 0.0
    for req, final in tracer.finals.items():
        times = [t for r, t, w in tracer.offers if r == req and w == final]
        if times:
            to_best += min(times) - solve_start[req]
    c = tracer.counts
    lp, price, oracle = busy["master.solve_lp"], busy["pricing.price_all"], busy["oracle.oracle_solve"]
    return {
        "master.solve_lp.calls": calls["master.solve_lp"],
        "master.solve_lp.s": lp,
        "master.lp_columns.mean": _ratio(c["lp_columns"], calls["master.solve_lp"]),
        "master.add_columns.s": busy["master.add_columns"],
        "master.extract.calls": calls["master.extract"],
        "pricing.price_all.calls": calls["pricing.price_all"],
        "pricing.price_all.s": price,
        "pricing.exact_rounds": c["exact_rounds"],
        "pricing.mwss_search.calls": calls["pricing.mwss_search"],
        "pricing.mwss_search.s": busy["pricing.mwss_search"],
        "pricing.mwss_nodes": c["mwss_nodes"],
        "pricing.cache_hits": c["cache_hits"],
        "pricing.cache_hit_ratio": _ratio(c["cache_hits"], c["classes_priced"]),
        "pricing.useful_round_ratio": _ratio(c["useful_rounds"], calls["pricing.price_all"]),
        "bnp.nodes": c["nodes"],
        "bnp.pricing_rounds": c["pricing_rounds"],
        "bnp.columns_generated": c["columns_generated"],
        "bnp.incumbents": calls["bnp.update_incumbent"],
        "bnp.time_to_best_s": to_best,
        "bnp.inherit_columns.s": busy["bnp.inherit_columns"],
        "bnp.inherit_kept_ratio": _ratio(c["inherit_kept"], c["inherit_parent"]),
        "bnp.select_branching_pair.s": busy["bnp.select_branching_pair"],
        "bnp.self_s": solve_self,
        "core.preprocess_singletons.calls": calls["core.preprocess_singletons"],
        "core.preprocess_singletons.s": busy["core.preprocess_singletons"],
        "core.infeasible_prunes": c["infeasible_prunes"],
        "core.partition_colors.s": busy["core.partition_colors"],
        "core.branch_same.s": busy["core.branch_same"],
        "core.branch_differ.s": busy["core.branch_differ"],
        "assignment.all_complete.calls": calls["assignment.all_complete"],
        "assignment.solve_assignment.calls": calls["assignment.solve_assignment"],
        "assignment.hit_ratio": _ratio(
            calls["assignment.solve_assignment"], calls["assignment.all_complete"]
        ),
        "assignment.solve_assignment.s": busy["assignment.solve_assignment"],
        "oracle.oracle_solve.s": oracle,
        "oracle.assignments_explored": c["assignments_explored"],
        "share.lp": _ratio(lp, wall_s),
        "share.pricing": _ratio(price, wall_s),
        "share.oracle": _ratio(oracle, wall_s),
    }


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}
