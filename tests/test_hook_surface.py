"""The benchmark's tracing hooks (perfbench/spans.py) still find what they wrap.

spans.instrumented patches solver entry points by name and its hooks read
attributes of their arguments and results. A refactor that renames one
breaks traced benchmark runs only, so this test runs the unchanged module on
two small solves and checks that every wrapped layer fired.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

from listchroma import bnp
from listchroma.instgen import GenConfig, generate

from helpers import random_all_complete

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_layer_fires(monkeypatch):
    spans = load_spans()
    tracer = spans.Tracer()
    solve = spans.wrap_solve(tracer, bnp.solve)
    shared = []  # PricingStats.cache_hits of every round, read past the hook
    verdicts = []  # asg.all_complete's answer per node: True skips the master
    price_all, all_complete = bnp.price_all, bnp.asg.all_complete

    def recording(*args, **kwargs):
        outcome = price_all(*args, **kwargs)
        shared.append(outcome.stats.cache_hits)
        return outcome

    def recording_all_complete(*args):
        verdicts.append(all_complete(*args))
        return verdicts[-1]

    monkeypatch.setattr(bnp, "price_all", recording)
    monkeypatch.setattr(bnp.asg, "all_complete", recording_all_complete)
    # a grid instance of five nodes: inheritance, a leaf read-off, and
    # classes on one vertex set that share a pricing search
    branching = generate(GenConfig(n=10, p=0.5, c=1.5, q=0.5, seed=20179, weight_range=(1, 10)))
    with spans.instrumented(tracer):
        tracer.request = "branching"
        first = solve(branching)
        tracer.request = "all_complete"
        second = solve(random_all_complete(0))
    assert first.status == second.status == bnp.OPTIMAL
    assert first.nodes == 5

    fired = Counter(span[0] for span in tracer.spans)
    wrapped = {
        "bnp.solve", "master.solve_lp", "master.add_columns", "master.extract",
        "pricing.price_all", "pricing.mwss_search", "core.preprocess_singletons",
        "core.partition_colors", "core.branch_same", "core.branch_differ",
        "bnp.inherit_columns", "bnp.select_branching_pair", "bnp.update_incumbent",
        "assignment.all_complete", "assignment.solve_assignment",
    }
    assert {name for name in wrapped if not fired[name]} == set()
    # master imports solve_assignment by name, so the LP leaf read-offs
    # (master.extract) are no assignment spans and assignment.hit_ratio
    # counts only the nodes that all_complete accepted
    assert fired["master.extract"] > 0
    assert fired["assignment.solve_assignment"] == sum(verdicts) > 0

    counts = tracer.counts
    assert counts["nodes"] == first.nodes + second.nodes
    assert counts["pricing_rounds"] == first.pricing_rounds + second.pricing_rounds
    assert counts["columns_generated"] == first.columns_generated + second.columns_generated
    assert counts["mwss_nodes"] == first.mwss_nodes + second.mwss_nodes
    assert counts["cache_hits"] == sum(shared) > 0
    assert counts["inherit_kept"] > 0 and counts["inherit_parent"] >= counts["inherit_kept"]
    assert counts["classes_priced"] > 0 and counts["useful_rounds"] > 0
    assert tracer.finals == {"branching": first.weight, "all_complete": second.weight}
    assert {(request, weight) for request, _, weight in tracer.offers} >= {
        ("branching", first.weight),
        ("all_complete", second.weight),
    }
    metrics = spans.layer_metrics(tracer, 1.0)
    assert metrics["bnp.nodes"] == counts["nodes"]
    assert metrics["assignment.solve_assignment.calls"] > 0
