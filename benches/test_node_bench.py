"""Microbenches of the node layers outside column generation: singleton
preprocessing and the minimum cost matching that finishes leaves.

Run with `python -m pytest benches --benchmark-only`.
"""

from listchroma.assignment import min_cost_matching
from listchroma.core import preprocess_singletons, root_state
from listchroma.instgen import GenConfig, generate


def test_preprocess_singletons_cascade(benchmark):
    # 11 singleton lists whose fixing removes 11 of the 60 vertices
    state = root_state(generate(GenConfig(n=60, p=0.25, c=1.0, q=0.05, seed=7001)))
    out = benchmark(preprocess_singletons, state)
    assert out.instance.n == 49


def test_min_cost_matching_vertices_to_colors(benchmark):
    # each vertex of a dense-pricing instance to a distinct color of its list
    inst = generate(GenConfig(n=60, p=0.75, c=1.5, q=0.5, seed=7000))
    match = benchmark(min_cost_matching, inst.lists, inst.colors, inst.weights)
    assert len(set(match)) == inst.n
