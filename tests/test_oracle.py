import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from listchroma.core import EmptyListError, validate_coloring
from listchroma.oracle import TooLargeError, oracle_solve, placement_order

from conftest import enumerate_optimum, k33_mirrored, make_instance


def test_triangle_needs_three_colors():
    inst = make_instance(3, [(0, 1), (1, 2), (0, 2)], [[0, 1, 2]] * 3)
    res = oracle_solve(inst)
    assert res.optimum == 3
    assert res.witness is not None and res.witness.weight == 3


def test_k33_mirrored_is_infeasible():
    inst = k33_mirrored()
    res = oracle_solve(inst)
    assert not res.feasible
    assert enumerate_optimum(inst) is None


def test_shared_color_on_edgeless_graph():
    inst = make_instance(4, [], [[0, 1], [0, 2], [0, 3], [0]])
    assert oracle_solve(inst).optimum == 1


def test_cap_enforced():
    inst = make_instance(15, [], [[0]] * 15)
    with pytest.raises(TooLargeError):
        oracle_solve(inst, cap=14)
    assert oracle_solve(inst, cap=15).optimum == 1


def test_witness_is_always_valid_and_minimal():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(150):
        n = int(rng.integers(1, 8))
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        ncolors = int(rng.integers(1, 5))
        lists = []
        try:
            inst = make_instance(
                n,
                edges,
                [
                    sorted(
                        rng.choice(ncolors, size=int(rng.integers(1, ncolors + 1)), replace=False)
                    )
                    for _ in range(n)
                ],
                weights={j: int(rng.integers(0, 5)) for j in range(ncolors)},
            )
        except EmptyListError:
            continue
        res = oracle_solve(inst)
        full = enumerate_optimum(inst)
        assert res.optimum == full
        if res.feasible:
            assert res.witness.weight == res.optimum


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pruned_matches_unpruned_enumeration(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    ncolors = data.draw(st.integers(min_value=1, max_value=4))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if data.draw(st.booleans(), label=f"edge{u},{v}")
    ]
    lists = [
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=ncolors - 1),
                min_size=1,
                max_size=ncolors,
                unique=True,
            ),
            label=f"list{v}",
        )
        for v in range(n)
    ]
    weights = {
        j: data.draw(st.integers(min_value=0, max_value=6), label=f"w{j}")
        for j in range(ncolors)
    }
    inst = make_instance(n, edges, lists, weights={
        j: weights[j] for j in {c for l in lists for c in l}
    })
    assert oracle_solve(inst).optimum == enumerate_optimum(inst)


def placement_pins():
    """Six vertices whose placement order exercises the rule and each tie-break.

    Edges 4-5, 5-1, 5-2, 2-3; vertex 0 is isolated. Vertex 4 goes first on
    the only one-color list, though 5 has the higher degree. Vertex 5 is next
    as the one neighbor of a placed vertex, though its list is the longest.
    Vertices 1 and 2 then tie on one placed neighbor and two colors, and 2
    wins on degree although 1 has the lower id. Vertices 1 and 3 tie on all
    three, and the lower id 1 goes first. The unique optimum, of weight 3,
    colors 4 with 0, 5 with 2, and 1 and 2 with 1.
    """
    return make_instance(
        6,
        [(4, 5), (5, 1), (5, 2), (2, 3)],
        [[2, 4], [1, 3], [1, 3], [2, 4], [0], [0, 1, 2]],
        weights={0: 1, 1: 1, 2: 1, 3: 5, 4: 5},
    )


def test_placement_order_follows_placed_neighbors_then_list_degree_id():
    assert placement_order(placement_pins()) == [4, 5, 2, 1, 3, 0]


def test_witness_is_mapped_back_to_vertex_ids():
    res = oracle_solve(placement_pins())
    assert res.optimum == 3
    assert res.witness.as_dict() == {0: 2, 1: 1, 2: 1, 3: 2, 4: 0, 5: 2}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_relabelled_copy_has_the_same_optimum(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    ncolors = data.draw(st.integers(min_value=1, max_value=3))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if data.draw(st.booleans(), label=f"edge{u},{v}")
    ]
    lists = [
        data.draw(
            st.lists(st.integers(0, ncolors - 1), min_size=1, max_size=ncolors, unique=True),
            label=f"list{v}",
        )
        for v in range(n)
    ]
    weights = {j: data.draw(st.integers(0, 6), label=f"w{j}") for j in range(ncolors)}
    perm = data.draw(st.permutations(range(n)), label="perm")
    used = {j: weights[j] for l in lists for j in l}
    inst = make_instance(n, edges, lists, weights=used)
    moved_lists = [None] * n
    for v in range(n):
        moved_lists[perm[v]] = lists[v]
    moved = make_instance(n, [(perm[u], perm[v]) for u, v in edges], moved_lists, weights=used)

    optimum = enumerate_optimum(inst)
    assert enumerate_optimum(moved) == optimum
    for copy in (inst, moved):
        res = oracle_solve(copy)
        assert res.optimum == optimum
        if optimum is not None:
            assert validate_coloring(copy, res.witness.as_dict()) == optimum
