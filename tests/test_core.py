import pytest
from hypothesis import assume, given, settings, strategies as st

from listchroma.core import (
    Deadline,
    EmptyListError,
    Graph,
    NumericalFailure,
    ReconstructionBug,
    SearchTimeout,
    branch_differ,
    branch_same,
    build_instance,
    lift_node_assignment,
    list_coloring,
    partition_colors,
    preprocess_singletons,
    root_state,
    validate_coloring,
)
from listchroma.core import ColoringError
from listchroma.master import Column, DualSolution, LPResult, add_columns, extract_integer_solution
from listchroma.oracle import oracle_solve

from helpers import make_instance, master_for


class TestDeadline:
    @pytest.mark.parametrize("seconds", [float("nan"), -1.0, float("-inf")])
    def test_nan_or_negative_limit_rejected(self, seconds):
        with pytest.raises(ValueError, match="time limit must be a number >= 0"):
            Deadline(seconds)

    def test_zero_limit_is_valid_and_expired(self):
        deadline = Deadline(0)
        assert deadline.expired()
        with pytest.raises(SearchTimeout):
            deadline.check()

    def test_no_limit_never_expires(self):
        assert not Deadline(None).expired()
        assert not Deadline(float("inf")).expired()


class TestBuildInstance:
    def test_triangle_nothing_to_normalize(self):
        inst = make_instance(3, [(0, 1), (1, 2), (0, 2)], [[0, 1, 2]] * 3)
        assert inst.colors == (0, 1, 2)
        assert inst.lists == (frozenset({0, 1, 2}),) * 3

    def test_unused_color_dropped(self):
        g = Graph.from_edges(1, [])
        inst = build_instance(g, [0, 1], {0: 1, 1: 1}, [[0]])
        assert inst.colors == (0,)
        assert 1 not in inst.weights

    def test_empty_list_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(EmptyListError) as err:
            build_instance(g, [0], {0: 1}, [[0], []])
        assert err.value.vertex == 1

    def test_negative_weight_rejected(self):
        g = Graph.from_edges(1, [])
        with pytest.raises(ValueError):
            build_instance(g, [0], {0: -2}, [[0]])


class TestPartitionColors:
    def test_gcp_single_class(self):
        inst = make_instance(4, [(0, 1), (2, 3)], [[0, 1, 2, 3]] * 4)
        part = partition_colors(inst)
        assert part.reps == (0,)
        assert part.class_members[0] == (0, 1, 2, 3)

    def test_weights_split_classes(self):
        inst = make_instance(2, [(0, 1)], [[0, 1]] * 2, weights={0: 1, 1: 2})
        part = partition_colors(inst)
        assert part.reps == (0, 1)

    def test_vertex_sets_split_classes(self):
        inst = make_instance(2, [], [[0, 1, 2], [0, 1]])
        part = partition_colors(inst)
        assert part.reps == (0, 2)
        assert len(part.class_members[0]) == 2
        assert len(part.class_members[2]) == 1
        assert part.vertices[0] == (0, 1)
        assert part.vertices[2] == (0,)

    def test_bounded_flag(self):
        # V_0 has 3 vertices against a class of size 1: constrained
        inst = make_instance(3, [], [[0], [0], [0, 1]])
        part = partition_colors(inst)
        assert 0 in part.bounded
        assert 1 not in part.bounded

    def test_deterministic(self):
        inst1 = make_instance(3, [(0, 1)], [[0, 2], [0, 2], [1, 2]])
        inst2 = make_instance(3, [(0, 1)], [[0, 2], [0, 2], [1, 2]])
        assert partition_colors(inst1) == partition_colors(inst2)


class TestPreprocessSingletons:
    def test_cascade_fixes_everything(self):
        inst = make_instance(3, [(0, 1), (1, 2)], [[0], [0, 1], [2]])
        state = preprocess_singletons(root_state(inst))
        assert state is not None
        assert state.instance.n == 0
        assert sorted(state.fixed) == [(0, 0), (1, 1), (2, 2)]
        assert state.fixed_weight == 3

    def test_conflict_is_infeasible(self):
        inst = make_instance(2, [(0, 1)], [[0], [0]])
        assert preprocess_singletons(root_state(inst)) is None

    def test_no_singleton_is_identity(self):
        inst = make_instance(3, [(0, 1), (1, 2), (0, 2)], [[0, 1, 2]] * 3)
        pre = root_state(inst)
        assert preprocess_singletons(pre) is pre

    def test_fixed_in_root_vertex_order(self):
        # the cascade fixes vertex 2, then 1, then 0
        inst = make_instance(3, [(0, 1), (1, 2)], [[1, 2], [0, 1], [0]])
        state = preprocess_singletons(root_state(inst))
        assert state.fixed == ((0, 2), (1, 1), (2, 0))
        # a later pass merges its pairs in among the earlier ones
        inst = make_instance(3, [(0, 2)], [[0, 1], [1, 2], [5]])
        state = preprocess_singletons(root_state(inst))
        assert state.fixed == ((2, 5),)
        child = preprocess_singletons(branch_same(state, 0, 1))
        assert child.fixed == ((0, 1), (1, 1), (2, 5))

    def test_fixed_color_weight_zeroed_in_residual(self):
        # vertex 0 fixed to color 0; non-neighbor 1 keeps color 0 at weight 0
        inst = make_instance(2, [], [[0], [0, 1]], weights={0: 5, 1: 1})
        state = preprocess_singletons(root_state(inst))
        assert state.fixed == ((0, 0),)
        assert state.fixed_weight == 5
        assert state.instance.weights[0] == 0
        assert state.instance.weights[1] == 1

    def test_preserves_optimum_against_oracle(self):
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(7))
        checked = 0
        for _ in range(200):
            n = int(rng.integers(2, 8))
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            ncolors = int(rng.integers(2, 6))
            lists = []
            for _v in range(n):
                size = int(rng.integers(1, ncolors + 1))
                lists.append(sorted(rng.choice(ncolors, size=size, replace=False)))
            weights = {j: int(rng.integers(0, 6)) for j in range(ncolors)}
            try:
                inst = make_instance(n, edges, lists, weights={
                    j: weights[j] for j in {c for l in lists for c in l}
                })
            except EmptyListError:
                continue
            if not any(len(l) == 1 for l in inst.lists):
                continue
            checked += 1
            parent = oracle_solve(inst)
            state = preprocess_singletons(root_state(inst))
            if state is None:
                assert not parent.feasible
            elif state.instance.n == 0:
                assert parent.optimum == state.fixed_weight
            else:
                child = oracle_solve(state.instance)
                if child.feasible:
                    assert parent.optimum == child.optimum + state.fixed_weight
                else:
                    assert not parent.feasible
        assert checked >= 50


def reference_singletons(state):
    """The fixpoint by the repeated lowest-index scan, on an edge set and a dict of lists.

    Returns None on an empty list, else (instance, merge_map, set of fixed
    pairs, fixed_weight).
    """
    inst = state.instance
    edges = set(inst.graph.edges())
    lists = {v: set(lst) for v, lst in enumerate(inst.lists)}
    weights = dict(inst.weights)
    fixed, fixed_weight = set(state.fixed), state.fixed_weight
    while True:
        u = next((v for v in sorted(lists) if len(lists[v]) == 1), None)
        if u is None:
            break
        (j,) = lists.pop(u)
        fixed |= {(r, j) for r, cur in state.merge_map.items() if cur == u}
        fixed_weight += weights[j]
        weights[j] = 0
        for z in lists:
            if (min(u, z), max(u, z)) in edges:
                lists[z].discard(j)
                if not lists[z]:
                    return None
    new = {x: i for i, x in enumerate(sorted(lists))}
    graph = Graph.from_edges(
        len(new), [(new[a], new[b]) for a, b in edges if a in new and b in new]
    )
    residual = build_instance(graph, inst.colors, weights, [lists[x] for x in sorted(lists)])
    merge_map = {r: new[cur] for r, cur in state.merge_map.items() if cur in new}
    return residual, merge_map, fixed, fixed_weight


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_singletons_match_lowest_index_scan(data):
    n = data.draw(st.integers(min_value=1, max_value=9))
    edges = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if data.draw(st.booleans(), label=f"edge{a},{b}")
    ]
    lists = [
        data.draw(
            st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3, unique=True),
            label=f"list{x}",
        )
        for x in range(n)
    ]
    weights = {j: data.draw(st.integers(min_value=0, max_value=5), label=f"w{j}") for j in range(4)}
    inst = make_instance(n, edges, lists, weights)
    state = root_state(inst)
    # up to two rounds of fixing then branching, so merge_map and fixed are not trivial
    for _ in range(data.draw(st.integers(min_value=0, max_value=2), label="rounds")):
        state = preprocess_singletons(state)
        assume(state is not None)
        g = state.instance.graph
        pairs = [
            (a, b)
            for a in range(g.n)
            for b in range(a + 1, g.n)
            if not g.has_edge(a, b) and state.instance.lists[a] & state.instance.lists[b]
        ]
        assume(pairs)
        a, b = data.draw(st.sampled_from(pairs), label="pair")
        branch = data.draw(st.sampled_from([branch_same, branch_differ]), label="branch")
        state = branch(state, a, b)
    expected = reference_singletons(state)
    got = preprocess_singletons(state)
    if expected is None:
        assert got is None
        return
    residual, merge_map, fixed, fixed_weight = expected
    assert got.instance == residual
    assert got.merge_map == merge_map
    assert set(got.fixed) == fixed
    assert list(got.fixed) == sorted(got.fixed)
    assert got.fixed_weight == fixed_weight


class TestBranching:
    def test_differ_adds_edge(self):
        inst = make_instance(3, [(0, 1), (1, 2)], [[0, 1]] * 3)
        child = branch_differ(root_state(inst), 0, 2)
        assert child.instance.graph.has_edge(0, 2)
        assert child.instance.lists == inst.lists

    def test_differ_then_conflict(self):
        inst = make_instance(2, [], [[0], [0]])
        child = branch_differ(root_state(inst), 0, 1)
        assert preprocess_singletons(child) is None

    def test_differ_rejects_adjacent_pair(self):
        inst = make_instance(2, [(0, 1)], [[0, 1]] * 2)
        with pytest.raises(ValueError):
            branch_differ(root_state(inst), 0, 1)

    def test_same_merges_and_intersects(self):
        inst = make_instance(3, [(0, 1), (1, 2)], [[0, 1], [0, 1, 2], [1, 2]])
        child = branch_same(root_state(inst), 0, 2)
        ci = child.instance
        assert ci.n == 2
        assert ci.graph.has_edge(0, 1)
        assert ci.lists[0] == frozenset({1})
        assert child.merge_map == {0: 0, 1: 1, 2: 0}

    def test_same_on_isolated_twins(self):
        inst = make_instance(2, [], [[0, 1], [0, 1]])
        child = branch_same(root_state(inst), 0, 1)
        assert child.instance.n == 1
        assert child.instance.lists[0] == frozenset({0, 1})

    def test_same_star_leaves(self):
        inst = make_instance(3, [(0, 1), (0, 2)], [[0, 1]] * 3)
        child = branch_same(root_state(inst), 1, 2)
        assert child.instance.n == 2
        assert child.instance.graph.m == 1

    def test_partition_of_solutions_against_oracle(self):
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(17))
        checked = 0
        for _ in range(250):
            n = int(rng.integers(3, 8))
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            ncolors = int(rng.integers(2, 5))
            lists = [
                sorted(
                    rng.choice(ncolors, size=int(rng.integers(2, ncolors + 1)), replace=False)
                )
                for _ in range(n)
            ]
            inst = make_instance(n, edges, lists)
            pairs = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not inst.graph.has_edge(u, v) and inst.lists[u] & inst.lists[v]
            ]
            if not pairs:
                continue
            u, v = pairs[int(rng.integers(0, len(pairs)))]
            checked += 1
            parent = oracle_solve(inst).optimum
            same = oracle_solve(branch_same(root_state(inst), u, v).instance).optimum
            differ = oracle_solve(branch_differ(root_state(inst), u, v).instance).optimum
            candidates = [x for x in (same, differ) if x is not None]
            if parent is None:
                assert not candidates
            else:
                assert min(candidates) == parent
        assert checked >= 100


def merged_graph_from_edges(graph, u, v):
    """SAME child graph built from the edge list: v's edges move to u, ids above v shift down."""
    rename = {x: x - (x > v) for x in range(graph.n) if x != v}
    edges = set()
    for a, b in graph.edges():
        a, b = rename[u if a == v else a], rename[u if b == v else b]
        edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(graph.n - 1, sorted(edges))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_same_child_matches_edge_list_merge(data):
    n = data.draw(st.integers(min_value=2, max_value=10))
    edges = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if data.draw(st.booleans(), label=f"edge{a},{b}")
    ]
    lists = [
        data.draw(
            st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4, unique=True),
            label=f"list{x}",
        )
        for x in range(n)
    ]
    inst = make_instance(n, edges, lists)
    pairs = [
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b and not inst.graph.has_edge(a, b) and set(lists[a]) & set(lists[b])
    ]
    assume(pairs)
    u, v = data.draw(st.sampled_from(pairs), label="pair")
    child = branch_same(root_state(inst), u, v)
    reference = merged_graph_from_edges(inst.graph, u, v)
    assert child.instance.graph == reference
    merged = [
        set(lists[u]) & set(lists[v]) if x == u else lists[x] for x in range(n) if x != v
    ]
    assert child.instance == build_instance(reference, inst.colors, inst.weights, merged)


def read_off_big_columns(inst, chosen):
    """Root coloring read off an LP point with the (mask, class) columns chosen at one.

    The pool is chosen, in that order.
    """
    state = root_state(inst)
    mp = master_for(inst)
    add_columns(mp, [Column(mask, k) for mask, k in chosen])
    res = LPResult(
        objective=float(sum(inst.weights[k] for _, k in chosen)),
        values=(1.0,) * len(chosen),
        columns=tuple(mp.columns),
        duals=DualSolution((0.0,) * inst.n, {}),
    )
    return lift_node_assignment(extract_integer_solution(mp, res), state, inst)


class TestLeafReadOffLifted:
    """A leaf's read-off (master.extract_integer_solution) lifted to a root coloring."""

    def test_direct_readback(self):
        inst = make_instance(4, [(0, 1), (2, 3)], [[0, 1]] * 4)
        sol = read_off_big_columns(inst, [(0b0101, 0), (0b1010, 0)])
        assert sol.as_dict() == {0: 0, 1: 1, 2: 0, 3: 1}
        assert sol.weight == 2

    def test_overlap_goes_to_first_column(self):
        inst = make_instance(3, [], [[0, 1]] * 3)
        # {a,b} then {b,c}: colors 0 then 1, and b keeps the first
        sol = read_off_big_columns(inst, [(0b011, 0), (0b110, 0)])
        assert sol.as_dict() == {0: 0, 1: 0, 2: 1}

    def test_fully_preprocessed_instance(self):
        inst = make_instance(2, [(0, 1)], [[0], [1]], weights={0: 2, 1: 3})
        state = preprocess_singletons(root_state(inst))
        assert state.instance.n == 0
        sol = lift_node_assignment({}, state, inst)
        assert sol.as_dict() == {0: 0, 1: 1}
        assert sol.weight == 5

    def test_class_capacity_enforced(self):
        # class 0 has one color but two big columns at one
        inst = make_instance(4, [], [[0]] * 4)
        with pytest.raises(NumericalFailure, match="no matching colors the leaf"):
            read_off_big_columns(inst, [(0b0011, 0), (0b1100, 0)])

    def test_uncovered_vertex_is_a_bug(self):
        inst = make_instance(2, [], [[0], [0]])
        with pytest.raises(ReconstructionBug, match="node vertex 1 left uncolored"):
            lift_node_assignment({0: 0}, root_state(inst), inst)

    def test_improper_node_coloring_is_a_bug(self):
        inst = make_instance(2, [(0, 1)], [[0, 1], [0, 1]], weights={0: 5, 1: 3})
        with pytest.raises(ReconstructionBug):
            lift_node_assignment({0: 0, 1: 0}, root_state(inst), inst)

    def test_off_list_node_coloring_is_a_bug(self):
        inst = make_instance(2, [], [[0], [0, 1]])
        with pytest.raises(ReconstructionBug):
            lift_node_assignment({0: 1, 1: 1}, root_state(inst), inst)


class TestValidateColoring:
    def test_weight_counts_distinct_colors_once(self):
        inst = make_instance(3, [(0, 1)], [[0, 1]] * 3, weights={0: 4, 1: 9})
        assert validate_coloring(inst, {0: 0, 1: 1, 2: 0}) == 13
        assert validate_coloring(inst, {0: 0, 1: 1, 2: 1}) == 13

    def test_rejects_monochromatic_edge(self):
        inst = make_instance(2, [(0, 1)], [[0, 1]] * 2)
        with pytest.raises(ColoringError):
            validate_coloring(inst, {0: 0, 1: 0})

    def test_rejects_color_outside_list(self):
        inst = make_instance(2, [], [[0], [0, 1]])
        with pytest.raises(ColoringError):
            validate_coloring(inst, {0: 1, 1: 1})

    def test_messages_name_ids_zero_based_and_one_based(self):
        inst = make_instance(2, [(0, 1)], [[0, 1], [1]])
        with pytest.raises(ColoringError) as err:
            validate_coloring(inst, {0: 1, 1: 1})
        assert str(err.value) == "edge (0,1) is monochromatic"
        assert err.value.one_based() == "edge (1,2) is monochromatic"
        with pytest.raises(ColoringError) as err:
            validate_coloring(inst, {0: 0, 1: 0})
        assert str(err.value) == "color 0 not in the list of vertex 1"
        assert err.value.one_based() == "color 1 not in the list of vertex 2"
        empty = EmptyListError(1)
        assert (str(empty), empty.one_based()) == (
            "vertex 1 has an empty color list",
            "vertex 2 has an empty color list",
        )

    def test_list_coloring_freezes_weight(self):
        inst = make_instance(1, [], [[0]], weights={0: 7})
        sol = list_coloring(inst, {0: 0})
        assert sol.weight == 7
