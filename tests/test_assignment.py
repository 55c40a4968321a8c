import itertools

import numpy as np
import pytest

from listchroma.assignment import all_complete, min_cost_matching, solve_assignment
from listchroma.core import NumericalFailure, partition_colors, validate_coloring
from listchroma.oracle import oracle_solve

from helpers import make_instance, random_all_complete


def brute_force_matching(rows, colors, weights):
    """Least weight of giving every row its own allowed color; None if impossible."""
    best = None
    for perm in itertools.permutations(colors, len(rows)):
        if all(j in row for j, row in zip(perm, rows)):
            total = sum(weights[j] for j in perm)
            if best is None or total < best:
                best = total
    return best


class TestAllComplete:
    def test_singleton_classes_are_vacuously_complete(self):
        inst = make_instance(3, [], [[0], [1], [2]], weights={0: 1, 1: 2, 2: 3})
        assert all_complete(partition_colors(inst), inst.graph)

    def test_pair_depends_on_adjacency(self):
        adjacent = make_instance(2, [(0, 1)], [[0, 1], [0, 1]], weights={0: 1, 1: 2})
        assert all_complete(partition_colors(adjacent), adjacent.graph)
        apart = make_instance(2, [], [[0, 1], [0, 1]], weights={0: 1, 1: 2})
        assert not all_complete(partition_colors(apart), apart.graph)

    def test_gcp_on_incomplete_graph(self):
        inst = make_instance(3, [(0, 1), (1, 2)], [[0, 1, 2]] * 3)
        assert not all_complete(partition_colors(inst), inst.graph)


def random_rows(rng, n, m):
    """n rows, each a random non-empty subset of the colors 0..m-1, and their weights."""
    rows = []
    for _ in range(n):
        row = [j for j in range(m) if rng.random() < 0.6]
        rows.append(row or [int(rng.integers(0, m))])
    weights = {j: int(rng.integers(0, 20)) for j in range(m)}
    return rows, list(range(m)), weights


def assert_matches_brute_force(rows, colors, weights):
    match = min_cost_matching(rows, colors, weights)
    best = brute_force_matching(rows, colors, weights)
    if best is None:
        assert match is None
        return
    assert len(set(match)) == len(rows)
    assert all(j in row for j, row in zip(match, rows))
    assert sum(weights[j] for j in match) == best


class TestMinCostMatching:
    def test_identity_matrix(self):
        assert min_cost_matching([[0], [1]], [0, 1], {0: 0, 1: 9}) == [0, 1]

    def test_matches_permutation_brute_force(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(80):
            n = int(rng.integers(1, 7))
            assert_matches_brute_force(*random_rows(rng, n, n))

    def test_rectangular_matches_brute_force(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(80):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(n, 8))
            assert_matches_brute_force(*random_rows(rng, n, m))

    def test_cheapest_slots_taken(self):
        weights = {0: 5, 1: 1, 2: 1}
        assert min_cost_matching([[0, 2], [0, 1, 2]], [0, 1, 2], weights) == [2, 1]

    def test_no_rows(self):
        assert min_cost_matching([], [], {}) == []

    def test_row_without_option_is_unmatched(self):
        assert min_cost_matching([[0], []], [0, 1], {0: 1, 1: 1}) is None

    def test_more_rows_than_slots_is_unmatched(self):
        assert min_cost_matching([[0], [0]], [0], {0: 1}) is None

    def test_rows_competing_for_one_slot_are_unmatched(self):
        weights = {0: 1, 1: 0, 2: 0}
        assert min_cost_matching([[0], [0], [1, 2]], [0, 1, 2], weights) is None

    def test_costs_beyond_float64_precision_rejected(self):
        # 2**60 and 2**60 + 1 are one float64, so the cheaper color is not provable
        with pytest.raises(NumericalFailure):
            min_cost_matching([[0, 1]], [0, 1], {0: 2**60 + 1, 1: 2**60})

    def test_heavy_color_no_row_may_take_is_harmless(self):
        # the float64 guard counts only the colors each row may take
        assert min_cost_matching([[0]], [0, 1], {0: 1, 1: 2**60}) == [0]


def coloring_of(inst):
    """solve_assignment's coloring of inst without big columns, checked against its weight."""
    read = solve_assignment(inst, partition_colors(inst))
    if read is None:
        return None
    coloring, weight = read
    assert validate_coloring(inst, coloring) == weight
    return coloring


class TestSolveAssignment:
    def test_two_adjacent_vertices_use_both_colors(self):
        inst = make_instance(2, [(0, 1)], [[0, 1], [0, 1]], weights={0: 5, 1: 3})
        out = coloring_of(inst)
        assert out is not None
        weight = validate_coloring(inst, out)
        assert weight == 8

    def test_dummy_absorbs_expensive_color(self):
        inst = make_instance(1, [], [[0, 1]], weights={0: 5, 1: 3})
        out = coloring_of(inst)
        assert out == {0: 1}

    def test_more_vertices_than_colors_is_infeasible(self):
        inst = make_instance(
            3, [(0, 1), (1, 2), (0, 2)], [[0, 1]] * 3, weights={0: 1, 1: 2}
        )
        assert coloring_of(inst) is None

    def test_forbidden_matching_is_infeasible(self):
        # two adjacent vertices, both lists stuck on the same single color
        inst = make_instance(2, [(0, 1)], [[0], [0, 1]], weights={0: 1, 1: 9})
        out = coloring_of(inst)
        assert out == {0: 0, 1: 1}
        stuck = make_instance(2, [(0, 1)], [[0], [0]], weights={0: 1})
        assert coloring_of(stuck) is None

    def test_matches_oracle_on_random_all_complete_instances(self):
        for seed in range(60):
            inst = random_all_complete(seed)
            part = partition_colors(inst)
            assert all_complete(part, inst.graph)
            got = coloring_of(inst)
            expect = oracle_solve(inst)
            if expect.feasible:
                assert got is not None
                assert validate_coloring(inst, got) == expect.optimum
            else:
                assert got is None
