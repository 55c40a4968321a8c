import itertools

import numpy as np
import pytest

from listchroma.assignment import all_complete, min_cost_matching, solve_assignment
from listchroma.core import NumericalFailure, partition_colors, root_state, validate_coloring
from listchroma.oracle import oracle_solve

from conftest import make_instance, random_all_complete


def brute_force_matching(cost):
    n = len(cost)
    m = len(cost[0]) if cost else 0
    best = None
    for perm in itertools.permutations(range(m), n):
        total = sum(cost[i][perm[i]] for i in range(n))
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


def random_options(rng, n, m):
    """A full n x m cost matrix as min_cost_matching options."""
    return [{s: int(rng.integers(0, 20)) for s in range(m)} for _ in range(n)]


class TestMinCostMatching:
    def test_identity_matrix(self):
        assert min_cost_matching([{0: 0, 1: 9}, {0: 9, 1: 0}], 2) == [0, 1]

    def test_matches_permutation_brute_force(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(80):
            n = int(rng.integers(1, 7))
            options = random_options(rng, n, n)
            match = min_cost_matching(options, n)
            assert sorted(match) == list(range(n))  # a permutation
            cost = [[row[s] for s in range(n)] for row in options]
            assert sum(row[s] for row, s in zip(options, match)) == brute_force_matching(cost)

    def test_rectangular_matches_brute_force(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(80):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(n, 8))
            options = random_options(rng, n, m)
            match = min_cost_matching(options, m)
            assert len(set(match)) == n and all(0 <= s < m for s in match)
            cost = [[row[s] for s in range(m)] for row in options]
            assert sum(row[s] for row, s in zip(options, match)) == brute_force_matching(cost)

    def test_cheapest_slots_taken(self):
        assert min_cost_matching([{0: 5, 2: 1}, {0: 1, 2: 1}], 3) == [2, 0]

    def test_no_rows(self):
        assert min_cost_matching([], 0) == []

    def test_row_without_option_is_unmatched(self):
        assert min_cost_matching([{0: 1}, {}], 2) is None

    def test_more_rows_than_slots_is_unmatched(self):
        assert min_cost_matching([{0: 1}, {0: 1}], 1) is None

    def test_rows_competing_for_one_slot_are_unmatched(self):
        assert min_cost_matching([{0: 1}, {0: 2}, {1: 0, 2: 0}], 3) is None

    def test_costs_beyond_float64_precision_rejected(self):
        # 2**60 and 2**60 + 1 are one float64, so the cheaper slot is not provable
        with pytest.raises(NumericalFailure):
            min_cost_matching([{0: 2**60 + 1, 1: 2**60}], 2)


class TestSolveAssignment:
    def test_two_adjacent_vertices_use_both_colors(self):
        inst = make_instance(2, [(0, 1)], [[0, 1], [0, 1]], weights={0: 5, 1: 3})
        state = root_state(inst)
        out = solve_assignment(state)
        assert out is not None
        weight = validate_coloring(inst, out)
        assert weight == 8

    def test_dummy_absorbs_expensive_color(self):
        inst = make_instance(1, [], [[0, 1]], weights={0: 5, 1: 3})
        out = solve_assignment(root_state(inst))
        assert out == {0: 1}

    def test_more_vertices_than_colors_is_infeasible(self):
        inst = make_instance(
            3, [(0, 1), (1, 2), (0, 2)], [[0, 1]] * 3, weights={0: 1, 1: 2}
        )
        assert solve_assignment(root_state(inst)) is None

    def test_forbidden_matching_is_infeasible(self):
        # two adjacent vertices, both lists stuck on the same single color
        inst = make_instance(2, [(0, 1)], [[0], [0, 1]], weights={0: 1, 1: 9})
        state = root_state(inst)
        out = solve_assignment(state)
        assert out == {0: 0, 1: 1}
        stuck = make_instance(2, [(0, 1)], [[0], [0]], weights={0: 1})
        assert solve_assignment(root_state(stuck)) is None

    def test_matches_oracle_on_random_all_complete_instances(self):
        for seed in range(60):
            inst = random_all_complete(seed)
            part = partition_colors(inst)
            assert all_complete(part, inst.graph)
            got = solve_assignment(root_state(inst))
            expect = oracle_solve(inst)
            if expect.feasible:
                assert got is not None
                assert validate_coloring(inst, got) == expect.optimum
            else:
                assert got is None
