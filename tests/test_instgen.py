import math

import numpy as np
import pytest
from scipy import stats

from listchroma.bnp import OPTIMAL, solve
from listchroma.core import partition_colors
from listchroma.instgen import REJECT, GenConfig, generate


class TestGenerate:
    def test_q_one_gives_gcp_lists(self):
        cfg = GenConfig(n=12, p=0.5, c=1.0, q=1.0, seed=5)
        inst = generate(cfg)
        assert all(l == frozenset(range(12)) for l in inst.lists)
        assert partition_colors(inst).reps == (0,)

    def test_tiny_p_is_edgeless_and_one_color_suffices(self):
        cfg = GenConfig(n=8, p=1e-12, c=1.0, q=1.0, seed=5)
        inst = generate(cfg)
        assert inst.graph.m == 0
        report = solve(inst)
        assert report.status == OPTIMAL and report.weight == 1

    def test_fixed_seed_reproduces_instance(self):
        cfg = GenConfig(n=15, p=0.4, c=1.2, q=0.6, seed=77, weight_range=(1, 9))
        assert generate(cfg) == generate(cfg)

    def test_different_seeds_differ(self):
        a = generate(GenConfig(n=15, p=0.4, c=1.0, q=0.6, seed=1))
        b = generate(GenConfig(n=15, p=0.4, c=1.0, q=0.6, seed=2))
        assert a != b

    def test_color_count_is_floor_of_cn(self):
        cfg = GenConfig(n=10, p=0.5, c=0.55, q=1.0, seed=3)
        assert cfg.ncolors == 5
        inst = generate(cfg)
        assert len(inst.colors) == 5

    @pytest.mark.parametrize("c, ncolors", [(0.29, 29), (0.57, 57), (0.58, 58), (0.5, 50), (1.5, 150)])
    def test_color_count_survives_float_error(self, c, ncolors):
        # 0.29 * 100 evaluates to 28.999999999999996 in binary floating point
        assert GenConfig(n=100, p=0.5, c=c, q=0.5, seed=0).ncolors == ncolors

    def test_instance_invariants_hold(self):
        for seed in range(25):
            cfg = GenConfig(n=10, p=0.3, c=0.8, q=0.3, seed=seed)
            inst = generate(cfg)
            used = {j for l in inst.lists for j in l}
            assert set(inst.colors) == used
            assert all(l for l in inst.lists)
            assert all(w >= 0 for w in inst.weights.values())

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            GenConfig(n=10, p=1.5, c=1.0, q=0.5, seed=0).validate()
        with pytest.raises(ValueError):
            GenConfig(n=10, p=0.5, c=0.05, q=0.5, seed=0).validate()
        with pytest.raises(ValueError):
            GenConfig(n=0, p=0.5, c=1.0, q=0.5, seed=0).validate()
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            GenConfig(n=10, p=0.5, c=1.0, q=0.5, seed=-1).validate()


class TestRejectMode:
    def test_redraws_until_lists_fill(self):
        cfg = GenConfig(n=4, p=0.5, c=1.0, q=0.05, seed=11, empty_lists=REJECT)
        inst = generate(cfg)
        assert all(l for l in inst.lists)
        assert generate(cfg) == inst  # still deterministic

    def test_repair_and_reject_disagree_when_repairs_happen(self):
        repair = GenConfig(n=4, p=0.5, c=1.0, q=0.05, seed=11)
        rej = GenConfig(n=4, p=0.5, c=1.0, q=0.05, seed=11, empty_lists=REJECT)
        assert generate(repair) != generate(rej)


class TestDistribution:
    def test_edge_density_within_three_sigma(self):
        p = 0.3
        pairs_per = 20 * 19 // 2
        total_edges = 0
        samples = 1000
        for seed in range(samples):
            inst = generate(GenConfig(n=20, p=p, c=0.5, q=1.0, seed=seed))
            total_edges += inst.graph.m
        n_draws = samples * pairs_per
        density = total_edges / n_draws
        sigma = math.sqrt(p * (1 - p) / n_draws)
        assert abs(density - p) <= 3 * sigma

    def test_list_sizes_chi_squared(self):
        n, c, q = 50, 0.5, 0.5
        ncolors = int(c * n)
        sizes = []
        for seed in range(40):
            inst = generate(GenConfig(n=n, p=0.5, c=c, q=q, seed=500 + seed))
            sizes.extend(len(l) for l in inst.lists)
        counts = np.bincount(sizes, minlength=ncolors + 1)
        expected = stats.binom.pmf(np.arange(ncolors + 1), ncolors, q) * len(sizes)
        # merge sparse tails so every bin expects at least 5
        lo = int(np.argmax(np.cumsum(expected) >= 5))
        hi = int(len(expected) - np.argmax(np.cumsum(expected[::-1]) >= 5) - 1)
        obs = [counts[: lo + 1].sum(), *counts[lo + 1 : hi], counts[hi:].sum()]
        exp = [expected[: lo + 1].sum(), *expected[lo + 1 : hi], expected[hi:].sum()]
        exp = np.array(exp) * (sum(obs) / sum(exp))
        result = stats.chisquare(obs, exp)
        assert result.pvalue > 1e-3
