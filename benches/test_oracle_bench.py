"""Microbench of the brute-force oracle on one dense weighted n=12 instance."""

from listchroma.instgen import GenConfig, generate
from listchroma.oracle import oracle_solve


def test_oracle_solve_dense_n12(benchmark):
    # branching in id order explored 1,950,555 assignments here, the
    # placement order 287,604; the look-ahead bound explores 16,861
    inst = generate(GenConfig(n=12, p=0.75, c=1.5, q=0.75, seed=20321, weight_range=(1, 10)))
    res = benchmark(oracle_solve, inst)
    assert res.optimum == 19
    assert res.assignments_explored == 16_861
