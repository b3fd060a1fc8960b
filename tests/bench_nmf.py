"""Micro-benchmark of the NMF imputation grid search; the tier-1 run does not
collect this file (it is not named ``test_*.py``). Run it explicitly:

    python -m pytest tests/bench_nmf.py --benchmark-only

P' has the paper's selected shape, 447 frequent shoppers x 75 items, with
about 45% of the entries stored. The grid is the paper's alpha_m x l1_ratio
grid with k = 2..5, the ranks of perfbench's ``grid`` workload, where the
per-row Gram products of the masked sweep cost the most. The sweep cap is
pinned so that every round does the same work.
"""

import numpy as np
import pytest

from shoplens.nmf import grid_search

pytest.importorskip("pytest_benchmark")

N_ROWS, N_ITEMS, DENSITY = 447, 75, 0.45
KS = [2, 3, 4, 5]
ALPHAS = [0.0, 0.1, 0.5, 1.0, 2.0]
L1_RATIOS = [0.0, 0.1, 0.5, 0.9, 1.0]


@pytest.fixture(scope="module")
def p_prime():
    """Dense, as the pipeline hands P' to the grid search."""
    rng = np.random.default_rng(0)
    return rng.exponential(20.0, (N_ROWS, N_ITEMS)) * (rng.random((N_ROWS, N_ITEMS)) < DENSITY)


def test_grid_search(benchmark, p_prime):
    result = benchmark.pedantic(grid_search, args=(p_prime, KS, ALPHAS, L1_RATIOS),
                                kwargs={"seed": 42, "max_iter": 20},
                                rounds=3, iterations=1)
    assert len(result.table) == len(KS) * len(ALPHAS) * len(L1_RATIOS)
    assert not result.failures
