"""Micro-benchmarks of the lasso solver; the tier-1 run does not collect
this file (it is not named ``test_*.py``). Run it explicitly:

    python -m pytest tests/bench_lasso.py --benchmark-only

The design has the shape select-features meets at the paper's scale: a
sparse non-negative spend matrix of 240 shoppers x ~2.7k items,
standardized, so p is about 11 x n. Sweep caps are pinned so that every
round does the same work.
"""

import numpy as np
import pytest

from shoplens.lasso import fit_lasso, max_alpha, standardize

pytest.importorskip("pytest_benchmark")

N_ROWS, N_ITEMS, DENSITY = 240, 2700, 0.02
MAX_ITER = 100


@pytest.fixture(scope="module")
def design():
    rng = np.random.default_rng(0)
    spend = rng.exponential(20.0, (N_ROWS, N_ITEMS)) * (rng.random((N_ROWS, N_ITEMS)) < DENSITY)
    value = np.log1p(spend[:, :30].sum(axis=1)) + 0.3 * rng.standard_normal(N_ROWS)
    return standardize(spend, value)


@pytest.mark.parametrize("frac", [0.3, 0.05])
def test_fit_lasso_cold(benchmark, design, frac):
    model = benchmark(fit_lasso, design, frac * max_alpha(design), max_iter=MAX_ITER)
    assert model.n_iter <= MAX_ITER


def test_fit_lasso_warm_started(benchmark, design):
    hi = max_alpha(design)
    warm = fit_lasso(design, 0.1 * hi, max_iter=MAX_ITER).beta
    model = benchmark(fit_lasso, design, 0.07 * hi, max_iter=MAX_ITER, warm_start=warm)
    assert model.n_iter <= MAX_ITER
