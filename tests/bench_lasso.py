"""Micro-benchmarks of the lasso solver; the tier-1 run does not collect
this file (it is not named ``test_*.py``). Run it explicitly:

    python -m pytest tests/bench_lasso.py --benchmark-only

The design has the shape select-features meets at the paper's scale: a
sparse non-negative spend matrix of 240 shoppers x ~2.7k items,
standardized, so p is about 11 x n. ``fit_lasso`` follows the exact path
from alpha_max down to each alpha, and ``cross_validate_alpha`` runs one
path per fold through an 8-alpha grid down to 0.03 x alpha_max, the
pinned paper grid. The drop experiment refits a 240-item support on 288
training shoppers and scores 72 held-out ones, as select-features does on
the paper's ~360 training rows.
"""

import numpy as np
import pytest

from shoplens.lasso import (LassoModel, cross_validate_alpha, drop_experiment, fit_lasso,
                            max_alpha, standardize)

pytest.importorskip("pytest_benchmark")

N_ROWS, N_ITEMS, DENSITY = 240, 2700, 0.02


def spend_design(rows, seed=0):
    rng = np.random.default_rng(seed)
    spend = rng.exponential(20.0, (rows, N_ITEMS)) * (rng.random((rows, N_ITEMS)) < DENSITY)
    value = np.log1p(spend[:, :30].sum(axis=1)) + 0.3 * rng.standard_normal(rows)
    return standardize(spend, value)


@pytest.fixture(scope="module")
def design():
    return spend_design(N_ROWS)


# 0.03 x alpha_max is the small end of the pinned paper grid: the support
# nears the row count, and the path takes the most steps to get there.
@pytest.mark.parametrize("frac", [0.3, 0.05, 0.03])
def test_fit_lasso(benchmark, design, frac):
    model = benchmark(fit_lasso, design, frac * max_alpha(design))
    assert model.converged


def test_cross_validate_alpha(benchmark, design):
    grid = max_alpha(design) * np.logspace(np.log10(0.03), 0.0, 8)
    _, _, fits = benchmark(cross_validate_alpha, design, grid, 3, 0)
    assert fits and all(f.converged for f in fits)


def test_drop_experiment(benchmark):
    d = spend_design(360, seed=1)
    training, holdout = d.take(np.arange(72, 360)), d.take(np.arange(72))
    beta = np.zeros(len(d.col_ids))
    beta[:240] = np.random.default_rng(2).standard_normal(240)
    model = LassoModel(alpha=0.01, intercept=float(training.y.mean()), beta=beta,
                       col_ids=d.col_ids, n_iter=0, converged=False)
    curve = benchmark(drop_experiment, training, holdout, model)
    assert len(curve.points) == 241
