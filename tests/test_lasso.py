import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from shoplens import lasso as lasso_mod
from shoplens.lasso import (DesignMatrix, DropExperimentCurve, LassoModel,
                            cross_validate_alpha,
                            default_alpha_grid, drop_experiment, duality_gap,
                            fit_lasso, kkt_violations, max_alpha, normal_cdf,
                            ols_refit,
                            residual_diagnostics, select_features, standardize)

from conftest import purchase_matrix
from oracles import (lasso_objective, ols_holdout_mse, projected_gradient_lasso,
                     reference_drop_experiment, reference_fit_lasso)


def random_design(seed, n=30, p=10, y_centered=True):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    x = (x - x.mean(0)) / x.std(0)
    y = rng.standard_normal(n)
    if y_centered:
        y = y - y.mean()
    return standardize(x + 0, y)  # re-standardize keeps exact population scaling


def planted_design(seed, n=60, p=13, support=(0, 1, 2), coefs=(3.0, -2.0, 1.5),
                   noise=0.05):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    x = (x - x.mean(0)) / x.std(0)
    beta = np.zeros(p)
    for j, c in zip(support, coefs):
        beta[j] = c
    y = x @ beta + noise * rng.standard_normal(n)
    return standardize(x, y), beta


class TestStandardize:
    def test_constant_column_removed(self):
        m = purchase_matrix(["a", "b", "c"], ["x", "y"],
                            {(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0,
                             (0, 1): 1.0, (1, 1): 2.0, (2, 1): 4.0})
        d = standardize(m, {"a": 0.1, "b": 0.2, "c": 0.3})
        assert d.dropped_cols == ["x"]
        assert d.col_ids == ["y"]

    def test_two_row_column_hits_plus_minus_one(self):
        m = purchase_matrix(["a", "b"], ["y"], {(1, 0): 2.0})  # column [0, 2]
        d = standardize(m, {"a": 0.0, "b": 1.0})
        assert d.x[:, 0].tolist() == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_idempotent_on_standardized_columns(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 4))
        x = (x - x.mean(0)) / x.std(0)
        d = standardize(x, rng.standard_normal(20))
        assert np.abs(d.x - x).max() < 1e-9

    def test_column_moments(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 10, size=(15, 6))
        d = standardize(x, rng.standard_normal(15))
        assert np.abs(d.x.mean(0)).max() < 1e-9
        assert np.abs(d.x.std(0) - 1).max() < 1e-9

    def test_needs_two_rows(self):
        m = purchase_matrix(["a"], ["x"], {(0, 0): 1.0})
        with pytest.raises(ValueError, match="at least 2 rows"):
            standardize(m, {"a": 1.0})

    def test_missing_response(self):
        m = purchase_matrix(["a", "b"], ["x"], {(0, 0): 1.0, (1, 0): 2.0})
        with pytest.raises(ValueError, match="without a response"):
            standardize(m, {"a": 1.0})


class TestFitLasso:
    def test_full_shrinkage_at_alpha_max(self):
        d = random_design(0)
        hi = max_alpha(d)
        model = fit_lasso(d, hi * 1.000001)
        assert np.all(model.beta == 0)
        assert model.intercept == pytest.approx(d.y.mean())

    def test_orthonormal_soft_threshold_closed_form(self):
        rng = np.random.default_rng(1)
        n, p = 24, 6
        q, _ = np.linalg.qr(rng.standard_normal((n, p)))
        x = np.sqrt(n) * q            # columns: x_j' x_j = n, cross terms 0
        y = rng.standard_normal(n)
        y -= y.mean()
        # feed the design directly: re-standardizing would break orthogonality
        from shoplens.lasso import DesignMatrix
        d = DesignMatrix(x=np.asfortranarray(x), y=y,
                         row_ids=[f"r{i}" for i in range(n)],
                         col_ids=[f"c{j}" for j in range(p)],
                         column_means=np.zeros(p), column_scales=np.ones(p),
                         dropped_cols=[])
        alpha = 0.15
        model = fit_lasso(d, alpha, tol=1e-12)
        rho = x.T @ y / n
        expected = np.sign(rho) * np.maximum(np.abs(rho) - alpha, 0.0)
        assert np.abs(model.beta - expected).max() < 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_projected_gradient_oracle_6x4(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 4))
        y = rng.standard_normal(6)
        d = standardize(x, y)
        alpha = 0.1 * max_alpha(d) + 0.01
        model = fit_lasso(d, alpha, tol=1e-13, max_iter=100000)
        _, ref = projected_gradient_lasso(d.x, d.y, alpha, tol=1e-10)
        assert np.abs(model.beta - ref).max() < 1e-5

    @pytest.mark.parametrize("seed", range(6))
    def test_kkt_conditions_hold(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, p = int(rng.integers(10, 51)), int(rng.integers(4, 81))
        x = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        d = standardize(x, y)
        alpha = float(rng.uniform(0.05, 0.5)) * max_alpha(d)
        model = fit_lasso(d, alpha)
        viol_nz, viol_z = kkt_violations(d, model)
        assert viol_nz < 1e-4
        assert viol_z < 1e-4

    def test_monotone_sparsity_along_alpha_path(self):
        d = random_design(11, n=40, p=20)
        alphas = max_alpha(d) * np.logspace(-3, 0, 10)
        nnz = [int(np.count_nonzero(fit_lasso(d, a).beta)) for a in alphas]
        assert all(b <= a for a, b in zip(nnz, nnz[1:]))

    def test_objective_value_matches_helper(self):
        d = random_design(13)
        alpha = 0.1 * max_alpha(d)
        model = fit_lasso(d, alpha)
        ref = reference_fit_lasso(d, alpha, tol=1e-13, max_iter=100_000)
        assert lasso_objective(d.x, d.y, model.intercept, model.beta, alpha) == pytest.approx(
            lasso_objective(d.x, d.y, ref.intercept, ref.beta, alpha), rel=1e-12)

    def test_nonfinite_design_rejected(self):
        d = random_design(2)
        d.x[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit_lasso(d, 0.1)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            fit_lasso(random_design(2), 0.0)
        with pytest.raises(ValueError, match="finite, got nan"):
            fit_lasso(random_design(2), float("nan"))


def raw_design(x, y):
    """Design taken as given: no standardization, so zero or repeated
    columns survive."""
    n, p = x.shape
    return DesignMatrix(x=np.asfortranarray(x, dtype=float), y=np.asarray(y, float),
                        row_ids=[f"r{i}" for i in range(n)],
                        col_ids=[f"c{j}" for j in range(p)],
                        column_means=np.zeros(p), column_scales=np.ones(p),
                        dropped_cols=[])


def objective_of(design, model):
    return lasso_objective(design.x, design.y, model.intercept, model.beta, model.alpha)


def assert_certified(design, alpha, rows=None, **solver):
    """fit_lasso on the design of ``rows``, checked against the plain
    cyclic solver. A converged fit ends no higher than that solver run to
    a 1e-12 coefficient change, and is certified optimal: a duality gap of
    at most 1e-10 of its objective and KKT violations of at most 1e-9
    alpha. A fit that stopped below ``max_iter`` steps without reaching
    alpha saturated: it holds fewer columns than rows and is certified in
    the same way at the alpha where the path ended, above ``alpha``."""
    taken = design if rows is None else design.take(rows)
    got = fit_lasso(taken, alpha, **solver)
    max_iter = solver.get("max_iter", 10000)
    assert got.n_iter <= max_iter
    if got.converged:
        ref = reference_fit_lasso(design, alpha, tol=1e-12, max_iter=100_000, rows=rows)
        final = objective_of(taken, got)
        assert final <= objective_of(taken, ref) * (1 + 1e-12)
        end = got
    elif got.n_iter < max_iter:
        support = got.support()
        assert len(support) < len(taken.y)
        grad = taken.x[:, support].T @ (taken.y - got.intercept - taken.x @ got.beta)
        end = replace(got, alpha=float(np.abs(grad).max()) / len(taken.y))
        assert end.alpha > alpha
    else:
        return got
    assert duality_gap(taken, end) <= 1e-10 * objective_of(taken, end)
    assert max(kkt_violations(taken, end)) <= 1e-9 * end.alpha
    return got


class TestTake:
    def test_take_is_the_fancy_index_of_the_rows(self):
        d = random_design(62, n=20, p=7)
        rows = np.array([5, 0, 12, 3])
        taken = d.take(rows)
        # The layout standardize gives and fit_lasso solves on.
        assert taken.x.flags.f_contiguous and not taken.x.flags.c_contiguous
        assert taken.x.tobytes() == d.x[rows].tobytes()
        assert taken.y.tobytes() == d.y[rows].tobytes()
        assert taken.row_ids == ["r5", "r0", "r12", "r3"]
        assert (taken.col_ids, taken.dropped_cols) == (d.col_ids, d.dropped_cols)
        assert taken.take([1, 2]).row_ids == ["r0", "r12"]


class TestReferenceEquality:
    """The exact path against the plain cyclic solver: every converged fit
    ends no higher and is certified optimal, and a saturated one is
    certified where its path ended."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("frac", [0.5, 0.1, 0.02])
    def test_p_greater_than_n(self, seed, frac):
        d = random_design(seed, n=25, p=150)
        model = assert_certified(d, frac * max_alpha(d), max_iter=400)
        assert model.converged or frac == 0.02  # 0.02 lies below saturation

    @pytest.mark.parametrize("block", [1, 5, 64, 10_000])
    def test_block_size_changes_nothing(self, monkeypatch, block):
        """The width of the X'v tiles changes a fit only by rounding."""
        d = random_design(3, n=30, p=90)
        alphas = [frac * max_alpha(d) for frac in (0.3, 0.05)]
        want = [fit_lasso(d, a, max_iter=300) for a in alphas]
        monkeypatch.setattr(lasso_mod, "_TILE", block)
        for a, ref in zip(alphas, want):
            got = assert_certified(d, a, max_iter=300)
            assert (got.n_iter, got.converged) == (ref.n_iter, ref.converged)
            assert np.array_equal(got.beta != 0, ref.beta != 0)
            assert np.abs(got.beta - ref.beta).max() <= 1e-12 * np.abs(ref.beta).max()

    def test_row_subset_that_zeroes_a_column(self):
        rng = np.random.default_rng(5)
        n, p = 40, 70
        x = rng.standard_normal((n, p))
        rows = np.arange(0, n, 2)
        x[rows, 3] = 0.0    # zero on the subset, nonzero elsewhere
        x[rows, 65] = 0.0
        y = x[:, :6] @ rng.standard_normal(6) + rng.standard_normal(n)
        d = raw_design(x, y)
        alpha = 0.05 * max_alpha(d.take(rows))
        model = assert_certified(d, alpha, rows=rows)
        assert model.converged
        assert model.beta[3] == model.beta[65] == 0.0

    def test_duplicate_columns(self):
        rng = np.random.default_rng(8)
        n, p = 30, 80
        x = rng.standard_normal((n, p))
        x[:, 10] = x[:, 2]
        x[:, 11] = x[:, 2]
        x[:, 79] = x[:, 2]
        x[:, 40] = -x[:, 20]
        y = 2.0 * x[:, 2] - x[:, 20] + 0.1 * rng.standard_normal(n)
        d = raw_design(x, y)
        for frac in (0.5, 0.1, 0.01):
            model = assert_certified(d, frac * max_alpha(d), max_iter=300)
            # Of each group of copies, the lowest index carries the weight.
            assert model.beta[2] > 0 and model.beta[20] < 0
            assert not model.beta[[10, 11, 79, 40]].any()

    def test_warm_started_path(self):
        """Fits down a descending alpha sequence match the plain solver
        warm-started down the same sequence."""
        d = random_design(9, n=30, p=120)
        warm = None
        for a in max_alpha(d) * np.logspace(0, -1.5, 8):
            model = assert_certified(d, a)
            ref = reference_fit_lasso(d, a, tol=1e-12, max_iter=100_000, warm_start=warm)
            warm = ref.beta
            assert model.converged
            assert objective_of(d, model) <= objective_of(d, ref) * (1 + 1e-12)

    def test_arbitrary_warm_starts(self):
        """The plain solver, started anywhere, ends at the path's optimum."""
        rng = np.random.default_rng(10)
        d = random_design(10, n=20, p=60)
        alpha = 0.2 * max_alpha(d)
        model = assert_certified(d, alpha)
        warm = rng.standard_normal(60) * (rng.random(60) < 0.3)
        warm[rng.random(60) < 0.2] = -0.0
        for start in (warm, np.full(60, -0.0)):
            ref = reference_fit_lasso(d, alpha, tol=1e-12, max_iter=100_000, warm_start=start)
            assert objective_of(d, ref) == pytest.approx(objective_of(d, model), rel=1e-10)

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 4, 7, 25])
    def test_max_iter_cap_mid_path(self, max_iter):
        d = random_design(12, n=30, p=100)
        model = assert_certified(d, 0.01 * max_alpha(d), max_iter=max_iter)
        assert model.n_iter == max_iter and not model.converged
        assert duality_gap(d, model) > 0.0   # the fit stopped above alpha

    def test_rho_exactly_at_alpha(self):
        rng = np.random.default_rng(13)
        n, p = 32, 8
        q, _ = np.linalg.qr(rng.standard_normal((n, p)))
        x = np.asfortranarray(np.sqrt(n) * q)  # orthonormal: rho_j = x_j'y/n
        y = rng.standard_normal(n)
        d = raw_design(x, y)
        r0 = y - float(y.mean()) - x @ np.zeros(p)
        rho = np.array([x[:, j] @ r0 / n for j in range(p)])
        j = int(np.argsort(np.abs(rho))[p // 2])
        alpha = float(abs(rho[j]))   # column j's knot is alpha itself
        model = assert_certified(d, alpha, tol=1e-12)
        assert model.beta[j] == 0.0
        assert np.count_nonzero(model.beta) > 0

    def test_randomized_designs(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(3, 30))
            p = int(rng.integers(1, 140))
            x = rng.standard_normal((n, p)) * rng.choice([1e-3, 1.0, 1e3], p)
            x[:, rng.random(p) < 0.1] = 0.0
            y = rng.standard_normal(n) * float(rng.choice([1e-2, 1.0, 1e2]))
            d = raw_design(x, y)
            rows = None
            if n > 6 and rng.random() < 0.5:
                rows = np.sort(rng.choice(n, size=n // 2 + 1, replace=False))
            hi = max_alpha(d if rows is None else d.take(rows))
            if hi == 0.0:
                continue
            assert_certified(d, float(rng.uniform(0.001, 1.2)) * hi,
                             max_iter=int(rng.integers(1, 200)), rows=rows)


def correlated_design(seed, n=40, p=30):
    """Neighbouring columns correlate, so coefficients change sign along
    the path."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    x[:, 1:] += 0.9 * x[:, :-1]
    return standardize(x, x[:, :6] @ rng.standard_normal(6) + rng.standard_normal(n))


class TestNewtonStep:
    """Each path step moves the support along the solution of its
    sign-fixed quadratic, the feature-sign Newton system
    (X_S'X_S/n).d = s, and stops at the first knot."""

    def test_first_sign_change_stops_at_zero(self):
        """A coefficient whose sign would change leaves the model at exactly
        zero: along a fine grid, every reached fit is certified, and between
        fits of opposite sign the coefficient is exactly zero."""
        for seed in range(200, 250):
            d = correlated_design(seed)
            grid = max_alpha(d) * np.logspace(0, -2, 400)
            stops, _, _ = lasso_mod._path(d.x, d.y, grid, 10_000)
            signs = np.array([np.sign(beta) for beta, _, _ in stops])
            flips = [j for j in range(signs.shape[1])
                     if (signs[:, j] > 0).any() and (signs[:, j] < 0).any()]
            if flips:
                break
        else:
            pytest.fail("no coefficient changed sign on 50 seeded paths")
        assert len(stops) == len(grid)
        for j in flips:
            at = np.flatnonzero(signs[:, j])
            for t, u in zip(at, at[1:]):
                if signs[t, j] != signs[u, j]:
                    assert u > t + 1   # an exact zero between opposite signs
        for (beta, _, gap), alpha in zip(stops, grid):
            fit = LassoModel(alpha=alpha, intercept=float(d.y.mean()), beta=beta,
                             col_ids=d.col_ids, n_iter=0, converged=True)
            assert gap <= 1e-12 * objective_of(d, fit)
            assert max(kkt_violations(d, fit)) <= 1e-9 * alpha

    def test_sign_crossing(self):
        """A fit past a drop is certified; steps are adds plus drops, so a
        drop shows as n_iter - |support| = 2 x drops > 0."""
        for seed in range(50):
            d = correlated_design(200 + seed)
            model = assert_certified(d, 0.05 * max_alpha(d))
            if model.n_iter > len(model.support()):
                break
        else:
            pytest.fail("no path dropped a column on 50 seeded designs")
        assert model.converged
        assert (model.n_iter - len(model.support())) % 2 == 0

    def test_repeated_columns_are_held(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 12))
        x[:, 5] = x[:, 2]
        x[:, 9] = x[:, 2]
        d = raw_design(x, x[:, 2] - 0.5 * x[:, 7] + 0.1 * rng.standard_normal(30))
        model = assert_certified(d, 0.05 * max_alpha(d))
        assert model.converged
        # The copies lie in the span of the first: they never enter.
        assert model.beta[2] != 0.0 and model.beta[5] == model.beta[9] == 0.0

    def test_support_of_at_least_n_columns_gets_no_step(self):
        """The path saturates once the response lies in the span of its
        columns, below n of them on a centered design, and ends there."""
        d = random_design(9, n=12, p=40)
        model = assert_certified(d, 1e-4 * max_alpha(d))
        assert not model.converged and model.n_iter < 10000
        assert len(model.support()) < 12


class TestInverseUpdates:
    """``_border`` and ``_remove`` keep the inverse Gram matrix of a set of
    columns that grows and shrinks, for the path and the drop experiment."""

    def test_border_and_remove_track_the_inverse(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((150, 130))
        gram = a.T @ a
        inv = np.empty((130, 130))
        kept: list[int] = []
        for j in range(130):
            assert lasso_mod._border(inv, len(kept), gram[j, kept], gram[j, j])
            kept.append(j)
            if j >= 40 and j % 3 == 0:  # and remove a random kept column
                i = int(rng.integers(len(kept)))
                lasso_mod._remove(inv, len(kept), i)
                kept.pop(i)
            k = len(kept)
            want = np.linalg.inv(gram[np.ix_(kept, kept)])
            assert np.abs(inv[:k, :k] - want).max() <= 1e-10 * np.abs(want).max()
        assert len(kept) == 100

    def test_border_refuses_dependent_columns(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((100, 80))
        a[:, 70] = a[:, 3] - 2.0 * a[:, 40]   # depends on two earlier columns
        a[:, 75] = a[:, 70]
        gram = a.T @ a
        inv = np.empty((80, 80))
        kept: list[int] = []
        refused: list[int] = []
        for j in range(80):
            k = len(kept)
            before = inv[:k, :k].copy()
            if lasso_mod._border(inv, k, gram[j, kept], gram[j, j]):
                kept.append(j)
            else:
                refused.append(j)
                assert inv[:k, :k].tobytes() == before.tobytes()
        assert refused == [70, 75]
        want = np.linalg.inv(gram[np.ix_(kept, kept)])
        assert np.abs(inv[:78, :78] - want).max() <= 1e-10 * np.abs(want).max()


THREAD_CHECK = """
import hashlib
import numpy as np
from shoplens.lasso import (cross_validate_alpha, drop_experiment, duality_gap, fit_lasso,
                            max_alpha, standardize)
rng = np.random.default_rng(0)
x = rng.standard_normal((240, 600))
d = standardize(x, x[:, :40] @ rng.standard_normal(40) + 3.0 * rng.standard_normal(240))
train, hold = d.take(np.arange(48, 240)), d.take(np.arange(48))
hi = max_alpha(train)
best, curve, fits = cross_validate_alpha(train, hi * np.logspace(-1.7, 0, 8), 3, 0)
model = fit_lasso(train, 0.03 * hi)
curve_d = drop_experiment(train, hold, model)
assert model.converged and len(model.support()) > 128
digest = hashlib.sha256(np.array(curve).tobytes() + np.array([tuple(f) for f in fits]).tobytes()
                        + model.beta.tobytes() + np.array(curve_d.points).tobytes()
                        + np.float64(duality_gap(train, model)).tobytes())
print(best, digest.hexdigest(), curve_d.dropped)
# A response that follows column 1360 of 2,723 puts the largest |x'y| where
# one product over all columns splits between two threads.
alphas = []
for seed in range(10):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((360, 2723))
    d = standardize(x, 5.0 * x[:, 1360] + rng.standard_normal(360))
    alphas.append(max_alpha(d.take(np.arange(72, 360))))
print(np.array(alphas).tobytes().hex())
"""


def test_same_bits_at_one_and_two_blas_threads():
    """OpenBLAS splits large products between threads in a way that can
    change their bits; the CV curve and fits, the final fit and its
    certificate, the drop experiment and alpha_max must not depend on it."""
    src = str(Path(lasso_mod.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", THREAD_CHECK], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


class TestDualityGap:
    @pytest.mark.parametrize("seed", range(4))
    def test_vanishes_at_tight_tolerance(self, seed):
        d = random_design(seed, n=30, p=12 + 30 * seed)
        model = fit_lasso(d, 0.1 * max_alpha(d), tol=1e-12, max_iter=100_000)
        assert model.converged
        assert abs(duality_gap(d, model)) < 1e-10 * objective_of(d, model)

    def test_zero_model_above_alpha_max_is_exactly_optimal(self):
        d = random_design(21)
        model = fit_lasso(d, 1.01 * max_alpha(d))
        assert duality_gap(d, model) == 0.0

    def test_positive_after_one_sweep(self):
        d = random_design(22, n=30, p=60)
        model = fit_lasso(d, 0.01 * max_alpha(d), max_iter=1)
        assert not model.converged
        assert duality_gap(d, model) > 1e-3

    def test_never_negative_beyond_rounding(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            d = random_design(int(rng.integers(1000)), n=int(rng.integers(5, 40)),
                              p=int(rng.integers(2, 60)))
            model = fit_lasso(d, float(rng.uniform(0.01, 1.0)) * max_alpha(d),
                              max_iter=int(rng.integers(1, 50)))
            assert duality_gap(d, model) >= -1e-12

    def test_rows_restrict_the_problem(self):
        d = random_design(24, n=30, p=20)
        rows = np.arange(0, 30, 3)
        taken = d.take(rows)
        model = fit_lasso(taken, 0.2 * max_alpha(taken), max_iter=2)
        sub = raw_design(d.x[rows], d.y[rows])
        assert duality_gap(taken, model) == duality_gap(sub, model)


class TestCrossValidation:
    def test_singleton_grid_returned(self):
        d = random_design(20)
        best, curve, _ = cross_validate_alpha(d, [0.3], k=3, seed=0)
        assert best == 0.3
        assert len(curve) == 1

    def test_pure_noise_prefers_largest_alpha(self):
        d = random_design(21, n=40, p=30)
        grid = max_alpha(d) * np.logspace(-3, 0.5, 12)
        best, _, _ = cross_validate_alpha(d, grid, k=5, seed=1)
        assert best >= np.sort(grid)[-3]  # at or near the top of the grid

    def test_planted_support_recovered(self):
        d, beta = planted_design(22)
        grid = max_alpha(d) * np.logspace(-3, 0, 30)
        best, _, _ = cross_validate_alpha(d, grid, k=5, seed=2)
        model = fit_lasso(d, best)
        support = set(np.flatnonzero(model.beta))
        assert support >= set(np.flatnonzero(beta))

    def test_deterministic_in_seed(self):
        d = random_design(23)
        grid = max_alpha(d) * np.logspace(-2, 0, 8)
        a1, c1, _ = cross_validate_alpha(d, grid, k=4, seed=9)
        a2, c2, _ = cross_validate_alpha(d, grid, k=4, seed=9)
        assert a1 == a2 and c1 == c2

    def test_fit_stats_match_reference_recount(self):
        """Each CV fit is the fold's fit_lasso at that alpha: the same path
        steps and certificate. A path capped at 14 steps reaches only the
        upper alphas; the rest have no fit and a NaN mean MSE."""
        d = random_design(27, n=40, p=15)
        grid = max_alpha(d) * np.logspace(-3, 0, 6)
        best, curve, stats = cross_validate_alpha(d, grid, k=4, seed=5, max_iter=14)
        again = cross_validate_alpha(d, grid, k=4, seed=5, max_iter=14)
        assert (best, stats) == (again[0], again[2])
        assert np.array_equal(np.array(curve), np.array(again[1]), equal_nan=True)
        pool = np.arange(len(d.y))
        want, reached = [], set()
        for fold, test_idx in enumerate(
                np.array_split(np.random.default_rng(5).permutation(pool), 4)):
            train = d.take(np.setdiff1d(pool, test_idx))
            for alpha in sorted(grid, reverse=True):
                model = fit_lasso(train, alpha, max_iter=14)
                if model.converged:
                    want.append((fold, alpha, model.n_iter, True))
                    reached.add((fold, alpha))
        assert [(f.fold, f.alpha, f.n_iter, f.converged) for f in stats] == want
        assert all(f.duality_gap <= 1e-12 for f in stats)
        assert 0 < len(stats) < 4 * len(grid)
        for alpha, mse in curve:
            assert np.isnan(mse) == (sum((f, alpha) in reached for f in range(4)) < 4)
        assert best == max(a for a, m in curve if m == np.nanmin([m for _, m in curve]))

    def test_identical_columns_in_a_fold(self):
        """Columns identical on a fold's training rows but not on its test
        rows: the lowest index carries the weight. Cyclic descent may split
        it among the copies (any split has the same objective), so the
        reference is compared on the copies' summed weight."""
        rng = np.random.default_rng(28)
        x = rng.standard_normal((40, 12))
        test_idx = np.array_split(np.random.default_rng(3).permutation(40), 4)[0]
        train = np.setdiff1d(np.arange(40), test_idx)
        x[train, 7] = x[train, 3]
        x[train, 9] = x[train, 3]
        d = raw_design(x, x[:, 3] - x[:, 5] + 0.3 * rng.standard_normal(40))
        assert not np.array_equal(x[test_idx, 3], x[test_idx, 7])
        grid = max_alpha(d) * np.logspace(-1.5, 0, 5)
        _, _, fits = cross_validate_alpha(d, grid, k=4, seed=3)
        assert len(fits) == 4 * len(grid) and all(f.converged for f in fits)
        stops, _, _ = lasso_mod._path(d.take(train).x, d.y[train], grid[::-1], 10_000)
        for (beta, _, _), alpha in zip(stops, grid[::-1]):
            ref = reference_fit_lasso(d, alpha, tol=1e-12, max_iter=100_000, rows=train)
            assert beta[7] == beta[9] == 0.0
            if alpha < grid[-1]:
                assert beta[3] != 0.0
            merged = ref.beta.copy()
            merged[3] += merged[7] + merged[9]
            merged[[7, 9]] = 0.0
            big = 1e-9 * np.abs(merged).max(initial=0.0)
            assert np.array_equal(beta != 0, np.abs(merged) > big)
            assert np.abs(beta - merged).max() <= 1e-8

    def test_saturated_fold_alphas_are_unreached(self):
        """Below a fold's saturation the path ends: those alphas get a NaN
        mean MSE, no fit, and are never chosen."""
        d = random_design(29, n=24, p=60)
        grid = max_alpha(d) * np.logspace(-4, 0, 12)
        best, curve, fits = cross_validate_alpha(d, grid, k=3, seed=1)
        mse = np.array([m for _, m in curve])
        assert np.isnan(mse[0]) and not np.isnan(mse[-1])
        assert len(fits) < 3 * len(grid)
        assert best in [a for a, m in curve if not np.isnan(m)]
        assert all(f.converged and f.duality_gap <= 1e-12 for f in fits)

    @pytest.mark.parametrize("bad", [0.0, -0.1, float("nan"), float("inf")])
    def test_grid_alpha_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match=f"positive and finite, got {bad}"):
            cross_validate_alpha(random_design(26), [0.1, bad], k=2, seed=0)

    def test_small_fold_rejected(self):
        d = random_design(24, n=5)
        with pytest.raises(ValueError, match="fold"):
            cross_validate_alpha(d, [0.1], k=4, seed=0)

    def test_needs_two_folds(self):
        with pytest.raises(ValueError, match="folds"):
            cross_validate_alpha(random_design(25), [0.1], k=1, seed=0)

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            cross_validate_alpha(random_design(26), [], k=2, seed=0)


def split(design, holdout):
    """The (training, holdout) designs of ``design`` for sorted holdout rows."""
    train = np.setdiff1d(np.arange(len(design.y)), holdout)
    return design.take(train), design.take(holdout)


def assert_same_drops(training, holdout, model, rtol=1e-12):
    """drop_experiment gives the lstsq reference's drop order and fallback
    steps, and its holdout MSEs within ``rtol`` relative."""
    got = drop_experiment(training, holdout, model)
    want = reference_drop_experiment(training, holdout, model)
    assert (got.support, got.dropped, got.betas) == (want.support, want.dropped, want.betas)
    assert got.ridge_fallback_steps == want.ridge_fallback_steps
    assert [n for n, _ in got.points] == [n for n, _ in want.points]
    for (_, m), (_, ref) in zip(got.points, want.points):
        assert abs(m - ref) <= rtol * ref
    return got


class TestDropExperiment:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_on_planted_designs(self, seed):
        d, _ = planted_design(50 + seed, n=80, p=40, noise=1.0)
        model = fit_lasso(d, 0.01 * max_alpha(d))
        assert len(model.support()) > 20
        curve = assert_same_drops(*split(d, np.arange(0, 80, 4)), model)
        assert not curve.ridge_fallback_steps

    def test_matches_reference_with_repeated_columns(self):
        rng = np.random.default_rng(36)
        x = rng.standard_normal((40, 10))
        x[:, 6] = x[:, 1]
        x[:, 8] = -2.0 * x[:, 3]
        d = raw_design(x, x[:, :4] @ np.array([1.0, -2.0, 0.5, 1.5])
                       + 0.1 * rng.standard_normal(40))
        beta = np.zeros(10)
        beta[[0, 1, 2, 3, 6, 8]] = [0.9, -0.8, 0.7, 0.6, -0.5, 0.4]
        model = LassoModel(alpha=0.01, intercept=float(d.y.mean()), beta=beta,
                           col_ids=d.col_ids, n_iter=0, converged=False)
        curve = assert_same_drops(*split(d, np.arange(0, 40, 5)), model)
        assert curve.ridge_fallback_steps   # until a copy is dropped

    def test_matches_reference_with_more_columns_than_rows(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((200, 220))
        d = standardize(x, x[:, :20] @ rng.standard_normal(20) + rng.standard_normal(200))
        beta = np.zeros(220)
        beta[:200] = rng.standard_normal(200)   # 200 features on 160 training rows
        model = LassoModel(alpha=0.01, intercept=0.0, beta=beta, col_ids=d.col_ids,
                           n_iter=0, converged=False)
        curve = assert_same_drops(*split(d, np.arange(0, 200, 5)), model, rtol=1e-9)
        assert curve.ridge_fallback_steps == list(range(41))

    def test_matches_reference_at_default_config_scale(self):
        """A support of more than two 64-column tiles on 256 training rows of
        a sparse non-negative spend design, as at the paper's shape."""
        rng = np.random.default_rng(38)
        spend = rng.exponential(20.0, (320, 600)) * (rng.random((320, 600)) < 0.05)
        d = standardize(spend, np.log1p(spend[:, :30].sum(axis=1))
                        + 0.3 * rng.standard_normal(320))
        beta = np.zeros(len(d.col_ids))
        beta[:180] = rng.standard_normal(180)
        model = LassoModel(alpha=0.01, intercept=0.0, beta=beta, col_ids=d.col_ids,
                           n_iter=0, converged=False)
        curve = assert_same_drops(*split(d, np.arange(0, 320, 5)), model)
        assert len(curve.support) == 180 and not curve.ridge_fallback_steps

    def test_matches_reference_while_copies_hold_the_refit(self, monkeypatch):
        """Three copies of one column hold the refit, and every rebuild of
        the inverse, until two of them are dropped; from then on the rebuilt
        inverse solves every step."""
        refits = []

        def counted(x, y):
            refits.append(x.shape[1])
            return ols_refit(x, y)

        monkeypatch.setattr(lasso_mod, "ols_refit", counted)
        rng = np.random.default_rng(39)
        x = rng.standard_normal((50, 12))
        x[:, 5] = x[:, 2]
        x[:, 9] = x[:, 2]
        d = raw_design(x, x[:, [0, 1, 3, 4, 6, 7]] @ np.array([3.0, -2.5, 2.0, -1.5, 1.2, 1.0])
                       + 0.3 * x[:, 2] + 0.05 * rng.standard_normal(50))
        beta = np.zeros(12)
        beta[[0, 1, 2, 3, 4, 5, 6, 7, 9]] = 0.5
        model = LassoModel(alpha=0.01, intercept=0.0, beta=beta, col_ids=d.col_ids,
                           n_iter=0, converged=False)
        curve = assert_same_drops(*split(d, np.arange(0, 50, 5)), model)
        assert curve.ridge_fallback_steps == [0, 1] and refits == [9, 8]
        assert set(curve.dropped[:2]) < {"c2", "c5", "c9"}

    def test_matches_reference_on_singular_refit(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((8, 6))
        d = standardize(x, x @ np.array([2.0, -1.5, 1.0, 0.5, -0.5, 0.25]))
        model = fit_lasso(d, 1e-4 * max_alpha(d))
        curve = assert_same_drops(*split(d, [0, 1, 2]), model)
        assert curve.ridge_fallback_steps

    def test_single_feature_support_gives_two_points(self):
        d, _ = planted_design(30, n=30, p=5, support=(2,), coefs=(4.0,))
        model = fit_lasso(d, 0.5 * max_alpha(d))
        assert len(model.support()) == 1
        curve = drop_experiment(*split(d, [0, 1, 2]), model)
        assert [n for n, _ in curve.points] == [1, 0]

    def test_n_features_strictly_decreasing(self):
        d, _ = planted_design(31)
        model = fit_lasso(d, 0.05 * max_alpha(d))
        curve = drop_experiment(*split(d, np.arange(10)), model)
        ns = [n for n, _ in curve.points]
        assert ns == sorted(ns, reverse=True)
        assert len(set(ns)) == len(ns)

    @pytest.mark.parametrize("seed", range(3))
    def test_planted_signal_mse_rises_below_true_support(self, seed):
        d, _ = planted_design(40 + seed)
        model = fit_lasso(d, 0.02 * max_alpha(d))
        holdout = np.arange(0, 60, 5)
        curve = drop_experiment(*split(d, holdout), model)
        mse = dict(curve.points)
        assert 3 in mse and 2 in mse
        assert mse[2] >= 2.0 * mse[3]

    def test_recorded_mse_matches_independent_refit(self):
        d, _ = planted_design(33)
        model = fit_lasso(d, 0.05 * max_alpha(d))
        holdout = np.arange(0, 60, 6)
        train = np.setdiff1d(np.arange(60), holdout)
        curve = drop_experiment(*split(d, holdout), model)
        col_pos = {c: j for j, c in enumerate(d.col_ids)}
        removed = []
        for (n_feat, recorded), next_drop in zip(
                curve.points, curve.dropped + [None]):
            survivors = [col_pos[c] for c in curve.support if c not in removed]
            expected = ols_holdout_mse(d.x[train][:, survivors], d.y[train],
                                       d.x[holdout][:, survivors], d.y[holdout])
            assert recorded == pytest.approx(expected, abs=1e-9)
            if next_drop is not None:
                removed.append(next_drop)

    def test_empty_support_rejected(self):
        d = random_design(34)
        model = fit_lasso(d, max_alpha(d) * 1.01)
        with pytest.raises(ValueError, match="no nonzero"):
            drop_experiment(*split(d, [0, 1]), model)

    def test_ridge_fallback_on_singular_refit(self):
        # more support features than training rows forces rank deficiency
        rng = np.random.default_rng(35)
        x = rng.standard_normal((8, 6))
        y = x @ np.array([2.0, -1.5, 1.0, 0.5, -0.5, 0.25])
        d = standardize(x, y)
        model = fit_lasso(d, 1e-4 * max_alpha(d))
        assert len(model.support()) == 6
        curve = drop_experiment(*split(d, [0, 1, 2]), model)  # 5 train rows
        assert curve.ridge_fallback_steps  # at least the first refits fell back
        assert all(np.isfinite(m) for _, m in curve.points)


class TestSelectFeatures:
    @staticmethod
    def curve(points, support, dropped, betas=None):
        return DropExperimentCurve(
            points=points, support=support, dropped=dropped,
            betas=betas or {c: float(i + 1) for i, c in enumerate(support)})

    def test_monotone_improving_curve_selects_full_support(self):
        # MSE keeps improving as features are added: best is the full set
        points = [(3, 0.1), (2, 0.5), (1, 1.0), (0, 2.0)]
        ranking = select_features(self.curve(points, ["a", "b", "c"], ["c", "b", "a"]))
        assert ranking.selected_count == 3
        assert {c for c, _ in ranking.ranked} == {"a", "b", "c"}

    def test_v_shaped_curve_selects_the_dip(self):
        points = [(5, 0.50), (4, 0.40), (3, 0.10), (2, 0.45), (1, 0.60), (0, 0.90)]
        support = ["a", "b", "c", "d", "e"]
        ranking = select_features(self.curve(points, support, ["e", "d", "c", "b", "a"]))
        assert ranking.selected_count == 3
        assert {c for c, _ in ranking.ranked} == {"a", "b", "c"}

    def test_slack_prefers_sparser_model(self):
        points = [(4, 0.100), (3, 0.101), (2, 0.102), (1, 0.5), (0, 0.9)]
        ranking = select_features(
            self.curve(points, ["a", "b", "c", "d"], ["d", "c", "b", "a"]), slack=0.05)
        assert ranking.selected_count == 2

    def test_ranking_sorted_by_abs_beta(self):
        points = [(2, 0.1), (1, 0.5), (0, 0.9)]
        curve = self.curve(points, ["a", "b"], ["b", "a"],
                           betas={"a": -0.2, "b": 3.0})
        ranking = select_features(curve)
        assert [c for c, _ in ranking.ranked] == ["b", "a"]
        assert ranking.ranked[0][1] == pytest.approx(3.0)

    def test_empty_curve(self):
        with pytest.raises(ValueError, match="empty"):
            select_features(self.curve([], [], []))


class TestDiagnostics:
    def test_constant_residuals_flagged_degenerate(self):
        report = residual_diagnostics(np.full(5, 2.0), np.zeros(5))
        assert report.degenerate
        assert report.pp_theoretical.size == 0

    def test_seeded_normal_residuals_within_dkw_band(self):
        rng = np.random.default_rng(77)
        actual = rng.standard_normal(1000)
        report = residual_diagnostics(actual, np.zeros(1000))
        assert np.abs(report.pp_theoretical - report.pp_empirical).max() < 0.05

    def test_empty_holdout(self):
        with pytest.raises(ValueError, match="empty"):
            residual_diagnostics(np.array([]), np.array([]))

    def test_normal_cdf_matches_scipy_ndtr(self):
        from scipy.special import ndtr
        rng = np.random.default_rng(78)
        z = np.concatenate([np.linspace(-20.0, 20.0, 100_001),
                            rng.standard_normal(100_000), 3.0 * rng.standard_normal(100_000)])
        z = z[np.abs(z) <= 20.0]
        got = np.array([normal_cdf(v) for v in z.tolist()])
        want = ndtr(z)
        assert (np.abs(got - want) / want).max() <= 1e-13
        assert normal_cdf(0.0) == normal_cdf(-0.0) == 0.5

    def test_pp_theoretical_is_the_normal_cdf_of_the_sorted_residuals(self):
        rng = np.random.default_rng(79)
        actual, predicted = rng.standard_normal(50), rng.standard_normal(50)
        report = residual_diagnostics(actual, predicted)
        resid = actual - predicted
        z = np.sort((resid - resid.mean()) / resid.std())
        assert report.pp_theoretical.tolist() == [normal_cdf(v) for v in z.tolist()]


class TestOlsRefit:
    def test_matches_lstsq_on_full_rank(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        intercept, coefs, fellback = ols_refit(x, y)
        assert not fellback
        a = np.column_stack([np.ones(20), x])
        expected = np.linalg.solve(a.T @ a, a.T @ y)
        assert intercept == pytest.approx(expected[0], abs=1e-10)
        assert np.abs(coefs - expected[1:]).max() < 1e-10


class TestDefaultGrid:
    def test_grid_spans_alpha_max(self):
        d = random_design(60)
        grid = default_alpha_grid(d, num=50)
        assert len(grid) == 50
        assert grid[-1] == pytest.approx(max_alpha(d))
        assert grid[0] == pytest.approx(1e-4 * max_alpha(d))

    def test_rows_scale_the_grid_to_the_subset(self):
        d = random_design(61)
        rows = np.arange(0, 30, 2)
        grid = default_alpha_grid(d.take(rows), num=8, lo_ratio=0.03)
        x, y = d.x[rows], d.y[rows]
        hi = float(np.abs(x.T @ (y - y.mean())).max() / len(rows))
        assert hi != max_alpha(d)
        expected = hi * np.logspace(np.log10(0.03), 0.0, 8)
        assert grid.tobytes() == expected.tobytes()
