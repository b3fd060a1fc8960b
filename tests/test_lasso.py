import os
import subprocess
import sys
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

    def test_objective_never_increases_across_sweeps(self):
        d = random_design(7, n=40, p=25)
        model = fit_lasso(d, 0.05 * max_alpha(d))
        trace = np.array(model.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_monotone_sparsity_along_alpha_path(self):
        d = random_design(11, n=40, p=20)
        alphas = max_alpha(d) * np.logspace(-3, 0, 10)
        nnz = [int(np.count_nonzero(fit_lasso(d, a).beta)) for a in alphas]
        assert all(b <= a for a, b in zip(nnz, nnz[1:]))

    def test_objective_value_matches_helper(self):
        d = random_design(13)
        alpha = 0.1 * max_alpha(d)
        model = fit_lasso(d, alpha)
        assert model.objective_trace[-1] == pytest.approx(
            lasso_objective(d.x, d.y, model.intercept, model.beta, alpha), rel=1e-10)

    def test_nonfinite_design_rejected(self):
        d = random_design(2)
        d.x[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit_lasso(d, 0.1)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            fit_lasso(random_design(2), 0.0)


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


def assert_certified(design, alpha, rows=None, warm_start=None, **solver):
    """fit_lasso on the design of ``rows`` ends no higher than the plain
    cyclic solver under the same sweep cap, never raises its objective from
    one sweep to the next, and is certified optimal when it converges: a
    relative duality gap of at most 1e-10 and KKT violations of at most
    1e-9 alpha. Two kinds of converged fit are not certified: a support of
    at least as many columns as rows gets no Newton step, so only the
    coefficient-change rule bounds its gap, and a coefficient that a warm
    start puts on a column that is zero on the rows is never touched."""
    taken = design if rows is None else design.take(rows)
    got = fit_lasso(taken, alpha, warm_start=warm_start, **solver)
    ref = reference_fit_lasso(design, alpha, rows=rows, warm_start=warm_start, **solver)
    assert len(got.objective_trace) == got.n_iter <= solver.get("max_iter", 10000)
    trace = np.array(got.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12 * abs(trace[0]))
    final = objective_of(taken, got)
    assert final <= objective_of(taken, ref) * (1 + 1e-12)
    untouched = (got.beta != 0) & ~taken.x.any(axis=0)
    newton = np.count_nonzero(got.beta) < len(taken.y)
    if got.converged and newton and not untouched.any():
        assert duality_gap(taken, got) <= 1e-10 * final
        assert max(kkt_violations(taken, got)) <= 1e-9 * alpha
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
    """The Newton steps leave fit_lasso on a different path from the plain
    cyclic solver; against it, every fit must end no higher under the same
    sweep cap, and a converged fit must be certified optimal. Zero-run
    screening still changes no bit of a fit."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("frac", [0.5, 0.1, 0.02])
    def test_p_greater_than_n(self, seed, frac):
        d = random_design(seed, n=25, p=150)  # several screening blocks
        assert_certified(d, frac * max_alpha(d), max_iter=400)

    @pytest.mark.parametrize("block", [1, 5, 64, 10_000])
    def test_block_size_changes_nothing(self, monkeypatch, block):
        d = random_design(3, n=30, p=90)
        alphas = [frac * max_alpha(d) for frac in (0.3, 0.05)]
        want = [fit_lasso(d, a, max_iter=300) for a in alphas]
        monkeypatch.setattr(lasso_mod, "_SCREEN_BLOCK", block)
        for a, ref in zip(alphas, want):
            got = assert_certified(d, a, max_iter=300)
            assert got.beta.tobytes() == ref.beta.tobytes()
            assert (got.n_iter, got.converged) == (ref.n_iter, ref.converged)
            assert (np.float64(got.max_coord_delta).tobytes()
                    == np.float64(ref.max_coord_delta).tobytes())
            assert (np.array(got.objective_trace).tobytes()
                    == np.array(ref.objective_trace).tobytes())

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
        assert assert_certified(d, alpha, rows=rows).converged
        warm = rng.standard_normal(p) * (rng.random(p) < 0.2)
        warm[3] = 0.7       # a coefficient on the zero column is never touched
        model = assert_certified(d, alpha, max_iter=200, rows=rows,
                                 warm_start=warm)
        assert model.beta[3] == 0.7

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
            assert_certified(d, frac * max_alpha(d), max_iter=300)

    def test_warm_started_path(self):
        d = random_design(9, n=30, p=120)
        hi = max_alpha(d)
        warm = None
        for a in hi * np.logspace(0, -2, 8):
            warm = assert_certified(d, a, max_iter=300, warm_start=warm).beta

    def test_arbitrary_warm_starts(self):
        rng = np.random.default_rng(10)
        d = random_design(10, n=20, p=60)
        warm = rng.standard_normal(60) * (rng.random(60) < 0.3)
        warm[rng.random(60) < 0.2] = -0.0
        assert_certified(d, 0.2 * max_alpha(d), max_iter=500, warm_start=warm)
        assert_certified(d, 0.2 * max_alpha(d), warm_start=np.full(60, -0.0))

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 4, 7, 25])
    def test_max_iter_cap_mid_path(self, max_iter):
        d = random_design(12, n=30, p=100)
        model = assert_certified(d, 0.01 * max_alpha(d), max_iter=max_iter)
        assert model.n_iter == max_iter and not model.converged

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
        alpha = float(abs(rho[j]))   # the first sweep meets |rho_j| == alpha
        model = assert_certified(d, alpha, tol=1e-12)
        assert model.beta[j] == 0.0
        assert np.count_nonzero(model.beta) > 0

    def test_blocked_gradient_rounds_below_alpha(self):
        """A coordinate whose blocked gradient rounds below alpha while its
        own dot product exceeds alpha must still enter the model."""
        for seed in range(2000):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((7, 20))
            y = rng.standard_normal(7)
            r0 = y - float(y.mean()) - x @ np.zeros(20)
            own = np.abs([x[:, j] @ r0 / 7 for j in range(20)])
            blocked = np.abs(np.asfortranarray(x).T @ r0 / 7)
            j = int(np.argmax(own))
            alpha = float(np.nextafter(own[j], 0.0))
            if blocked[j] < alpha:
                break
        else:
            pytest.skip("blocked and per-column dot products agree on this BLAS")
        d = raw_design(x, y)
        model = assert_certified(d, alpha, max_iter=1)
        assert model.beta.tobytes() == reference_fit_lasso(d, alpha, max_iter=1).beta.tobytes()
        assert model.beta[j] != 0.0

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
            warm = None
            if rng.random() < 0.3:
                warm = rng.standard_normal(p) * (rng.random(p) < 0.3)
            assert_certified(d, float(rng.uniform(0.001, 1.2)) * hi,
                             max_iter=int(rng.integers(1, 200)),
                             rows=rows, warm_start=warm)


class TestNewtonStep:
    def test_first_sign_change_stops_at_zero(self):
        point, first = lasso_mod._to_first_sign_change(
            np.array([1.0, -1.0, 3.0]), np.array([-3.0, 1.0, 5.0]))
        assert first == 0   # coordinate 0 reaches 0 at t = 1/4, coordinate 1 at 1/2
        assert point.tolist() == [0.0, -0.5, 3.5]
        target = np.array([2.0, -1.0])
        point, first = lasso_mod._to_first_sign_change(np.array([1.0, -3.0]), target)
        assert first is None and point is target

    @staticmethod
    def record(monkeypatch, name):
        """Wrap lasso_mod.<name> and collect its results."""
        original, seen = getattr(lasso_mod, name), []

        def wrapper(*args):
            out = original(*args)
            seen.append((args, out))
            return out
        monkeypatch.setattr(lasso_mod, name, wrapper)
        return seen

    def test_sign_crossing(self, monkeypatch):
        seen = self.record(monkeypatch, "_to_first_sign_change")
        for seed in range(50):
            rng = np.random.default_rng(200 + seed)
            x = rng.standard_normal((40, 30))
            x[:, 1:] += 0.9 * x[:, :-1]   # neighbours correlate: signs move
            d = standardize(x, x[:, :6] @ rng.standard_normal(6) + rng.standard_normal(40))
            warm = rng.choice([-1.0, 1.0], 30) * (rng.random(30) < 0.5)
            seen.clear()
            model = assert_certified(d, 0.05 * max_alpha(d), warm_start=warm)
            if any(first is not None for _, (_, first) in seen):
                break
        else:
            pytest.fail("no Newton step changed a sign on 50 seeded designs")
        assert model.converged

    def test_repeated_columns_are_held(self, monkeypatch):
        seen = self.record(monkeypatch, "_cholesky")
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 12))
        x[:, 5] = x[:, 2]
        x[:, 9] = x[:, 2]
        d = raw_design(x, x[:, 2] - 0.5 * x[:, 7] + 0.1 * rng.standard_normal(30))
        warm = np.zeros(12)
        warm[[2, 5, 9]] = 0.3   # the repeated columns share one coefficient
        model = assert_certified(d, 0.05 * max_alpha(d), warm_start=warm)
        assert model.converged
        assert any(held for _, (_, _, held) in seen)
        assert np.count_nonzero(model.beta[[2, 5, 9]]) >= 2

    def test_support_of_at_least_n_columns_gets_no_step(self, monkeypatch):
        seen = self.record(monkeypatch, "_gram")
        rng = np.random.default_rng(9)
        d = random_design(9, n=12, p=40)
        warm = rng.standard_normal(40)   # 40 nonzero coefficients on 12 rows
        model = assert_certified(d, 0.3 * max_alpha(d), warm_start=warm)
        # Steps start once the support has shrunk below the 12 rows.
        assert seen and all(a.shape[1] < 12 for (a,), _ in seen)
        assert model.converged and np.count_nonzero(model.beta) < 12

    def test_tiled_products_match_numpy(self):
        rng = np.random.default_rng(11)
        for k in (1, 63, 64, 65, 130):
            a = rng.standard_normal((150, k))
            g = lasso_mod._gram(a)
            assert np.abs(g - a.T @ a).max() <= 1e-12 * np.abs(g).max()
            assert g.tobytes() == g.T.tobytes()
            low, inverses, held = lasso_mod._cholesky(g)
            assert held == []
            b = rng.standard_normal(k)
            want = np.linalg.solve(g, b)
            got = lasso_mod._cho_solve(low, inverses, b)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_cholesky_holds_dependent_columns(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((100, 80))
        a[:, 70] = a[:, 3] - 2.0 * a[:, 40]   # depends on two earlier columns
        a[:, 75] = a[:, 70]
        g = lasso_mod._gram(a)
        low, inverses, held = lasso_mod._cholesky(g)
        assert held == [70, 75]
        free = np.setdiff1d(np.arange(80), held)
        b = rng.standard_normal(80)
        b[held] = 0.0
        got = lasso_mod._cho_solve(low, inverses, b)
        assert got[held].tolist() == [0.0, 0.0]
        want = np.linalg.solve(g[np.ix_(free, free)], b[free])
        assert np.abs(got[free] - want).max() <= 1e-10 * np.abs(want).max()


THREAD_CHECK = """
import hashlib
import numpy as np
from shoplens.lasso import drop_experiment, duality_gap, fit_lasso, max_alpha, standardize
rng = np.random.default_rng(0)
x = rng.standard_normal((240, 600))
d = standardize(x, x[:, :40] @ rng.standard_normal(40) + 3.0 * rng.standard_normal(240))
train, hold = d.take(np.arange(48, 240)), d.take(np.arange(48))
model = fit_lasso(train, 0.03 * max_alpha(train))
curve = drop_experiment(train, hold, model)
assert model.converged and len(model.support()) > 128
digest = hashlib.sha256(model.beta.tobytes() + np.array(model.objective_trace).tobytes()
                        + np.array(curve.points).tobytes()
                        + np.float64(duality_gap(train, model)).tobytes())
print(digest.hexdigest(), curve.dropped)
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
    change their bits; the fit, its certificate, the drop experiment and
    alpha_max must not depend on it."""
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
        assert abs(duality_gap(d, model)) < 1e-10 * model.objective_trace[-1]

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
        d = random_design(27, n=40, p=15)
        grid = max_alpha(d) * np.logspace(-3, 0, 6)
        best, curve, stats = cross_validate_alpha(d, grid, k=4, seed=5, max_iter=8)
        assert (best, curve, stats) == cross_validate_alpha(d, grid, k=4, seed=5, max_iter=8)
        pool = np.arange(len(d.y))
        want = []
        for fold, test_idx in enumerate(
                np.array_split(np.random.default_rng(5).permutation(pool), 4)):
            train = d.take(np.setdiff1d(pool, test_idx))
            train.x = np.asfortranarray(train.x)  # the layout the fold fits see
            warm = None
            for alpha in sorted(grid, reverse=True):
                model = fit_lasso(train, alpha, max_iter=8, warm_start=warm)
                warm = model.beta
                want.append((fold, alpha, model.n_iter, model.converged,
                             duality_gap(train, model)))
        assert [tuple(f) for f in stats] == want
        assert {f.converged for f in stats} == {False, True}
        assert all(f.duality_gap <= 1e-10 * f.alpha for f in stats if f.converged)

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
                           col_ids=d.col_ids, n_iter=0, max_coord_delta=0.0,
                           converged=False)
        curve = assert_same_drops(*split(d, np.arange(0, 40, 5)), model)
        assert curve.ridge_fallback_steps   # until a copy is dropped

    def test_matches_reference_with_more_columns_than_rows(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((200, 220))
        d = standardize(x, x[:, :20] @ rng.standard_normal(20) + rng.standard_normal(200))
        beta = np.zeros(220)
        beta[:200] = rng.standard_normal(200)   # 200 features on 160 training rows
        model = LassoModel(alpha=0.01, intercept=0.0, beta=beta, col_ids=d.col_ids,
                           n_iter=0, max_coord_delta=0.0, converged=False)
        curve = assert_same_drops(*split(d, np.arange(0, 200, 5)), model, rtol=1e-9)
        assert curve.ridge_fallback_steps == list(range(41))

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
