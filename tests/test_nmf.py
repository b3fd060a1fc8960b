import math
from concurrent import futures

import numpy as np
import pytest

from shoplens import nmf as nmf_mod
from shoplens.nmf import (Factorization, HoldoutMask, NmfConfig, fit_nmf,
                          grid_search, imputation_mse, make_holdout_mask,
                          normalize_dictionary, top_items_per_element)

from conftest import purchase_matrix
from oracles import (objective_value, reference_fit_nmf, reference_grid_search,
                     reference_holdout_mask, reference_imputation_mse)


def planted(seed, n=30, m=20, rank=3, lo=0.2, hi=1.2):
    rng = np.random.default_rng(seed)
    w = rng.uniform(lo, hi, size=(n, rank))
    h = rng.uniform(lo, hi, size=(rank, m))
    return w @ h


def assert_monotone(trace, slack=1e-10):
    diffs = np.diff(np.asarray(trace))
    assert np.all(diffs <= slack), f"objective increased by {diffs.max()}"


class TestObjective:
    def test_zero_factors(self):
        p = np.array([[1.0, 2.0], [3.0, 4.0]])
        f = Factorization(np.zeros((2, 2)), np.zeros((2, 2)), [], True, 0)
        cfg = NmfConfig(k=2, alpha_m=0.0)
        assert objective_value(p, f, cfg) == pytest.approx(0.5 * (p ** 2).sum())

    def test_exact_factorization_is_zero(self):
        w = np.array([[1.0], [2.0]])
        h = np.array([[3.0, 4.0]])
        f = Factorization(w, h, [], True, 0)
        assert objective_value(w @ h, f, NmfConfig(k=1)) == pytest.approx(0.0)

    def test_hand_computed_two_by_two(self):
        # P=ones, W=H=ones(2x2): WH=2*ones, residual -1 everywhere
        p = np.ones((2, 2))
        f = Factorization(np.ones((2, 2)), np.ones((2, 2)), [], True, 0)
        cfg = NmfConfig(k=2, alpha_m=1.0, l1_ratio=0.5)
        # 0.5*4 + 1*0.5*(4+4) + 0.5*1*0.5*(4+4) = 2 + 4 + 2
        assert objective_value(p, f, cfg) == pytest.approx(8.0)

    def test_masked_entries_drop_out(self):
        p = np.array([[1.0, 5.0], [2.0, 3.0]])
        f = Factorization(np.zeros((2, 1)), np.zeros((1, 2)), [], True, 0)
        mask = HoldoutMask(held_out=((0, 1),))
        cfg = NmfConfig(k=1)
        expected = 0.5 * (1.0 + 4.0 + 9.0)  # (0,1) excluded
        assert objective_value(p, f, cfg, mask) == pytest.approx(expected)


class TestFit:
    def test_rank_one_exact_recovery(self):
        u = np.array([1.0, 2.0, 0.5, 3.0])
        v = np.array([2.0, 1.0, 4.0])
        p = np.outer(u, v)
        f = fit_nmf(p, NmfConfig(k=1, seed=0, tol=1e-14, max_iter=2000))
        assert np.linalg.norm(p - f.w @ f.h) < 1e-8
        assert_monotone(f.objective_trace)

    def test_planted_rank3_recovery(self):
        p = planted(1)
        f = fit_nmf(p, NmfConfig(k=3, seed=1, tol=1e-12, max_iter=3000))
        rel = np.linalg.norm(p - f.w @ f.h) / np.linalg.norm(p)
        assert rel < 1e-3
        assert_monotone(f.objective_trace)

    def test_factors_nonnegative(self):
        p = planted(2)
        for alpha_m, l1 in [(0.0, 0.0), (0.5, 0.5), (2.0, 1.0)]:
            f = fit_nmf(p, NmfConfig(k=4, alpha_m=alpha_m, l1_ratio=l1, seed=3))
            assert np.all(f.w >= 0) and np.all(f.h >= 0)
            assert_monotone(f.objective_trace)

    def test_regularization_induces_sparsity(self):
        p = planted(4)
        base = fit_nmf(p, NmfConfig(k=5, alpha_m=0.0, seed=5))
        reg = fit_nmf(p, NmfConfig(k=5, alpha_m=1.0, l1_ratio=0.1, seed=5))
        assert (reg.h == 0).mean() >= (base.h == 0).mean()
        assert reg.converged or reg.n_iter == 500

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            fit_nmf(np.array([[1.0, -0.5]]), NmfConfig(k=1))

    def test_oversized_k_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            fit_nmf(np.ones((3, 4)), NmfConfig(k=4))

    def test_masked_fit_ignores_heldout_values(self):
        p = planted(6)
        mask = make_holdout_mask(p, seed=6)
        f1 = fit_nmf(p, NmfConfig(k=3, seed=7), mask=mask)
        perturbed = p.copy()
        i, j = mask.held_out[0]
        perturbed[i, j] += 100.0
        f2 = fit_nmf(perturbed, NmfConfig(k=3, seed=7), mask=mask)
        assert np.array_equal(f1.w, f2.w)
        assert np.array_equal(f1.h, f2.h)

    def test_masked_fit_objective_monotone(self):
        p = planted(8)
        mask = make_holdout_mask(p, seed=8)
        f = fit_nmf(p, NmfConfig(k=3, alpha_m=0.5, l1_ratio=0.3, seed=8), mask=mask)
        assert_monotone(f.objective_trace)

    def test_trace_matches_objective_value(self):
        p = planted(9)
        cfg = NmfConfig(k=3, alpha_m=0.7, l1_ratio=0.2, seed=9)
        f = fit_nmf(p, cfg)
        assert f.objective_trace[-1] == pytest.approx(
            objective_value(p, f, cfg), rel=1e-12)

    def test_reconstruction_is_sum_of_components(self):
        p = planted(10)
        f = fit_nmf(p, NmfConfig(k=3, seed=10))
        recon = f.w @ f.h
        by_hand = np.zeros_like(recon)
        for t in range(3):
            by_hand += np.outer(f.w[:, t], f.h[t])
        assert np.abs(recon[4] - by_hand[4]).max() < 1e-12

    def test_nndsvd_init_is_deterministic(self):
        p = planted(11)
        f1 = fit_nmf(p, NmfConfig(k=3, seed=0, init="nndsvd", max_iter=50))
        f2 = fit_nmf(p, NmfConfig(k=3, seed=99, init="nndsvd", max_iter=50))
        assert np.array_equal(f1.w, f2.w)  # seed does not enter nndsvd

    def test_full_rank_beats_clipped_svd_baseline(self):
        for seed in (12, 13):
            rng = np.random.default_rng(seed)
            p = rng.uniform(0.1, 2.0, size=(8, 5))
            k = 5
            f = fit_nmf(p, NmfConfig(k=k, seed=seed, tol=1e-14, max_iter=5000))
            u, s, vt = np.linalg.svd(p, full_matrices=False)
            approx = np.clip(u[:, :k] * s[:k] @ vt[:k], 0.0, None)
            baseline = 0.5 * ((p - approx) ** 2).sum()
            fit_err = 0.5 * ((p - f.w @ f.h) ** 2).sum()
            assert fit_err <= 1.05 * baseline + 1e-8 * (p ** 2).sum()


class TestImputation:
    def test_exact_factorization_zero_error(self):
        w = np.array([[1.0], [2.0]])
        h = np.array([[3.0, 4.0]])
        f = Factorization(w, h, [], True, 0)
        mask = HoldoutMask(held_out=((0, 0), (1, 1)))
        assert imputation_mse(w @ h, f, mask) == pytest.approx(0.0)

    def test_single_entry_squared_error(self):
        p = np.array([[4.0]])
        f = Factorization(np.array([[1.0]]), np.array([[3.0]]), [], True, 0)
        mask = HoldoutMask(held_out=((0, 0),))
        assert imputation_mse(p, f, mask) == pytest.approx(1.0)

    def test_right_rank_beats_rank_one(self):
        p = planted(14)
        mask = make_holdout_mask(p, seed=14)
        f3 = fit_nmf(p, NmfConfig(k=3, seed=14), mask=mask)
        f1 = fit_nmf(p, NmfConfig(k=1, seed=14), mask=mask)
        assert imputation_mse(p, f3, mask) < imputation_mse(p, f1, mask)

    def test_empty_mask_rejected(self):
        f = Factorization(np.ones((1, 1)), np.ones((1, 1)), [], True, 0)
        with pytest.raises(ValueError, match="empty"):
            imputation_mse(np.ones((1, 1)), f, HoldoutMask(held_out=()))

    def test_mask_samples_only_stored_entries(self):
        p = np.array([[1.0, 0.0], [0.0, 2.0]])
        mask = make_holdout_mask(p, fraction=1.0, seed=0)
        assert set(mask.held_out) == {(0, 0), (1, 1)}


class TestGridSearch:
    def test_single_cell(self):
        p = planted(15)
        result = grid_search(p, [3], [0.5], [0.1], seed=15)
        assert result.best.k == 3
        assert result.best.alpha_m == 0.5
        assert result.best.l1_ratio == 0.1
        assert len(result.table) == 1

    def test_planted_rank4_selected(self):
        # mild observation noise gives the imputation curve its U shape
        rng = np.random.default_rng(16)
        p = planted(16, rank=4) + 0.05 * rng.standard_normal((30, 20))
        p = np.clip(p, 0.0, None)
        result = grid_search(p, range(2, 9), [0.0], [0.0], seed=16)
        assert result.best.k == 4

    def test_failed_cells_recorded_not_fatal(self):
        p = planted(17, n=6, m=5)
        result = grid_search(p, [2, 50], [0.0], [0.0], seed=17)
        assert len(result.failures) == 1
        assert result.failures[0][0] == 50
        assert result.best.k == 2
        nan_rows = [row for row in result.table if np.isnan(row[3])]
        assert len(nan_rows) == 1

    def test_shared_mask_across_cells(self):
        p = planted(18)
        r1 = grid_search(p, [2, 3], [0.0], [0.0], seed=18)
        r2 = grid_search(p, [2, 3], [0.0], [0.0], seed=18)
        assert r1.table == r2.table


class TestDictionary:
    def test_three_four_five_row(self):
        f = Factorization(np.ones((1, 1)), np.array([[3.0, 4.0]]), [], True, 0)
        h_norm, scales, zero_rows = normalize_dictionary(f)
        assert h_norm.tolist() == [[0.6, 0.8]]
        assert scales.tolist() == [5.0]
        assert zero_rows == []

    def test_unit_row_unchanged(self):
        f = Factorization(np.ones((1, 1)), np.array([[1.0, 0.0]]), [], True, 0)
        h_norm, scales, _ = normalize_dictionary(f)
        assert h_norm.tolist() == [[1.0, 0.0]]
        assert scales.tolist() == [1.0]

    def test_scales_preserve_product(self):
        rng = np.random.default_rng(19)
        w = rng.uniform(0, 2, size=(6, 3))
        h = rng.uniform(0, 2, size=(3, 5))
        f = Factorization(w, h, [], True, 0)
        h_norm, scales, _ = normalize_dictionary(f)
        w_scaled = w * scales[None, :]
        assert np.abs(w_scaled @ h_norm - w @ h).max() <= 1e-10

    def test_zero_row_reported(self):
        f = Factorization(np.ones((1, 2)), np.array([[0.0, 0.0], [1.0, 1.0]]),
                          [], True, 0)
        h_norm, scales, zero_rows = normalize_dictionary(f)
        assert zero_rows == [0]
        assert scales[0] == 1.0
        assert h_norm[0].tolist() == [0.0, 0.0]

    def test_top_items_one_hot(self):
        top = top_items_per_element(np.array([[0.0, 1.0, 0.0]]), top_n=1,
                                    col_ids=["a", "b", "c"])
        assert top == [[("b", 1.0)]]

    def test_top_items_hand_sorted(self):
        # weights (0.1, 0.9, 0.42) for items 1..3: top two are items 2 then 3
        top = top_items_per_element(np.array([[0.1, 0.9, 0.42]]), top_n=2,
                                    col_ids=["1", "2", "3"])
        assert [c for c, _ in top[0]] == ["2", "3"]

    def test_top_n_validated(self):
        with pytest.raises(ValueError, match="top_n"):
            top_items_per_element(np.ones((1, 2)), top_n=0)


def spend(seed, n, m, density=0.4):
    """Sparse non-negative spend matrix, the shape P' has in the pipeline."""
    rng = np.random.default_rng(seed)
    return rng.exponential(20.0, (n, m)) * (rng.random((n, m)) < density)


def as_bytes(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


# The Gram-form sweep makes the same updates as the residual-form reference
# in exact arithmetic; only rounding differs. Factors, traces and imputation
# errors agree to this fraction of their largest magnitude.
DRIFT = 1e-12


def assert_drift(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= DRIFT * np.abs(want).max(initial=0.0)


def assert_table_drift(table, want):
    """Grid tables: the same cells and failures, MSEs within ``DRIFT``."""
    got, want = np.asarray(table, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(got[:, :3], want[:, :3])
    assert np.array_equal(np.isnan(got[:, 3]), np.isnan(want[:, 3]))
    assert_drift(np.nan_to_num(got[:, 3]), np.nan_to_num(want[:, 3]))


class TestReferenceEquality:
    """The Gram-form fit reproduces the residual-form W and H updates
    (``oracles.reference_fit_nmf``) up to rounding: the same iterations,
    stopping decision and zero pattern, and values within ``DRIFT``."""

    @staticmethod
    def assert_same_fit(p, cfg, mask=None):
        got = fit_nmf(p, cfg, mask=mask)
        want = reference_fit_nmf(p, cfg, mask=mask)
        assert_drift(got.w, want.w)
        assert_drift(got.h, want.h)
        assert np.array_equal(got.w == 0, want.w == 0)
        assert np.array_equal(got.h == 0, want.h == 0)
        assert_drift(got.objective_trace, want.objective_trace)
        assert (got.n_iter, got.converged) == (want.n_iter, want.converged)
        if mask is not None:
            assert_drift(imputation_mse(p, got, mask),
                         reference_imputation_mse(p, want, mask))
        return got

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("init", ["random_uniform", "nndsvd"])
    @pytest.mark.parametrize("alpha_m,l1_ratio",
                             [(0.0, 0.0), (0.0, 1.0), (5.0, 0.0), (5.0, 1.0),
                              (20.0, 0.5)])
    def test_fit(self, masked, init, alpha_m, l1_ratio):
        p = spend(1, 40, 25)
        mask = make_holdout_mask(p, seed=1) if masked else None
        self.assert_same_fit(p, NmfConfig(k=4, alpha_m=alpha_m, l1_ratio=l1_ratio,
                                          init=init, seed=1, max_iter=60), mask)

    @pytest.mark.parametrize("seed", range(3))
    def test_holdout_mask(self, seed):
        p = spend(seed, 30, 20, density=0.3)
        assert make_holdout_mask(p, seed=seed) == reference_holdout_mask(p, seed=seed)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("init", ["random_uniform", "nndsvd"])
    def test_zero_row_and_column(self, masked, init):
        p = spend(2, 20, 15)
        p[3], p[:, 5] = 0.0, 0.0
        mask = make_holdout_mask(p, seed=2) if masked else None
        self.assert_same_fit(p, NmfConfig(k=3, init=init, seed=2, max_iter=40), mask)

    @pytest.mark.parametrize("l1_ratio", [0.0, 1.0])
    def test_zero_denominator(self, l1_ratio):
        # Every entry of row 2 is stored and held out, so its weights are all
        # 0; with no l2 penalty its masked W update divides by zero and must
        # come out as 0.
        p = spend(3, 12, 8, density=0.6)
        p[2] = 1.0
        held = tuple((2, j) for j in range(8))
        mask = HoldoutMask(held_out=held + ((0, int(np.flatnonzero(p[0])[0])),))
        f = self.assert_same_fit(
            p, NmfConfig(k=3, alpha_m=0.0 if l1_ratio == 0.0 else 2.0,
                         l1_ratio=l1_ratio, seed=3, max_iter=30), mask)
        assert not f.w[2].any()

    def test_dead_component(self):
        # A large l1 penalty zeroes whole components; the next update of the
        # other factor then sees a zero column with no l2 term (denom == 0).
        p = spend(4, 25, 15)
        for mask in (None, make_holdout_mask(p, seed=4)):
            f = self.assert_same_fit(
                p, NmfConfig(k=5, alpha_m=150.0, l1_ratio=1.0, seed=4, max_iter=30),
                mask)
            dead = ~f.w.any(axis=0)
            assert 0 < dead.sum() < 5 and f.n_iter > 10

    @pytest.mark.parametrize("masked", [False, True])
    def test_full_rank(self, masked):
        p = spend(5, 12, 7, density=0.7)
        mask = make_holdout_mask(p, seed=5) if masked else None
        self.assert_same_fit(p, NmfConfig(k=7, alpha_m=0.5, l1_ratio=0.5,
                                          seed=5, max_iter=50), mask)

    @pytest.mark.parametrize("shape", [(300, 4), (4, 300)])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("init", ["random_uniform", "nndsvd"])
    def test_tall_and_wide(self, shape, masked, init):
        p = spend(6, *shape)
        mask = make_holdout_mask(p, seed=6) if masked else None
        self.assert_same_fit(p, NmfConfig(k=3, alpha_m=1.0, l1_ratio=0.1,
                                          init=init, seed=6, max_iter=40), mask)

    @pytest.mark.parametrize("error", [float.fromhex("0x1.85fca5fbd2cecp+0"),
                                       float.fromhex("0x1.ce2f06be473bbp-3"),
                                       float.fromhex("0x1.8f7f3c6dbdc48p+2")])
    def test_imputation_squares_like_scalar_pow(self, error):
        # For these errors the array square e * e is 1 ulp away from the
        # scalar e ** 2 the per-pair loop computed.
        p = np.array([[error, 1.0]])
        f = Factorization(np.zeros((1, 1)), np.zeros((1, 2)), [], True, 0)
        mask = HoldoutMask(held_out=((0, 0),))
        assert (as_bytes(imputation_mse(p, f, mask))
                == as_bytes(reference_imputation_mse(p, f, mask)))

    def test_grid_search_table(self):
        p = spend(7, 30, 12)
        matrix = purchase_matrix([f"c{i:02d}" for i in range(30)],
                                 [f"s{j:02d}" for j in range(12)],
                                 {(int(i), int(j)): float(p[i, j])
                                  for i, j in zip(*np.nonzero(p))})
        ks, alphas, l1s = [1, 2, 3, 13], [0.0, 0.5, 2.0], [0.0, 1.0]
        result = grid_search(matrix.to_dense(), ks, alphas, l1s, seed=7, max_iter=30)
        want, want_fits = reference_grid_search(p, ks, alphas, l1s, seed=7,
                                                max_iter=30)
        assert_table_drift(result.table, want)
        assert len(result.failures) == len(l1s) * len(alphas)
        assert result.fits == want_fits
        assert {converged for _, converged in want_fits} == {False, True}


class TestPooledGrid:
    """Grid cells run in spawned workers give the in-process result."""

    # On this 30 x 6 matrix, k = 7 > min(n, m) fails, and at alpha_m = 0
    # every l1 ratio is the same problem, so the cells of one k tie; scan
    # order resolves the best k's tie to the largest l1 ratio.
    GRID = dict(k_range=[1, 2, 3, 7], alpha_grid=[0.0], l1_grid=[0.0, 0.5, 1.0],
                seed=3, max_iter=40)

    @staticmethod
    def executors(monkeypatch, cpus, min_work):
        """Pretend ``cpus`` CPUs are allowed; record every pool created."""
        monkeypatch.setattr(nmf_mod.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(nmf_mod, "_POOL_MIN_WORK", min_work)
        created = []

        class Recording(futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append((args, kwargs))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", Recording)
        return created

    @staticmethod
    def table_bytes(table) -> bytes:
        return np.asarray(table, dtype=float).tobytes()

    def test_pool_equals_serial_and_reference(self, monkeypatch):
        p = spend(3, 30, 6)
        created = self.executors(monkeypatch, cpus=2, min_work=math.inf)
        serial = grid_search(p, **self.GRID)
        assert created == []
        monkeypatch.setattr(nmf_mod, "_POOL_MIN_WORK", 0)
        pooled = grid_search(p, **self.GRID)
        assert len(created) == 1
        args, kwargs = created[0]
        assert args == (2,)
        assert kwargs["mp_context"].get_start_method() == "spawn"
        # the matrix and the mask go to each worker once, not with every cell
        assert kwargs["initializer"] is nmf_mod._init_worker
        assert kwargs["initargs"][0].tobytes() == p.tobytes()

        assert self.table_bytes(pooled.table) == self.table_bytes(serial.table)
        assert pooled.best == serial.best
        assert pooled.failures == serial.failures
        assert [f[0] for f in pooled.failures] == [7] * 3
        assert (pooled.best.k, pooled.best.l1_ratio) == (2, 1.0)
        mse = {row[:3]: row[3] for row in pooled.table}
        assert mse[2, 0.0, 1.0] == mse[2, 0.0, 0.5] == mse[2, 0.0, 0.0]

        want, want_fits = reference_grid_search(p, **self.GRID)
        assert_table_drift(pooled.table, want)
        assert pooled.fits == serial.fits == want_fits

    def test_one_cpu_starts_no_process(self, monkeypatch):
        p = spend(3, 30, 6)
        created = self.executors(monkeypatch, cpus=1, min_work=0)
        result = grid_search(p, **self.GRID)
        assert created == []
        want, _ = reference_grid_search(p, **self.GRID)
        assert_table_drift(result.table, want)

    def test_small_grid_stays_in_process(self, monkeypatch):
        created = self.executors(monkeypatch, cpus=2,
                                 min_work=nmf_mod._POOL_MIN_WORK)
        grid_search(spend(3, 30, 6), **self.GRID)
        assert created == []
