"""Regularized non-negative matrix factorization of the purchase matrix.

The spend matrix is factored as P' ~ W.H (W: customer affinities, H: the
purchase dictionary) by minimizing

    1/2 ||P' - W.H||_F^2
    + alpha_m * l1_ratio * (||W||_1 + ||H||_1)
    + 1/2 * alpha_m * (1 - l1_ratio) * (||W||_F^2 + ||H||_F^2)

with alternating column/row-wise exact coordinate updates (HALS). The
regularization terms are applied exactly as written, with no rescaling by
the matrix dimensions. Hyperparameters are chosen by an imputation
experiment: a seeded third of the stored (positive) entries is held out,
the fit skips them via 0/1 residual weights, and the config with the lowest
mean squared error on the held-out entries wins.
"""

import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class NmfConfig:
    k: int
    alpha_m: float = 0.0
    l1_ratio: float = 0.0
    tol: float = 1e-6
    max_iter: int = 500
    seed: int = 0
    init: str = "random_uniform"  # or "nndsvd"

    def validate(self, n: int, m: int) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.k > min(n, m):
            raise ValueError(f"k={self.k} exceeds min(n, m) = {min(n, m)}")
        if not 0.0 <= self.l1_ratio <= 1.0:
            raise ValueError(f"l1_ratio must be in [0, 1], got {self.l1_ratio}")
        if self.alpha_m < 0:
            raise ValueError(f"alpha_m must be >= 0, got {self.alpha_m}")
        if self.init not in ("random_uniform", "nndsvd"):
            raise ValueError(f"unknown init {self.init!r}")


@dataclass
class Factorization:
    w: np.ndarray            # n x k, non-negative
    h: np.ndarray            # k x m, non-negative
    objective_trace: list[float]
    converged: bool
    n_iter: int
    row_ids: list[str] | None = None
    col_ids: list[str] | None = None


@dataclass(frozen=True)
class HoldoutMask:
    held_out: tuple[tuple[int, int], ...]

    @cached_property
    def index(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column index arrays of the held-out positions."""
        at = np.array(self.held_out, dtype=np.intp).reshape(-1, 2)
        return at[:, 0], at[:, 1]


@dataclass
class GridSearchResult:
    # rows: (k, alpha_m, l1_ratio, imputation_mse); failed cells carry nan
    table: list[tuple[int, float, float, float]]
    best: NmfConfig
    failures: list[tuple[int, float, float, str]] = field(default_factory=list)
    # (n_iter, converged) of every cell that fitted, in scan order
    fits: list[tuple[int, bool]] = field(default_factory=list)


def make_holdout_mask(p_prime, fraction: float = 1.0 / 3.0,
                      seed: int = 0) -> HoldoutMask:
    """Seeded uniform sample of the stored (positive) entries.

    Structural zeros are absences, not observations, so they are never held
    out; predicting them would swamp the imputation error.
    """
    dense = np.asarray(p_prime, dtype=float)
    rows, cols = np.nonzero(dense > 0)  # row-major, i.e. sorted positions
    if not rows.size:
        raise ValueError("matrix has no stored entries to hold out")
    rng = np.random.default_rng(seed)
    count = max(1, round(fraction * rows.size))
    chosen = rng.choice(rows.size, size=count, replace=False)
    held = tuple((int(rows[i]), int(cols[i])) for i in sorted(chosen))
    return HoldoutMask(held_out=held)


def _weight_matrix(shape: tuple[int, int], mask: HoldoutMask | None) -> np.ndarray | None:
    if mask is None:
        return None
    m = np.ones(shape)
    m[mask.index] = 0.0
    return m


def _objective(data: np.ndarray, w: np.ndarray, h: np.ndarray,
               weights: np.ndarray | None, l1_reg: float, l2_reg: float,
               buf: np.ndarray) -> float:
    """The regularized objective, scored from a fresh (weighted) residual
    data - W.H written into ``buf``, an n x m array the fit allocates once."""
    np.matmul(w, h, out=buf)
    np.subtract(data, buf, out=buf)
    if weights is not None:
        buf *= weights
    np.square(buf, out=buf)
    reg = (l1_reg * (np.abs(w).sum() + np.abs(h).sum())
           + 0.5 * l2_reg * ((w ** 2).sum() + (h ** 2).sum()))
    return float(0.5 * buf.sum() + reg)


def _init_factors(p: np.ndarray, cfg: NmfConfig) -> tuple[np.ndarray, np.ndarray]:
    n, m = p.shape
    if cfg.init == "random_uniform":
        rng = np.random.default_rng(cfg.seed)
        scale = math.sqrt(max(p.mean(), np.finfo(float).tiny) / cfg.k)
        return (scale * rng.uniform(size=(n, cfg.k)),
                scale * rng.uniform(size=(cfg.k, m)))
    # nndsvd (Boutsidis & Gallopoulos): deterministic SVD-based seeding
    u, s, vt = np.linalg.svd(p, full_matrices=False)
    w = np.zeros((n, cfg.k))
    h = np.zeros((cfg.k, m))
    w[:, 0] = np.sqrt(s[0]) * np.abs(u[:, 0])
    h[0, :] = np.sqrt(s[0]) * np.abs(vt[0, :])
    for t in range(1, cfg.k):
        uu, vv = u[:, t], vt[t, :]
        up, un = np.maximum(uu, 0), np.maximum(-uu, 0)
        vp, vn = np.maximum(vv, 0), np.maximum(-vv, 0)
        pos = np.linalg.norm(up) * np.linalg.norm(vp)
        neg = np.linalg.norm(un) * np.linalg.norm(vn)
        if pos >= neg:
            sigma, a, b = pos, up, vp
        else:
            sigma, a, b = neg, un, vn
        if sigma > 0:
            scale = np.sqrt(s[t] * sigma)
            w[:, t] = scale * a / np.linalg.norm(a)
            h[t, :] = scale * b / np.linalg.norm(b)
    return w, h


def _sweep(a: np.ndarray, b: np.ndarray, data: np.ndarray,
           weights: np.ndarray | None, l1_reg: float, l2_reg: float) -> None:
    """Exact update of every column of ``a`` in ``data ~ a.b``, in place.

    Column t is separable by row, and row i minimizes its (weighted)
    quadratic plus the penalties in Gram form: with ``lin = data.b^T`` and
    ``B_i = sum_j weights[i, j] * b_j b_j^T`` (``b.b^T`` for every row when
    there are no weights), the clipped minimizer is

        a[i, t] = max(lin[i, t] - sum_{s != t} a[i, s] B_i[s, t] - l1, 0)
                  / (B_i[t, t] + l2),

    and 0 where that denominator is 0. With weights, column t of every
    ``B_i`` is one n x k product, so a sweep reads k + 1 matrix products
    instead of making five passes over an n x m residual per column. Called
    on the transposed problem, the same code updates the rows of H.
    """
    lin = data @ b.T
    gram = b @ b.T if weights is None else None
    for t in range(a.shape[1]):
        # row i of cross is column t of B_i
        cross = (np.broadcast_to(gram[t], a.shape) if weights is None
                 else weights @ (b * b[t]).T)
        denom = cross[:, t] + l2_reg
        a[:, t] = 0.0
        numer = lin[:, t] - np.einsum("ij,ij->i", a, cross) - l1_reg
        np.divide(np.maximum(numer, 0.0), denom, out=a[:, t], where=denom > 0)


def fit_nmf(p_prime, cfg: NmfConfig,
            mask: HoldoutMask | None = None) -> Factorization:
    """Alternating exact column/row coordinate updates (HALS).

    Each sweep updates every column of W, then every row of H, by the exact
    minimizer of the (masked) objective with everything else fixed, so the
    objective trace never increases. Stops when the per-iteration objective
    decrease relative to the starting objective falls below cfg.tol.
    """
    dense = np.asarray(p_prime, dtype=float)
    if np.any(dense < 0):
        raise ValueError("input matrix must be non-negative")
    n, m = dense.shape
    cfg.validate(n, m)

    weights = _weight_matrix(dense.shape, mask)
    # Masked entries never influence the fit: zero them out of the data too.
    data = dense if weights is None else dense * weights

    w, h = _init_factors(data, cfg)
    l1_reg = cfg.alpha_m * cfg.l1_ratio
    l2_reg = cfg.alpha_m * (1.0 - cfg.l1_ratio)

    # every iteration is scored from a fresh residual, so no rounding
    # accumulates in the trace
    buf = np.empty_like(data)
    trace = [_objective(data, w, h, weights, l1_reg, l2_reg, buf)]
    scale = max(abs(trace[0]), np.finfo(float).tiny)
    converged = False
    n_iter = 0
    for n_iter in range(1, cfg.max_iter + 1):
        _sweep(w, h, data, weights, l1_reg, l2_reg)
        _sweep(h.T, w.T, data.T, None if weights is None else weights.T,
               l1_reg, l2_reg)
        trace.append(_objective(data, w, h, weights, l1_reg, l2_reg, buf))
        if (trace[-2] - trace[-1]) / scale < cfg.tol:
            converged = True
            break

    return Factorization(w=w, h=h, objective_trace=trace, converged=converged,
                         n_iter=n_iter)


def imputation_mse(p_prime, f: Factorization, mask: HoldoutMask) -> float:
    """Mean squared prediction error over the held-out positions."""
    if not mask.held_out:
        raise ValueError("empty holdout mask")
    dense = np.asarray(p_prime, dtype=float)
    at = mask.index
    return float(np.mean(np.float_power(dense[at] - (f.w @ f.h)[at], 2.0)))


# Upper-bound HALS work of a grid, summed over its cells as
# max_iter * k * n * m, from which the cells run in worker processes. On a
# 447 x 75 spend matrix with k = 2..5 (one BLAS thread), HALS ran at about
# 4e8 of these units per second, so this is about 0.75 s of serial work.
# There, two workers tied with the serial loop at 2.1e8 units and saved
# about a quarter of the time at 3.8e8.
_POOL_MIN_WORK = 3e8

# The grid's matrix and holdout mask inside a pool worker, set once per
# worker by ``_init_worker``.
_worker_inputs: tuple[np.ndarray, HoldoutMask] | None = None


def _grid_cell(dense: np.ndarray, mask: HoldoutMask, cfg: NmfConfig,
               ) -> tuple[float, int, bool, str | None]:
    """One grid cell: (imputation MSE, n_iter, converged, error or None)."""
    try:
        f = fit_nmf(dense, cfg, mask=mask)
        return imputation_mse(dense, f, mask), f.n_iter, f.converged, None
    except (ValueError, np.linalg.LinAlgError) as exc:
        return float("nan"), 0, False, str(exc)


def _init_worker(dense: np.ndarray, mask: HoldoutMask) -> None:
    global _worker_inputs
    _worker_inputs = dense, mask


def _worker_cell(cfg: NmfConfig) -> tuple[float, int, bool, str | None]:
    return _grid_cell(*_worker_inputs, cfg)


def _run_cells(dense: np.ndarray, mask: HoldoutMask, cfgs: list[NmfConfig],
               ) -> list[tuple[float, int, bool, str | None]]:
    """``_grid_cell`` over every config, results in config order.

    The cells are independent, so a large grid spreads them over one spawned
    worker per allowed CPU (never more workers than cells). Each worker
    receives the matrix and the mask once, when it starts, and then the
    configs in chunks. Workers inherit the environment, BLAS thread settings
    included, and run the same arithmetic, so the results equal the
    in-process ones bit for bit.
    """
    n, m = dense.shape
    work = sum(cfg.max_iter * cfg.k * n * m for cfg in cfgs)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(cfgs))
    if workers < 2 or work < _POOL_MIN_WORK:
        return [_grid_cell(dense, mask, cfg) for cfg in cfgs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers, mp_context=spawn, initializer=_init_worker,
                             initargs=(dense, mask)) as pool:
        # a few chunks per worker, so that uneven cells still balance
        return list(pool.map(_worker_cell, cfgs,
                             chunksize=max(1, len(cfgs) // (4 * workers))))


def grid_search(p_prime, k_range, alpha_grid, l1_grid,
                seed: int = 0, tol: float = 1e-6, max_iter: int = 500,
                init: str = "random_uniform",
                holdout_fraction: float = 1.0 / 3.0) -> GridSearchResult:
    """Imputation-driven hyperparameter search over (k, alpha_m, l1_ratio).

    One shared holdout mask is drawn per search; every grid cell fits with
    that mask and is scored on it. Ties break toward smaller k, then larger
    alpha_m, then larger l1_ratio. A failing cell is recorded and skipped. A
    large grid runs its cells in worker processes (see ``_run_cells``); the
    result is the same.
    """
    ks = sorted(set(int(k) for k in k_range))
    alphas = sorted(set(float(a) for a in alpha_grid), reverse=True)
    l1s = sorted(set(float(r) for r in l1_grid), reverse=True)
    if not ks or not alphas or not l1s:
        raise ValueError("empty search grid")

    dense = np.asarray(p_prime, dtype=float)
    mask = make_holdout_mask(dense, fraction=holdout_fraction, seed=seed)
    cfgs = [NmfConfig(k=k, alpha_m=alpha_m, l1_ratio=l1_ratio, tol=tol,
                      max_iter=max_iter, seed=seed, init=init)
            for k in ks for alpha_m in alphas for l1_ratio in l1s]
    table: list[tuple[int, float, float, float]] = []
    failures: list[tuple[int, float, float, str]] = []
    fits: list[tuple[int, bool]] = []
    best_cfg = None
    best_mse = np.inf
    for cfg, (mse, n_iter, converged, error) in zip(cfgs, _run_cells(dense, mask, cfgs)):
        table.append((cfg.k, cfg.alpha_m, cfg.l1_ratio, mse))
        if error is not None:
            failures.append((cfg.k, cfg.alpha_m, cfg.l1_ratio, error))
            continue
        fits.append((n_iter, converged))
        if mse < best_mse:  # scan order encodes the tie-breaking
            best_mse = mse
            best_cfg = cfg
    if best_cfg is None:
        raise ValueError(f"every grid cell failed ({len(failures)} of {len(cfgs)}); "
                         f"first: {failures[0][3]}")
    return GridSearchResult(table=table, best=best_cfg, failures=failures, fits=fits)


def normalize_dictionary(f: Factorization) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Unit-length dictionary rows plus the scales that preserve W.H.

    Returns (h_normalized, scales, zero_rows). Multiplying W's columns by
    the scales reproduces the original product exactly; all-zero rows are
    reported and left as zero with scale 1.
    """
    norms = np.linalg.norm(f.h, axis=1)
    zero_rows = [int(i) for i in np.flatnonzero(norms == 0)]
    scales = np.where(norms == 0, 1.0, norms)
    h_normalized = f.h / scales[:, None]
    return h_normalized, scales, zero_rows


def top_items_per_element(h_normalized: np.ndarray, top_n: int,
                          col_ids: list[str] | None = None,
                          ) -> list[list[tuple[str, float]]]:
    """Per dictionary element, the top_n items by weight, descending.

    Ties order by item id so the report is reproducible.
    """
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    k, m = h_normalized.shape
    ids = col_ids if col_ids is not None else [str(j) for j in range(m)]
    out = []
    for t in range(k):
        ranked = sorted(((ids[j], float(h_normalized[t, j])) for j in range(m)),
                        key=lambda item: (-item[1], item[0]))
        out.append(ranked[:top_n])
    return out
