"""Sparse value regression: l1-penalized linear model solved by cyclic
coordinate descent, alpha selection by cross-validation, and the
drop-smallest-coefficient experiment that fixes the final feature count.

Objective convention: (1 / (2n)) * ||y - b0 - X.b||_2^2 + alpha * ||b||_1
with an unpenalized intercept b0 fixed at mean(y). Alpha values are only
meaningful under this convention and with standardized predictor columns
(population standard deviation, i.e. divide by n not n-1).
"""

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .ingest import PurchaseMatrix


@dataclass
class DesignMatrix:
    x: np.ndarray          # n x p, standardized, Fortran order
    y: np.ndarray          # n responses
    row_ids: list[str]
    col_ids: list[str]
    column_means: np.ndarray
    column_scales: np.ndarray
    dropped_cols: list[str]  # constant columns excluded from x

    def take(self, rows) -> "DesignMatrix":
        """The design of the given rows, in that order."""
        rows = np.asarray(rows)
        x = np.empty((len(rows), self.x.shape[1]), order="F")
        for j in range(0, x.shape[1], _TILE):  # a whole C-ordered gather raised peak RSS
            x[:, j:j + _TILE] = self.x[rows, j:j + _TILE]
        return replace(self, x=x, y=self.y[rows],
                       row_ids=[self.row_ids[i] for i in rows.tolist()])


@dataclass
class LassoModel:
    alpha: float
    intercept: float
    beta: np.ndarray
    col_ids: list[str]
    n_iter: int
    max_coord_delta: float
    converged: bool
    objective_trace: list[float] = field(default_factory=list)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.intercept + x @ self.beta

    def support(self) -> list[int]:
        return [int(j) for j in np.flatnonzero(self.beta)]


@dataclass
class FeatureRanking:
    ranked: list[tuple[str, float]]  # (stock_code, |beta|), descending
    selected_count: int


@dataclass
class DropExperimentCurve:
    points: list[tuple[int, float]]   # (n_features, holdout mse), n strictly decreasing
    support: list[str]                # initial feature set, in design column order
    dropped: list[str]                # features in the order they were dropped
    betas: dict[str, float]           # fitted coefficients on the support
    ridge_fallback_steps: list[int] = field(default_factory=list)


@dataclass
class DiagnosticsReport:
    actual: np.ndarray
    predicted: np.ndarray
    pp_theoretical: np.ndarray
    pp_empirical: np.ndarray
    degenerate: bool


def standardize(p_matrix, responses) -> DesignMatrix:
    """Center and scale matrix columns; constant columns are removed.

    Scaling uses the population standard deviation so a two-row column
    [0, 2] standardizes exactly to [-1, 1]. Accepts a PurchaseMatrix with a
    customer->response mapping, or a plain array with responses aligned by
    row (rows are then named r0, r1, ...).
    """
    if isinstance(p_matrix, PurchaseMatrix):
        dense = p_matrix.to_dense()
        row_ids = list(p_matrix.row_ids)
        col_ids = list(p_matrix.col_ids)
        missing = [r for r in row_ids if r not in responses]
        if missing:
            raise ValueError(f"rows without a response: {missing}")
        y = np.array([responses[r] for r in row_ids], dtype=float)
    else:
        dense = np.asarray(p_matrix, dtype=float)
        row_ids = [f"r{i}" for i in range(dense.shape[0])]
        col_ids = [f"c{j}" for j in range(dense.shape[1])]
        y = np.asarray(responses, dtype=float)
        if len(y) != dense.shape[0]:
            raise ValueError("rows without a response: response length mismatch")
    if dense.shape[0] < 2:
        raise ValueError(f"need at least 2 rows to standardize, got {dense.shape[0]}")

    means = dense.mean(axis=0)
    scales = dense.std(axis=0)
    keep = np.flatnonzero(scales > 0)
    dropped = [col_ids[j] for j in np.flatnonzero(scales == 0)]
    x = (dense[:, keep] - means[keep]) / scales[keep]
    return DesignMatrix(
        x=np.asfortranarray(x),
        y=y,
        row_ids=row_ids,
        col_ids=[col_ids[j] for j in keep],
        column_means=means[keep],
        column_scales=scales[keep],
        dropped_cols=dropped,
    )


# Columns per blocked gradient when a full sweep screens zero coefficients;
# a coordinate that enters the model wastes at most one block of it.
_SCREEN_BLOCK = 64

# Active sweeps between Newton steps on the support. On the pinned paper
# workload's select-features (seeds 1-3, 6, 8, 9, 11), every 2, 3 or 5 sweeps
# took the same time within 2%, every sweep took 7% longer and every 10 or
# 20 sweeps 12% and 35% longer; 3 needs 27% fewer sweeps than 5.
_NEWTON_EVERY = 3

# Width of the tiles that every Gram product, X'v product and Cholesky factor
# is built from. OpenBLAS splits a larger product or factorization between its
# threads, and the bits of the result then depend on the thread count; on
# tiles of this width they are the same at 1 and at 2 threads.
_TILE = 64

# A Cholesky pivot at or below this fraction of its diagonal entry means the
# column lies within 1e-4 rad of the span of the columns before it, and the
# system is treated as singular. Rounding left an exactly dependent column
# of a 359-column refit with a pivot of 1.2e-9 of its diagonal entry, so the
# bound sits ten times above that.
_PIVOT_RTOL = 1e-8


def _padded(k: int) -> int:
    return -(-k // _TILE) * _TILE


def _gram(a: np.ndarray) -> np.ndarray:
    """``a.T @ a`` from tile products on a zero-padded copy of ``a``, so
    its bits do not depend on the BLAS thread count."""
    n, k = a.shape
    m = _padded(k)
    ap = np.zeros((n, m), order="F")
    ap[:, :k] = a
    g = np.empty((m, m))
    for i in range(0, m, _TILE):
        ti = ap[:, i:i + _TILE]
        for j in range(0, i + _TILE, _TILE):
            g[i:i + _TILE, j:j + _TILE] = ti.T @ ap[:, j:j + _TILE]
            g[j:j + _TILE, i:i + _TILE] = g[i:i + _TILE, j:j + _TILE].T
    return g[:k, :k]


def _xt_dot(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``x.T @ v`` from products of ``_TILE`` columns at a time: a single
    product over all columns changes bits with the BLAS thread count."""
    out = np.empty(x.shape[1])
    for j in range(0, x.shape[1], _TILE):
        out[j:j + _TILE] = x[:, j:j + _TILE].T @ v
    return out


def _factor_tile(s: np.ndarray, diag: np.ndarray):
    """Cholesky factor of the tile ``s``, or the position of its first pivot
    that is not above ``_PIVOT_RTOL`` times its diagonal entry in ``diag``."""
    def factor(t: int):
        try:
            f = np.linalg.cholesky(s[:t, :t])
        except np.linalg.LinAlgError:
            return None
        return f if (np.diag(f) ** 2 > _PIVOT_RTOL * diag[:t]).all() else None

    tile = factor(len(s))
    if tile is not None:
        return tile
    lo, hi = 0, len(s)  # the leading lo x lo block factors, the hi x hi one does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if factor(mid) is None:
            hi = mid
        else:
            lo = mid
    return lo


def _cholesky(g: np.ndarray):
    """Tiled lower Cholesky factor of the symmetric matrix ``g``, as
    ``(low, inverses, held)``: the factor, the inverses of its diagonal
    tiles, and the columns it held out.

    A column whose pivot is at most ``_PIVOT_RTOL`` times its diagonal entry
    depends on the columns before it. Its row and column are replaced by
    those of the identity, so ``_cho_solve`` returns 0 there and solves the
    remaining columns' system exactly when the right-hand side is 0 there.
    Built from tile products and tile factorizations, so its bits do not
    depend on the BLAS thread count.
    """
    k = len(g)
    m = _padded(k)
    a = np.eye(m)
    a[:k, :k] = g
    diag = np.diag(a).copy()
    low = np.zeros((m, m))
    inverses: list[np.ndarray] = []
    held: list[int] = []
    for j in range(0, m, _TILE):
        cj = slice(j, j + _TILE)
        for i in range(j, m, _TILE):
            ci = slice(i, i + _TILE)
            s = a[ci, cj].copy()
            for q in range(0, j, _TILE):
                s -= low[ci, q:q + _TILE] @ low[cj, q:q + _TILE].T
            if i > j:
                low[ci, cj] = s @ inverses[-1].T
                continue
            while not isinstance(tile := _factor_tile(s, diag[cj]), np.ndarray):
                c = j + tile
                held.append(c)
                a[c, :] = a[:, c] = low[c, :] = 0.0
                a[c, c] = 1.0
                s[tile, :] = s[:, tile] = 0.0
                s[tile, tile] = 1.0
            low[cj, cj] = tile
            inverses.append(np.linalg.inv(tile))
    return low, inverses, held


def _cho_solve(low: np.ndarray, inverses: list[np.ndarray], b: np.ndarray) -> np.ndarray:
    """Solve ``g @ v = b`` for the ``g`` that ``_cholesky`` factored, by
    forward and back substitution one tile at a time (``einsum`` products,
    which do not use BLAS threads)."""
    k = len(b)
    v = np.zeros(low.shape[0])
    v[:k] = b
    for t, j in enumerate(range(0, len(v), _TILE)):
        cj = slice(j, j + _TILE)
        v[cj] = np.einsum("ij,j->i", inverses[t],
                          v[cj] - np.einsum("ij,j->i", low[cj, :j], v[:j]))
    for t in range(len(inverses) - 1, -1, -1):
        j = t * _TILE
        cj = slice(j, j + _TILE)
        v[cj] = np.einsum("ij,i->j", inverses[t],
                          v[cj] - np.einsum("ij,i->j", low[j + _TILE:, cj],
                                            v[j + _TILE:]))
    return v[:k]


def _soft_threshold(z: float, a: float) -> float:
    if z > a:
        return z - a
    if z < -a:
        return z + a
    return 0.0


def _to_first_sign_change(now: np.ndarray, target: np.ndarray):
    """The point of the segment from ``now`` to ``target`` where the first
    coordinate changes sign, with that coordinate exactly 0, and its
    position; ``target`` and None when no coordinate changes sign."""
    flips = np.flatnonzero(np.sign(target) != np.sign(now))
    if not flips.size:
        return target, None
    ratios = now[flips] / (now[flips] - target[flips])
    first = int(flips[np.argmin(ratios)])
    point = now + ratios.min() * (target - now)
    point[first] = 0.0
    return point, first


def fit_lasso(design: DesignMatrix, alpha: float, tol: float = 1e-7,
              max_iter: int = 10000,
              warm_start: np.ndarray | None = None) -> LassoModel:
    """Cyclic coordinate descent with exact soft-threshold updates, and a
    Newton step on the support every ``_NEWTON_EVERY`` active sweeps.

    Sweeps alternate between the full coordinate set and the current active
    set; convergence is a full sweep whose largest coefficient change falls
    below tol. Hitting max_iter is reported via ``converged``, not
    raised; ``n_iter`` counts sweeps. ``warm_start`` seeds the coefficients.

    A full sweep screens each run of zero coefficients with one blocked
    gradient x[:, lo:hi]'r / n: a zero coordinate stays zero, and leaves the
    residual untouched, whenever |x_j'r / n| <= alpha, so it is skipped when
    the blocked gradient is below alpha by more than the rounding difference
    between the blocked and the per-column dot product. Every coordinate that
    is visited gets the same floating-point operations in the same order as
    a plain cyclic sweep, so coefficients, sweep counts and the objective
    trace do not depend on the screening.

    With the signs s of the support S held fixed, the objective is a
    quadratic whose minimizer solves (X_S'X_S / n) b = X_S'z / n - alpha.s
    with z = y - b0 (the feature-sign step of Lee, Battle, Raina & Ng,
    2007). The Newton step moves the support's coefficients to that
    minimizer or, if a sign would change, as far as the first sign change,
    where that coefficient becomes exactly zero, and then steps again on the
    smaller support. A step is kept only if it does not raise the objective,
    so the objective trace never increases. A support of at least n columns
    is left to the sweeps, and a support column that depends on the others
    (such as a repeated column) is held at its value during the step.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    alpha = float(alpha)  # Python floats: cheaper scalar arithmetic, same IEEE results
    x, y = design.x, design.y
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in design")
    x = np.asfortranarray(x)
    n, p = x.shape

    intercept = float(y.mean())
    z = y - intercept
    col_sq = np.einsum("ij,ij->j", x, x) / n
    beta = np.zeros(p) if warm_start is None else np.array(warm_start, dtype=float)
    r = z - x @ beta

    cols = [x[:, j] for j in range(p)]
    sq = col_sq.tolist()
    b = beta.tolist()
    tmp = np.empty(n)
    # Two dot products of the same n terms, summed in any order, differ by
    # at most 2 * gamma_n * ||x_j|| * ||r|| ~ eps * ||x_j|| * ||r|| before the
    # division by n, and the divisions and the comparison with alpha add a
    # few eps * alpha; the screening slack is four times both.
    slack_x = 4.0 * np.finfo(float).eps * np.sqrt(col_sq * n)
    slack_alpha = 4.0 * np.finfo(float).eps * alpha
    trace: list[float] = []

    def update(j: int) -> float:
        """Soft-threshold update of coordinate j; returns |change|."""
        s = sq[j]
        if s == 0.0:
            return 0.0
        old = b[j]
        c = cols[j]
        rho = float(c.dot(r)) / n + s * old
        new = _soft_threshold(rho, alpha) / s
        if new != old:
            np.multiply(c, new - old, tmp)
            np.subtract(r, tmp, r)
            b[j] = new
            beta[j] = new
        return abs(new - old)

    def objective(res: np.ndarray, coefs: np.ndarray) -> float:
        return float(res @ res / (2 * n) + alpha * np.abs(coefs).sum())

    def newton() -> bool:
        """Feature-sign steps on the support, repeated after a sign change.

        The support's Gram matrix is factored once. After a sign change the
        step solves the smaller system by bordering: with W = G^-1 E for
        the unit columns E of the zeroed coordinates Z, the solution
        u + W.mu with (E'W) mu = -E'u is zero on Z and solves the system of
        the other coordinates. A support column that depends on the others
        is held at its value. Returns whether a step was kept; a support of
        at least n columns is singular and gets none.
        """
        support = np.flatnonzero(beta)
        if support.size >= n:
            return False
        xs = x[:, support]
        gram = _gram(xs) / n
        low, inverses, held = _cholesky(gram)
        now = beta[support]
        rhs = np.einsum("ij,i->j", xs, z) / n - alpha * np.sign(now)
        if held:
            rhs -= np.einsum("ij,j->i", gram[:, held], now[held])
            rhs[held] = 0.0
        base = _cho_solve(low, inverses, rhs)
        base[held] = now[held]
        zeroed: list[int] = []
        bordering: list[np.ndarray] = []
        current = trace[-1]
        kept = False
        while True:
            target = base.copy()
            if zeroed:  # at most one tile: np.linalg.solve is thread-stable there
                w = np.column_stack(bordering)
                target += np.einsum("ij,j->i", w, np.linalg.solve(w[zeroed], -base[zeroed]))
                target[zeroed] = 0.0
            target, first = _to_first_sign_change(now, target)
            trial = beta.copy()
            trial[support] = target
            res = z - np.einsum("ij,j->i", xs, target)
            value = objective(res, trial)
            if value > current:
                return kept
            beta[:] = trial
            for j, v in zip(support.tolist(), target.tolist()):
                b[j] = v
            r[:] = res
            current = value
            kept = True
            if first is None or len(zeroed) == _TILE:
                return True
            now = target
            zeroed.append(first)
            unit = np.zeros(support.size)
            unit[first] = 1.0
            bordering.append(_cho_solve(low, inverses, unit))

    def full_sweep() -> float:
        max_delta = 0.0
        lo = 0
        for a in np.flatnonzero(beta).tolist() + [p]:
            while lo < a:  # zero coefficients lo..a-1, one block at a time
                hi = min(a, lo + _SCREEN_BLOCK)
                g = np.abs(x[:, lo:hi].T @ r / n)
                bound = alpha - (slack_alpha + np.sqrt(r.dot(r)) * slack_x[lo:hi])
                nxt = hi
                for k in np.flatnonzero(g >= bound).tolist():
                    delta = update(lo + k)
                    if delta > 0.0:  # entered the model: the rest of g is stale
                        max_delta = max(max_delta, delta)
                        nxt = lo + k + 1
                        break
                lo = nxt
            if a < p:
                max_delta = max(max_delta, update(a))
                lo = a + 1
        trace.append(objective(r, beta))
        return max_delta

    def active_sweep(active: list[int]) -> float:
        max_delta = 0.0
        for j in active:
            delta = update(j)
            if delta > max_delta:
                max_delta = delta
        trace.append(objective(r, beta))
        return max_delta

    n_iter = 0
    active_sweeps = 0
    converged = False
    polished = False
    last_full_delta = np.inf
    while n_iter < max_iter:
        last_full_delta = full_sweep()
        n_iter += 1
        if last_full_delta < tol:
            # One Newton step before stopping, confirmed by one more sweep.
            if polished or n_iter == max_iter or not newton():
                converged = True
                break
            polished = True
            continue
        polished = False
        active = np.flatnonzero(beta).tolist()
        if not active:
            continue
        while n_iter < max_iter:
            delta = active_sweep(active)
            n_iter += 1
            if delta < tol:
                break
            active_sweeps += 1
            if active_sweeps % _NEWTON_EVERY == 0 and n_iter < max_iter:
                newton()

    return LassoModel(
        alpha=float(alpha),
        intercept=intercept,
        beta=beta,
        col_ids=list(design.col_ids),
        n_iter=n_iter,
        max_coord_delta=float(last_full_delta),
        converged=converged,
        objective_trace=trace,
    )


def kkt_violations(design: DesignMatrix, model: LassoModel) -> tuple[float, float]:
    """Largest stationarity violations, (nonzero coords, zero coords).

    At an exact optimum the gradient x_j'r/n equals alpha*sign(beta_j) on
    the support and lies within [-alpha, alpha] off it.
    """
    x, y = design.x, design.y
    n = x.shape[0]
    r = y - model.intercept - x @ model.beta
    g = _xt_dot(x, r) / n
    nz = model.beta != 0
    viol_nz = float(np.abs(g[nz] - model.alpha * np.sign(model.beta[nz])).max()) if nz.any() else 0.0
    viol_z = float(np.maximum(np.abs(g[~nz]) - model.alpha, 0.0).max()) if (~nz).any() else 0.0
    return viol_nz, viol_z


def duality_gap(design: DesignMatrix, model: LassoModel) -> float:
    """Primal objective minus the dual objective at a rescaled residual.

    With z = y - b0 and r = z - X.b, the dual point s.r with
    s = min(1, n.alpha / ||X'r||_inf) is feasible, so the gap
    P - D = ||r||^2/2n + alpha.||b||_1 - (||z||^2 - ||z - s.r||^2)/2n is
    non-negative and bounds how far the objective is from its optimum;
    it is zero exactly at an optimum. Its bits do not depend on the BLAS
    thread count.
    """
    x, y = design.x, design.y
    n = x.shape[0]
    z = y - model.intercept
    r = z - x @ model.beta
    primal = r @ r / (2 * n) + model.alpha * np.abs(model.beta).sum()
    corr = float(np.abs(_xt_dot(x, r)).max(initial=0.0))
    s = min(1.0, n * model.alpha / corr) if corr > 0 else 1.0
    zs = z - s * r
    dual = (z @ z - zs @ zs) / (2 * n)
    return float(primal - dual)


def max_alpha(design: DesignMatrix) -> float:
    """Smallest alpha at which the fitted coefficient vector is all zero."""
    x, y = design.x, design.y
    yc = y - y.mean()
    return float(np.abs(_xt_dot(x, yc)).max() / x.shape[0])


def default_alpha_grid(design: DesignMatrix, num: int = 100,
                       lo_ratio: float = 1e-4) -> np.ndarray:
    """Log-spaced grid spanning [lo_ratio, 1] x max_alpha."""
    hi = max_alpha(design)
    return hi * np.logspace(np.log10(lo_ratio), 0.0, num)


class CvFit(NamedTuple):
    """The certificate of one cross-validation fit."""
    fold: int
    alpha: float
    n_iter: int
    converged: bool
    duality_gap: float


def cross_validate_alpha(design: DesignMatrix, grid, k: int, seed: int,
                         tol: float = 1e-7, max_iter: int = 10000,
                         ) -> tuple[float, list[tuple[float, float]], list[CvFit]]:
    """Pick alpha by k-fold cross-validation MSE.

    Fold assignment is a seeded permutation of the row positions, so
    identical seeds give identical folds. Ties on mean MSE break toward the
    larger alpha (the sparser model). Returns the chosen alpha, the
    (alpha, mean MSE) curve, and a ``CvFit`` for every fit, fold by fold
    and in descending alpha within a fold.
    """
    grid = np.asarray(sorted(set(float(a) for a in grid)))
    if grid.size == 0:
        raise ValueError("empty alpha grid")
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    pool = np.arange(len(design.y))
    rng = np.random.default_rng(seed)
    folds = np.array_split(rng.permutation(pool), k)
    for f in folds:
        if len(f) < 2:
            raise ValueError(f"fold with {len(f)} rows; need at least 2 per fold")

    fold_mse = np.zeros((k, grid.size))
    fits: list[CvFit] = []
    for fi, test_idx in enumerate(folds):
        train = design.take(np.setdiff1d(pool, test_idx))
        test = design.take(test_idx)
        warm = None
        for gi in range(grid.size - 1, -1, -1):  # descending alpha, warm-started
            model = fit_lasso(train, grid[gi], tol, max_iter, warm_start=warm)
            warm = model.beta
            fits.append(CvFit(fi, float(grid[gi]), model.n_iter, model.converged,
                              duality_gap(train, model)))
            fold_mse[fi, gi] = np.mean((test.y - model.predict(test.x)) ** 2)

    mean_mse = fold_mse.mean(axis=0)
    best_positions = np.flatnonzero(mean_mse == mean_mse.min())
    alpha_best = float(grid[best_positions[-1]])
    return alpha_best, [(float(a), float(m)) for a, m in zip(grid, mean_mse)], fits


def ols_refit(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Least-squares fit with intercept; rank-deficient systems fall back
    to a tiny ridge penalty on the slope coefficients."""
    n, p = x.shape
    a = np.column_stack([np.ones(n), x])
    sol, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
    fallback = rank < a.shape[1]
    if fallback:
        g = a.T @ a + 1e-8 * np.diag([0.0] + [1.0] * p)
        sol = np.linalg.solve(g, a.T @ y)
    return float(sol[0]), sol[1:], fallback


def drop_experiment(training: DesignMatrix, holdout: DesignMatrix,
                    model: LassoModel) -> DropExperimentCurve:
    """Holdout error as features leave the model one at a time.

    Starting from the model support, refit ordinary least squares on the
    training design, record MSE on the holdout design, drop the feature with
    the smallest absolute coefficient (ties drop the lexicographically larger
    stock code), and repeat down to the intercept-only model. Both designs
    share the model's columns.

    Every refit solves the normal equations of its columns by a Cholesky
    factor of the matching block of one Gram matrix, formed once for the
    intercept and the whole support. A refit with more columns than training
    rows, or whose block holds a column (see ``_cholesky``), is solved by
    ``ols_refit`` instead; the steps where that falls back to its ridge
    penalty are recorded in ``ridge_fallback_steps``.
    """
    if len(holdout.y) == 0:
        raise ValueError("empty holdout")
    if len(training.y) == 0:
        raise ValueError("holdout covers every row; nothing to train on")

    support = model.support()
    if not support:
        raise ValueError("model has no nonzero coefficients")
    col_ids = training.col_ids
    support_codes = [col_ids[j] for j in support]
    betas = {col_ids[j]: float(model.beta[j]) for j in support}

    # Column 0 of the refit design is the intercept, column i + 1 is support[i].
    a = np.column_stack([np.ones(len(training.y)), training.x[:, support]])
    gram = _gram(a)
    moments = np.einsum("ij,i->j", a, training.y)
    alive = list(range(len(support)))

    points: list[tuple[int, float]] = []
    dropped: list[str] = []
    fallback_steps: list[int] = []
    while True:
        survivors = [support[i] for i in alive]
        cols = [0] + [i + 1 for i in alive]
        # More columns than rows cannot factor; rounding can hide that.
        held = len(cols) > len(training.y)
        if not held:
            low, inverses, held = _cholesky(gram[np.ix_(cols, cols)])
        if held:
            intercept, coefs, fellback = ols_refit(training.x[:, survivors], training.y)
            if fellback:
                fallback_steps.append(len(dropped))
        else:
            sol = _cho_solve(low, inverses, moments[cols])
            intercept, coefs = float(sol[0]), sol[1:]
        pred = intercept + holdout.x[:, survivors] @ coefs
        points.append((len(survivors), float(np.mean((holdout.y - pred) ** 2))))
        if not alive:
            break
        min_abs = np.abs(coefs).min()
        tied = [i for i, c in zip(alive, coefs) if abs(c) == min_abs]
        victim = max(tied, key=lambda i: col_ids[support[i]])
        dropped.append(col_ids[support[victim]])
        alive.remove(victim)

    return DropExperimentCurve(points=points, support=support_codes,
                               dropped=dropped, betas=betas,
                               ridge_fallback_steps=fallback_steps)


def select_features(curve: DropExperimentCurve, slack: float = 0.05) -> FeatureRanking:
    """Sparsest point whose holdout MSE is within slack of the curve minimum."""
    if not curve.points:
        raise ValueError("empty drop-experiment curve")
    min_mse = min(m for _, m in curve.points)
    threshold = (1.0 + slack) * min_mse
    n_star = min(n for n, m in curve.points if m <= threshold)
    removed = set(curve.dropped[:len(curve.support) - n_star])
    survivors = [c for c in curve.support if c not in removed]
    ranked = sorted(((c, abs(curve.betas[c])) for c in survivors),
                    key=lambda t: (-t[1], t[0]))
    return FeatureRanking(ranked=ranked, selected_count=n_star)


_SQRT1_2 = math.sqrt(0.5)


def normal_cdf(z: float) -> float:
    """Standard normal CDF, laid out as Cephes' ``ndtr``: ``erf`` near 0 and
    ``erfc`` in the tails, so a tail probability keeps its relative
    precision. Within 1e-13 relative of ``scipy.special.ndtr`` for |z| <= 20.
    """
    x = z * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0 else y


def residual_diagnostics(actual, predicted) -> DiagnosticsReport:
    """Predicted-vs-actual pairs plus probability-probability coordinates.

    P-P points pair the normal CDF of the sorted standardized residuals with Hazen plotting positions (i - 0.5) / n. Constant
    residuals make standardization impossible; the report is flagged
    degenerate and carries no P-P points.
    """
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.size == 0:
        raise ValueError("empty holdout")
    resid = actual - predicted
    std = resid.std()
    if std == 0:
        return DiagnosticsReport(actual, predicted, np.array([]), np.array([]), True)
    z = np.sort((resid - resid.mean()) / std)
    n = z.size
    empirical = (np.arange(1, n + 1) - 0.5) / n
    theoretical = np.array([normal_cdf(v) for v in z.tolist()])
    return DiagnosticsReport(actual, predicted, theoretical, empirical, False)
