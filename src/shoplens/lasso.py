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

import numpy as np

from .ingest import PurchaseMatrix


@dataclass
class DesignMatrix:
    x: np.ndarray          # n x p, standardized; Fortran order, C order once taken
    y: np.ndarray          # n responses
    row_ids: list[str]
    col_ids: list[str]
    column_means: np.ndarray
    column_scales: np.ndarray
    dropped_cols: list[str]  # constant columns excluded from x

    def take(self, rows) -> "DesignMatrix":
        """The design of the given rows, in that order.

        ``x`` is numpy's fancy index of this design's ``x``, which comes out
        in C order, and is deliberately not converted: the layout sets the
        summation order of products such as ``x.T @ v``, and with it every
        bit of alpha_max, the alpha grid and the fits.
        """
        rows = np.asarray(rows)
        return replace(self, x=self.x[rows], y=self.y[rows],
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


def _soft_threshold(z: float, a: float) -> float:
    if z > a:
        return z - a
    if z < -a:
        return z + a
    return 0.0


def fit_lasso(design: DesignMatrix, alpha: float, tol: float = 1e-7,
              max_iter: int = 10000,
              warm_start: np.ndarray | None = None) -> LassoModel:
    """Cyclic coordinate descent with exact soft-threshold updates.

    Sweeps alternate between the full coordinate set and the current active
    set; convergence is a full sweep whose largest coefficient change falls
    below tol. Hitting max_iter is reported via ``converged``, not
    raised. ``warm_start`` seeds the coefficients.

    A full sweep screens each run of zero coefficients with one blocked
    gradient x[:, lo:hi]'r / n: a zero coordinate stays zero, and leaves the
    residual untouched, whenever |x_j'r / n| <= alpha, so it is skipped when
    the blocked gradient is below alpha by more than the rounding difference
    between the blocked and the per-column dot product. Every coordinate that
    is visited gets the same floating-point operations in the same order as
    a plain cyclic sweep, so coefficients, sweep counts and the objective
    trace do not depend on the screening.
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
    col_sq = np.einsum("ij,ij->j", x, x) / n
    beta = np.zeros(p) if warm_start is None else np.array(warm_start, dtype=float)
    r = y - intercept - x @ beta

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

    def objective() -> float:
        return float(r @ r / (2 * n) + alpha * np.abs(beta).sum())

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
        trace.append(objective())
        return max_delta

    def active_sweep(active: list[int]) -> float:
        max_delta = 0.0
        for j in active:
            delta = update(j)
            if delta > max_delta:
                max_delta = delta
        trace.append(objective())
        return max_delta

    n_iter = 0
    converged = False
    last_full_delta = np.inf
    while n_iter < max_iter:
        last_full_delta = full_sweep()
        n_iter += 1
        if last_full_delta < tol:
            converged = True
            break
        active = np.flatnonzero(beta).tolist()
        if not active:
            continue
        while n_iter < max_iter:
            delta = active_sweep(active)
            n_iter += 1
            if delta < tol:
                break

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
    g = x.T @ r / n
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
    it is zero exactly at an optimum.
    """
    x, y = design.x, design.y
    n = x.shape[0]
    z = y - model.intercept
    r = z - x @ model.beta
    primal = r @ r / (2 * n) + model.alpha * np.abs(model.beta).sum()
    corr = np.abs(x.T @ r).max(initial=0.0)
    s = min(1.0, n * model.alpha / corr) if corr > 0 else 1.0
    zs = z - s * r
    dual = (z @ z - zs @ zs) / (2 * n)
    return float(primal - dual)


def max_alpha(design: DesignMatrix) -> float:
    """Smallest alpha at which the fitted coefficient vector is all zero."""
    x, y = design.x, design.y
    yc = y - y.mean()
    return float(np.abs(x.T @ yc).max() / x.shape[0])


def default_alpha_grid(design: DesignMatrix, num: int = 100,
                       lo_ratio: float = 1e-4) -> np.ndarray:
    """Log-spaced grid spanning [lo_ratio, 1] x max_alpha."""
    hi = max_alpha(design)
    return hi * np.logspace(np.log10(lo_ratio), 0.0, num)


def cross_validate_alpha(design: DesignMatrix, grid, k: int, seed: int,
                         tol: float = 1e-7, max_iter: int = 10000,
                         ) -> tuple[float, list[tuple[float, float]],
                                    list[tuple[int, bool]]]:
    """Pick alpha by k-fold cross-validation MSE.

    Fold assignment is a seeded permutation of the row positions, so
    identical seeds give identical folds. Ties on mean MSE break toward the
    larger alpha (the sparser model). Returns the chosen alpha, the
    (alpha, mean MSE) curve, and the (n_iter, converged) of every fit, fold
    by fold.
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
    fits: list[tuple[int, bool]] = []
    for fi, test_idx in enumerate(folds):
        train = design.take(np.setdiff1d(pool, test_idx))
        # fit_lasso solves on a Fortran copy of x; made once per fold instead
        # of once per fit, it is the same copy, and the taken rows are freed.
        train.x = np.asfortranarray(train.x)
        test = design.take(test_idx)
        warm = None
        for gi in range(grid.size - 1, -1, -1):  # descending alpha, warm-started
            model = fit_lasso(train, grid[gi], tol, max_iter, warm_start=warm)
            warm = model.beta
            fits.append((model.n_iter, model.converged))
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
    """
    if len(holdout.y) == 0:
        raise ValueError("empty holdout")
    if len(training.y) == 0:
        raise ValueError("holdout covers every row; nothing to train on")

    support = model.support()
    if not support:
        raise ValueError("model has no nonzero coefficients")
    col_ids = training.col_ids
    survivors = list(support)
    support_codes = [col_ids[j] for j in support]
    betas = {col_ids[j]: float(model.beta[j]) for j in support}

    points: list[tuple[int, float]] = []
    dropped: list[str] = []
    fallback_steps: list[int] = []
    step = 0
    while True:
        intercept, coefs, fellback = ols_refit(training.x[:, survivors], training.y)
        if fellback:
            fallback_steps.append(step)
        pred = intercept + holdout.x[:, survivors] @ coefs
        points.append((len(survivors), float(np.mean((holdout.y - pred) ** 2))))
        if not survivors:
            break
        min_abs = np.abs(coefs).min()
        tied = [j for j, c in zip(survivors, coefs) if abs(c) == min_abs]
        victim = max(tied, key=lambda j: col_ids[j])
        dropped.append(col_ids[victim])
        survivors.remove(victim)
        step += 1

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
