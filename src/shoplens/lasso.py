"""Sparse value regression: l1-penalized linear model solved exactly along
its piecewise-linear path in alpha, alpha selection by cross-validation on
one path per fold, and the drop-smallest-coefficient experiment that fixes
the final feature count.

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
    converged: bool

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


# Width of the column tiles of every X'v product and of the row gather in
# ``DesignMatrix.take``. OpenBLAS splits a larger product between its
# threads, and the bits of the result then depend on the thread count; on
# tiles of this width they are the same at 1 and at 2 threads.
_TILE = 64

# A column whose Schur complement against the columns before it is at or
# below this fraction of its diagonal entry lies within 1e-4 rad of their
# span, and ``_border`` refuses it. Rounding left an exactly dependent
# column of a 359-column refit with a Schur complement of 1.2e-9 of its
# diagonal entry, so the bound sits ten times above that. The lasso path
# applies it to a column that would enter, and the drop experiment to each
# column of a refit.
_PIVOT_RTOL = 1e-8


# The response lies in the active span when its squared residual there is
# at most this fraction of its squared norm. At saturation the residual is
# rounding (5.7e-26 of the norm on a default-config paper fold); one column
# short of it, 1e-10 to 1e-6 on the same folds.
_EPS = float(np.finfo(float).eps)


def _xt_dot(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``x.T @ v`` from products of ``_TILE`` columns at a time: a single
    product over all columns changes bits with the BLAS thread count."""
    out = np.empty(x.shape[1])
    for j in range(0, x.shape[1], _TILE):
        out[j:j + _TILE] = x[:, j:j + _TILE].T @ v
    return out


def _border(inv: np.ndarray, k: int, g: np.ndarray, d: float) -> bool:
    """Border ``inv[:k, :k]``, the inverse of the Gram matrix of k columns,
    to ``inv[:k + 1, :k + 1]``, the inverse with one more column whose
    products with the k columns are ``g`` and with itself ``d``. A column
    whose Schur complement is at most ``_PIVOT_RTOL`` times ``d`` lies in
    the span of the k columns: it is refused, ``inv`` is left as it was,
    and the result is False."""
    h = np.einsum("ij,j->i", inv[:k, :k], g)
    schur = d - g @ h
    if schur <= _PIVOT_RTOL * d:
        return False
    hs = h / schur
    inv[:k, :k] += np.multiply.outer(h, hs)
    inv[:k, k] = inv[k, :k] = -hs
    inv[k, k] = 1.0 / schur
    return True


def _remove(inv: np.ndarray, k: int, i: int) -> None:
    """Downdate ``inv[:k, :k]``, the inverse of the Gram matrix of k
    columns, to ``inv[:k - 1, :k - 1]``, the inverse without the i-th."""
    q = inv[:k, i].copy()
    inv[:k, :k] -= np.multiply.outer(q, q / q[i])
    inv[i:k - 1, :k] = inv[i + 1:k, :k]
    inv[:k - 1, i:k - 1] = inv[:k - 1, i + 1:k]


def _gap(z: np.ndarray, r: np.ndarray, xtr: np.ndarray, alpha: float, l1: float) -> float:
    """Duality gap of a fit with residual ``r = z - X.b``, ``xtr = X'r`` and
    ``l1 = ||b||_1`` (see ``duality_gap``)."""
    n = len(z)
    corr = float(np.abs(xtr).max(initial=0.0))
    s = min(1.0, n * alpha / corr) if corr > 0 else 1.0
    zs = z - s * r
    return float(r @ r / (2 * n) + alpha * l1 - (z @ z - zs @ zs) / (2 * n))


def _path(x: np.ndarray, y: np.ndarray, alphas, max_iter: int):
    """The lasso path of ``(x, y)`` from alpha_max down through ``alphas``,
    which must be descending and positive.

    Returns ``(stops, beta, steps)``: a ``(beta, n_iter, gap)`` for each
    alpha the path reaches, in order, and the coefficients and step count
    where it ended. Between knots the solution is linear in alpha (LARS
    with the lasso modification; Efron, Hastie, Johnstone & Tibshirani
    2004): with the active columns A and their signs s fixed, the
    coefficients move along d = (X_A'X_A/n)^-1 s as alpha falls, and the
    correlations c = X'r/n along a = X'u/n with u = X_A.d. A step ends at
    the first knot: a column whose |c_j| meets alpha enters, or an active
    coefficient that reaches zero leaves. A column whose Schur complement
    is at most ``_PIVOT_RTOL`` times its diagonal lies in the active span
    and does not enter, so of identical columns the lowest index enters
    (``argmin`` takes the first of equal entry events). The response gets
    the same test at rounding level: once its least-squares residual on the
    active columns, r - alpha.u, is at most sqrt(eps) of its norm while a
    column is still out, r = alpha.u, every column's entry sits at alpha = 0
    and none can enter: the path is saturated and ends. It also ends after
    ``max_iter`` steps (adds and drops). Each step takes one ``_xt_dot``
    product, and every other product is an ``einsum``, so the bits do not
    depend on the BLAS thread count. The inverse Gram matrix of the active
    columns is bordered on an add (``_border``, whose Schur test is the one
    above) and downdated on a drop (``_remove``). At each alpha
    in ``alphas`` the residual and X'r are recomputed, for the duality gap
    and as the correlations the path goes on from.
    """
    n, p = x.shape
    z = y - y.mean()
    zz = float(z @ z)
    r = z.copy()
    c = _xt_dot(x, z) / n
    level = float(np.abs(c).max(initial=0.0))
    diag = np.einsum("ij,ij->j", x, x) / n
    size = min(n, p)
    cols = np.empty((n, size), order="F")  # the active columns, in entry order
    inv = np.empty((size, size))           # the inverse of their Gram matrix / n
    coefs = np.empty(size)                 # and their coefficients
    signs = np.empty(size)
    active: list[int] = []
    barrier = np.zeros(p)  # inf for a column in the model or in its span
    stops: list[tuple[np.ndarray, int, float]] = []
    steps = 0
    targets = [float(a) for a in alphas]

    def beta() -> np.ndarray:
        out = np.zeros(p)
        out[active] = coefs[:len(active)]
        return out

    def stop(alpha: float) -> None:
        nonlocal r, c
        k = len(active)
        r = z - np.einsum("ij,j->i", cols[:, :k], coefs[:k])
        xtr = _xt_dot(x, r)
        c = xtr / n
        gap = _gap(z, r, xtr, alpha, float(np.abs(coefs[:k]).sum()))
        stops.append((beta(), steps, gap))

    while targets and targets[0] >= level:  # at or above alpha_max: b = 0
        stop(targets.pop(0))
    stale, left = True, -1
    with np.errstate(divide="ignore", invalid="ignore"):
        while targets and steps < max_iter:
            k = len(active)
            if stale:
                d = np.einsum("ij,j->i", inv[:k, :k], signs[:k])
                u = np.einsum("ij,j->i", cols[:, :k], d)
                a = _xt_dot(x, u) / n
                stale = False
                if k < p and (rest := r - level * u) @ rest <= _EPS * zz:
                    break  # saturated
            hits = -coefs[:k] / d
            hits[~(hits > 0)] = np.inf
            up = (level - c) / (1.0 - a)
            up[a >= 1.0] = np.inf
            down = (level + c) / (1.0 + a)
            down[a <= -1.0] = np.inf
            if left >= 0:  # the column that just left moves inward from its side
                (up if left_sign > 0 else down)[left] = np.inf
            entry = np.maximum(np.minimum(up, down), barrier)
            i = int(np.argmin(hits)) if k else -1
            j = int(np.argmin(entry))
            to_stop = level - targets[0]
            gamma = min(to_stop, hits[i] if k else np.inf, entry[j])
            if entry[j] == gamma < to_stop and (not k or gamma < hits[i]):
                g = np.einsum("ij,i->j", cols[:, :k], x[:, j]) / n
                if k == size or not _border(inv, k, g, diag[j]):
                    barrier[j] = np.inf
                    continue
            coefs[:k] += gamma * d
            c -= gamma * a
            r -= gamma * u
            if gamma == to_stop:
                level = targets.pop(0)
                stop(level)
                continue
            level -= gamma
            steps += 1
            stale, left = True, -1
            if k and gamma == hits[i]:  # the i-th active column leaves
                _remove(inv, k, i)
                left, left_sign = active.pop(i), signs[i]
                for buf in (coefs, signs):
                    buf[i:k - 1] = buf[i + 1:k]
                cols[:, i:k - 1] = cols[:, i + 1:k]
                barrier[:] = 0.0
                barrier[active] = np.inf
            else:  # column j enters; the test above bordered the inverse
                cols[:, k] = x[:, j]
                coefs[k] = 0.0
                signs[k] = 1.0 if up[j] <= down[j] else -1.0
                active.append(j)
                barrier[j] = np.inf
    return stops, beta(), steps


def fit_lasso(design: DesignMatrix, alpha: float, tol: float = 1e-7,
              max_iter: int = 10000) -> LassoModel:
    """The lasso fit at ``alpha``, read off the exact path (``_path``).

    ``converged`` means the path reached ``alpha`` and the fit's duality
    gap is at most ``tol``; ``n_iter`` counts path steps. A path that
    saturates above ``alpha``, or stops after ``max_iter`` steps, returns
    the coefficients where it ended, with ``converged`` false.
    """
    alpha = float(alpha)
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    x, y = design.x, design.y
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in design")
    stops, beta, steps = _path(np.asfortranarray(x), y, [alpha], max_iter)
    converged = False
    if stops:
        beta, steps, gap = stops[0]
        converged = gap <= tol
    return LassoModel(alpha=alpha, intercept=float(y.mean()), beta=beta,
                      col_ids=list(design.col_ids), n_iter=steps, converged=converged)


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
    z = y - model.intercept
    r = z - x @ model.beta
    return _gap(z, r, _xt_dot(x, r), model.alpha, float(np.abs(model.beta).sum()))


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
    """The certificate of one cross-validation fit: a grid alpha that its
    fold's path reached, the path steps taken to reach it, and its
    duality gap."""
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
    identical seeds give identical folds. Each fold runs one path
    (``_path``) down through the grid. A grid alpha below the end of some
    fold's path (saturation, or ``max_iter`` steps) is not reached: its
    mean MSE is NaN, it is never chosen, and it has no ``CvFit``. Ties on
    mean MSE break toward the larger alpha (the sparser model). Returns the
    chosen alpha, the (alpha, mean MSE) curve, and a ``CvFit`` for every
    reached fit, fold by fold and in descending alpha within a fold.
    """
    grid = [float(a) for a in grid]
    for a in grid:
        if not (a > 0 and math.isfinite(a)):
            raise ValueError(f"alpha must be positive and finite, got {a}")
    grid = np.asarray(sorted(set(grid)))
    if grid.size == 0:
        raise ValueError("empty alpha grid")
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    pool = np.arange(len(design.y))
    rng = np.random.default_rng(seed)
    folds = np.array_split(rng.permutation(pool), k)
    for f in folds:
        if len(f) < 2:
            raise ValueError(f"{k} folds of {len(pool)} rows leave one with "
                             f"{len(f)}; need at least 2 rows per fold")

    fold_mse = np.full((k, grid.size), np.nan)
    fits: list[CvFit] = []
    for fi, test_idx in enumerate(folds):
        train = design.take(np.setdiff1d(pool, test_idx))
        test = design.take(test_idx)
        stops, _, _ = _path(train.x, train.y, grid[::-1], max_iter)
        intercept = float(train.y.mean())
        for gi, (beta, steps, gap) in zip(range(grid.size - 1, -1, -1), stops):
            fits.append(CvFit(fi, float(grid[gi]), steps, gap <= tol, gap))
            support = np.flatnonzero(beta)
            pred = intercept + np.einsum("ij,j->i", test.x[:, support], beta[support])
            fold_mse[fi, gi] = np.mean((test.y - pred) ** 2)

    mean_mse = fold_mse.mean(axis=0)
    reached = ~np.isnan(mean_mse)
    if not reached.any():
        raise ValueError(f"no alpha in the grid is reached by every fold's path over "
                         f"{len(pool)} rows in {k} folds; the largest is {grid[-1]:.6g}")
    best_positions = np.flatnonzero(mean_mse == mean_mse[reached].min())
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

    Every refit solves the normal equations of its columns with the inverse
    of their Gram matrix. The inverse is built once, by bordering in column
    order (``_border``), for the intercept and the support, and each drop
    downdates it by one column (``_remove``); a subset of independent
    columns stays independent. A refit with more columns than training
    rows, or with a column that the Schur test refuses, is solved by
    ``ols_refit`` instead, and the next step builds the inverse again; the
    steps where that falls back to its ridge penalty are recorded in
    ``ridge_fallback_steps``.
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
    gram = np.einsum("ij,ik->jk", a, a)
    moments = np.einsum("ij,i->j", a, training.y)
    inv = np.empty((a.shape[1], a.shape[1]))
    built = False  # inv holds the inverse Gram matrix of this step's columns
    alive = list(range(len(support)))

    points: list[tuple[int, float]] = []
    dropped: list[str] = []
    fallback_steps: list[int] = []
    while True:
        survivors = [support[i] for i in alive]
        cols = [0] + [i + 1 for i in alive]
        # More columns than rows cannot be independent; rounding can hide that.
        if not built and len(cols) <= len(training.y):
            built = all(_border(inv, t, gram[c, cols[:t]], gram[c, c])
                        for t, c in enumerate(cols))
        if built:
            sol = np.einsum("ij,j->i", inv[:len(cols), :len(cols)], moments[cols])
            intercept, coefs = float(sol[0]), sol[1:]
        else:
            intercept, coefs, fellback = ols_refit(training.x[:, survivors], training.y)
            if fellback:
                fallback_steps.append(len(dropped))
        pred = intercept + holdout.x[:, survivors] @ coefs
        points.append((len(survivors), float(np.mean((holdout.y - pred) ** 2))))
        if not alive:
            break
        min_abs = np.abs(coefs).min()
        tied = [i for i, c in zip(alive, coefs) if abs(c) == min_abs]
        victim = max(tied, key=lambda i: col_ids[support[i]])
        dropped.append(col_ids[support[victim]])
        if built:
            _remove(inv, len(cols), alive.index(victim) + 1)
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

    P-P points pair the normal CDF of the sorted standardized residuals
    with Hazen plotting positions (i - 0.5) / n. Constant residuals make
    standardization impossible; the report is flagged degenerate and
    carries no P-P points.
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
