"""Independent reference implementations used to verify the package.

Everything here is written from first principles against the same problem
statements as the library, deliberately using different algorithms (proximal
gradient instead of coordinate descent, a threshold-sweep over the complete
reachability graph instead of an MST walk, a brute-force likelihood grid
instead of bracketed optimization). Nothing imports the code paths it
checks. Three references are exceptions by design, because the library must
match them bit for bit: the full-matrix distance layer (``full_*``), the
n x n reference for the library's row-block core distances and row-by-row
Prim tree; ``reference_fit_lasso``, the plain cyclic coordinate descent
that the library's screened solver reproduces; and the NMF layer
(``reference_fit_nmf`` and its mask and imputation helpers), the separate
W and H updates that the library's single column sweep reproduces, with
``reference_grid_search``, the serial cell loop that the library may run in
worker processes. It shares only the input coercion and the factor
initialization with the library.
"""

import itertools

import numpy as np

from shoplens.lasso import DesignMatrix, LassoModel, SolverConfig
from shoplens.nmf import (Factorization, HoldoutMask, NmfConfig, _as_dense,
                          _init_factors)


# ------------------------------------------------------------ lasso ------

def projected_gradient_lasso(x, y, alpha, tol=1e-10, max_iter=500_000):
    """ISTA on (1/(2n))||y - b0 - X.b||^2 + alpha*||b||_1, b0 = mean(y)."""
    x = np.asarray(x, dtype=float)
    yc = np.asarray(y, dtype=float) - np.mean(y)
    n, p = x.shape
    gram = x.T @ x / n
    lip = float(np.linalg.eigvalsh(gram).max())
    step = 1.0 / lip
    beta = np.zeros(p)
    for _ in range(max_iter):
        grad = gram @ beta - x.T @ yc / n
        z = beta - step * grad
        new = np.sign(z) * np.maximum(np.abs(z) - step * alpha, 0.0)
        if np.abs(new - beta).max() < tol:
            beta = new
            break
        beta = new
    return float(np.mean(y)), beta


def _reference_soft_threshold(z: float, a: float) -> float:
    if z > a:
        return z - a
    if z < -a:
        return z + a
    return 0.0


def reference_fit_lasso(design: DesignMatrix, alpha: float,
                          cfg: SolverConfig = SolverConfig(),
                          rows: np.ndarray | None = None,
                          warm_start: np.ndarray | None = None) -> LassoModel:
    """Cyclic coordinate descent with exact soft-threshold updates, visiting
    every coordinate of every sweep; ``fit_lasso`` must match it bit for bit.

    Sweeps alternate between the full coordinate set and the current active
    set; convergence is a full sweep whose largest coefficient change falls
    below cfg.tol. Hitting max_iter is reported via ``converged``, not
    raised. ``rows`` restricts the fit to a row subset (used by
    cross-validation); ``warm_start`` seeds the coefficients.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    x, y = design.x, design.y
    if rows is not None:
        x, y = x[np.asarray(rows)], y[np.asarray(rows)]
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in design")
    x = np.asfortranarray(x)
    n, p = x.shape

    intercept = float(y.mean())
    col_sq = np.einsum("ij,ij->j", x, x) / n
    beta = np.zeros(p) if warm_start is None else np.array(warm_start, dtype=float)
    r = y - intercept - x @ beta

    trace: list[float] = []

    def sweep(indices) -> float:
        max_delta = 0.0
        for j in indices:
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            rho = x[:, j] @ r / n + col_sq[j] * old
            new = _reference_soft_threshold(rho, alpha) / col_sq[j]
            if new != old:
                r[:] -= x[:, j] * (new - old)
                beta[j] = new
            delta = abs(new - old)
            if delta > max_delta:
                max_delta = delta
        trace.append(float(r @ r / (2 * n) + alpha * np.abs(beta).sum()))
        return max_delta

    all_idx = range(p)
    n_iter = 0
    converged = False
    last_full_delta = np.inf
    while n_iter < cfg.max_iter:
        last_full_delta = sweep(all_idx)
        n_iter += 1
        if last_full_delta < cfg.tol:
            converged = True
            break
        active = np.flatnonzero(beta)
        if active.size == 0:
            continue
        while n_iter < cfg.max_iter:
            delta = sweep(active)
            n_iter += 1
            if delta < cfg.tol:
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


def ols_holdout_mse(x_train, y_train, x_hold, y_hold):
    """Normal-equations OLS (pseudo-inverse) holdout MSE."""
    a = np.column_stack([np.ones(len(y_train)), x_train])
    sol = np.linalg.pinv(a) @ y_train
    pred = np.column_stack([np.ones(len(y_hold)), x_hold]) @ sol
    return float(np.mean((y_hold - pred) ** 2))


# ------------------------------------------------------------ nmf ------
# Masked HALS with separate W-column and H-row updates, the holdout mask and
# the per-pair imputation score; ``fit_nmf``, ``make_holdout_mask`` and
# ``imputation_mse`` must match them bit for bit.

def reference_holdout_mask(p_prime, fraction: float = 1.0 / 3.0,
                           seed: int = 0) -> HoldoutMask:
    """Seeded uniform sample of the stored (positive) entries.

    Structural zeros are absences, not observations, so they are never held
    out; predicting them would swamp the imputation error.
    """
    dense, _, _ = _as_dense(p_prime)
    positions = [(int(i), int(j)) for i, j in zip(*np.nonzero(dense > 0))]
    positions.sort()
    if not positions:
        raise ValueError("matrix has no stored entries to hold out")
    rng = np.random.default_rng(seed)
    count = max(1, round(fraction * len(positions)))
    chosen = rng.choice(len(positions), size=count, replace=False)
    held = tuple(positions[i] for i in sorted(chosen))
    return HoldoutMask(held_out=held, fraction=fraction)


def reference_weight_matrix(shape: tuple[int, int],
                            mask: HoldoutMask | None) -> np.ndarray | None:
    if mask is None:
        return None
    m = np.ones(shape)
    for i, j in mask.held_out:
        m[i, j] = 0.0
    return m


def reference_fit_nmf(p_prime, cfg: NmfConfig,
                      mask: HoldoutMask | None = None) -> Factorization:
    """Alternating exact column/row coordinate updates (HALS).

    Each sweep updates every column of W, then every row of H, by the exact
    minimizer of the (masked) objective with everything else fixed, so the
    objective trace never increases. Stops when the per-iteration objective
    decrease relative to the starting objective falls below cfg.tol.
    """
    dense, row_ids, col_ids = _as_dense(p_prime)
    if np.any(dense < 0):
        raise ValueError("input matrix must be non-negative")
    n, m = dense.shape
    cfg.validate(n, m)

    weights = reference_weight_matrix(dense.shape, mask)
    # Masked entries never influence the fit: zero them out of the data too.
    data = dense if weights is None else dense * weights

    w, h = _init_factors(data, cfg)
    l1_reg = cfg.alpha_m * cfg.l1_ratio
    l2_reg = cfg.alpha_m * (1.0 - cfg.l1_ratio)

    def regularizers() -> float:
        return (l1_reg * (np.abs(w).sum() + np.abs(h).sum())
                + 0.5 * l2_reg * ((w ** 2).sum() + (h ** 2).sum()))

    def fresh_residual() -> np.ndarray:
        r = data - w @ h
        if weights is not None:
            r *= weights
        return r

    resid = fresh_residual()
    trace = [float(0.5 * (resid ** 2).sum() + regularizers())]
    converged = False
    n_iter = 0
    for n_iter in range(1, cfg.max_iter + 1):
        # W column sweep: for component t, the subproblem is separable by row
        for t in range(cfg.k):
            ht = h[t]
            if weights is None:
                denom = float(ht @ ht) + l2_reg
                if denom == 0.0:
                    new = np.zeros(n)
                else:
                    numer = resid @ ht + w[:, t] * (ht @ ht) - l1_reg
                    new = np.maximum(numer, 0.0) / denom
            else:
                wh2 = weights @ (ht * ht)
                denom = wh2 + l2_reg
                numer = resid @ ht + w[:, t] * wh2 - l1_reg
                new = np.where(denom > 0, np.maximum(numer, 0.0)
                               / np.where(denom > 0, denom, 1.0), 0.0)
            delta = new - w[:, t]
            if np.any(delta):
                outer = np.outer(delta, ht)
                if weights is not None:
                    outer *= weights
                resid -= outer
                w[:, t] = new
        # H row sweep, symmetric
        for t in range(cfg.k):
            wt = w[:, t]
            if weights is None:
                denom = float(wt @ wt) + l2_reg
                if denom == 0.0:
                    new = np.zeros(m)
                else:
                    numer = wt @ resid + (wt @ wt) * h[t] - l1_reg
                    new = np.maximum(numer, 0.0) / denom
            else:
                w2m = (wt * wt) @ weights
                denom = w2m + l2_reg
                numer = wt @ resid + h[t] * w2m - l1_reg
                new = np.where(denom > 0, np.maximum(numer, 0.0)
                               / np.where(denom > 0, denom, 1.0), 0.0)
            delta = new - h[t]
            if np.any(delta):
                outer = np.outer(wt, delta)
                if weights is not None:
                    outer *= weights
                resid -= outer
                h[t] = new

        resid = fresh_residual()  # drop accumulated rounding before scoring
        trace.append(float(0.5 * (resid ** 2).sum() + regularizers()))
        scale = max(abs(trace[0]), np.finfo(float).tiny)
        if (trace[-2] - trace[-1]) / scale < cfg.tol:
            converged = True
            break

    return Factorization(w=w, h=h, objective_trace=trace, converged=converged,
                         n_iter=n_iter, row_ids=row_ids, col_ids=col_ids)


def reference_imputation_mse(p_prime, f: Factorization, mask: HoldoutMask) -> float:
    """Mean squared prediction error over the held-out positions."""
    if not mask.held_out:
        raise ValueError("empty holdout mask")
    dense, _, _ = _as_dense(p_prime)
    recon = f.w @ f.h
    errs = [(dense[i, j] - recon[i, j]) ** 2 for i, j in mask.held_out]
    return float(np.mean(errs))


def reference_grid_search(p_prime, k_range, alpha_grid, l1_grid, seed: int = 0,
                          tol: float = 1e-6, max_iter: int = 500,
                          init: str = "random_uniform",
                          holdout_fraction: float = 1.0 / 3.0):
    """Every grid cell fitted in turn, in the library's scan order.

    Returns the table rows (k, alpha_m, l1_ratio, imputation MSE or nan for
    a failed cell) and the (n_iter, converged) of every cell that fitted.
    """
    dense, _, _ = _as_dense(p_prime)
    mask = reference_holdout_mask(dense, fraction=holdout_fraction, seed=seed)
    table, fits = [], []
    for k, alpha_m, l1_ratio in itertools.product(
            sorted(set(int(k) for k in k_range)),
            sorted(set(float(a) for a in alpha_grid), reverse=True),
            sorted(set(float(r) for r in l1_grid), reverse=True)):
        cfg = NmfConfig(k=k, alpha_m=alpha_m, l1_ratio=l1_ratio, tol=tol,
                        max_iter=max_iter, seed=seed, init=init)
        try:
            f = reference_fit_nmf(dense, cfg, mask=mask)
        except (ValueError, np.linalg.LinAlgError):
            table.append((k, alpha_m, l1_ratio, float("nan")))
            continue
        table.append((k, alpha_m, l1_ratio, reference_imputation_mse(dense, f, mask)))
        fits.append((f.n_iter, f.converged))
    return table, fits


# ---------------------------------------------------------- box-cox ------

def boxcox_grid_lambda(values, lo=-5.0, hi=5.0, resolution=1e-3):
    """Arg-max of the power-transform profile log-likelihood on a grid."""
    values = np.asarray(values, dtype=float)
    logs = np.log(values).sum()
    n = len(values)
    grid = np.arange(lo, hi + resolution / 2, resolution)
    best_lam, best_ll = None, -np.inf
    for lam in grid:
        if abs(lam) < 1e-12:
            t = np.log(values)
        else:
            t = (values ** lam - 1.0) / lam
        var = t.var()
        if var <= 0:
            continue
        ll = -0.5 * n * np.log(var) + (lam - 1.0) * logs
        if ll > best_ll:
            best_ll, best_lam = ll, lam
    return float(best_lam)


# -------------------------------------------------------- clustering -----

def minimum_spanning_weight_bruteforce(weights: np.ndarray) -> float:
    """Minimum total weight over every spanning tree (tiny n only)."""
    n = weights.shape[0]
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best = np.inf
    for combo in itertools.combinations(all_edges, n - 1):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ok = True
        for a, b in combo:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            best = min(best, sum(weights[a, b] for a, b in combo))
    return float(best)


def full_pairwise_distances(points) -> np.ndarray:
    """Euclidean distances from the full n x n x k difference tensor."""
    points = np.asarray(points, dtype=float)
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def full_core_distances(points, min_samples) -> np.ndarray:
    """min_samples-th nearest-neighbor distance by sorting whole rows of the
    full distance matrix (position 0 is the point itself)."""
    return np.sort(full_pairwise_distances(points), axis=1)[:, min_samples]


def _mutual_reachability(points, min_samples):
    dist = full_pairwise_distances(points)
    core = full_core_distances(points, min_samples)
    return np.maximum(dist, np.maximum(core[:, None], core[None, :]))


def full_prim_mst(points, core) -> list:
    """Prim's algorithm over a precomputed n x n mutual reachability matrix;
    on ties the lowest-index vertex joins first."""
    dist = full_pairwise_distances(points)
    core = np.asarray(core, dtype=float)
    mreach = np.maximum(dist, np.maximum(core[:, None], core[None, :]))
    n = len(mreach)
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)
    parent = np.full(n, -1)
    best[0] = 0.0
    edges = []
    for _ in range(n):
        v = int(np.argmin(np.where(in_tree, np.inf, best)))
        in_tree[v] = True
        if parent[v] >= 0:
            edges.append((int(parent[v]), v, float(best[v])))
        improve = ~in_tree & (mreach[v] < best)
        parent[improve] = v
        best[improve] = mreach[v][improve]
    return edges


def reference_density_partition(points, min_samples, min_cluster_size):
    """Threshold-sweep density clustering over the complete reachability
    graph; returns (frozenset-of-members per cluster, noise frozenset).

    Sweeps distinct reachability levels from the largest down, recomputing
    connected components from scratch at every level, and tracks cluster
    births, point departures, and splits directly from the component
    structure. Stability selection and labeling mirror the published
    excess-of-mass rule with the tree root allowed to win.
    """
    n = len(points)
    mr = _mutual_reachability(points, min_samples)
    off_diag = mr[~np.eye(n, dtype=bool)]
    levels = sorted(set(off_diag.tolist()), reverse=True)

    def components(members, threshold):
        # connected parts of `members` using edges strictly below threshold
        members = sorted(members)
        seen = set()
        parts = []
        for start in members:
            if start in seen:
                continue
            comp = {start}
            queue = [start]
            while queue:
                a = queue.pop()
                for b in members:
                    if b not in comp and mr[a, b] < threshold:
                        comp.add(b)
                        queue.append(b)
            seen |= comp
            parts.append(comp)
        return parts

    clusters = {0: {"birth": 0.0, "size": n, "children": [], "parent": None}}
    active = {0: set(range(n))}
    departure = {}
    next_cid = 1

    for level in levels:
        lam = np.inf if level == 0 else 1.0 / level
        for cid in sorted(active):
            members = active[cid]
            parts = components(members, level)
            if len(parts) == 1 and len(parts[0]) == len(members):
                continue
            big = [p for p in parts if len(p) >= min_cluster_size]
            small = [p for p in parts if len(p) < min_cluster_size]
            if len(big) >= 2:
                for part in sorted(big, key=min):
                    clusters[next_cid] = {"birth": lam, "size": len(part),
                                          "children": [], "parent": cid}
                    clusters[cid]["children"].append(next_cid)
                    active[next_cid] = part
                    next_cid += 1
                for part in small:
                    for p in part:
                        departure[p] = (cid, lam)
                del active[cid]
            elif len(big) == 1:
                active[cid] = big[0]
                for part in small:
                    for p in part:
                        departure[p] = (cid, lam)
            else:
                for p in members:
                    departure[p] = (cid, lam)
                del active[cid]
    for cid, members in active.items():  # everything departs by the last level
        for p in members:
            departure[p] = (cid, np.inf)

    stability = {cid: 0.0 for cid in clusters}
    for p, (cid, lam) in departure.items():
        stability[cid] += lam - clusters[cid]["birth"]
    for cid, info in clusters.items():
        if info["parent"] is not None:
            stability[info["parent"]] += info["size"] * (info["birth"]
                                                         - clusters[info["parent"]]["birth"])

    selected = {cid: True for cid in clusters}
    if n < min_cluster_size:
        selected[0] = False
    adjusted = dict(stability)
    for cid in sorted(clusters, reverse=True):
        kids = clusters[cid]["children"]
        if not kids:
            continue
        child_sum = sum(adjusted[k] for k in kids)
        if child_sum > adjusted[cid]:
            selected[cid] = False
            adjusted[cid] = child_sum
        else:
            stack = list(kids)
            while stack:
                d = stack.pop()
                selected[d] = False
                stack.extend(clusters[d]["children"])

    member_sets: dict[int, set] = {}
    noise = set()
    for p in range(n):
        cid, _ = departure[p]
        while cid is not None and not selected[cid]:
            cid = clusters[cid]["parent"]
        if cid is None:
            noise.add(p)
        else:
            member_sets.setdefault(cid, set()).add(p)
    return {frozenset(v) for v in member_sets.values()}, frozenset(noise)


def partition_of(labels) -> tuple[set, frozenset]:
    """Convert a label vector into (set of member frozensets, noise set)."""
    labels = np.asarray(labels)
    clusters = {frozenset(np.flatnonzero(labels == c).tolist())
                for c in set(labels.tolist()) if c >= 0}
    return clusters, frozenset(np.flatnonzero(labels == -1).tolist())
