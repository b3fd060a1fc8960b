"""Independent reference implementations used to verify the package.

Everything here is written from first principles against the same problem
statements as the library, deliberately using different algorithms (proximal
gradient instead of coordinate descent, a threshold-sweep over the complete
reachability graph instead of an MST walk, a brute-force likelihood grid
instead of bracketed optimization). Nothing imports the code paths it
checks. The full-matrix distance layer (``full_*``) is the exception by
design: it is the n x n reference that the library's row-block core
distances and row-by-row Prim tree must match bit for bit.
"""

import itertools

import numpy as np


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


def ols_holdout_mse(x_train, y_train, x_hold, y_hold):
    """Normal-equations OLS (pseudo-inverse) holdout MSE."""
    a = np.column_stack([np.ones(len(y_train)), x_train])
    sol = np.linalg.pinv(a) @ y_train
    pred = np.column_stack([np.ones(len(y_hold)), x_hold]) @ sol
    return float(np.mean((y_hold - pred) ** 2))


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
