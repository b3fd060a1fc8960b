"""Noise-aware density clustering of customer affinity rows.

Pipeline: core distances -> mutual reachability minimum spanning tree ->
condensed cluster tree at min_cluster_size -> excess-of-mass stability
selection. Points that never sit inside a selected cluster are noise
(label -1).

The tree is kept once, in flat lists indexed by node: one union-find pass
over the sorted edges both checks that they form a tree and builds the
merges; each node's points are one contiguous range of the leaves in
depth-first order; and one table maps each cluster to the selected cluster
above it, so labeling a point is one lookup.

Conventions, fixed for reproducibility:
  - The core distance is the distance to the min_samples-th nearest
    neighbor, not counting the point itself.
  - Merges at equal distances collapse into one multiway event, so a
    dataset whose pairwise distances are all equal yields a single cluster
    (when n >= min_cluster_size) rather than an arbitrary binary cascade.
  - The tree root is a candidate cluster, so a single tight blob comes back
    as one cluster, never as all-noise.
  - All tie-breaking is by point index; permuting the input rows permutes
    the labeling accordingly (same partition, possibly renamed ids).
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class ClusterLabeling:
    labels: np.ndarray           # per-row cluster id, -1 = noise
    n_clusters: int
    sizes: dict[int, int]        # includes -1 when noise is present


@dataclass
class ClusterProfile:
    cluster_id: int
    centroid: np.ndarray
    normalized_centroid: np.ndarray
    zero_centroid: bool


# Elements (rows x n x k) in one distance block: its squared distances are
# 2^19 / k float64 values, so the distance layer never holds an n x n matrix.
_BLOCK_ELEMENTS = 1 << 19


def _block_rows(n: int, k: int) -> int:
    """Rows per distance block for n points in k dimensions (at least one)."""
    return max(1, _BLOCK_ELEMENTS // max(1, n * k))


def _squared_distances(x, cols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_j (x[j] - cols[j])**2, written into out and returned.

    cols holds one contiguous row per coordinate (points.T); x[j] is a
    scalar or a column that broadcasts against cols[j]. The k terms are
    added in the order numpy sums a last axis of length k: left to right
    below 8 terms, in eight running sums combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) up to 128, and as two halves (the
    first a multiple of 8 long) above that. So np.sqrt(out) equals
    np.sqrt(((x - points) ** 2).sum(-1)) bit for bit.
    """
    k = len(cols)
    if k > 128:
        half = k // 2 - k // 2 % 8
        _squared_distances(x[:half], cols[:half], out)
        out += _squared_distances(x[half:], cols[half:], np.empty_like(out))
        return out

    def square(j, dest):
        np.subtract(x[j], cols[j], out=dest)
        return np.multiply(dest, dest, out=dest)

    lanes = 1 if k < 8 else 8
    sums = [square(0, out)] + [square(j, np.empty_like(out)) for j in range(1, lanes)]
    term = np.empty_like(out)
    body = k - k % lanes
    for j in range(lanes, body):
        sums[j % lanes] += square(j, term)
    if lanes == 8:
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            sums[a] += sums[b]
    for j in range(body, k):
        out += square(j, term)
    return out


def core_distances(points: np.ndarray, min_samples: int) -> np.ndarray:
    """Distance to each point's min_samples-th nearest neighbor (excluding
    itself).

    Squared distances are computed one block of rows at a time, so memory is
    O(block x n) rather than O(n^2). The selected value is the same whether
    the block is partitioned before or after np.sqrt, which is monotone, so
    only the selected column is square-rooted.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n <= min_samples:
        raise ValueError(f"need more than min_samples={min_samples} points, got {n}")
    cols = np.ascontiguousarray(points.T)
    core = np.empty(n)
    step = _block_rows(n, points.shape[1])
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        block = _squared_distances(cols[:, lo:hi, None], cols, np.empty((hi - lo, n)))
        block.partition(min_samples, axis=1)
        np.sqrt(block[:, min_samples], out=core[lo:hi])
    return core


def mutual_reachability_mst(points: np.ndarray, core: np.ndarray) -> list[tuple[int, int, float]]:
    """Minimum spanning tree under max(core_a, core_b, d(a, b)).

    Prim's algorithm over the complete graph; on ties the lowest-index
    vertex joins first, so the tree is deterministic. The reachability row
    of a vertex is computed when it joins the tree, so memory is O(n). A
    vertex in the tree keeps best = +inf, so argmin over best sees only the
    vertices still outside.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")

    cols = np.ascontiguousarray(points.T)
    outside = np.ones(n, dtype=bool)
    best = np.full(n, np.inf)
    parent = np.full(n, -1)
    row = np.empty(n)
    improve = np.empty(n, dtype=bool)
    best[0] = 0.0
    edges: list[tuple[int, int, float]] = []
    for _ in range(n):
        v = int(np.argmin(best))  # argmin takes the first minimum: index tie-break
        if parent[v] >= 0:
            edges.append((int(parent[v]), v, float(best[v])))
        best[v] = np.inf
        outside[v] = False
        np.sqrt(_squared_distances(cols[:, v], cols, row), out=row)
        np.maximum(row, core, out=row)
        np.maximum(row, core[v], out=row)
        np.less(row, best, out=improve)
        improve &= outside
        np.copyto(parent, v, where=improve)
        np.copyto(best, row, where=improve)
    return edges


def _merge_tree(edges: list[tuple[int, int, float]], n: int):
    """Tie-aware single-linkage tree over the spanning tree's edges, checked
    as it is built. Equal-weight merges become one multiway node; children
    are ordered by their first (lowest) point. Returns (children, weight,
    size, start) as lists indexed by node: leaves are points 0..n-1,
    internal nodes follow in creation order and the root is the last. The
    leaves in depth-first order put every node's points in one contiguous
    range of positions, start[node] to start[node] + size[node]; a point's
    own position is start[point].
    """
    ordered = sorted(edges, key=lambda e: (e[2], min(e[0], e[1]), max(e[0], e[1])))
    up = list(range(n))         # union-find over points
    node_of = list(range(n))    # the tree node of each union-find root
    children: list[list[int]] = [[] for _ in range(n)]
    weight = [0.0] * n
    size = [1] * n
    first = list(range(n))

    def find(x: int) -> int:
        root = x
        while up[root] != root:
            root = up[root]
        while up[x] != root:
            up[x], x = root, up[x]
        return root

    groups: dict[int, list[int]] = {}  # root -> the nodes it merges at this weight
    for i, (a, b, w) in enumerate(ordered):
        if not (0 <= a < n and 0 <= b < n) or not w >= 0:
            raise ValueError(f"bad edge ({a}, {b}, {w})")
        ra, rb = find(a), find(b)
        if ra == rb:
            raise ValueError("edge list contains a cycle; not a tree")
        up[rb] = ra
        members = groups.pop(ra, None) or [node_of[ra]]
        members += groups.pop(rb, None) or [node_of[rb]]
        groups[ra] = members
        if i + 1 < len(ordered) and ordered[i + 1][2] == w:
            continue
        for root, members in groups.items():
            node_of[root] = len(size)
            kids = sorted(members, key=first.__getitem__)
            children.append(kids)
            weight.append(w)
            size.append(sum(size[c] for c in kids))
            first.append(first[kids[0]])
        groups = {}

    start = [0] * len(size)
    for node in range(len(size) - 1, n - 1, -1):
        pos = start[node]
        for c in children[node]:
            start[c] = pos
            pos += size[c]
    return children, weight, size, start


def extract_clusters(mst: list[tuple[int, int, float]],
                     min_cluster_size: int = 5) -> ClusterLabeling:
    """Condensed-tree extraction with excess-of-mass cluster selection.

    Walking the merge tree from the root with lambda = 1/distance: a
    component that splits into two or more pieces of at least
    min_cluster_size starts that many new clusters; smaller pieces fall out
    of their cluster as individual points. A cluster's stability is the
    accumulated (departure lambda - birth lambda) mass; a parent beats its
    children when its stability is at least the children's combined, and
    the tree root competes like any other cluster. A point takes the label
    of the highest winning cluster on the path from the root to the cluster
    it leaves; with no winner on that path it is noise.
    Clusters are numbered by size (descending), then by first point.
    min_cluster_size must be at least 2 (``cluster_rows`` checks it).
    """
    n = len(mst) + 1
    if n < 2:
        raise ValueError("need at least 2 points (one spanning-tree edge)")
    children, weight, size, start = _merge_tree(mst, n)

    # Clusters in creation order, so a parent comes before its children.
    birth, parent, stability = [0.0], [-1], [0.0]
    cluster_kids: list[list[int]] = [[]]
    departure = np.empty(n, dtype=int)  # by leaf position: the cluster a point leaves
    stack = [(len(size) - 1, 0)]
    while stack:
        node, cid = stack.pop()
        if node < n:
            # a bare point can only carry a cluster id if min_cluster_size
            # were 1, which cluster_rows rules out
            raise AssertionError("leaf reached with a cluster identity")
        lam = math.inf if weight[node] == 0.0 else 1.0 / weight[node]
        big = [c for c in children[node] if size[c] >= min_cluster_size]
        # One addition per departing point, then the splits: the order of
        # the additions is part of the result.
        for c in children[node]:
            if size[c] < min_cluster_size:
                departure[start[c]:start[c] + size[c]] = cid
                for _ in range(size[c]):
                    stability[cid] += lam - birth[cid]
        if len(big) == 1:
            stack.append((big[0], cid))
        elif big:
            for c in big:
                new_cid = len(birth)
                birth.append(lam)
                parent.append(cid)
                stability.append(0.0)
                cluster_kids.append([])
                cluster_kids[cid].append(new_cid)
                stability[cid] += size[c] * (lam - birth[cid])
                stack.append((c, new_cid))

    # A cluster wins unless its children's combined stability beats its own.
    won = [True] * len(birth)
    won[0] = n >= min_cluster_size
    for cid in range(len(birth) - 1, -1, -1):
        if cluster_kids[cid]:
            child_sum = sum(stability[k] for k in cluster_kids[cid])
            if child_sum > stability[cid]:
                won[cid] = False
                stability[cid] = child_sum
    # The highest winner on each cluster's path from the root owns it.
    owner = [-1] * len(birth)
    for cid in range(len(birth)):
        above = owner[parent[cid]] if cid else -1
        owner[cid] = above if above >= 0 or not won[cid] else cid

    raw = np.asarray(owner)[departure[start[:n]]]
    ids, first, counts = np.unique(raw, return_index=True, return_counts=True)
    kept = ids >= 0
    rank = np.lexsort((first[kept], -counts[kept]))
    renumber = np.full(len(birth) + 1, -1)  # its last entry maps noise (-1) to -1
    renumber[ids[kept][rank]] = np.arange(len(rank))
    sizes = {-1: int(counts[0])} if not kept[0] else {}
    sizes.update((i, int(c)) for i, c in enumerate(counts[kept][rank]))
    return ClusterLabeling(labels=renumber[raw], n_clusters=len(rank), sizes=sizes)


def cluster_rows(points: np.ndarray, min_cluster_size: int = 5,
                 min_samples: int = 5) -> ClusterLabeling:
    """Full pass: core distances, reachability MST, cluster extraction."""
    if min_cluster_size < 2:
        raise ValueError(f"min_cluster_size must be >= 2, got {min_cluster_size}")
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1, got {min_samples}")
    if min_samples > min_cluster_size:
        raise ValueError("min_samples must not exceed min_cluster_size")
    points = np.asarray(points, dtype=float)
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite))} holds a NaN or infinite value")
    # Below this magnitude no squared distance of two rows, k * (2 * |x|)^2
    # at most, can overflow.
    limit = math.sqrt(np.finfo(float).max / max(points.shape[1], 1)) / 2
    large = (np.abs(points) >= limit).any(axis=1)
    if large.any():
        raise ValueError(f"row {int(np.argmax(large))} holds a value of magnitude "
                         f">= {limit:.3g}; squared distances would overflow")
    core = core_distances(points, min_samples)
    mst = mutual_reachability_mst(points, core)
    return extract_clusters(mst, min_cluster_size)


def profile_clusters(labeling: ClusterLabeling, w: np.ndarray) -> list[ClusterProfile]:
    """Mean affinity row per non-noise cluster, plus its unit-norm version.

    A zero centroid cannot be normalized; it is flagged and left as zero.
    """
    w = np.asarray(w, dtype=float)
    if len(w) != len(labeling.labels):
        raise ValueError("labeling and affinity matrix disagree on row count")
    profiles = []
    for cid in range(labeling.n_clusters):
        centroid = w[labeling.labels == cid].mean(axis=0)
        norm = np.linalg.norm(centroid)
        if norm == 0:
            profiles.append(ClusterProfile(cid, centroid, centroid.copy(), True))
        else:
            profiles.append(ClusterProfile(cid, centroid, centroid / norm, False))
    return profiles
