"""Noise-aware density clustering of customer affinity rows.

Pipeline: core distances -> mutual reachability minimum spanning tree ->
condensed cluster tree at min_cluster_size -> excess-of-mass stability
selection. Points that never sit inside a selected cluster are noise
(label -1).

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


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        self.parent[rb] = ra
        return ra


def _merge_tree(edges: list[tuple[int, int, float]], n: int):
    """Tie-aware single-linkage tree: equal-weight merges become one
    multiway node. Returns (root, children, weight, size, min_point) where
    leaves are point indices 0..n-1 and internal nodes follow."""
    ordered = sorted(edges, key=lambda e: (e[2], min(e[0], e[1]), max(e[0], e[1])))
    uf = _UnionFind(n)
    node_of = {i: i for i in range(n)}
    children: dict[int, list[int]] = {}
    weight: dict[int, float] = {}
    size = {i: 1 for i in range(n)}
    min_point = {i: i for i in range(n)}
    next_node = n

    i = 0
    while i < len(ordered):
        w = ordered[i][2]
        group_members: dict[int, list[int]] = {}
        while i < len(ordered) and ordered[i][2] == w:
            a, b, _ = ordered[i]
            i += 1
            ra, rb = uf.find(a), uf.find(b)
            if ra == rb:
                continue
            ma = group_members.pop(ra, None) or [node_of[ra]]
            mb = group_members.pop(rb, None) or [node_of[rb]]
            r = uf.union(ra, rb)
            group_members[r] = ma + mb
        for root, members in group_members.items():
            node = next_node
            next_node += 1
            kids = sorted(members, key=lambda c: min_point[c])
            children[node] = kids
            weight[node] = w
            size[node] = sum(size[c] for c in kids)
            min_point[node] = min(min_point[c] for c in kids)
            node_of[root] = node

    root = node_of[uf.find(0)]
    return root, children, weight, size, min_point


def _leaves_under(node: int, children: dict[int, list[int]], n: int) -> list[int]:
    out, stack = [], [node]
    while stack:
        cur = stack.pop()
        if cur < n:
            out.append(cur)
        else:
            stack.extend(children[cur])
    return sorted(out)


def extract_clusters(mst: list[tuple[int, int, float]],
                     min_cluster_size: int = 5) -> ClusterLabeling:
    """Condensed-tree extraction with excess-of-mass cluster selection.

    Walking the merge tree from the root with lambda = 1/distance: a
    component that splits into two or more pieces of at least
    min_cluster_size starts that many new clusters; smaller pieces fall out
    of their cluster as individual points. A cluster's stability is the
    accumulated (departure lambda - birth lambda) mass; a parent beats its
    children when its stability is at least the children's combined, and
    the tree root competes like any other cluster. Points whose departure
    chain never meets a selected cluster are noise. min_cluster_size must be
    at least 2 (``cluster_rows`` checks it).
    """
    n = len(mst) + 1
    if n < 2:
        raise ValueError("need at least 2 points (one spanning-tree edge)")
    uf_check = _UnionFind(n)
    for a, b, w in mst:
        if not (0 <= a < n and 0 <= b < n) or w < 0:
            raise ValueError(f"bad edge ({a}, {b}, {w})")
        if uf_check.find(a) == uf_check.find(b):
            raise ValueError("edge list contains a cycle; not a tree")
        uf_check.union(a, b)

    root, children, weight, size, min_point = _merge_tree(mst, n)

    root_cid = n
    next_cid = n + 1
    records: list[tuple[int, float]] = []  # (cid, lambda) of each departing point
    birth = {root_cid: 0.0}
    cluster_kids: dict[int, list[int]] = {root_cid: []}
    cluster_parent: dict[int, int] = {}
    point_departure: dict[int, int] = {}  # point -> the cid it leaves
    split_records: list[tuple[int, float, int]] = []  # (parent cid, lambda, child size)

    stack = [(root, root_cid)]
    while stack:
        node, cid = stack.pop()
        if node < n:
            # a bare point can only carry a cluster id if min_cluster_size
            # were 1, which cluster_rows rules out
            raise AssertionError("leaf reached with a cluster identity")
        lam = math.inf if weight[node] == 0.0 else 1.0 / weight[node]
        kids = children[node]
        big = [c for c in kids if size[c] >= min_cluster_size]
        small = [c for c in kids if size[c] < min_cluster_size]
        if len(big) >= 2:
            for c in big:
                new_cid = next_cid
                next_cid += 1
                birth[new_cid] = lam
                cluster_kids[new_cid] = []
                cluster_kids[cid].append(new_cid)
                cluster_parent[new_cid] = cid
                split_records.append((cid, lam, size[c]))
                stack.append((c, new_cid))
            spill = small
        elif len(big) == 1:
            stack.append((big[0], cid))
            spill = small
        else:
            spill = kids
        for c in spill:
            for p in _leaves_under(c, children, n):
                records.append((cid, lam))
                point_departure[p] = cid

    # Points first, then splits: the order of the additions is part of the result.
    stability = {cid: 0.0 for cid in birth}
    for parent_cid, lam in records:
        stability[parent_cid] += lam - birth[parent_cid]
    for parent_cid, lam, sz in split_records:
        stability[parent_cid] += sz * (lam - birth[parent_cid])

    selected = {cid: True for cid in birth}
    if n < min_cluster_size:
        selected[root_cid] = False
    adjusted = dict(stability)
    for cid in sorted(birth, reverse=True):
        kids = cluster_kids[cid]
        if not kids:
            continue
        child_sum = sum(adjusted[k] for k in kids)
        if child_sum > adjusted[cid]:
            selected[cid] = False
            adjusted[cid] = child_sum
        else:
            walk = list(kids)
            while walk:
                d = walk.pop()
                selected[d] = False
                walk.extend(cluster_kids[d])

    raw_labels = np.full(n, -1, dtype=int)
    for p in range(n):
        cid = point_departure[p]
        while cid is not None and not selected.get(cid, False):
            cid = cluster_parent.get(cid)
        if cid is not None:
            raw_labels[p] = cid

    chosen = sorted(
        {c for c in raw_labels if c >= 0},
        key=lambda c: (-int((raw_labels == c).sum()), int(np.flatnonzero(raw_labels == c)[0])),
    )
    remap = {c: i for i, c in enumerate(chosen)}
    labels = np.array([remap.get(c, -1) for c in raw_labels], dtype=int)
    sizes = {int(v): int((labels == v).sum()) for v in sorted(set(labels.tolist()))}
    return ClusterLabeling(labels=labels, n_clusters=len(chosen), sizes=sizes)


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
