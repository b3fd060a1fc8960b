import math
import tracemalloc

import numpy as np
import pytest

from shoplens import cluster
from shoplens.cluster import (ClusterLabeling, cluster_rows, core_distances, extract_clusters,
                              mutual_reachability_mst, profile_clusters)

from conftest import blobs_with_noise
from oracles import (full_core_distances, full_pairwise_distances, full_prim_mst,
                     minimum_spanning_weight_bruteforce, partition_of,
                     reference_density_partition)


class TestCoreDistances:
    def test_collinear_hand_geometry(self):
        points = np.array([[0.0], [1.0], [3.0]])
        assert core_distances(points, 1).tolist() == [1.0, 1.0, 2.0]

    def test_all_identical_points(self):
        points = np.zeros((6, 3))
        assert core_distances(points, 2).tolist() == [0.0] * 6

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((100, 4))
        got = core_distances(points, 5)
        for i in range(100):
            dists = sorted(np.linalg.norm(points - points[i], axis=1))
            assert got[i] == dists[5]  # position 0 is the point itself

    def test_requires_enough_points(self):
        with pytest.raises(ValueError, match="more than"):
            core_distances(np.zeros((3, 2)), 3)


class TestMst:
    def test_two_points(self):
        points = np.array([[0.0], [2.0]])
        core = core_distances(points, 1)
        edges = mutual_reachability_mst(points, core)
        assert len(edges) == 1
        a, b, w = edges[0]
        assert {a, b} == {0, 1}
        assert w == max(core[0], core[1], 2.0)

    def test_square_matches_exhaustive_oracle(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        core = core_distances(points, 1)
        dist = np.linalg.norm(points[:, None] - points[None, :], axis=-1)
        mreach = np.maximum(dist, np.maximum(core[:, None], core[None, :]))
        edges = mutual_reachability_mst(points, core)
        total = sum(w for *_, w in edges)
        assert total == pytest.approx(minimum_spanning_weight_bruteforce(mreach))

    def test_random_cloud_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((6, 2))
        core = core_distances(points, 2)
        dist = np.linalg.norm(points[:, None] - points[None, :], axis=-1)
        mreach = np.maximum(dist, np.maximum(core[:, None], core[None, :]))
        total = sum(w for *_, w in mutual_reachability_mst(points, core))
        assert total == pytest.approx(minimum_spanning_weight_bruteforce(mreach))

    def test_equidistant_chain_is_a_path(self):
        points = np.arange(7, dtype=float)[:, None]
        core = core_distances(points, 1)
        edges = mutual_reachability_mst(points, core)
        pairs = {frozenset((a, b)) for a, b, _ in edges}
        assert pairs == {frozenset((i, i + 1)) for i in range(6)}

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            mutual_reachability_mst(np.zeros((1, 2)), np.zeros(1))

    def test_mutual_reachability_dominates_distance(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((40, 3))
        core = core_distances(points, 4)
        dist = np.linalg.norm(points[:, None] - points[None, :], axis=-1)
        mreach = np.maximum(dist, np.maximum(core[:, None], core[None, :]))
        assert np.all(mreach >= dist)
        assert np.abs(mreach - mreach.T).max() == 0.0


def _one_block_n(k):
    """Largest n whose distance rows all fit in a single block."""
    n = 2
    while cluster._block_rows(n + 1, k) >= n + 1:
        n += 1
    return n


def assert_matches_full_matrix(points, min_samples):
    core = core_distances(points, min_samples)
    expected_core = full_core_distances(points, min_samples)
    assert core.tolist() == expected_core.tolist()
    assert mutual_reachability_mst(points, core) == full_prim_mst(points, expected_core)


class TestSquaredDistanceKernel:
    """The column-wise kernel adds the k squared differences in numpy's order
    for summing a last axis of length k, so its square root is bit-equal to
    the reference distance expressions."""

    @pytest.mark.parametrize("k", list(range(1, 21)) + [130])
    def test_bit_equal_to_reference_expression(self, k):
        rng = np.random.default_rng(k)
        points = rng.standard_normal((40, k)) * 10.0 ** rng.uniform(-3, 3, (40, k))
        cols = np.ascontiguousarray(points.T)
        block = cluster._squared_distances(cols[:, 5:17, None], cols, np.empty((12, 40)))
        assert np.array_equal(np.sqrt(block), full_pairwise_distances(points)[5:17])
        for v in (0, 23):
            row = cluster._squared_distances(cols[:, v], cols, np.empty(40))
            assert np.array_equal(np.sqrt(row), np.sqrt(((points[v] - points) ** 2).sum(axis=-1)))


class TestBlockedDistances:
    """Row blocks and row-by-row Prim reproduce the full-matrix layer exactly."""

    # 8 is where numpy's sum switches to eight running sums, 20 is the
    # default nmf.k_max, and above 128 the sum splits into halves
    @pytest.mark.parametrize("k", [1, 4, 8, 9, 20, 130])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_around_one_block(self, k, offset):
        n = _one_block_n(k) + offset
        assert (cluster._block_rows(n, k) >= n) == (offset <= 0)
        points = np.random.default_rng(100 * k + offset + 1).standard_normal((n, k))
        assert_matches_full_matrix(points, 5)

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_duplicate_points_across_many_blocks(self, k, monkeypatch):
        monkeypatch.setattr(cluster, "_BLOCK_ELEMENTS", 64)
        rng = np.random.default_rng(k)
        points = rng.integers(0, 3, size=(60, k)).astype(float)
        assert cluster._block_rows(60, k) < 60
        for min_samples in (1, 5):
            assert_matches_full_matrix(points, min_samples)

    def test_all_equal_distances_across_many_blocks(self, monkeypatch):
        monkeypatch.setattr(cluster, "_BLOCK_ELEMENTS", 64)
        points = np.eye(40)
        assert cluster._block_rows(40, 40) == 1
        assert_matches_full_matrix(points, 3)

    # k = 20, the default nmf.k_max, holds eight running sums per block
    @pytest.mark.parametrize("k", [5, 20])
    def test_cluster_rows_memory_is_bounded(self, k):
        points = np.random.default_rng(12).standard_normal((1000, k))
        tracemalloc.start()
        try:
            cluster_rows(points, 5, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the full n x n x k difference tensor alone would be 8k MB (40 MB at k = 5)
        assert peak < 24 * 2 ** 20


class TestExtract:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_blobs_plus_noise(self, seed):
        points, truth = blobs_with_noise(seed)
        labeling = cluster_rows(points, 5, 5)
        assert labeling.n_clusters == 2
        for blob in (0, 1):
            got = labeling.labels[truth == blob]
            majority = np.bincount(got[got >= 0]).argmax()
            assert (got == majority).mean() >= 0.9
        noise_labels = labeling.labels[truth == -1]
        assert (noise_labels == -1).mean() > 0.5

    def test_single_tight_blob_is_one_cluster(self):
        rng = np.random.default_rng(4)
        points = rng.normal(0.0, 0.2, size=(40, 2))
        labeling = cluster_rows(points, 5, 5)
        assert labeling.n_clusters == 1

    def test_equal_distances_single_cluster(self):
        # vertices of a regular simplex: every pairwise distance equal
        n = 8
        points = np.eye(n)
        labeling = cluster_rows(points, 5, 5)
        assert labeling.n_clusters == 1
        assert labeling.sizes == {0: n}

    def test_duplicate_only_dataset(self):
        points = np.ones((7, 2))
        labeling = cluster_rows(points, 5, 5)
        assert labeling.n_clusters == 1
        assert labeling.sizes == {0: 7}

    def test_fewer_points_than_min_cluster_size_is_all_noise(self):
        rng = np.random.default_rng(5)
        points = rng.standard_normal((4, 2))
        labeling = cluster_rows(points, min_cluster_size=5, min_samples=3)
        assert labeling.n_clusters == 0
        assert labeling.sizes == {-1: 4}

    def test_every_cluster_at_least_min_cluster_size(self):
        points, _ = blobs_with_noise(7, n_blob=30, n_noise=30)
        labeling = cluster_rows(points, 5, 5)
        for cid, size in labeling.sizes.items():
            if cid >= 0:
                assert size >= 5

    def test_labels_partition_rows(self):
        points, _ = blobs_with_noise(8)
        labeling = cluster_rows(points, 5, 5)
        assert len(labeling.labels) == len(points)
        assert sum(labeling.sizes.values()) == len(points)

    def test_permutation_invariance(self):
        points, _ = blobs_with_noise(9, n_blob=25, n_noise=10)
        base = cluster_rows(points, 5, 5)
        rng = np.random.default_rng(10)
        perm = rng.permutation(len(points))
        permuted = cluster_rows(points[perm], 5, 5)
        base_parts = partition_of(base.labels)
        got_clusters, got_noise = partition_of(permuted.labels)
        # map permuted indices back to the original frame
        remapped = {frozenset(int(perm[i]) for i in part) for part in got_clusters}
        remapped_noise = frozenset(int(perm[i]) for i in got_noise)
        assert remapped == base_parts[0]
        assert remapped_noise == base_parts[1]

    def test_invalid_params(self):
        points = np.zeros((10, 2))
        with pytest.raises(ValueError, match="min_cluster_size"):
            cluster_rows(points, min_cluster_size=1, min_samples=1)
        with pytest.raises(ValueError, match="min_samples must be >= 1"):
            cluster_rows(points, min_cluster_size=3, min_samples=0)
        with pytest.raises(ValueError, match="exceed"):
            cluster_rows(points, min_cluster_size=3, min_samples=4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected_before_distances(self, bad, monkeypatch):
        points = np.random.default_rng(4).standard_normal((30, 3))
        points[4, 1] = bad
        points[9, 0] = bad

        def no_distances(*args):
            raise AssertionError("distance work started")
        monkeypatch.setattr(cluster, "core_distances", no_distances)
        with pytest.raises(ValueError, match=r"^row 4 holds a NaN or infinite value$"):
            cluster_rows(points, 5, 5)

    @pytest.mark.parametrize("rows", [[4], list(range(4, 30))])
    def test_overflowing_rows_rejected_before_distances(self, rows, monkeypatch):
        points = np.random.default_rng(4).standard_normal((30, 3))
        points[rows] *= 1e200   # finite, but their squared differences overflow

        def no_distances(*args):
            raise AssertionError("distance work started")
        monkeypatch.setattr(cluster, "core_distances", no_distances)
        with pytest.raises(ValueError, match=r"^row 4 holds a value of magnitude >= "):
            cluster_rows(points, 5, 5)

    def test_large_rows_below_the_bound_cluster_as_scaled(self):
        points = blobs_with_noise(5)[0]
        scale = 2.0 ** 500  # exact in binary: every distance scales exactly
        assert np.abs(points * scale).max() < math.sqrt(np.finfo(float).max / 5) / 2
        got = cluster_rows(points * scale, 5, 5)
        want = cluster_rows(points, 5, 5)
        assert got.labels.tobytes() == want.labels.tobytes()

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            extract_clusters([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0)], 2)

    @pytest.mark.parametrize("edge", [(2, 4, 1.0), (-1, 2, 1.0), (2, 3, -0.5), (2, 3, math.nan)],
                             ids=["endpoint-past-n", "negative-endpoint", "negative-weight", "nan"])
    def test_bad_edge_rejected(self, edge):
        # an endpoint outside 0..n-1, a negative weight, or a weight that is not a number
        with pytest.raises(ValueError, match=r"^bad edge \(" + ", ".join(map(str, edge))):
            extract_clusters([(0, 1, 1.0), (1, 2, 2.0), edge], 2)

    def test_clusters_numbered_by_size_then_first_point(self):
        # blobs of 5, 7 and 5 points along a line, the larger one in the middle
        a = np.arange(5.0)
        points = np.concatenate([a, 100 + np.arange(7.0), 200 + a])[:, None]
        labeling = cluster_rows(points, 3, 2)
        assert labeling.labels.tolist() == [1] * 5 + [0] * 7 + [2] * 5
        assert list(labeling.sizes.items()) == [(0, 7), (1, 5), (2, 5)]
        assert all(type(k) is int and type(v) is int for k, v in labeling.sizes.items())
        assert type(labeling.n_clusters) is int


class TestAgainstReference:
    @pytest.mark.parametrize("n", range(5, 13))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_small_instances(self, n, seed):
        rng = np.random.default_rng(1000 * n + seed)
        points = rng.standard_normal((n, 2))
        for mcs in (2, 3):
            got = cluster_rows(points, min_cluster_size=mcs, min_samples=1)
            ref = reference_density_partition(points, 1, mcs)
            assert partition_of(got.labels) == ref, (n, seed, mcs)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_clumped_small_instances(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 0.1, size=(5, 2))
        b = rng.normal(4.0, 0.1, size=(5, 2))
        points = np.vstack([a, b])
        for mcs, ms in [(2, 1), (3, 2), (4, 3)]:
            got = cluster_rows(points, min_cluster_size=mcs, min_samples=ms)
            ref = reference_density_partition(points, ms, mcs)
            assert partition_of(got.labels) == ref

    def test_equal_distance_instance(self):
        points = np.eye(6)
        got = cluster_rows(points, 3, 2)
        ref = reference_density_partition(points, 2, 3)
        assert partition_of(got.labels) == ref

    def test_duplicates_instance(self):
        points = np.vstack([np.zeros((4, 2)), np.ones((4, 2)) * 3.0])
        got = cluster_rows(points, 3, 2)
        ref = reference_density_partition(points, 2, 3)
        assert partition_of(got.labels) == ref

    # Tie-heavy inputs: many equal reachability weights, so many multiway
    # merges, whose points the extraction reads as contiguous leaf ranges.
    @pytest.mark.parametrize("seed", range(6))
    def test_integer_lattice_instances(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.integers(0, 4, size=(int(rng.integers(8, 16)), 2)).astype(float)
        for mcs, ms in [(2, 1), (3, 2), (4, 2)]:
            got = cluster_rows(points, min_cluster_size=mcs, min_samples=ms)
            ref = reference_density_partition(points, ms, mcs)
            assert partition_of(got.labels) == ref, (seed, mcs, ms)

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_rows_in_two_blobs(self, seed):
        rng = np.random.default_rng(seed)
        blobs = np.vstack([rng.normal(0.0, 0.3, (4, 2)), rng.normal(3.0, 0.3, (4, 2))])
        points = blobs[rng.integers(0, len(blobs), 14)]
        for mcs, ms in [(2, 1), (3, 2), (4, 3)]:
            got = cluster_rows(points, min_cluster_size=mcs, min_samples=ms)
            ref = reference_density_partition(points, ms, mcs)
            assert partition_of(got.labels) == ref, (seed, mcs, ms)


class TestProfiles:
    def test_single_member_cluster(self):
        w = np.array([[1.0, 2.0], [5.0, 5.0]])
        labeling = ClusterLabeling(labels=np.array([0, -1]), n_clusters=1,
                                   sizes={0: 1, -1: 1})
        (p,) = profile_clusters(labeling, w)
        assert p.centroid.tolist() == [1.0, 2.0]

    def test_two_member_diagonal(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        labeling = ClusterLabeling(labels=np.array([0, 0]), n_clusters=1,
                                   sizes={0: 2})
        (p,) = profile_clusters(labeling, w)
        assert p.centroid.tolist() == [0.5, 0.5]
        assert p.normalized_centroid == pytest.approx(
            [np.sqrt(2) / 2, np.sqrt(2) / 2])

    def test_axis_aligned_cluster_argmax(self):
        rng = np.random.default_rng(11)
        w = np.abs(rng.normal(0, 0.05, size=(20, 3)))
        w[:, 2] += 1.0  # cluster concentrated on element 2
        labeling = ClusterLabeling(labels=np.zeros(20, dtype=int), n_clusters=1,
                                   sizes={0: 20})
        (p,) = profile_clusters(labeling, w)
        assert int(np.argmax(p.normalized_centroid)) == 2
        assert np.linalg.norm(p.normalized_centroid) == pytest.approx(1.0, abs=1e-9)

    def test_zero_centroid_flagged(self):
        w = np.zeros((3, 2))
        labeling = ClusterLabeling(labels=np.array([0, 0, 0]), n_clusters=1,
                                   sizes={0: 3})
        (p,) = profile_clusters(labeling, w)
        assert p.zero_centroid
