"""Micro-benchmarks of the density-clustering layers; the tier-1 run
does not collect this file (it is not named ``test_*.py``). Run it
explicitly:

    python -m pytest tests/bench_cluster.py --benchmark-only

The points have the shape of perfbench's ``crowd`` workload: about 3,000
frequent shoppers' affinity rows with k = 4 non-negative coordinates, an
eighth of them duplicates of other rows, as rounded W rows often are.
"""

import numpy as np
import pytest

from shoplens.cluster import core_distances, extract_clusters, mutual_reachability_mst

pytest.importorskip("pytest_benchmark")

N_ROWS, K, MIN_SAMPLES = 3000, 4, 5


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(0)
    w = rng.exponential(1.0, (N_ROWS, K))
    copies = rng.random(N_ROWS) < 0.125
    w[copies] = w[rng.integers(0, N_ROWS, int(copies.sum()))]
    return w


def test_core_distances(benchmark, points):
    core = benchmark.pedantic(core_distances, args=(points, MIN_SAMPLES),
                              rounds=3, iterations=1)
    assert core.shape == (N_ROWS,)


def test_mutual_reachability_mst(benchmark, points):
    core = core_distances(points, MIN_SAMPLES)
    edges = benchmark.pedantic(mutual_reachability_mst, args=(points, core),
                               rounds=3, iterations=1)
    assert len(edges) == N_ROWS - 1


def test_extract_clusters(benchmark, points):
    mst = mutual_reachability_mst(points, core_distances(points, MIN_SAMPLES))
    labeling = benchmark.pedantic(extract_clusters, args=(mst,),
                                  rounds=5, iterations=1)
    assert len(labeling.labels) == N_ROWS
