from pathlib import Path

import numpy as np
import pytest

from shoplens.ingest import PurchaseMatrix

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "shoplens" / "data"


@pytest.fixture
def fixture_csv() -> Path:
    return DATA_DIR / "fixture_invoices.csv"


@pytest.fixture
def fixture_config_path() -> Path:
    return DATA_DIR / "fixture_config.json"


def purchase_matrix(row_ids, col_ids, entries: dict) -> PurchaseMatrix:
    """A matrix from a {(row, col): value} dict of its stored entries."""
    keys = sorted(entries)
    rows = np.array([i for i, _ in keys], dtype=np.int64)
    return PurchaseMatrix(row_ids, col_ids, np.searchsorted(rows, np.arange(len(row_ids) + 1)),
                          [j for _, j in keys], [entries[key] for key in keys])


def blobs_with_noise(seed, n_blob=50, n_noise=20, dim=5, sep=8.0, sigma=0.25,
                     pad=8.0, keepout=2.5):
    """Two tight Gaussian blobs plus sparse uniform noise.

    Noise is drawn uniformly over the padded box but re-drawn if it lands
    inside a blob's keepout ball (a point inside a blob is not noise).
    Returns (points, truth) with truth -1 marking the noise draws.
    """
    rng = np.random.default_rng(seed)
    c1 = np.zeros(dim)
    c2 = np.full(dim, sep / np.sqrt(dim))
    a = c1 + rng.normal(0.0, sigma, size=(n_blob, dim))
    b = c2 + rng.normal(0.0, sigma, size=(n_blob, dim))
    noise = []
    while len(noise) < n_noise:
        cand = rng.uniform(-pad, sep / np.sqrt(dim) + pad, size=dim)
        if min(np.linalg.norm(cand - c1), np.linalg.norm(cand - c2)) > keepout:
            noise.append(cand)
    points = np.vstack([a, b, np.array(noise)])
    truth = np.array([0] * n_blob + [1] * n_blob + [-1] * n_noise)
    return points, truth
