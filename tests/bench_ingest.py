"""Micro-benchmarks of the ingest and rfm front end; the tier-1 run does not
collect this file (it is not named ``test_*.py``). Run it explicitly:

    python -m pytest tests/bench_ingest.py --benchmark-only

The invoice file is generated from a fixed seed: 60k lines from 1,200
registered customers (a quarter of the lines anonymous) over 2,000 items,
~20 lines per invoice sharing one ``%m/%d/%Y %H:%M`` stamp, with some
cancellations. It is written once, to a temporary directory, for every
benchmark.
"""

import numpy as np
import pytest

from shoplens import ingest, rfm

pytest.importorskip("pytest_benchmark")

N_LINES, N_CUSTOMERS, N_ITEMS, LINES_PER_INVOICE = 60_000, 1_200, 2_000, 20


@pytest.fixture(scope="module")
def invoice_file(tmp_path_factory):
    rng = np.random.default_rng(0)
    n_invoices = N_LINES // LINES_PER_INVOICE
    owner = rng.integers(-N_CUSTOMERS // 3, N_CUSTOMERS, n_invoices)  # < 0: anonymous
    minute = np.sort(rng.integers(0, 365 * 24 * 60, n_invoices))
    stamps = (np.datetime64("2011-01-01T00:00") + minute.astype("timedelta64[m]")).tolist()
    prices = np.round(np.exp(rng.normal(0.7, 1.0, N_ITEMS)), 2).clip(0.1)
    lines = ["InvoiceNo,StockCode,Description,Quantity,InvoiceDate,UnitPrice,CustomerID,Country"]
    for inv in range(n_invoices):
        cancel = rng.random() < 0.02
        when = stamps[inv].strftime("%m/%d/%Y %H:%M")
        customer = "" if owner[inv] < 0 else str(12000 + owner[inv])
        for item in rng.integers(0, N_ITEMS, LINES_PER_INVOICE):
            qty = -int(rng.integers(1, 6)) if cancel else int(rng.integers(1, 13))
            lines.append(f"{'C' if cancel else ''}{536000 + inv},S{item:05d},"
                         f"\"ITEM {item}, BOXED\",{qty},{when},{prices[item]:.2f},"
                         f"{customer},United Kingdom")
    path = tmp_path_factory.mktemp("bench") / "invoices.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def ingest_front_end(path):
    lines, _ = ingest.parse_invoice_csv(path)
    txns = ingest.clean_transactions(lines)
    segments = ingest.segment_customers(txns)
    frequent = [s for s in segments if s.segment is ingest.Segment.FREQUENT]
    return frequent, ingest.build_incidence_matrix(txns, [s.customer_id for s in frequent])


def test_parse_to_incidence_matrix(benchmark, invoice_file):
    _, matrix = benchmark(ingest_front_end, invoice_file)
    assert matrix.nnz > 0


def test_score_customers(benchmark, invoice_file):
    members, _ = ingest_front_end(invoice_file)
    as_of = max(s.last_purchase for s in members)
    scores, _ = benchmark(rfm.score_customers, members, as_of, rfm.RfmWeights())
    assert len(scores) == len(members)


def test_write_and_read_ingest_artifacts(benchmark, invoice_file, tmp_path):
    lines, _ = ingest.parse_invoice_csv(invoice_file)
    txns = ingest.clean_transactions(lines)
    _, matrix = ingest_front_end(invoice_file)

    def write_and_read():
        ingest.write_transactions(txns, tmp_path / "transactions.csv")
        ingest.write_matrix(matrix, tmp_path, "matrix")
        return ingest.read_matrix(tmp_path, "matrix")

    assert benchmark(write_and_read) == matrix
