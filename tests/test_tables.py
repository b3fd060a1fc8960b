"""The column tables of ingest and rfm against the per-record code they
replaced (``tests/oracles.py``): equal records, rejects, segments, and float
bytes of every matrix entry and attribute. The Box-Cox exponent against
``scipy.optimize.minimize_scalar``: a likelihood at least as high, within a
stated rounding bound."""

import csv
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from shoplens import rfm
from shoplens.ingest import (DEFAULT_DATE_FORMATS, DEFAULT_SCHEMA, Coded, InvoiceLines,
                             Transactions, _parse_stamp, build_incidence_matrix, clean_transactions,
                             parse_invoice_csv, read_transactions, segment_customers,
                             write_transactions)

from oracles import (cell, from_records, make_txn, records,
                     reference_build_incidence_matrix, reference_clean_transactions,
                     reference_compute_rfm_attributes, reference_parse_date,
                     reference_parse_rows, reference_segment_customers)

HEADER = ["InvoiceNo", "StockCode", "Description", "Quantity", "InvoiceDate",
          "UnitPrice", "CustomerID", "Country"]

# One stamp in each default format, then stamps that strptime and the fast
# path might read differently.
STAMPS = [
    "12/01/2010 08:26", "12/01/10 08:26", "2010-12-01 08:26:00",
    "2010-12-01T08:26:00", "2010-12-01 08:26", "2010-12-01",
    "00/01/2010 08:26", "01/00/2010 08:26", "01/01/0000 08:26", "1/1/0001 00:00",
    "12/01/2010 24:00", "12/01/2010 23:59", "12/01/2010 08:60", "13/01/2010 08:26",
    "02/30/2011 10:00", "02/29/2012 10:00", "02/29/2011 10:00", "12/32/2010 08:26",
    "12/01/2010  08:26", "12/01/2010\t08:26", "12/ 1/2010 08:26", " 12/01/2010 08:26",
    "١٢/٠١/٢٠١٠ ٠٨:٢٦",
    "１２/01/2010 08:26", "1/2/2011 9:05", "1/2/2011 9:5", "01/02/2011 09:05",
    "1/02/2011 9:05", "001/02/2011 09:05", "1/2/20110 09:05", "12/01/2010 08:26:00",
    "12/01/10 8:26", "99/99/9999 99:99", "", "not-a-date", "12/01/2010 8:26 pm",
]


def as_bytes(values) -> list[str]:
    return [float(v).hex() for v in values]


def reference_parse(path, schema=None, encoding="utf-8"):
    """``parse_invoice_csv``'s file and header handling around the oracle."""
    schema = dict(DEFAULT_SCHEMA, **(schema or {}))
    with open(path, "r", encoding=encoding, newline="") as f:
        reader = csv.reader(f)
        header = [name.lstrip("\ufeff") for name in next(reader)]
        return reference_parse_rows(reader, header, schema, DEFAULT_DATE_FORMATS)


def assert_same_as_reference(path, schema=None, cancellation_prefix="C", **segmentation):
    lines, rejects = parse_invoice_csv(path, schema=schema)
    ref_lines, ref_rejects = reference_parse(path, schema=schema)
    assert records(lines) == ref_lines
    assert rejects == ref_rejects

    txns = clean_transactions(lines, cancellation_prefix)
    ref_txns = reference_clean_transactions(ref_lines, cancellation_prefix)
    assert records(txns) == ref_txns
    assert as_bytes(txns.spend) == as_bytes(t.spend for t in ref_txns)

    segments = segment_customers(txns, **segmentation)
    assert segments == reference_segment_customers(ref_txns, **segmentation)

    members = [s.customer_id for s in segments if s.n_purchases >= 2]
    if members:
        m = build_incidence_matrix(txns, members)
        ref = reference_build_incidence_matrix(ref_txns, members)
        assert (m.row_ids, m.col_ids) == (ref.row_ids, ref.col_ids)
        assert m.indptr.tolist() == ref.indptr.tolist()
        assert m.indices.tolist() == ref.indices.tolist()
        assert as_bytes(m.data) == as_bytes(ref.data)

        chosen = [s for s in segments if s.customer_id in set(members)]
        ref_chosen = [t for t in ref_txns if t.customer_id in set(members)]
        as_of = max(t.invoice_date for t in ref_chosen)
        assert max(s.last_purchase for s in chosen) == as_of
        got = rfm.compute_rfm_attributes(chosen, as_of)
        want = reference_compute_rfm_attributes(ref_chosen, as_of)
        assert [a.customer_id for a in got] == [a.customer_id for a in want]
        for field in ("recency", "frequency", "monetary"):
            assert as_bytes(getattr(a, field) for a in got) == \
                   as_bytes(getattr(a, field) for a in want)
    return lines, rejects


def write_rows(path, rows, header=HEADER, prefix=""):
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(prefix)
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def random_rows(seed: int, n: int) -> list[list[str]]:
    """Invoice rows with repeated lines, many (customer, stock, invoice)
    ties, spends of very different magnitudes (so the order of a sum shows
    in its bits), mixed date formats, and a share of malformed fields."""
    rng = np.random.default_rng(seed)
    # Padded ids are vocabulary misses that strip to a known id.
    invoices = ["536365", "536366", "C536379", "536370", "c536371", "581587", "A1",
                " 536365", "536370 "]
    stocks = ["85123A", "71053", "84406B", "POST", "a", "B", "22633", "D", " 85123A ", "POST "]
    customers = ["17850", "13047", "12583", "", "12346.0", "é1", "B2", "17850 "]
    quantities = ["1", "2", "3", "6", "12", "24", "-1", "0", " 4 ", "1_000", "abc", ""]
    prices = ["2.55", "3.39", "0.1", "0.7", "1e16", "1", "0", "-1.5", "1e-3",
              "0.30000000000000004", "N/A", "12345678.9", " 4.25 "]
    stamps = STAMPS[:6] + ["12/01/2010 08:26", "12/1/2010 8:34", "1/12/2011 09:05",
                           "02/30/2011 10:00", "12/01/2010  08:26"]
    rows = []
    while len(rows) < n:
        row = [rng.choice(invoices), rng.choice(stocks), f"ITEM {rng.integers(5)}, BOX",
               rng.choice(quantities), rng.choice(stamps), rng.choice(prices),
               rng.choice(customers), rng.choice(["United Kingdom", "France"])]
        rows.append([str(v) for v in row])
        if rng.random() < 0.2:  # repeated line
            rows.append(list(rows[-1]))
        if rng.random() < 0.3:  # same sort key, another spend
            tie = list(rows[-1])
            tie[3], tie[5] = rng.choice(quantities[:6]), rng.choice(prices[:6])
            rows.append(tie)
    return rows


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_invoice_files(self, tmp_path, seed):
        path = write_rows(tmp_path / "in.csv", random_rows(seed, 1500))
        lines, rejects = assert_same_as_reference(path)
        assert len(lines) > 500 and len(rejects) > 50

    def test_vocabularies_hold_only_accepted_stripped_ids(self, tmp_path):
        # "536400" and "P1" first appear on a row rejected for its quantity,
        # then padded on accepted rows; "536499" and "P9" only on rejected
        # rows, one of them rejected after every id check passed.
        rows = [["536400", "P1", "X", "abc", "12/01/2010 08:26", "1.5", "C1", "UK"],
                ["536499", "P9", "X", "2", "12/01/2010 08:26", "1.5", "C,9", "UK"],
                [" 536400", "P1 ", " X", "2", "12/01/2010 08:26", "1.5", "C1", "UK"],
                ["536400 ", " P1 ", "X ", " 3 ", " 12/01/2010 08:26", " 1.5 ", " C1", " UK"],
                ["536400", "P1", "X", "2", "12/01/2010 08:26", "1.5", "C1", "UK"],
                ["536401", " P2", "Y", "1", "12/01/2010 08:26", "2", "C2 ", "UK"],
                ["536499", "P9", "X", "1e3", "12/01/2010 08:26", "1.5", "C1", "UK"]]
        path = write_rows(tmp_path / "in.csv", rows)
        lines, rejects = parse_invoice_csv(path)
        ref_lines, ref_rejects = reference_parse(path)
        assert records(lines) == ref_lines and rejects == ref_rejects
        assert [r.line_number for r in rejects] == [2, 3, 8]
        for name in ("invoice_id", "stock_code", "customer_id", "description", "country"):
            accepted = {getattr(line, name) for line in ref_lines} - {None}
            assert getattr(lines, name).values == sorted(accepted), name
        assert lines.invoice_id.values == ["536400", "536401"]
        assert lines.stock_code.values == ["P1", "P2"]

    def test_date_stamps_through_the_parser(self, tmp_path):
        rows = [["1", "A", "X", "2", stamp, "1.5", "C1", "UK"] for stamp in STAMPS]
        rows += [["2", "B", "Y", "1", stamp, "2.5", "C2", "UK"] for stamp in STAMPS]
        assert_same_as_reference(write_rows(tmp_path / "in.csv", rows))

    def test_every_stamp_parses_as_the_reference(self):
        for stamp in STAMPS:
            assert _parse_stamp(stamp) == reference_parse_date(stamp, DEFAULT_DATE_FORMATS), \
                stamp

    def test_empty_cancellation_prefix_and_custom_rules(self, tmp_path):
        path = write_rows(tmp_path / "in.csv", random_rows(11, 600))
        assert_same_as_reference(path, cancellation_prefix="")
        assert_same_as_reference(path, cancellation_prefix="53", frequent_min_purchases=2,
                                 wholesale_quantity_threshold=10)

    def test_custom_schema(self, tmp_path):
        header = ["Country", "Price", "Customer", "Date", "Qty", "Description",
                  "Stock Code", "Invoice"]
        schema = {"invoice_id": "Invoice", "stock_code": "Stock Code",
                  "quantity": "Qty", "invoice_date": "Date",
                  "unit_price": "Price", "customer_id": "Customer"}
        order = [7, 5, 2, 4, 3, 1, 6, 0]  # HEADER position of each new column
        rows = [[row[k] for k in order] for row in random_rows(12, 400)]
        assert_same_as_reference(write_rows(tmp_path / "in.csv", rows, header), schema=schema)

    def test_bom_blank_short_and_long_rows(self, tmp_path):
        rows = random_rows(13, 300)
        rows[5] = rows[5][:5]
        rows[9] = rows[9][:3] + ["x"] + rows[9][4:] + ["extra", "more"]
        rows[12] = []
        rows[20] = rows[20][:1]
        rows[30] = ["   "] * 8
        path = write_rows(tmp_path / "in.csv", rows, prefix="\ufeff")
        lines, rejects = assert_same_as_reference(path)
        assert any(None in r.raw for r in rejects)

    def test_empty_file_and_tables(self, tmp_path):
        path = write_rows(tmp_path / "in.csv", [])
        lines, rejects = parse_invoice_csv(path)
        assert (records(lines), rejects) == reference_parse(path)
        txns = clean_transactions(lines)
        assert len(txns) == 0 and segment_customers(txns) == []


class TestTables:
    def test_codes_order_like_values(self):
        col = Coded.encode(["b", None, "a", "c", "a"])
        assert col.values == ["a", "b", "c"]
        assert col.codes.tolist() == [1, -1, 0, 2, 0]
        assert [cell(col, i) for i in range(5)] == ["b", None, "a", "c", "a"]
        assert col.used() == ["a", "b", "c"]
        assert col.take([0, 2]).used() == ["a", "b"]
        assert col.isin({"a", "zz"}).tolist() == [False, False, True, False, True]

    def test_records_round_trip(self):
        txns = [make_txn(customer_id=c, invoice_id=i, spend=s, quantity=q)
                for c, i, s, q in [("C2", "9", 0.1, 3), ("C1", "10", 2.5, 1),
                                   ("C2", "9", 0.1, 3)]]
        table = from_records(Transactions, txns)
        assert len(table) == 3 and records(table) == txns
        assert records(table.take(np.array([2, 0]))) == [txns[2], txns[0]]
        assert records(table.for_customers(["C1"])) == [txns[1]]

    def test_transactions_file_round_trip(self, fixture_csv, tmp_path):
        lines, _ = parse_invoice_csv(fixture_csv)
        txns = clean_transactions(lines)
        write_transactions(txns, tmp_path / "t.csv")
        back = read_transactions(tmp_path / "t.csv")
        assert records(back) == records(txns)
        assert as_bytes(back.spend) == as_bytes(txns.spend)

    def test_line_table_from_records(self, fixture_csv):
        lines, _ = parse_invoice_csv(fixture_csv)
        again = from_records(InvoiceLines, records(lines))
        assert records(again) == records(lines)
        assert any(line.customer_id is None for line in records(again))


# ------------------------------------------------------------ box-cox ----

def boxcox_inputs(n_cases: int = 1000):
    rng = np.random.default_rng(20)
    for i in range(n_cases):
        n = int(rng.integers(3, 40))
        kind = i % 5
        if kind == 0:
            values = np.exp(rng.normal(0.0, rng.uniform(0.1, 3.0), n))
        elif kind == 1:
            values = rng.normal(rng.uniform(-5, 20), rng.uniform(0.01, 5.0), n)
        elif kind == 2:
            values = rng.uniform(0.0, 1.0, n)
        elif kind == 3:
            values = np.round(rng.uniform(0.0, 3.0, n), 1)
        else:
            values = rng.exponential(rng.uniform(0.1, 100.0), n)
        yield values
    yield np.array([1e-20, 2e-20, 3e-20])  # about 50 ulp wide after the shift
    yield np.array([1e300, 2e300, 3e300, 5e300])  # the likelihood overflows
    yield np.array([1e-300, 1e300, 1.0, 2.0])
    yield np.array([0.5, np.nan, 2.0, 3.0])  # rejected


def scipy_lambda(values, search):
    shift = max(0.0, rfm.POSITIVITY_EPS - values.min())
    shifted = values + shift
    result = minimize_scalar(lambda lam: -rfm.boxcox_log_likelihood(shifted, lam),
                             bounds=search, method="bounded", options={"xatol": 1e-6})
    return float(result.x)


# How far the profile log-likelihood at the golden-section exponent may fall
# below its value at scipy's, relative to max(1, |value|). Over the 1,054
# fits below with a finite likelihood it fell short by at most 3.3e-14, on
# inputs whose likelihood is flat to rounding near its maximum.
LIKELIHOOD_RTOL = 1e-12


@pytest.mark.parametrize("search", [(-5.0, 5.0), (-2.0, 3.0), (0.5, 1.5)])
def test_golden_section_matches_scipy_likelihood(search):
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for values in boxcox_inputs(350):
            if not np.isfinite(values).all():
                with pytest.raises(ValueError, match="not finite"):
                    rfm.boxcox_lambda_mle(values, search)
                continue
            params = rfm.boxcox_lambda_mle(values, search)
            assert search[0] <= params.lam <= search[1], values
            shifted = values + params.shift
            if np.ptp(shifted) < 100 * np.spacing(shifted.max()):
                continue  # the likelihood is rounding noise: any exponent will do
            want = rfm.boxcox_log_likelihood(shifted, scipy_lambda(values, search))
            got = rfm.boxcox_log_likelihood(shifted, params.lam)
            if not np.isnan(want):  # a NaN ranks below every number
                assert got >= want - LIKELIHOOD_RTOL * max(1.0, abs(want)), values
            checked += 1
    assert checked > 350


def test_boxcox_search_bound_checks():
    values = [1.0, 2.0, 4.0]
    for search in [(0.0, np.inf), (np.nan, 1.0), (-1e308, 1e308)]:
        with pytest.raises(ValueError, match="finite"):
            rfm.boxcox_lambda_mle(values, search)
    with pytest.raises(ValueError, match="exceeds"):
        rfm.boxcox_lambda_mle(values, (1.0, 0.0))
    assert rfm.boxcox_lambda_mle(values, (0.5, 0.5)).lam == 0.5
    search = rfm._golden_section_max
    assert search(lambda x: -(x - 0.25) ** 2, -1.0, 1.0) == pytest.approx(0.25, abs=1e-10)
    assert search(lambda x: math.nan if x < 0.3 else -x, -5.0, 5.0) == \
        pytest.approx(0.3, abs=rfm.LAMBDA_WIDTH)
    # The bracket cannot shrink below the float spacing near 1e6 (1.2e-10).
    assert 1e6 <= search(lambda x: x, 1e6, 1e6 + 1.0) <= 1e6 + 1.0


def test_score_customers_on_parsed_fixture(fixture_csv):
    lines, _ = parse_invoice_csv(fixture_csv)
    txns = clean_transactions(lines)
    segments = segment_customers(txns)
    as_of = max(s.last_purchase for s in segments)
    scores, params = rfm.score_customers(segments, as_of, rfm.RfmWeights())
    assert len(scores) == len(txns.customer_id.used())
    assert as_of == max(t.invoice_date for t in records(txns))
    want = scipy_lambda(np.array([s.gamma for s in scores]), (-5.0, 5.0))
    assert params.lam == pytest.approx(want, abs=1e-6)  # scipy's xatol
