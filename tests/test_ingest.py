import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shoplens import ingest
from shoplens.ingest import (InvoiceLines, PurchaseMatrix, Segment, Transactions,
                             build_incidence_matrix, clean_transactions,
                             parse_invoice_csv, read_matrix,
                             segment_customers, write_matrix)

from conftest import purchase_matrix
from oracles import from_records, make_line, make_txn, records

HEADER = "InvoiceNo,StockCode,Description,Quantity,InvoiceDate,UnitPrice,CustomerID,Country\n"


def write(tmp_path, body, name="in.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body, encoding="utf-8")
    return path


class TestParse:
    def test_empty_data_section(self, tmp_path):
        lines, rejects = parse_invoice_csv(write(tmp_path, ""))
        assert len(lines) == 0 and rejects == []

    def test_non_numeric_quantity_rejected(self, tmp_path):
        body = "1,A,X,abc,1/2/2011 10:00,1.5,C1,UK\n"
        lines, rejects = parse_invoice_csv(write(tmp_path, body))
        assert len(lines) == 0
        assert len(rejects) == 1
        assert rejects[0].column == "Quantity"
        assert rejects[0].line_number == 2

    def test_ten_row_fixture_two_malformed(self, tmp_path):
        good = "".join(f"{i},A,X,{i},1/2/2011 10:00,1.5,C1,UK\n" for i in range(1, 9))
        bad = ("9,A,X,2,not-a-date,1.5,C1,UK\n"
               "10,A,X,2,1/2/2011 10:00,oops,C1,UK\n")
        lines, rejects = parse_invoice_csv(write(tmp_path, good + bad))
        assert len(lines) == 8
        assert len(rejects) == 2

    def test_missing_customer_is_not_a_reject(self, tmp_path):
        body = "1,A,X,2,1/2/2011 10:00,1.5,,UK\n"
        lines, rejects = parse_invoice_csv(write(tmp_path, body))
        assert rejects == []
        assert records(lines)[0].customer_id is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_invoice_csv(tmp_path / "absent.csv")

    def test_missing_mandatory_column(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("InvoiceNo,StockCode\n1,A\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing mandatory columns"):
            parse_invoice_csv(path)

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes((HEADER + "1,A,caf\xe9,2,1/2/2011 10:00,1.5,C1,UK\n")
                         .encode("latin-1"))
        with pytest.raises(ValueError, match="cannot decode"):
            parse_invoice_csv(path)
        lines, _ = parse_invoice_csv(path, encoding="latin-1")
        assert records(lines)[0].description == "café"

    @pytest.mark.parametrize("row, column", [
        ('1,"PEN,04",X,2,1/2/2011 10:00,1.5,C1,UK\n', "StockCode"),
        ('"1,2",A,X,2,1/2/2011 10:00,1.5,C1,UK\n', "InvoiceNo"),
        ('1,A,X,2,1/2/2011 10:00,1.5,"C\n1",UK\n', "CustomerID"),
        ('1,"A\r\nB",X,2,1/2/2011 10:00,1.5,C1,UK\n', "StockCode"),
        ("1,A\u2028B,X,2,1/2/2011 10:00,1.5,C1,UK\n", "StockCode"),
        ("1\x852,A,X,2,1/2/2011 10:00,1.5,C1,UK\n", "InvoiceNo"),
        ("1,A,X,2,1/2/2011 10:00,1.5,C\x1c1,UK\n", "CustomerID"),
    ], ids=["stock-code-comma", "invoice-comma", "customer-newline", "stock-code-crlf",
            "stock-code-u2028", "invoice-nel", "customer-file-separator"])
    def test_delimiter_in_id_rejected(self, tmp_path, row, column):
        body = row + "2,B,X,2,1/2/2011 10:00,1.5,C1,UK\n"
        lines, rejects = parse_invoice_csv(write(tmp_path, body))
        assert [line.invoice_id for line in records(lines)] == ["2"]
        assert len(rejects) == 1
        assert rejects[0].column == column
        assert "delimiter or newline" in rejects[0].reason

    def test_repeated_unparseable_date_rejects_every_row(self, tmp_path):
        body = ("1,A,X,2,not-a-date,1.5,C1,UK\n"
                "2,A,X,2,1/2/2011 10:00,1.5,C1,UK\n"
                "3,A,X,2,not-a-date,1.5,C1,UK\n"
                "4,A,X,2,1/2/2011 10:00,1.5,C1,UK\n")
        lines, rejects = parse_invoice_csv(write(tmp_path, body))
        assert [r.line_number for r in rejects] == [2, 4]
        assert {r.reason for r in rejects} == {"unparseable date 'not-a-date'"}
        assert records(lines)[0].invoice_date == records(lines)[1].invoice_date

    def test_blank_lines_skipped_and_not_numbered(self, tmp_path):
        body = ("1,A,X,2,1/2/2011 10:00,1.5,C1,UK\n"
                "\n"
                "\r\n"
                "2,A,X,bad,1/2/2011 10:00,1.5,C1,UK\n")
        lines, rejects = parse_invoice_csv(write(tmp_path, body))
        assert [line.invoice_id for line in records(lines)] == ["1"]
        assert [r.line_number for r in rejects] == [3]

    def test_short_row_reads_missing_fields_as_empty(self, tmp_path):
        body = ("1,A,X,2,1/2/2011 10:00\n"
                "2,A,X,2,1/2/2011 10:00,1.5\n")
        lines, rejects = parse_invoice_csv(write(tmp_path, body))
        assert [r.line_number for r in rejects] == [2]
        assert rejects[0].column == "UnitPrice"
        assert rejects[0].raw == {
            "InvoiceNo": "1", "StockCode": "A", "Description": "X",
            "Quantity": "2", "InvoiceDate": "1/2/2011 10:00", "UnitPrice": "",
            "CustomerID": "", "Country": ""}
        assert records(lines)[0].customer_id is None and records(lines)[0].country == ""

    def test_long_row_keeps_extra_fields_under_none(self, tmp_path):
        body = ("1,A,X,2,1/2/2011 10:00,1.5,C1,UK,extra\n"
                "2,A,X,q,1/2/2011 10:00,1.5,C1,UK,e1,e2\n")
        lines, rejects = parse_invoice_csv(write(tmp_path, body))
        assert [line.country for line in records(lines)] == ["UK"]
        assert len(rejects) == 1
        assert rejects[0].raw[None] == ["e1", "e2"]
        assert list(rejects[0].raw)[:8] == HEADER.strip().split(",")

    def test_bom_stripped_from_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (HEADER + "1,A,X,2,1/2/2011 10:00,1.5,C1,UK\n")
                         .encode("utf-8"))
        lines, rejects = parse_invoice_csv(path)
        assert len(lines) == 1 and rejects == []

    def test_custom_schema(self, tmp_path):
        path = tmp_path / "alt.csv"
        path.write_text("Invoice,Stock Code,Description,Qty,Date,Price,Customer,Country\n"
                        "1,A,X,2,1/2/2011 10:00,1.5,C1,UK\n", encoding="utf-8")
        schema = {"invoice_id": "Invoice", "stock_code": "Stock Code",
                  "quantity": "Qty", "invoice_date": "Date",
                  "unit_price": "Price", "customer_id": "Customer"}
        lines, rejects = parse_invoice_csv(path, schema=schema)
        assert len(lines) == 1 and rejects == []


class TestClean:
    def test_missing_customer_excluded(self):
        assert len(clean_transactions(
            from_records(InvoiceLines, [make_line(customer_id=None)]))) == 0

    def test_cancellation_prefix_excluded(self):
        assert len(clean_transactions(
            from_records(InvoiceLines, [make_line(invoice_id="C536379")]))) == 0

    def test_six_line_fixture(self):
        lines = [
            make_line(invoice_id="1", customer_id="C1"),
            make_line(invoice_id="C2", customer_id="C1"),          # cancel
            make_line(invoice_id="3", customer_id=None),           # anonymous
            make_line(invoice_id="4", customer_id="C2", quantity=-4),  # return
            make_line(invoice_id="5", customer_id="C2"),
            make_line(invoice_id="6", customer_id="C3"),
        ]
        txns = clean_transactions(from_records(InvoiceLines, lines))
        assert len(txns) == 3

    def test_spend_is_quantity_times_price(self):
        txns = clean_transactions(from_records(InvoiceLines, 
            [make_line(quantity=3, unit_price=2.5)]))
        assert records(txns)[0].spend == pytest.approx(7.5)

    def test_nonpositive_price_excluded(self):
        assert len(clean_transactions(
            from_records(InvoiceLines, [make_line(unit_price=0.0)]))) == 0

    def test_custom_prefix(self):
        kept = clean_transactions(from_records(InvoiceLines, [make_line(invoice_id="C1")]),
                                  cancellation_prefix="X")
        assert len(kept) == 1

    def test_idempotent_on_clean_output(self):
        lines = [make_line(invoice_id=str(i), quantity=q, unit_price=p,
                           customer_id=c)
                 for i, (q, p, c) in enumerate(
                     [(2, 1.5, "C1"), (5, 0.8, "C2"), (1, 9.0, "C1")])]
        once = clean_transactions(from_records(InvoiceLines, lines))
        relines = [make_line(invoice_id=t.invoice_id, stock_code=t.stock_code,
                             quantity=1, unit_price=t.spend,
                             customer_id=t.customer_id,
                             date=t.invoice_date.isoformat())
                   for t in records(once)]
        twice = clean_transactions(from_records(InvoiceLines, relines))
        assert [(t.customer_id, t.invoice_id, t.spend) for t in records(twice)] == \
               [(t.customer_id, t.invoice_id, t.spend) for t in records(once)]


class TestSegment:
    def test_five_invoices_is_frequent(self):
        txns = [make_txn(invoice_id=str(i)) for i in range(5)]
        (seg,) = segment_customers(from_records(Transactions, txns))
        assert seg.segment is Segment.FREQUENT
        assert seg.n_purchases == 5

    def test_four_invoices_is_infrequent(self):
        txns = [make_txn(invoice_id=str(i)) for i in range(4)]
        (seg,) = segment_customers(from_records(Transactions, txns))
        assert seg.segment is Segment.INFREQUENT

    def test_duplicate_invoice_lines_count_once(self):
        txns = [make_txn(invoice_id="1", stock_code=f"S{i}") for i in range(9)]
        (seg,) = segment_customers(from_records(Transactions, txns))
        assert seg.n_purchases == 1

    def test_wholesale_flagged_before_frequency(self):
        txns = [make_txn(invoice_id=str(i)) for i in range(6)]
        txns.append(make_txn(invoice_id="big", quantity=5000))
        (seg,) = segment_customers(from_records(Transactions, txns))
        assert seg.segment is Segment.WHOLESALE

    def test_wholesale_threshold_is_strict(self):
        txns = [make_txn(invoice_id=str(i)) for i in range(5)]
        txns.append(make_txn(invoice_id="edge", quantity=1000))
        (seg,) = segment_customers(from_records(Transactions, txns),
                                   wholesale_quantity_threshold=1000)
        assert seg.segment is Segment.FREQUENT  # equal to threshold stays retail

    def test_partition_is_exhaustive_and_exclusive(self, fixture_csv):
        lines, _ = parse_invoice_csv(fixture_csv)
        txns = clean_transactions(lines)
        segments = segment_customers(txns)
        customers = {t.customer_id for t in records(txns)}
        assert {s.customer_id for s in segments} == customers
        assert len(segments) == len(customers)


class TestIncidenceMatrix:
    def test_two_purchases_sum(self):
        txns = [make_txn(invoice_id="1", spend=2.0),
                make_txn(invoice_id="2", spend=3.0)]
        m = build_incidence_matrix(from_records(Transactions, txns), {"C1"})
        assert m.shape == (1, 1)
        assert m.to_dense().tolist() == [[5.0]]

    def test_empty_member_set(self):
        with pytest.raises(ValueError, match="empty member set"):
            build_incidence_matrix(from_records(Transactions, [make_txn()]), set())

    def test_member_not_in_transactions(self):
        with pytest.raises(ValueError, match="no transactions"):
            build_incidence_matrix(from_records(Transactions, [make_txn()]),
                                   {"C1", "ghost"})

    def test_matches_groupby_oracle(self):
        rng = np.random.default_rng(5)
        customers = ["C1", "C2", "C3"]
        codes = ["A", "B", "C", "D"]
        txns = []
        expected = {}
        for i in range(40):
            c = customers[rng.integers(3)]
            s = codes[rng.integers(4)]
            spend = float(np.round(rng.uniform(0.5, 9.0), 2))
            txns.append(make_txn(customer_id=c, stock_code=s,
                                 invoice_id=str(i), spend=spend))
            expected[(c, s)] = expected.get((c, s), 0.0) + spend
        m = build_incidence_matrix(from_records(Transactions, txns), set(customers))
        for (c, s), total in expected.items():
            i, j = m.row_ids.index(c), m.col_ids.index(s)
            assert m.to_dense()[i, j] == pytest.approx(total, abs=1e-12)
        assert m.nnz == len(expected)

    def test_entries_positive_and_equal_reaggregation(self, fixture_csv):
        lines, _ = parse_invoice_csv(fixture_csv)
        txns = clean_transactions(lines)
        segments = segment_customers(txns)
        members = {s.customer_id for s in segments if s.segment is Segment.FREQUENT}
        m = build_incidence_matrix(txns, members)
        assert all(v > 0 for *_, v in m.triplets())
        brute = {}
        for t in records(txns):
            if t.customer_id in members:
                key = (t.customer_id, t.stock_code)
                brute[key] = brute.get(key, 0.0) + t.spend
        dense = m.to_dense()
        for (c, s), total in brute.items():
            assert dense[m.row_ids.index(c), m.col_ids.index(s)] == pytest.approx(total)

    def test_matrix_validation(self):
        with pytest.raises(ValueError, match="positive"):
            PurchaseMatrix(["a"], ["x"], [0, 1], [0], [0.0])
        with pytest.raises(ValueError, match="sorted"):
            PurchaseMatrix(["b", "a"], ["x"], [0, 0, 0], [], [])

    @pytest.mark.parametrize("ids,arrays,message", [
        ((["a", "a"], ["x"]), ([0, 0, 0], [], []), "row ids must be sorted and unique"),
        ((["a"], ["x", "x"]), ([0, 0], [], []), "column ids must be sorted and unique"),
        ((["a"], ["x"]), ([0, 1], [0], [float("inf")]), r"\(0, 0\) must be positive and finite"),
        ((["a"], ["x"]), ([0, 1], [0], [float("nan")]), r"\(0, 0\) must be positive and finite"),
        ((["a"], ["x"]), ([0, 1], [0], [-1.0]), r"\(0, 0\) must be positive and finite"),
        ((["a"], ["x"]), ([0, 1], [1], [1.0]), r"\(0, 1\) is out of range"),
        ((["a"], ["x"]), ([0, 1], [-1], [1.0]), r"\(0, -1\) is out of range"),
        ((["a"], ["x", "y"]), ([0, 2], [0, 0], [1.0, 2.0]), r"\(0, 0\) repeats"),
        ((["a"], ["x", "y"]), ([0, 2], [1, 0], [1.0, 2.0]), r"\(0, 0\) repeats or breaks"),
    ])
    def test_csr_validation(self, ids, arrays, message):
        with pytest.raises(ValueError, match=message):
            PurchaseMatrix(*ids, *arrays)

    def test_rows_may_restart_column_order(self):
        m = PurchaseMatrix(["a", "b"], ["x", "y"], [0, 1, 2], [1, 0], [1.0, 2.0])
        assert m.to_dense().tolist() == [[0.0, 1.0], [2.0, 0.0]]
        assert list(m.triplets()) == [("a", "y", 1.0), ("b", "x", 2.0)]

    def test_restrict_columns(self):
        m = purchase_matrix(["a", "b"], ["x", "y", "z"],
                            {(0, 0): 1.0, (0, 2): 2.0, (1, 1): 3.0})
        sub = m.restrict_columns(["z", "x"])
        assert sub.col_ids == ["x", "z"]
        assert sub.to_dense().tolist() == [[1.0, 2.0], [0.0, 0.0]]

    def test_restrict_columns_unknown_codes(self):
        m = purchase_matrix(["a"], ["x", "y"], {(0, 1): 1.0})
        with pytest.raises(ValueError, match=r"unknown stock codes: \['q', 'w'\]"):
            m.restrict_columns(["y", "w", "q", "w"])


class TestSerialization:
    def test_matrix_round_trip(self, tmp_path):
        m = purchase_matrix(["a", "b"], ["x", "y"],
                            {(0, 0): 1.25, (1, 1): 3.5})
        write_matrix(m, tmp_path, "m")
        assert read_matrix(tmp_path, "m") == m

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matrix_round_trip_any_row_order(self, tmp_path, data):
        ids = st.lists(st.text("abXY09-_. é", min_size=1, max_size=3),
                       min_size=1, max_size=5, unique=True).map(sorted)
        row_ids, col_ids = data.draw(ids), data.draw(ids)
        positions = st.tuples(st.integers(0, len(row_ids) - 1),
                              st.integers(0, len(col_ids) - 1))
        entries = data.draw(st.dictionaries(
            positions, st.floats(0.0, exclude_min=True, allow_infinity=False)))
        m = purchase_matrix(row_ids, col_ids, entries)
        write_matrix(m, tmp_path, "m")
        back = read_matrix(tmp_path, "m")
        assert back == m
        assert back.to_dense().tobytes() == m.to_dense().tobytes()

        path = tmp_path / "m.triplets.csv"
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        shuffled = data.draw(st.permutations(lines))
        path.write_text("\n".join([header, *shuffled]) + "\n", encoding="utf-8")
        assert read_matrix(tmp_path, "m") == m

    @staticmethod
    def write_triplets(directory, body, rows="a\nb\n", cols="x\ny\n"):
        (directory / "m.rows.txt").write_text(rows, encoding="utf-8")
        (directory / "m.cols.txt").write_text(cols, encoding="utf-8")
        path = directory / "m.triplets.csv"
        path.write_text("row_id,col_id,value\n" + body, encoding="utf-8")
        return re.escape(str(path))

    def test_read_accepts_any_row_order(self, tmp_path):
        self.write_triplets(tmp_path, "b,y,4.0\na,y,2.0\nb,x,3.0\na,x,1.0\n")
        m = read_matrix(tmp_path, "m")
        assert m == purchase_matrix(["a", "b"], ["x", "y"],
                                    {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 4.0})

    def test_read_rejects_repeated_position(self, tmp_path):
        name = self.write_triplets(tmp_path, "a,x,1.0\nb,y,2.0\na,x,5.0\n")
        with pytest.raises(ValueError, match=name + r".*\(0, 0\) repeats"):
            read_matrix(tmp_path, "m")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0.0", "-1.5"])
    def test_read_rejects_value_not_positive_and_finite(self, tmp_path, value):
        name = self.write_triplets(tmp_path, f"a,x,1.0\nb,y,{value}\n")
        with pytest.raises(ValueError, match=name + ".*must be positive and finite"):
            read_matrix(tmp_path, "m")

    @pytest.mark.parametrize("body,missing", [("zz,x,1.0\n", r"not in m.rows.txt: \['zz'\]"),
                                              ("a,zz,1.0\n", r"not in m.cols.txt: \['zz'\]")])
    def test_read_rejects_id_missing_from_sidecar(self, tmp_path, body, missing):
        name = self.write_triplets(tmp_path, "b,y,2.0\n" + body)
        with pytest.raises(ValueError, match=name + ".*" + missing):
            read_matrix(tmp_path, "m")

    def test_read_rejects_two_cell_row(self, tmp_path):
        name = self.write_triplets(tmp_path, "a,x,1.0\nb,2.0\n")
        with pytest.raises(ValueError, match=name + ".*does not have 3 cells"):
            read_matrix(tmp_path, "m")

    def test_read_rejects_unsorted_sidecar(self, tmp_path):
        name = self.write_triplets(tmp_path, "a,x,1.0\n", rows="b\na\n")
        with pytest.raises(ValueError, match=name + ".*row ids must be sorted and unique"):
            read_matrix(tmp_path, "m")

    def test_pipeline_is_deterministic(self, fixture_csv, tmp_path):
        outputs = []
        for run in ("one", "two"):
            lines, _ = parse_invoice_csv(fixture_csv)
            txns = clean_transactions(lines)
            segments = segment_customers(txns)
            members = {s.customer_id for s in segments
                       if s.segment is Segment.FREQUENT}
            m = build_incidence_matrix(txns, members)
            d = tmp_path / run
            write_matrix(m, d, "m")
            outputs.append((d / "m.triplets.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_long_row_reject_written_under_null(self, tmp_path):
        body = "2,A,X,q,1/2/2011 10:00,1.5,C1,UK,e1,e2\n"
        _, rejects = parse_invoice_csv(write(tmp_path, body))
        ingest.write_rejects(rejects, tmp_path / "rejects.jsonl")
        [record] = [json.loads(line) for line in
                    (tmp_path / "rejects.jsonl").read_text().splitlines()]
        assert record["column"] == "Quantity"
        assert record["raw"]["null"] == ["e1", "e2"]
        assert record["raw"]["Country"] == "UK"

    def test_transactions_round_trip(self, tmp_path):
        txns = [make_txn(invoice_id="7", spend=1.23, quantity=3)]
        ingest.write_transactions(from_records(Transactions, txns), tmp_path / "t.csv")
        back = ingest.read_transactions(tmp_path / "t.csv")
        assert records(back) == txns

    def test_segments_round_trip(self, tmp_path):
        # Customer "B" is infrequent and its total spend overflows to inf;
        # segments carry it, and only scoring rejects it.
        txns = [*[make_txn("A", invoice_id=f"a{i}", date=f"2011-06-0{i} 10:00:30.25",
                           spend=0.1 * i) for i in range(1, 6)],
                make_txn("B", stock_code="X", spend=1.7e308),
                make_txn("B", stock_code="Y", spend=1.7e308)]
        segments = segment_customers(from_records(Transactions, txns))
        assert [(s.segment, s.n_purchases, s.spend) for s in segments] == [
            (Segment.FREQUENT, 5, sum(0.1 * i for i in range(1, 6))),
            (Segment.INFREQUENT, 1, math.inf)]
        ingest.write_segments(segments, tmp_path / "s.csv")
        assert ingest.read_segments(tmp_path / "s.csv") == segments
