"""Invoice-line ingestion: CSV parsing, cleaning, customer segmentation,
and construction of the customer x item spend incidence matrix.

Lines and transactions travel as column tables (``InvoiceLines``,
``Transactions``): one array per field, with ids and dates stored as codes
into sorted vocabularies, so cleaning, segmentation and the matrix are
array operations.

The spend matrix is CSR (``PurchaseMatrix``: sorted ids and the arrays
``indptr``, ``indices``, ``data``), whose arrays only this module reads.

All functions are pure: they take immutable inputs and return new values,
so results can be shared freely across threads.
"""

import csv
import math
import re
from dataclasses import dataclass, fields
from datetime import datetime
from enum import Enum
from pathlib import Path

import numpy as np

from ._fmt import (dump_jsonl, fmt_float, read_csv, read_csv_columns, unsafe_cell,
                   write_csv, write_text)

# Logical column names and their defaults in the UCI Online Retail export.
DEFAULT_SCHEMA = {
    "invoice_id": "InvoiceNo",
    "stock_code": "StockCode",
    "description": "Description",
    "quantity": "Quantity",
    "invoice_date": "InvoiceDate",
    "unit_price": "UnitPrice",
    "customer_id": "CustomerID",
    "country": "Country",
}

DEFAULT_DATE_FORMATS = (
    "%m/%d/%Y %H:%M",
    "%m/%d/%y %H:%M",
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%d %H:%M",
    "%Y-%m-%d",
)


class Segment(str, Enum):
    FREQUENT = "Frequent"
    INFREQUENT = "Infrequent"
    WHOLESALE = "Wholesale"


@dataclass(frozen=True)
class CustomerSegment:
    customer_id: str
    segment: Segment
    n_purchases: int
    last_purchase: datetime
    spend: float


@dataclass(frozen=True)
class RejectedRow:
    line_number: int
    column: str
    reason: str
    raw: dict


@dataclass(frozen=True)
class Coded:
    """A column of repeated values held as integer codes.

    Row i holds ``values[codes[i]]``, or None where its code is -1.
    ``values`` is sorted and duplicate-free, so codes order rows the way
    their values do. It may hold values that no row uses.
    """
    codes: np.ndarray
    values: list

    @classmethod
    def ranked(cls, codes, values: list) -> "Coded":
        """Renumber codes into ``values`` so that the vocabulary is sorted."""
        order = sorted(range(len(values)), key=values.__getitem__)
        remap = np.full(len(values) + 1, -1, dtype=np.int64)  # remap[-1] keeps -1
        remap[order] = np.arange(len(values))
        return cls(remap[np.asarray(codes, dtype=np.int64)], [values[k] for k in order])

    @classmethod
    def encode(cls, items) -> "Coded":
        index: dict = {}
        codes = [-1 if v is None else index.setdefault(v, len(index)) for v in items]
        return cls.ranked(codes, list(index))

    def __len__(self) -> int:
        return len(self.codes)

    def take(self, rows) -> "Coded":
        return Coded(self.codes[rows], self.values)

    def used(self) -> list:
        """The distinct values the rows hold, sorted."""
        return [self.values[k] for k in np.unique(self.codes[self.codes >= 0]).tolist()]

    def isin(self, wanted) -> np.ndarray:
        """Row mask: True where the row's value is in ``wanted``."""
        hit = np.zeros(len(self.values) + 1, dtype=bool)
        hit[[k for k, v in enumerate(self.values) if v in wanted]] = True
        return hit[self.codes]


class _Table:
    """Rows stored column by column, one column per field: a ``Coded``
    column for each repeated value and a numpy array for each number."""

    def _columns(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def take(self, rows):
        """The given rows (an index array or a boolean mask), in that order."""
        return type(self)(*(c.take(rows) if isinstance(c, Coded) else c[rows]
                            for c in self._columns()))


@dataclass(frozen=True, eq=False)
class InvoiceLines(_Table):
    """Parsed invoice lines, one row per accepted data row."""
    invoice_id: Coded
    stock_code: Coded
    description: Coded
    quantity: np.ndarray
    invoice_date: Coded
    unit_price: np.ndarray
    customer_id: Coded  # code -1: an anonymous line
    country: Coded


@dataclass(frozen=True, eq=False)
class Transactions(_Table):
    """Cleaned transactions; spend is quantity x unit price, and the unit
    count is kept so wholesale detection can run on cleaned data."""
    customer_id: Coded
    stock_code: Coded
    invoice_id: Coded
    invoice_date: Coded
    spend: np.ndarray
    quantity: np.ndarray

    def for_customers(self, customer_ids) -> "Transactions":
        """The transactions of the given customers, in table order."""
        return self.take(self.customer_id.isin(set(customer_ids)))


def _positions(ids: list[str], wanted, unknown: str) -> np.ndarray:
    """Index of each wanted id in ``ids``, which must all be known."""
    index = dict(zip(ids, range(len(ids))))
    try:
        return np.fromiter(map(index.__getitem__, wanted), dtype=np.int64, count=len(wanted))
    except KeyError:
        raise ValueError(f"{unknown}: {sorted(set(wanted).difference(ids))}") from None


class PurchaseMatrix:
    """Sparse customer x item spend matrix in CSR form: row i stores
    ``data[indptr[i]:indptr[i + 1]]`` in the strictly increasing columns
    ``indices[indptr[i]:indptr[i + 1]]``. Stored values are positive and
    finite; absent entries mean zero spend. Ids are sorted and unique."""

    def __init__(self, row_ids, col_ids, indptr, indices, data):
        self.row_ids, self.col_ids = list(row_ids), list(col_ids)
        for what, ids in (("row", self.row_ids), ("column", self.col_ids)):
            if any(a >= b for a, b in zip(ids, ids[1:])):
                raise ValueError(f"{what} ids must be sorted and unique")
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        rows, cols, values = self._rows(), self.indices, self.data
        unordered = (rows[1:] == rows[:-1]) & (cols[1:] <= cols[:-1])
        for problem, bad in (("is out of range", (cols < 0) | (cols >= len(self.col_ids))),
                             ("repeats or breaks its row's column order",
                              np.append(False, unordered)),
                             ("must be positive and finite",
                              ~(np.isfinite(values) & (values > 0)))):
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"stored entry ({rows[k]}, {cols[k]}) {problem}, "
                                 f"value {values[k]!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_ids), len(self.col_ids)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def _rows(self) -> np.ndarray:
        """The row number of every stored entry."""
        return np.repeat(np.arange(len(self.row_ids)), np.diff(self.indptr))

    def triplets(self):
        """(row id, column id, value) of every stored entry, row-major."""
        return zip(map(self.row_ids.__getitem__, self._rows().tolist()),
                   map(self.col_ids.__getitem__, self.indices.tolist()), self.data.tolist())

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self._rows(), self.indices] = self.data
        return dense

    def restrict_columns(self, codes: list[str]) -> "PurchaseMatrix":
        """Sub-matrix keeping only the given stock codes (rows unchanged)."""
        keep = sorted(set(codes))
        new_col = np.full(len(self.col_ids), -1)
        new_col[_positions(self.col_ids, keep, "unknown stock codes")] = np.arange(len(keep))
        col = new_col[self.indices]
        kept = col >= 0
        indptr = np.cumsum(np.append(0, kept))[self.indptr]  # kept entries before each row
        return PurchaseMatrix(self.row_ids, keep, indptr, col[kept], self.data[kept])

    def __eq__(self, other) -> bool:
        return (isinstance(other, PurchaseMatrix)
                and (self.row_ids, self.col_ids) == (other.row_ids, other.col_ids)
                and list(self.triplets()) == list(other.triplets()))


# Stamps of the first format, %m/%d/%Y %H:%M, are read by a pattern instead
# of strptime (see _parse_stamp).
_FAST_STAMP = re.compile(r"(\d\d?)/(\d\d?)/(\d{4}) (\d\d?):(\d\d)", re.ASCII)


def _parse_stamp(raw: str) -> datetime | None:
    """The stamp read with the first of ``DEFAULT_DATE_FORMATS`` that fits,
    or None.

    A stamp the pattern matches and ``datetime`` accepts is one that
    strptime reads to the same value with the first format: its %m, %d and
    %H take one or two digits, %Y four and %M two. Anything else (a 30 Feb,
    hour 24, a space-padded day, repeated spaces, non-ASCII digits, a
    one-digit minute or another format) goes through strptime.
    """
    match = _FAST_STAMP.fullmatch(raw)
    if match:
        month, day, year, hour, minute = map(int, match.groups())
        try:
            return datetime(year, month, day, hour, minute)
        except ValueError:
            pass
    for fmt in DEFAULT_DATE_FORMATS:
        try:
            return datetime.strptime(raw, fmt)
        except ValueError:
            pass
    return None


def parse_invoice_csv(
    path: str | Path,
    schema: dict[str, str] | None = None,
    encoding: str = "utf-8",
) -> tuple[InvoiceLines, list[RejectedRow]]:
    """Parse an invoice-line CSV into a line table plus a reject report.

    Malformed data rows land in the reject report instead of aborting the
    parse; that includes ids (invoice, stock code, customer) carrying a
    comma or any line boundary of ``str.splitlines()`` (``_fmt.unsafe_cell``),
    which the quote-free artifacts cannot hold, and
    numbers the arrays cannot hold exactly (a quantity outside the signed
    32-bit range, a non-finite unit price or quantity x unit price). A
    path that is not a file (missing, or a directory), a missing mandatory
    column, or an undecodable byte stream is a hard error.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"input file not found: {path}")
    schema = dict(DEFAULT_SCHEMA, **(schema or {}))

    try:
        with open(path, "r", encoding=encoding, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None:  # an empty file: no columns to check, no rows
                header = list(schema.values())
            header = [name.lstrip("\ufeff") for name in header]
            missing = [col for col in schema.values() if col not in header]
            if missing:
                raise ValueError(
                    f"{path}: missing mandatory columns {missing}; found {header}")
            return _parse_rows(reader, header, schema)
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}: cannot decode as {encoding} near byte {exc.start}; "
            f"pass the correct encoding") from exc


# Quantities are summed per invoice in int64; 32-bit inputs cannot wrap.
_QUANTITY_RANGE = range(-2 ** 31, 2 ** 31)


def _parse_rows(reader, header: list[str], schema: dict[str, str],
                ) -> tuple[InvoiceLines, list[RejectedRow]]:
    """Type the data rows of an invoice CSV as they are read.

    Rows are read the way ``csv.DictReader`` reads them: blank lines are
    skipped and not numbered, a repeated header name takes the last
    matching field, a short row reads its missing fields as "", and a long
    row keeps its extra fields under the key None of the reject record.
    An accepted row's fields are appended to the columns, each repeated
    value as its code in that column's vocabulary.

    Values repeat, so each distinct raw cell is checked once. A vocabulary
    holds only stripped values of accepted rows, so a raw cell that is one
    of its keys is accepted by that lookup; the quantity, price and date of
    a raw cell are cached the same way. Only a new cell is stripped and
    checked, and it enters a vocabulary only once its row is accepted.
    """
    width = len(header)
    at = {name: i for i, name in enumerate(header)}
    (i_invoice, i_stock, i_description, i_quantity, i_date, i_price,
     i_customer, i_country) = (at[schema[key]] for key in (
        "invoice_id", "stock_code", "description", "quantity",
        "invoice_date", "unit_price", "customer_id", "country"))

    invoices, stocks, descriptions, customers, countries = {}, {}, {}, {}, {}
    quantities: dict[str, int] = {}  # raw cell -> accepted quantity
    prices: dict[str, float] = {}  # raw cell -> accepted unit price
    moments: dict[datetime, int] = {}  # distinct parsed dates
    stamps: dict[str, int] = {}  # raw cell -> code in moments, -1 if unparseable
    (invoice_col, stock_col, description_col, quantity_col, date_col, price_col,
     customer_col, country_col) = ([] for _ in range(8))
    rejects: list[RejectedRow] = []

    def reject(idx: int, row: list[str], column: str, reason: str) -> None:
        raw = dict(zip(header, row))
        if len(row) > width:
            raw[None] = row[width:]
        rejects.append(RejectedRow(idx, column, reason, raw))

    for idx, row in enumerate(filter(None, reader), start=2):  # header is line 1
        if len(row) < width:
            row += [""] * (width - len(row))

        invoice = invoices.get(row[i_invoice])
        if invoice is None:
            invoice_id = row[i_invoice].strip()
            if not invoice_id:
                reject(idx, row, schema["invoice_id"], "empty invoice id")
                continue
            if unsafe_cell(invoice_id):
                reject(idx, row, schema["invoice_id"],
                       f"invoice id {invoice_id!r} contains a delimiter or newline")
                continue
        stock = stocks.get(row[i_stock])
        if stock is None:
            stock_code = row[i_stock].strip()
            if not stock_code:
                reject(idx, row, schema["stock_code"], "empty stock code")
                continue
            if unsafe_cell(stock_code):
                reject(idx, row, schema["stock_code"],
                       f"stock code {stock_code!r} contains a delimiter or newline")
                continue

        quantity = quantities.get(row[i_quantity])
        if quantity is None:
            raw_qty = row[i_quantity].strip()
            try:
                quantity = int(raw_qty)
            except ValueError:
                reject(idx, row, schema["quantity"], f"non-integer quantity {raw_qty!r}")
                continue
            if quantity not in _QUANTITY_RANGE:
                reject(idx, row, schema["quantity"],
                       f"quantity {raw_qty!r} outside the signed 32-bit range")
                continue
            quantities[row[i_quantity]] = quantity

        unit_price = prices.get(row[i_price])
        if unit_price is None:
            raw_price = row[i_price].strip()
            try:
                unit_price = float(raw_price)
            except ValueError:
                reject(idx, row, schema["unit_price"], f"non-numeric unit price {raw_price!r}")
                continue
            if not math.isfinite(unit_price):
                reject(idx, row, schema["unit_price"], f"non-finite unit price {raw_price!r}")
                continue
            prices[row[i_price]] = unit_price
        if not math.isfinite(quantity * unit_price):
            reject(idx, row, schema["unit_price"],
                   f"quantity {row[i_quantity].strip()!r} x unit price "
                   f"{row[i_price].strip()!r} is not finite")
            continue

        date_code = stamps.get(row[i_date])
        if date_code is None:  # many lines share one invoice stamp
            moment = _parse_stamp(row[i_date].strip())
            date_code = stamps[row[i_date]] = (
                -1 if moment is None else moments.setdefault(moment, len(moments)))
        if date_code < 0:
            reject(idx, row, schema["invoice_date"],
                   f"unparseable date {row[i_date].strip()!r}")
            continue

        customer = customers.get(row[i_customer])
        if customer is None:
            customer_id = row[i_customer].strip()
            if not customer_id:
                customer = -1  # an anonymous line
            elif unsafe_cell(customer_id):
                reject(idx, row, schema["customer_id"],
                       f"customer id {customer_id!r} contains a delimiter or newline")
                continue
            else:
                customer = customers.setdefault(customer_id, len(customers))
        invoice_col.append(invoice if invoice is not None
                           else invoices.setdefault(invoice_id, len(invoices)))
        stock_col.append(stock if stock is not None
                         else stocks.setdefault(stock_code, len(stocks)))
        description = descriptions.get(row[i_description])
        description_col.append(description if description is not None else
                               descriptions.setdefault(row[i_description].strip(),
                                                       len(descriptions)))
        quantity_col.append(quantity)
        date_col.append(date_code)
        price_col.append(unit_price)
        customer_col.append(customer)
        country = countries.get(row[i_country])
        country_col.append(country if country is not None else
                           countries.setdefault(row[i_country].strip(), len(countries)))
    lines = InvoiceLines(
        invoice_id=Coded.ranked(invoice_col, list(invoices)),
        stock_code=Coded.ranked(stock_col, list(stocks)),
        description=Coded.ranked(description_col, list(descriptions)),
        quantity=np.array(quantity_col, dtype=np.int64),
        invoice_date=Coded.ranked(date_col, list(moments)),
        unit_price=np.array(price_col, dtype=np.float64),
        customer_id=Coded.ranked(customer_col, list(customers)),
        country=Coded.ranked(country_col, list(countries)),
    )
    return lines, rejects


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Runs of equal values in sorted ``keys``: the index at which each run
    starts, and the run number of every element."""
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return np.flatnonzero(starts), np.cumsum(starts) - 1


def clean_transactions(lines: InvoiceLines,
                       cancellation_prefix: str = "C") -> Transactions:
    """Filter raw lines down to usable transactions.

    Drops anonymous lines, cancellation invoices, and non-positive
    quantities or prices; never raises. Spend is quantity x unit price.
    """
    # "not (q <= 0 or p <= 0)" rather than "q > 0 and p > 0": a NaN price
    # (possible in a table built by hand) is kept, as it always was.
    keep = (lines.customer_id.codes >= 0) & ~((lines.quantity <= 0) | (lines.unit_price <= 0))
    if cancellation_prefix:
        cancelled = np.array([i.startswith(cancellation_prefix)
                              for i in lines.invoice_id.values], dtype=bool)
        keep &= ~cancelled[lines.invoice_id.codes]
    rows = np.flatnonzero(keep)
    quantity = lines.quantity[rows]
    return Transactions(
        customer_id=lines.customer_id.take(rows),
        stock_code=lines.stock_code.take(rows),
        invoice_id=lines.invoice_id.take(rows),
        invoice_date=lines.invoice_date.take(rows),
        spend=quantity.astype(np.float64) * lines.unit_price[rows],
        quantity=quantity,
    )


def segment_customers(txns: Transactions, frequent_min_purchases: int = 5,
                      wholesale_quantity_threshold: int = 1000) -> list[CustomerSegment]:
    """Partition registered customers into Wholesale / Frequent / Infrequent,
    and summarize each one's purchases, in customer id order.

    Wholesale is flagged first: any single invoice totaling more than
    ``wholesale_quantity_threshold`` units. Remaining customers are Frequent
    iff they have at least ``frequent_min_purchases`` distinct invoices.
    Every customer present in the transactions gets exactly one segment.
    A customer's spend is summed in (customer, invoice, stock code) order,
    ties in table order, so it is identical across runs.
    """
    if len(txns) == 0:
        return []
    # (invoice, stock code) as one key: a third lexsort key costs more.
    line_key = txns.invoice_id.codes * len(txns.stock_code.values) + txns.stock_code.codes
    order = np.lexsort((line_key, txns.customer_id.codes))
    who = txns.customer_id.codes[order]
    starts, customer = _runs(who)
    invoice_starts, invoice = _runs(who * len(txns.invoice_id.values)
                                    + txns.invoice_id.codes[order])
    units = np.add.reduceat(txns.quantity[order], invoice_starts)
    n_purchases = np.bincount(customer[invoice_starts])
    biggest = np.maximum.reduceat(units, invoice[starts])
    last = np.maximum.reduceat(txns.invoice_date.codes[order], starts)  # codes order like dates
    spend = np.bincount(customer, weights=txns.spend[order])  # adds in order

    out = []
    for code, n, big, day, total in zip(who[starts].tolist(), n_purchases.tolist(),
                                        biggest.tolist(), last.tolist(), spend.tolist()):
        if big > wholesale_quantity_threshold:
            segment = Segment.WHOLESALE
        elif n >= frequent_min_purchases:
            segment = Segment.FREQUENT
        else:
            segment = Segment.INFREQUENT
        out.append(CustomerSegment(txns.customer_id.values[code], segment, n,
                                   txns.invoice_date.values[day], total))
    return out


def build_incidence_matrix(txns: Transactions, members) -> PurchaseMatrix:
    """Total spend of each member customer on each stock code.

    Columns are the stock codes the member set actually purchased. Spends
    are accumulated in (customer, stock code, invoice) order, ties in table
    order, so the result is identical across runs.
    """
    members = set(members)
    if not members:
        raise ValueError("empty member set")
    unknown = members - set(txns.customer_id.used())
    if unknown:
        raise ValueError(f"members with no transactions: {sorted(unknown)}")

    t = txns.for_customers(members)
    order = np.lexsort((t.invoice_id.codes, t.stock_code.codes, t.customer_id.codes))
    row_codes, row = np.unique(t.customer_id.codes[order], return_inverse=True)
    col_codes, col = np.unique(t.stock_code.codes[order], return_inverse=True)
    starts, cell = _runs(row * len(col_codes) + col)
    totals = np.bincount(cell, weights=t.spend[order])  # adds in order
    col_ids = [t.stock_code.values[k] for k in col_codes.tolist()]
    indptr = np.searchsorted(row[starts], np.arange(len(row_codes) + 1))
    return PurchaseMatrix(sorted(members), col_ids, indptr, col[starts], totals)


def matrix_paths(directory: str | Path, prefix: str) -> list[Path]:
    """The files of the matrix ``prefix``: triplets, row ids, column ids."""
    return [Path(directory) / f"{prefix}.{part}"
            for part in ("triplets.csv", "rows.txt", "cols.txt")]


def write_matrix(matrix: PurchaseMatrix, directory: str | Path, prefix: str) -> list[Path]:
    """Serialize as a row-major triplet file plus row/column id sidecars."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    paths = matrix_paths(directory, prefix)
    triplets, rows_path, cols_path = paths
    write_csv(triplets, ["row_id", "col_id", "value"],
              zip(map(matrix.row_ids.__getitem__, matrix._rows().tolist()),
                  map(matrix.col_ids.__getitem__, matrix.indices.tolist()),
                  map(fmt_float, matrix.data.tolist())))
    write_text(rows_path, "".join(r + "\n" for r in matrix.row_ids))
    write_text(cols_path, "".join(c + "\n" for c in matrix.col_ids))
    return paths


def read_matrix(directory: str | Path, prefix: str) -> PurchaseMatrix:
    """Read ``write_matrix``'s files: sorted, unique sidecar ids and, in any
    order, one triplet per position with known ids and a positive, finite
    value. Anything else raises a ValueError naming the triplet file."""
    path, rows_path, cols_path = matrix_paths(directory, prefix)
    _, columns = read_csv_columns(path)  # names the file on a short row
    try:
        row_ids, col_ids = (p.read_text(encoding="utf-8").splitlines()
                            for p in (rows_path, cols_path))
        row_cells, col_cells, values = columns
        rows = _positions(row_ids, row_cells, f"ids not in {prefix}.rows.txt")
        cols = _positions(col_ids, col_cells, f"ids not in {prefix}.cols.txt")
        order = np.lexsort((cols, rows))
        indptr = np.searchsorted(rows[order], np.arange(len(row_ids) + 1))
        values = np.fromiter(map(float, values), dtype=np.float64, count=len(values))
        return PurchaseMatrix(row_ids, col_ids, indptr, cols[order], values[order])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_rejects(rejects, path: str | Path) -> None:
    """One JSON line per reject. A long row's extra fields, kept under the
    key None of ``raw``, are written under "null", the name ``json`` itself
    gives a None key (sorting the keys needs them all to be strings)."""
    dump_jsonl(Path(path), (
        {"line": r.line_number, "column": r.column, "reason": r.reason,
         "raw": {"null" if k is None else k: v for k, v in r.raw.items()}}
        for r in rejects))


def write_transactions(txns: Transactions, path: str | Path) -> None:
    """One line per transaction. Ids are written from their vocabularies, and
    each distinct date, spend and quantity is formatted once."""
    def cells(codes: np.ndarray, texts: list) -> list:
        return np.array(texts, dtype=object)[codes].tolist()

    def formatted(values: np.ndarray, fmt) -> list:
        # Distinct by bit pattern, so that 0.0 and -0.0 keep their own text.
        bits, codes = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
        return cells(codes, [fmt(v) for v in bits.view(values.dtype).tolist()])

    ids = [cells(c.codes, c.values) for c in (txns.customer_id, txns.stock_code, txns.invoice_id)]
    stamps = cells(txns.invoice_date.codes, [d.isoformat() for d in txns.invoice_date.values])
    write_csv(Path(path),
              ["customer_id", "stock_code", "invoice_id", "invoice_date", "spend", "quantity"],
              zip(*ids, stamps, formatted(txns.spend, fmt_float), formatted(txns.quantity, str)))


def read_transactions(path: str | Path) -> Transactions:
    _, columns = read_csv_columns(Path(path))
    customers, stocks, invoices, stamps, spends, quantities = columns or [[]] * 6
    dates = Coded.encode(stamps)
    return Transactions(
        customer_id=Coded.encode(customers),
        stock_code=Coded.encode(stocks),
        invoice_id=Coded.encode(invoices),
        invoice_date=Coded.ranked(dates.codes, [datetime.fromisoformat(d) for d in dates.values]),
        spend=np.array([float(s) for s in spends], dtype=np.float64),
        quantity=np.array([int(q) for q in quantities], dtype=np.int64),
    )


_SEGMENT_COLUMNS = ["customer_id", "segment", "n_purchases", "last_purchase", "spend"]


def write_segments(segments, path: str | Path) -> None:
    write_csv(Path(path), _SEGMENT_COLUMNS,
              ([s.customer_id, s.segment.value, str(s.n_purchases),
                s.last_purchase.isoformat(), fmt_float(s.spend)] for s in segments))


def read_segments(path: str | Path) -> list[CustomerSegment]:
    """``write_segments``'s file. Other columns, as an older ingest wrote,
    are a ValueError naming the file."""
    header, rows = read_csv(Path(path))
    if header != _SEGMENT_COLUMNS:
        raise ValueError(f"{path}: columns {header}, expected {_SEGMENT_COLUMNS}; "
                         f"re-run the 'ingest' stage")
    return [CustomerSegment(c, Segment(s), int(n), datetime.fromisoformat(d), float(m))
            for c, s, n, d, m in rows]
