"""Invoice-line ingestion: CSV parsing, cleaning, customer segmentation,
and construction of the customer x item spend incidence matrix.

All functions are pure: they take immutable inputs and return new values,
so results can be shared freely across threads.
"""

import csv
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from pathlib import Path

import numpy as np

from ._fmt import dump_jsonl, fmt_float, read_csv, write_csv, write_text

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


@dataclass(frozen=True)
class InvoiceLine:
    invoice_id: str
    stock_code: str
    description: str
    quantity: int
    invoice_date: datetime
    unit_price: float
    customer_id: str | None
    country: str


@dataclass(frozen=True)
class CleanedTransaction:
    customer_id: str
    stock_code: str
    invoice_id: str
    invoice_date: datetime
    spend: float
    # Unit count is kept so wholesale detection can run on cleaned data.
    quantity: int = 1


class Segment(str, Enum):
    FREQUENT = "Frequent"
    INFREQUENT = "Infrequent"
    WHOLESALE = "Wholesale"


@dataclass(frozen=True)
class CustomerSegment:
    customer_id: str
    segment: Segment
    n_purchases: int


@dataclass(frozen=True)
class RejectedRow:
    line_number: int
    column: str
    reason: str
    raw: dict


@dataclass(frozen=True)
class CleaningRules:
    cancellation_prefix: str = "C"


@dataclass(frozen=True)
class SegmentationConfig:
    frequent_min_purchases: int = 5
    # A customer is wholesale if any single invoice totals more than this
    # many units. The source data never labels wholesalers, so this is a
    # documented operational default, not a derived constant.
    wholesale_quantity_threshold: int = 1000


class PurchaseMatrix:
    """Sparse non-negative customer x item spend matrix.

    Stored entries are strictly positive; absent entries mean zero spend.
    Row and column id lists are duplicate-free and sorted, so two matrices
    built from the same transactions are identical.
    """

    def __init__(self, row_ids: list[str], col_ids: list[str],
                 entries: dict[tuple[int, int], float]):
        if len(set(row_ids)) != len(row_ids):
            raise ValueError("duplicate row ids")
        if len(set(col_ids)) != len(col_ids):
            raise ValueError("duplicate column ids")
        if list(row_ids) != sorted(row_ids) or list(col_ids) != sorted(col_ids):
            raise ValueError("row/column ids must be sorted")
        for (i, j), v in entries.items():
            if not (0 <= i < len(row_ids) and 0 <= j < len(col_ids)):
                raise ValueError(f"entry ({i}, {j}) out of range")
            if not v > 0:
                raise ValueError(f"stored entry ({i}, {j}) must be positive, got {v}")
        self.row_ids = list(row_ids)
        self.col_ids = list(col_ids)
        self.entries = dict(entries)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_ids), len(self.col_ids)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        for (i, j), v in self.entries.items():
            dense[i, j] = v
        return dense

    def restrict_columns(self, codes: list[str]) -> "PurchaseMatrix":
        """Sub-matrix keeping only the given stock codes (rows unchanged)."""
        keep = sorted(set(codes))
        position = {c: j for j, c in enumerate(self.col_ids)}
        missing = [c for c in keep if c not in position]
        if missing:
            raise ValueError(f"unknown stock codes: {missing}")
        old_to_new = {position[c]: k for k, c in enumerate(keep)}
        entries = {(i, old_to_new[j]): v for (i, j), v in self.entries.items()
                   if j in old_to_new}
        return PurchaseMatrix(self.row_ids, keep, entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PurchaseMatrix)
                and self.row_ids == other.row_ids
                and self.col_ids == other.col_ids
                and self.entries == other.entries)


def _parse_date(raw: str, formats: tuple[str, ...]) -> datetime | None:
    for fmt in formats:
        try:
            return datetime.strptime(raw, fmt)
        except ValueError:
            pass
    return None


def _has_delimiter(value: str) -> bool:
    """Ids are written back out in quote-free CSV, so they must not carry
    the delimiter or a line break."""
    return "," in value or "\n" in value or "\r" in value


def parse_invoice_csv(
    path: str | Path,
    schema: dict[str, str] | None = None,
    encoding: str = "utf-8",
    date_formats: tuple[str, ...] = DEFAULT_DATE_FORMATS,
) -> tuple[list[InvoiceLine], list[RejectedRow]]:
    """Parse an invoice-line CSV into typed records plus a reject report.

    Malformed data rows land in the reject report instead of aborting the
    parse; that includes ids (invoice, stock code, customer) carrying a
    comma or line break, which the quote-free artifacts cannot hold. A
    missing file, a missing mandatory column, or an undecodable byte stream
    is a hard error.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    schema = dict(DEFAULT_SCHEMA, **(schema or {}))

    try:
        with open(path, "r", encoding=encoding, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None:
                return [], []
            header = [name.lstrip("\ufeff") for name in header]
            missing = [col for col in schema.values() if col not in header]
            if missing:
                raise ValueError(
                    f"{path}: missing mandatory columns {missing}; found {header}")
            return _parse_rows(reader, header, schema, date_formats)
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}: cannot decode as {encoding} near byte {exc.start}; "
            f"pass the correct encoding") from exc


def _parse_rows(reader, header: list[str], schema: dict[str, str],
                date_formats: tuple[str, ...],
                ) -> tuple[list[InvoiceLine], list[RejectedRow]]:
    """Type the data rows of an invoice CSV as they are read.

    Rows are read the way ``csv.DictReader`` reads them: blank lines are
    skipped and not numbered, a repeated header name takes the last
    matching field, a short row reads its missing fields as "", and a long
    row keeps its extra fields under the key None of the reject record.
    """
    width = len(header)
    at = {name: i for i, name in enumerate(header)}
    (i_invoice, i_stock, i_description, i_quantity, i_date, i_price,
     i_customer, i_country) = (at[schema[key]] for key in (
        "invoice_id", "stock_code", "description", "quantity",
        "invoice_date", "unit_price", "customer_id", "country"))

    lines: list[InvoiceLine] = []
    rejects: list[RejectedRow] = []
    dates: dict[str, datetime | None] = {}  # many lines share one invoice stamp
    for idx, row in enumerate(filter(None, reader), start=2):  # header is line 1
        if len(row) < width:
            row += [""] * (width - len(row))

        def reject(column: str, reason: str) -> None:
            raw = dict(zip(header, row))
            if len(row) > width:
                raw[None] = row[width:]
            rejects.append(RejectedRow(idx, column, reason, raw))

        invoice_id = row[i_invoice].strip()
        if not invoice_id:
            reject(schema["invoice_id"], "empty invoice id")
            continue
        if _has_delimiter(invoice_id):
            reject(schema["invoice_id"],
                   f"invoice id {invoice_id!r} contains a delimiter or newline")
            continue
        stock_code = row[i_stock].strip()
        if not stock_code:
            reject(schema["stock_code"], "empty stock code")
            continue
        if _has_delimiter(stock_code):
            reject(schema["stock_code"],
                   f"stock code {stock_code!r} contains a delimiter or newline")
            continue

        raw_qty = row[i_quantity].strip()
        try:
            quantity = int(raw_qty)
        except ValueError:
            reject(schema["quantity"], f"non-integer quantity {raw_qty!r}")
            continue

        raw_price = row[i_price].strip()
        try:
            unit_price = float(raw_price)
        except ValueError:
            reject(schema["unit_price"], f"non-numeric unit price {raw_price!r}")
            continue

        raw_date = row[i_date].strip()
        if raw_date not in dates:
            dates[raw_date] = _parse_date(raw_date, date_formats)
        invoice_date = dates[raw_date]
        if invoice_date is None:
            reject(schema["invoice_date"], f"unparseable date {raw_date!r}")
            continue

        customer_id = row[i_customer].strip() or None
        if customer_id is not None and _has_delimiter(customer_id):
            reject(schema["customer_id"],
                   f"customer id {customer_id!r} contains a delimiter or newline")
            continue
        lines.append(InvoiceLine(
            invoice_id=invoice_id,
            stock_code=stock_code,
            description=row[i_description].strip(),
            quantity=quantity,
            invoice_date=invoice_date,
            unit_price=unit_price,
            customer_id=customer_id,
            country=row[i_country].strip(),
        ))
    return lines, rejects


def clean_transactions(lines, rules: CleaningRules = CleaningRules()) -> list[CleanedTransaction]:
    """Filter raw lines down to usable transactions.

    Drops anonymous lines, cancellation invoices, and non-positive
    quantities or prices; never raises. Spend is quantity x unit price.
    """
    out = []
    for line in lines:
        if line.customer_id is None:
            continue
        if rules.cancellation_prefix and line.invoice_id.startswith(rules.cancellation_prefix):
            continue
        if line.quantity <= 0 or line.unit_price <= 0:
            continue
        out.append(CleanedTransaction(
            customer_id=line.customer_id,
            stock_code=line.stock_code,
            invoice_id=line.invoice_id,
            invoice_date=line.invoice_date,
            spend=line.quantity * line.unit_price,
            quantity=line.quantity,
        ))
    return out


def segment_customers(txns, cfg: SegmentationConfig = SegmentationConfig()) -> list[CustomerSegment]:
    """Partition registered customers into Wholesale / Frequent / Infrequent.

    Wholesale is flagged first: any single invoice totaling more than
    ``wholesale_quantity_threshold`` units. Remaining customers are Frequent
    iff they have at least ``frequent_min_purchases`` distinct invoices.
    Every customer present in the transactions gets exactly one segment.
    """
    invoices: dict[str, set[str]] = {}
    invoice_units: dict[tuple[str, str], int] = {}
    for t in txns:
        invoices.setdefault(t.customer_id, set()).add(t.invoice_id)
        key = (t.customer_id, t.invoice_id)
        invoice_units[key] = invoice_units.get(key, 0) + t.quantity

    out = []
    for customer_id in sorted(invoices):
        n_purchases = len(invoices[customer_id])
        biggest = max(invoice_units[(customer_id, inv)] for inv in invoices[customer_id])
        if biggest > cfg.wholesale_quantity_threshold:
            segment = Segment.WHOLESALE
        elif n_purchases >= cfg.frequent_min_purchases:
            segment = Segment.FREQUENT
        else:
            segment = Segment.INFREQUENT
        out.append(CustomerSegment(customer_id, segment, n_purchases))
    return out


def build_incidence_matrix(txns, members) -> PurchaseMatrix:
    """Total spend of each member customer on each stock code.

    Columns are the stock codes the member set actually purchased. Spends
    are accumulated in sorted transaction order so the result is identical
    across runs.
    """
    members = set(members)
    if not members:
        raise ValueError("empty member set")
    present = {t.customer_id for t in txns}
    unknown = members - present
    if unknown:
        raise ValueError(f"members with no transactions: {sorted(unknown)}")

    member_txns = sorted(
        (t for t in txns if t.customer_id in members),
        key=lambda t: (t.customer_id, t.stock_code, t.invoice_id),
    )
    row_ids = sorted(members)
    col_ids = sorted({t.stock_code for t in member_txns})
    row_index = {c: i for i, c in enumerate(row_ids)}
    col_index = {s: j for j, s in enumerate(col_ids)}
    entries: dict[tuple[int, int], float] = {}
    for t in member_txns:
        key = (row_index[t.customer_id], col_index[t.stock_code])
        entries[key] = entries.get(key, 0.0) + t.spend
    return PurchaseMatrix(row_ids, col_ids, entries)


def write_matrix(matrix: PurchaseMatrix, directory: str | Path, prefix: str) -> list[Path]:
    """Serialize as a sparse triplet file plus row/column index sidecars."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    triplets = directory / f"{prefix}.triplets.csv"
    rows_path = directory / f"{prefix}.rows.txt"
    cols_path = directory / f"{prefix}.cols.txt"
    ordered = sorted(matrix.entries.items())
    write_csv(triplets, ["row_id", "col_id", "value"],
              ([matrix.row_ids[i], matrix.col_ids[j], fmt_float(v)]
               for (i, j), v in ordered))
    write_text(rows_path, "".join(r + "\n" for r in matrix.row_ids))
    write_text(cols_path, "".join(c + "\n" for c in matrix.col_ids))
    return [triplets, rows_path, cols_path]


def read_matrix(directory: str | Path, prefix: str) -> PurchaseMatrix:
    directory = Path(directory)
    row_ids = (directory / f"{prefix}.rows.txt").read_text(encoding="utf-8").splitlines()
    col_ids = (directory / f"{prefix}.cols.txt").read_text(encoding="utf-8").splitlines()
    row_index = {r: i for i, r in enumerate(row_ids)}
    col_index = {c: j for j, c in enumerate(col_ids)}
    _, rows = read_csv(directory / f"{prefix}.triplets.csv")
    entries = {(row_index[r], col_index[c]): float(v) for r, c, v in rows}
    return PurchaseMatrix(row_ids, col_ids, entries)


def write_rejects(rejects, path: str | Path) -> None:
    """One JSON line per reject. A long row's extra fields, kept under the
    key None of ``raw``, are written under "null", the name ``json`` itself
    gives a None key (sorting the keys needs them all to be strings)."""
    dump_jsonl(Path(path), (
        {"line": r.line_number, "column": r.column, "reason": r.reason,
         "raw": {"null" if k is None else k: v for k, v in r.raw.items()}}
        for r in rejects))


def write_transactions(txns, path: str | Path) -> None:
    write_csv(Path(path),
              ["customer_id", "stock_code", "invoice_id", "invoice_date", "spend", "quantity"],
              ([t.customer_id, t.stock_code, t.invoice_id,
                t.invoice_date.isoformat(), fmt_float(t.spend), str(t.quantity)]
               for t in txns))


def read_transactions(path: str | Path) -> list[CleanedTransaction]:
    _, rows = read_csv(Path(path))
    return [CleanedTransaction(c, s, inv, datetime.fromisoformat(d), float(sp), int(q))
            for c, s, inv, d, sp, q in rows]


def write_segments(segments, path: str | Path) -> None:
    write_csv(Path(path), ["customer_id", "segment", "n_purchases"],
              ([s.customer_id, s.segment.value, str(s.n_purchases)] for s in segments))


def read_segments(path: str | Path) -> list[CustomerSegment]:
    _, rows = read_csv(Path(path))
    return [CustomerSegment(c, Segment(s), int(n)) for c, s, n in rows]
