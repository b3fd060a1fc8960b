"""Canonical text formatting shared by all artifact writers.

Every file the pipeline emits goes through these helpers so that re-running
with identical inputs produces byte-identical artifacts. Each helper writes
a temporary file beside the target and renames it over the target, so an
interrupted write leaves the previous file, or none, and never a partial one.
"""

import hashlib
import json
import os
import re
from contextlib import contextmanager
from itertools import islice, repeat
from pathlib import Path


def fmt_float(x: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


@contextmanager
def _atomic_open(path: Path):
    """Text file that replaces ``path`` only if the ``with`` body completes."""
    path = Path(path)
    # The pid keeps concurrent writers apart; a leftover from a dead process
    # with the same pid is simply overwritten.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: Path, text: str) -> None:
    with _atomic_open(path) as f:
        f.write(text)


# Every character str.splitlines() ends a line at. All of them are
# non-printable, so printable text needs no regex search.
_LINE_BREAK = re.compile("[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def _breaks_line(text: str) -> bool:
    return not text.isprintable() and _LINE_BREAK.search(text) is not None


def unsafe_cell(text: str) -> bool:
    """True when ``text`` cannot be one cell of the quote-free CSV: it holds
    the delimiter or a character at which ``read_csv`` would split a line."""
    return "," in text or _breaks_line(text)


# Writers format, check and write rows (or records) in blocks of this many.
# Larger blocks are no faster, and a block's rows, lines and text are all
# alive at once, which grows the heap that later stages of a run inherit.
_BLOCK_ROWS = 256


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write rows of already-formatted strings with a fixed line terminator.

    The format is deliberately quote-free, so no cell may be ``unsafe_cell``,
    and every row must have as many cells as the header; either is a
    ValueError.
    """
    width, rows = len(header), iter(rows)
    with _atomic_open(path) as f:
        f.write(_checked_lines(path, width, [header], 1))
        line = 2
        while block := list(islice(rows, _BLOCK_ROWS)):
            f.write(_checked_lines(path, width, block, line))
            line += len(block)


def _checked_lines(path: Path, width: int, block: list, first_line: int) -> str:
    """The block's rows as text, one line each. One pass over the joined
    text checks the whole block; only a block that fails it is searched for
    the cell or the row to name."""
    text = "\n".join(map(",".join, block)) + "\n"
    # A row of ``width`` cells is width - 1 commas and a newline, plus one
    # for each comma or newline inside a cell.
    flat = text.replace("\n", ",")
    if (list(map(len, block)).count(width) != len(block)
            or flat.count(",") != len(block) * width or _breaks_line(flat)):
        for number, row in enumerate(block, start=first_line):
            for cell in row:
                if unsafe_cell(cell):
                    raise ValueError(f"cell {cell!r} contains a delimiter or newline")
            if len(row) != width:
                raise ValueError(f"{path}: line {number} has {len(row)} cells, "
                                 f"the header {width}")
    return text


def _read_rows(path: Path) -> tuple[list[str], list[str]]:
    """The header cells and the body lines of a ``write_csv`` file. Every
    row must have as many cells as the header; a row that does not is a
    ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        return [], []
    header, body = lines[0].split(","), lines[1:]
    if list(map(str.count, body, repeat(","))).count(len(header) - 1) != len(body):
        raise ValueError(f"{path}: a row does not have {len(header)} cells")
    return header, body


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """The header and the rows of a ``write_csv`` file (see ``_read_rows``)."""
    header, body = _read_rows(path)
    return header, [line.split(",") for line in body]


def read_csv_columns(path: Path) -> tuple[list[str], list[list[str]]]:
    """``read_csv`` by column: the header and one list of cells per column,
    without a list per row."""
    header, body = _read_rows(path)
    width = len(header)
    cells = ",".join(body).split(",") if body else []
    return header, [cells[k::width] for k in range(width)]


def dump_json(path: Path, obj) -> None:
    with _atomic_open(path) as f:
        f.write(json.dumps(obj, sort_keys=True, indent=2))
        f.write("\n")


_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


def dump_jsonl(path: Path, records) -> None:
    """One JSON object per line; a float is written as its shortest
    round-trip repr, and a NaN or infinity raises ValueError."""
    records = iter(records)
    with _atomic_open(path) as f:
        while block := list(islice(records, _BLOCK_ROWS)):
            f.write("\n".join(map(_JSONL_ENCODER.encode, block)) + "\n")


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
