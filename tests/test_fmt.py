import json
import re
import sys

import pytest

from shoplens._fmt import (dump_json, dump_jsonl, read_csv, read_csv_columns, unsafe_cell,
                          write_csv, write_text)


def rows_then_failure():
    yield ["a", "1"]
    yield ["b", "2"]
    raise RuntimeError("source failed mid-write")


def records_then_failure():
    yield {"a": 1}
    raise RuntimeError("source failed mid-write")


# Each writer fails after it has written part of the file: a raising row
# source, a cell the CSV format cannot hold, an object JSON cannot encode.
INTERRUPTED = [
    (lambda p: write_csv(p, ["k", "v"], rows_then_failure()), RuntimeError),
    (lambda p: write_csv(p, ["k", "v"], [["a", "1"], ["b,c", "2"]]), ValueError),
    (lambda p: dump_jsonl(p, records_then_failure()), RuntimeError),
    (lambda p: dump_json(p, {"a": object()}), TypeError),
]


@pytest.mark.parametrize("write,error", INTERRUPTED)
def test_interrupted_write_keeps_previous_file(tmp_path, write, error):
    path = tmp_path / "artifact"
    write_text(path, "previous\n")
    with pytest.raises(error):
        write(path)
    assert path.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


@pytest.mark.parametrize("write,error", INTERRUPTED)
def test_interrupted_first_write_leaves_nothing(tmp_path, write, error):
    with pytest.raises(error):
        write(tmp_path / "artifact")
    assert list(tmp_path.iterdir()) == []


def test_completed_writes_replace_the_file(tmp_path):
    path = tmp_path / "artifact"
    write_text(path, "previous\n")
    write_csv(path, ["k", "v"], [["a", "1"]])
    assert path.read_bytes() == b"k,v\na,1\n"
    dump_jsonl(path, [{"b": 2, "a": 1}])
    assert path.read_bytes() == b'{"a": 1, "b": 2}\n'
    dump_json(path, {"b": [1.5]})
    assert json.loads(path.read_text()) == {"b": [1.5]}
    assert path.read_bytes() == b'{\n  "b": [\n    1.5\n  ]\n}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_non_finite_json_float_raises_and_keeps_previous_file(tmp_path):
    path = tmp_path / "artifact"
    write_text(path, "previous\n")
    with pytest.raises(ValueError):
        dump_jsonl(path, [{"w": 1.5}, {"w": float("inf")}])
    assert path.read_bytes() == b"previous\n"


def test_csv_columns_transpose_the_rows(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["k", "v", "w"], [["a", "1", ""], ["b", "2", "x"]])
    header, rows = read_csv(path)
    assert read_csv_columns(path) == (header, [list(c) for c in zip(*rows)])
    write_csv(path, ["k", "v"], [])
    assert read_csv_columns(path) == (["k", "v"], [[], []])
    path.write_text("", encoding="utf-8")
    assert read_csv_columns(path) == ([], [])


def test_csv_columns_reject_a_ragged_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("k,v\na,1\nb\nc,3,4\n", encoding="utf-8")
    with pytest.raises(ValueError, match="2 cells"):
        read_csv_columns(path)


def test_unsafe_cells_are_the_delimiter_and_every_line_boundary():
    # The readers split files with str.splitlines(), so a cell may hold none
    # of the characters it breaks at.
    chars = [chr(c) for c in range(sys.maxunicode + 1)]
    assert ([c for c in chars if unsafe_cell(f"a{c}b")]
            == [c for c in chars if c == "," or len(f"a{c}b".splitlines()) > 1])


@pytest.mark.parametrize("cell", ["b,c", "b\nc", "b\x0bc", "b\x1ec", "b\x85c", "b\u2028c"])
def test_write_csv_names_the_cell_that_would_split_a_line(tmp_path, cell):
    with pytest.raises(ValueError, match=re.escape(f"cell {cell!r} contains")):
        write_csv(tmp_path / "t.csv", ["k", "v", "w"], [["a", "1", "x"], ["b", cell, "é"]])
    with pytest.raises(ValueError, match=re.escape(f"cell {cell!r} contains")):
        write_csv(tmp_path / "t.csv", ["k", cell], [])
    # Past the first block of rows, the failing block is searched as well.
    clean = [[str(i), "1", "x"] for i in range(10_000)]
    with pytest.raises(ValueError, match=re.escape(f"cell {cell!r} contains")):
        write_csv(tmp_path / "t.csv", ["k", "v", "w"], clean + [["b", cell, "é"]])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rows,line,cells", [
    ([["x"], []], 2, 1),
    ([["a", "1"]] * 5_000 + [[]], 5_002, 0),
    # Three cells and one cell: as many commas as two rows of two cells.
    ([["a", "1"]] * 9_000 + [["x", "y", "z"], ["w"]], 9_002, 3),
])
def test_write_csv_rejects_a_row_of_another_width(tmp_path, rows, line, cells):
    path = tmp_path / "t.csv"
    message = f"{path}: line {line} has {cells} cells, the header 2"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_csv(path, ["a", "b"], rows)
    assert list(tmp_path.iterdir()) == []


def test_blocks_write_the_rows_line_by_line(tmp_path):
    # Cells that are not printable yet break no line ("\t", "\x00") make a
    # block fail its one-pass check; its search then finds nothing to refuse.
    rows = [[str(i), ["", "é", "a\tb", "\x00", "x y"][i % 5], f"{i / 7!r}"]
            for i in range(10_001)]
    path = tmp_path / "t.csv"
    write_csv(path, ["k", "v", "w"], iter(rows))
    expected = "k,v,w\n" + "".join(",".join(r) + "\n" for r in rows)
    assert path.read_bytes() == expected.encode("utf-8")
    assert read_csv(path) == (["k", "v", "w"], rows)

    records = [{"b": i, "a": [i / 3, "é"], "c": None} for i in range(10_001)]
    dump_jsonl(path, iter(records))
    expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    assert path.read_bytes() == expected.encode("utf-8")
