"""The streamed CSV reader and loaders, and the streamed ``predict --runs`` report.

The reader splits plain lines at their commas and leaves every other line to
the csv module; it must give what ``csv.reader`` gives on the whole file. The
loaders parse each row as it is read, so a load's memory follows the numbers it
keeps, not the cells it reads. The JSON report of ``predict --runs`` is written
in blocks of records and must keep the bytes of the indented ``json`` output.
"""

import csv
import gc
import io
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emodel import DataFormatError, load_compounds, load_runs
from emodel._common import _read_csv, _read_table
from emodel.cli import _BLOCK, _json_text, _predictions_json
from emodel.core import _load_run_columns
from helpers import load_runs_by_rows


def read_streamed(path):
    with _read_csv(path) as (header, rows):
        return header, list(rows)


def read_whole(path):
    """The reader's result from ``csv.reader`` used directly: every record
    read first, then the header and the rows that are not blank, each with
    its record number."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            records = list(reader)
        except csv.Error as exc:
            raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not records or not any(cell.strip() for cell in records[0]):
        raise DataFormatError(f"{path}: no header")
    return [cell.strip() for cell in records[0]], [
        (number, record) for number, record in enumerate(records[1:], 2)
        if any(cell.strip() for cell in record)]


def outcome(read, path):
    try:
        return read(path)
    except DataFormatError as exc:
        return str(exc)


def read_table(path):
    with open(path, "rb") as fh:
        return _read_table(path, fh)


def fault_after_first_row(path):
    """A fault raised in the block after one row: a read fault anywhere in
    the file comes first, as when the file was read whole before any check."""
    with _read_csv(path) as (_, rows):
        next(rows, None)
        raise DataFormatError("the loader's fault")


#: The field size limit under which generated files are read: small, so that
#: lines and cells near it stay short.
LIMIT = 24

CHARACTERS = ["a", "1", "-", ".", " ", "\t", ",", '"', "\r", "\n", "\0", "\ufeff", "\x1c", "é"]
TERMINATORS = ["\n", "\r\n", "\r"]


@st.composite
def csv_files(draw):
    """CSV bytes: records written with minimal, full or no quoting and LF,
    CRLF or CR endings, among blank and whitespace-only rows and lines of
    ``LIMIT`` to ``LIMIT + 1`` characters, with or without a BOM, a final
    newline or a byte that is not UTF-8."""
    cell = st.one_of(st.text(st.sampled_from(CHARACTERS), max_size=5),
                     st.integers(LIMIT - 2, LIMIT + 1).map(lambda n: "9" * n))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["minimal", "all", "raw", "blank", "spaces", "long"]))
        ending = draw(st.sampled_from(TERMINATORS))
        if kind in ("minimal", "all"):
            out = io.StringIO()
            quoting = csv.QUOTE_MINIMAL if kind == "minimal" else csv.QUOTE_ALL
            csv.writer(out, quoting=quoting, lineterminator=ending).writerow(
                draw(st.lists(cell, max_size=4)))
            lines.append(out.getvalue())
        elif kind == "raw":
            lines.append(",".join(draw(st.lists(cell, max_size=4))) + ending)
        elif kind == "blank":
            lines.append(ending)
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", " , ", "\t,,"])) + ending)
        else:  # a line of LIMIT or LIMIT + 1 characters with its newline, in short cells
            width = draw(st.integers(LIMIT, LIMIT + 1)) - 1
            lines.append(("1," * width)[:width] + "\n")
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.booleans()):
        text = "\ufeff" + text
    data = text.encode("utf-8")
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=600, deadline=None)
@given(csv_files())
@example(b"a,b\n1,2\n")
@example(b"a,b\r\n1,2\r\n\r\n3,4")
@example(b'a,b\n1,2\n"x\ny",3\n\n5,"6"\n')
@example(b"a,b\n1,2\n3,4\0\n5,6\n")
@example(b"\xef\xbb\xbfa,b\n \n1,2")
@example(b"a,b\n1,2\n" + b"9" * (LIMIT + 1) + b"\n3,4\n")
@example(b"a\n1\n\xff\n")
@example(b"\n\na,b\n")
@example(b"")
def test_reader_matches_csv_reader(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "reader_oracle.csv"
    path.write_bytes(data)
    limit = csv.field_size_limit(LIMIT)
    try:
        expected = outcome(read_whole, path)
        assert outcome(read_streamed, path) == expected
        assert outcome(fault_after_first_row, path) == (
            expected if isinstance(expected, str) else "the loader's fault")
    finally:
        csv.field_size_limit(limit)


@settings(max_examples=600, deadline=None)
@given(csv_files())
@example(b"a,b\r\n1,2\r\n\r\n3,4")
@example(b"a,b\r\r\n1,2\r3,4\n\r\n")
@example(b"a,b\n1,2\n" + b"9" * LIMIT + b"\r\n3,4\n")
@example(b"a,b\n1,2\n" + b"9" * (LIMIT + 1) + b"\n3,4\n")
@example(b"a,b\n1,2\n" + b"9," * LIMIT + b"\n3,4\n")
@example(b"a\n1\n\xff\n")
@example(b"\n\na,b\n")
@example(b"")
def test_whole_file_reader_matches_csv_reader(tmp_path_factory, data):
    """``_read_table`` reads a file at once, and gives what ``csv.reader``
    gives on it, read faults included."""
    path = tmp_path_factory.getbasetemp() / "table_oracle.csv"
    path.write_bytes(data)
    limit = csv.field_size_limit(LIMIT)
    try:
        assert outcome(read_table, path) == outcome(read_whole, path)
    finally:
        csv.field_size_limit(limit)


def test_reader_at_the_default_field_size_limit(tmp_path):
    """Lines one character over ``csv.field_size_limit()``: in short cells they
    are read whole, and a cell that long is the csv module's error."""
    limit = csv.field_size_limit()
    short_cells = ("1," * limit)[:limit] + "\n"
    for name, text in [("cells.csv", "a,b\n" + short_cells + "3,4\n"),
                       ("cell.csv", "a,b\n1,2\n" + "9" * (limit + 1) + "\n3,4\n")]:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert outcome(read_streamed, path) == outcome(read_whole, path)
    assert outcome(read_streamed, tmp_path / "cell.csv") == (
        f"{tmp_path / 'cell.csv'}: line 3: field larger than field limit ({limit})")


RUNS_HEADER = "app_id,run_id,cores,problem_size,exec_time_s,dynamic_energy_j,X1,X2,X3,X4\n"


def test_a_bad_cell_leaves_no_partial_row(tmp_path):
    """A row whose third numeric cell (X3: the PMC cells are parsed first)
    does not parse as it stands is parsed again cell by cell, and the values
    parsed before that cell are not kept twice: the rows after it keep their
    own values and faults."""
    padded = RUNS_HEADER + "a,r1,2,s,1,1,1,2,\x1c3\x1c,4\nb,r1,2,s,1,1,7,8,9,10\n"
    path = tmp_path / "padded.csv"
    path.write_text(padded, encoding="utf-8")
    assert load_runs(path) == load_runs_by_rows(path)
    assert load_runs(path).counts.tolist() == [[1.0, 2.0, 3.0, 4.0], [7.0, 8.0, 9.0, 10.0]]

    bad = RUNS_HEADER + "a,r1,2,s,1,1,1,2,3,4\nb,r1,2,s,1,1,1,2,oops,4\nc,r1,2,s,1,1,1,2,3,-4\n"
    path = tmp_path / "bad.csv"
    path.write_text(bad, encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"row 3, column 'X3': non-numeric cell 'oops'$"):
        load_runs(path)
    # The row's earlier fault in the order of checks comes first.
    path.write_text(bad.replace("b,r1,2,s,1", "b,r1,2,s,0"), encoding="utf-8")
    with pytest.raises(DataFormatError,
                       match=r"row 3, column 'exec_time_s': must be > 0, got 0\.0$"):
        load_runs(path)
    # Without it, the next row's own fault is found in its own cell.
    path.write_text(bad.replace("oops", "3"), encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"row 4, column 'X4': negative count -4\.0$"):
        load_runs(path)


def write_tables(tmp_path, runs=5000, compounds=1000, pmcs=24):
    """A runs file of ``runs`` rows and a compounds file of ``compounds`` rows
    over ``pmcs`` PMCs, with full-precision numbers as a measurement tool writes
    them."""
    rng = random.Random(7)
    names = [f"X{i}" for i in range(1, pmcs + 1)]
    runs_path, compounds_path = tmp_path / "runs.csv", tmp_path / "compounds.csv"
    with open(runs_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["app_id", "run_id", "cores", "problem_size", "exec_time_s",
                           "dynamic_energy_j", *names]) + "\n")
        for i in range(runs):
            fh.write(",".join([f"app{i // 5}", f"r{i % 5}", "4", "n1024",
                               repr(rng.uniform(1, 10)), repr(rng.uniform(10, 1000)),
                               *(repr(rng.uniform(1e5, 1e9)) for _ in names)]) + "\n")
    with open(compounds_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["compound_id", "base_a", "base_b", "dynamic_energy_j", *names]) + "\n")
        for i in range(compounds):
            fh.write(",".join([f"c{i}", f"app{i % 1000}", f"app{i * 7 % 1000}",
                               repr(rng.uniform(10, 1000)),
                               *(repr(rng.uniform(1e5, 1e9)) for _ in names)]) + "\n")
    return runs_path, compounds_path


def traced(load):
    """``load()``'s peak traced memory and the memory its result keeps, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = load()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - base, kept - base


def test_a_load_holds_memory_in_proportion_to_the_numbers_it_keeps(tmp_path):
    """On 5,000 runs x 24 PMCs, the runs load peaks below 6 times the bytes of
    its parsed numeric columns (a loader that held every row's cells first
    peaked at 13 times), and neither loader holds more than 2.5 times those
    bytes on top of what it returns (such a loader held 11 times for runs and
    6.5 times for 1,000 compounds). Numbers kept as Python floats in the
    compound rows are part of what is returned."""
    runs_path, compounds_path = write_tables(tmp_path)
    dataset = load_runs(runs_path)
    numbers = 8 * dataset.counts.size + 8 * 2 * len(dataset.app_id)
    peak, kept = traced(lambda: _load_run_columns(runs_path))
    assert peak < 6 * numbers, (peak, numbers)
    assert peak - kept < 2.5 * numbers, (peak, kept, numbers)

    compounds = load_compounds(compounds_path, dataset)
    numbers = 8 * (len(dataset.pmc_names) + 1) * len(compounds)
    peak, kept = traced(lambda: load_compounds(compounds_path, dataset))
    assert peak - kept < 2.5 * numbers, (peak, kept, numbers)


FIELDS = ("app_id", "run_id", "cores", "problem_size", "prediction_j")
TEXT = st.text(st.one_of(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "é", " ",
                                          "\U0001f600", "a"]), st.characters()), max_size=6)
PREDICTIONS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
     math.inf, -math.inf, math.nan, 0.1]))


def numbered_rows(count):
    """``count`` rows around the report's block size, with a null run id, an
    escaped string and a non-finite prediction among them."""
    return [(f"app{i}", None if i % 5 == 0 else f"r\t{i}", i % 8 + 1, str(i),
             math.inf if i % 7 == 3 else i / 3) for i in range(count)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(TEXT, st.none() | TEXT, st.integers(1, 10 ** 6), TEXT, PREDICTIONS),
                max_size=5))
@example([])
@example([("a\"b\\c", None, 2, "é\x01", -0.0), ("x", "r1", 1, "", math.nan),
          ("y", "", 3, "s", math.inf), ("z", "r2", 4, "t", 5e-324)])
@example(numbered_rows(1))
@example(numbered_rows(511))
@example(numbered_rows(512))
@example(numbered_rows(513))
@example(numbered_rows(1025))
def test_prediction_report_keeps_the_indented_json_bytes(rows):
    """Whatever the row count, the report keeps its bytes, in one piece for the
    opening, one per block of :data:`_BLOCK` records and one for the close."""
    assert _BLOCK == 512
    expected = _json_text({"predictions": [dict(zip(FIELDS, row)) for row in rows]})
    pieces = list(_predictions_json(iter(rows)))
    assert "".join(pieces) == expected
    assert len(pieces) == 2 + -(-len(rows) // _BLOCK)
