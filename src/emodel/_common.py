"""Definitions shared by the data modules and the command line, free of numpy.

:mod:`emodel.partitioning` and :mod:`emodel.cli` take these from here rather
than from :mod:`emodel.core`, so that partitioning, the energy-loss metric and
the sample-mean statistics run without importing numpy. :mod:`emodel.core`
re-exports the public names as the same objects. The byte rules of every
report live here too: how a CSV cell and a CSV table are written, and that
JSON holds null in place of a non-finite number.
"""

from __future__ import annotations

import csv
import gc
import io
import math
from contextlib import contextmanager
from enum import Enum
from itertools import chain, islice
from operator import attrgetter
from typing import Iterator


#: The characters that make a CSV cell need quotes.
_QUOTED = frozenset(',"\r\n')


class DataFormatError(ValueError):
    """An input file violates the documented format; the message carries the
    offending file, row, and column where applicable."""


class ModelKind(str, Enum):
    """The three linear model families, by constraint."""

    UNCONSTRAINED = "unconstrained"
    ZERO_INTERCEPT = "zero_intercept"
    ZERO_INTERCEPT_NONNEG = "zero_intercept_nonneg"


class _Record:
    """The package's one immutable value type, behaving as a frozen dataclass.
    A subclass names its fields in ``_FIELDS``, holds them in slots (or, as
    ``Dataset`` does, in its ``__dict__``) and sets them once in ``__init__``
    with :meth:`_set`; ``_values`` is the tuple of its fields. Records of one
    class are equal when their fields are, hash as that tuple, print as their
    constructor call, pickle as that call and match by position; assigning or
    deleting an attribute is an AttributeError.

    Declared by hand, records import no :mod:`dataclasses` (with
    :mod:`inspect`, about 8 ms of a numpy-free command) and generate no code
    when a module loads. Each class binds its slots' setters and a getter of
    its fields once, so that the thousands of rows of a runs file are built,
    compared and hashed without a lookup by field name."""

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()
    _values: tuple

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls.__match_args__ = cls._FIELDS
        slots = vars(cls).get("__slots__", ())
        cls._setters = tuple(vars(cls)[name].__set__ for name in fields if name in slots)
        values = attrgetter(*fields)  # of one name, the value itself
        cls._values = property(values if len(fields) > 1 else lambda record: (values(record),))

    def _set(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _asdict(self) -> dict:
        return dict(zip(self._FIELDS, self._values))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, then restore the caller's setting.
    The runs load keeps a key tuple per row until its duplicate check ends,
    and the energy-function load keeps every row's cells until its columns
    are parsed: young collections would trace them all and free nothing.
    The compounds load runs unpaused (its pause saved no time, and deferred
    collections into the analysis). In the ``emodel`` command the collector
    is already off, as ``cli.main`` leaves it, so this serves library callers."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _records(path, fh) -> Iterator[list[str]]:
    """The records of a CSV file open with ``newline=""``, one at a time, as
    ``csv.reader`` gives them. A line without a quote or NUL, and no longer
    than ``csv.field_size_limit()``, is one record whose cells lie between its
    commas: such a line holds a carriage return only in its line ending, so
    ``str.split`` of the line without that ending reads it as ``csv.reader``
    does, and leaves the reader at the start of the next record. From the
    first other line on, ``csv.reader`` reads the rest of the file."""
    limit = csv.field_size_limit()
    lines = 0
    try:
        for line in fh:
            if '"' in line or "\0" in line or len(line) > limit:
                break
            lines += 1
            yield line.rstrip("\r\n").split(",")
        else:
            return
        reader = csv.reader(chain((line,), fh))
        try:
            yield from reader
        except csv.Error as exc:
            raise DataFormatError(f"{path}: line {lines + reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


class _Rows:
    """The ``(row number, cells)`` pairs that :func:`_read_csv` gives, and the
    open ``file`` they are read from."""

    __slots__ = ("file", "_rows")

    def __init__(self, file, rows: Iterator[tuple[int, list[str]]]):
        self.file, self._rows = file, rows

    def __iter__(self) -> Iterator[tuple[int, list[str]]]:
        return self._rows

    def __next__(self) -> tuple[int, list[str]]:
        return next(self._rows)


@contextmanager
def _read_csv(path, text: str | None = None) -> Iterator[tuple[list[str], _Rows]]:
    """A CSV file's stripped header cells, and its data rows that are not
    blank, read one at a time, each with its row number (the header is row 1,
    and blank rows count); from ``text`` when it is given, the file's text
    already read. A :class:`DataFormatError` raised in the block
    first reads the rest of the file, so that a read fault further on (text
    that is not UTF-8, or a csv error) takes its place: every fault comes in
    the order it would if the whole file were read before any check."""
    with (open(path, newline="", encoding="utf-8") if text is None
          else io.StringIO(text, newline="")) as fh:
        records = _records(path, fh)
        rows = _Rows(fh, ((number, cells) for number, cells in enumerate(records, 2)
                          if any(map(str.strip, cells))))
        try:
            header = [cell.strip() for cell in next(records, [])]
            if not any(header):
                raise DataFormatError(f"{path}: no header")
            yield header, rows
        except DataFormatError:
            for _ in records:
                pass
            raise


def _read_table(path, file) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """:func:`_read_csv`'s header and rows, all read at once, for a file small
    enough to hold whole: the file at ``path``, read from ``file``, where it is
    open for binary reading at its start. The ``csv`` module reads a
    text without a quote or NUL, whose lines are no longer than
    ``csv.field_size_limit()`` (so no cell is either), as its lines split at
    their commas: such a text is split at its line endings (LF, CRLF or CR, as
    a file opened with ``newline=""`` splits them) and commas in a few passes
    over the whole text, with no generator step per line. Any other text is
    read by :func:`_read_csv`."""
    try:
        text = file.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:  # the text ends with a line ending, or is empty
        lines.pop()
    if '"' in text or "\0" in text or max(map(len, lines), default=0) > csv.field_size_limit():
        with _read_csv(path, text) as (header, rows):
            return header, list(rows)
    header = [cell.strip() for cell in lines[0].split(",")] if lines else []
    if not any(header):
        raise DataFormatError(f"{path}: no header")
    return header, [(number, line.split(",")) for number, line in enumerate(lines[1:], 2)
                    if line.replace(",", "").strip()]


def _row_again(path, index: int) -> list[str]:
    """The cells of data row ``index`` (counting from 0, blank rows not
    counted), read from the file again: a loader keeps no cell text but that
    of a few columns, and needs the rest only for the one row it reports."""
    with _read_csv(path) as (_, rows):
        return next(islice(rows, index, None))[1]


def _csv_row(values) -> str:
    """One CSV line without its newline: None is an empty cell, a bool is
    true or false, a float its repr (so inf and nan), anything else its str.
    A cell that holds a comma, a quote or a line break is quoted, its quotes
    doubled: the csv module's minimal rule, so ``csv.reader`` gives every
    cell back whole."""
    cells = []
    for value in values:
        if value is None:
            cells.append("")
        elif isinstance(value, bool):
            cells.append("true" if value else "false")
        elif isinstance(value, float):
            cells.append(repr(value))
        else:
            text = str(value)
            cells.append(text if _QUOTED.isdisjoint(text) else '"' + text.replace('"', '""') + '"')
    return ",".join(cells)


def _csv_table(header, rows) -> str:
    """A CSV report: the header line, then one line per row, each ending in a
    newline; the header's cells follow :func:`_csv_row`'s rule too."""
    return "\n".join(map(_csv_row, [header, *rows])) + "\n"


def _finite_or_none(value: float) -> float | None:
    """JSON has no infinity or NaN: a non-finite number is reported as null."""
    return value if math.isfinite(value) else None
