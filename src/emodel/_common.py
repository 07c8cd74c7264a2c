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
import math
from enum import Enum


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


def _read_csv(path) -> tuple[list[str], list[list[str]], list[int]]:
    """A CSV file's stripped header cells, its data rows that are not blank,
    and the row number of each of those (the header is row 1, and blank rows
    count)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows or not any(cell.strip() for cell in rows[0]):
        raise DataFormatError(f"{path}: no header")
    header = [cell.strip() for cell in rows[0]]
    numbers = [i + 1 for i, row in enumerate(rows) if i and any(map(str.strip, row))]
    return header, [rows[i - 1] for i in numbers], numbers


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
