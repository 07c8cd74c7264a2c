"""Definitions shared by the data modules and the command line, free of numpy.

:mod:`emodel.partitioning` and :mod:`emodel.cli` take these from here rather
than from :mod:`emodel.core`, so that partitioning, the energy-loss metric and
the sample-mean statistics run without importing numpy. :mod:`emodel.core`
re-exports the public names as the same objects.
"""

from __future__ import annotations

import csv
from enum import Enum


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
        rows = list(csv.reader(fh))
    if not rows or not any(cell.strip() for cell in rows[0]):
        raise DataFormatError(f"{path}: no header")
    header = [cell.strip() for cell in rows[0]]
    numbers = [i + 1 for i, row in enumerate(rows) if i and any(map(str.strip, row))]
    return header, [rows[i - 1] for i in numbers], numbers
