"""Model-based two-processor data partitioning over discrete energy functions.

Each processor contributes a table of measured dynamic energies e(x, y) on a
grid of granularity g, held as its y-slices: for each y, the samples' x and
energy in ascending x. Partitioning a workload of n rows takes both functions'
slice at y = n and picks the split (m, k = n - m) minimizing combined energy,
in one loop for both split kinds. The functions are genuinely discrete: a
split is only feasible where both samples exist, unless interpolation along x
is explicitly requested.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from itertools import groupby, islice
from operator import itemgetter

from ._common import DataFormatError, _gc_paused, _read_table, _Record

__all__ = [
    "EnergyFunction",
    "PartitionResult",
    "slice_at_n",
    "partition",
    "energy_loss",
    "load_energy_function",
]

#: A sample (x, y, energy)'s sort key, its y, and its (x, energy) pair.
_Y_THEN_X, _Y, _X_ENERGY = itemgetter(1, 0), itemgetter(1), itemgetter(0, 2)


class EnergyFunction(_Record):
    """Discrete dynamic-energy samples e(x, y) for one processor.

    All x and y are positive multiples of the granularity; (x, y) pairs are
    unique. Samples are held sorted by (y, x) so identical inputs compare and
    iterate identically, and are also kept as y-slices ``{y: {x: energy}}``.
    Immutable; equal, hashed and printed by its three fields.
    """

    __slots__ = ("processor_id", "samples", "granularity_g", "_slices")
    _FIELDS = ("processor_id", "samples", "granularity_g")

    def __init__(self, processor_id: str, samples, granularity_g: int) -> None:
        if granularity_g < 1:
            raise ValueError(f"granularity must be >= 1, got {granularity_g}")
        normalized = []
        for x, y, energy in samples:
            if x < 1 or y < 1 or x % granularity_g or y % granularity_g:
                raise ValueError(
                    f"sample ({x}, {y}) is not a positive multiple of "
                    f"granularity {granularity_g}"
                )
            energy = float(energy)
            if not math.isfinite(energy) or energy < 0:
                raise ValueError(f"energy at ({x}, {y}) must be >= 0, got {energy!r}")
            normalized.append((int(x), int(y), energy))
        self._fill(processor_id, normalized, granularity_g)

    @classmethod
    def _checked(cls, processor_id: str, samples: list, granularity_g: int) -> "EnergyFunction":
        """A function of ``(int, int, float)`` samples that pass every check
        of the constructor but the one for a repeated (x, y)."""
        func = object.__new__(cls)
        func._fill(processor_id, samples, granularity_g)
        return func

    def _fill(self, processor_id: str, samples: list, granularity_g: int) -> None:
        """Set the fields from checked samples in any order, sorting them in
        place; a repeated (x, y) is a fault."""
        samples.sort(key=_Y_THEN_X)
        slices = {y: dict(map(_X_ENERGY, group)) for y, group in groupby(samples, _Y)}
        if sum(map(len, slices.values())) != len(samples):
            # Sorted, a repeat follows its (x, y)'s first sample: the first has the smallest key.
            x, y = next(a[:2] for a, b in zip(samples, islice(samples, 1, None))
                        if a[:2] == b[:2])
            raise ValueError(f"duplicate sample at (x={x}, y={y})")
        self._set(processor_id, tuple(samples), granularity_g)
        object.__setattr__(self, "_slices", slices)


class PartitionResult(_Record):
    """Chosen split: m rows on processor one, k on processor two."""

    __slots__ = _FIELDS = ("m", "k", "e1_j", "e2_j", "total_j")

    def __init__(self, m: int, k: int, e1_j: float, e2_j: float, total_j: float) -> None:
        self._set(m, k, e1_j, e2_j, total_j)
        if m < 1 or k < 1:
            raise ValueError(f"both parts must be positive, got m={m}, k={k}")
        if total_j != e1_j + e2_j:
            raise ValueError("total_j must equal e1_j + e2_j")

    def to_json_dict(self) -> dict:
        return self._asdict()


def slice_at_n(func: EnergyFunction, n: int) -> tuple[tuple[int, float], ...]:
    """The function's samples along y = n, sorted by x ascending."""
    if n < 1 or n % func.granularity_g:
        raise ValueError(
            f"n must be a positive multiple of granularity {func.granularity_g}, got {n}"
        )
    if n not in func._slices:
        raise ValueError(f"function {func.processor_id!r} has no samples at y={n}")
    return tuple(func._slices[n].items())


def _energy_at(curve: dict[int, float], xs: list[int], x: int,
               interpolate: bool) -> float | None:
    """The energy at x along one slice: its sample, or else (only with
    ``interpolate``) the piecewise-linear estimate between the neighbouring
    samples in ``xs``, the slice's x values; None when there is neither."""
    energy = curve.get(x)
    if energy is not None or not interpolate:
        return energy
    i = bisect_left(xs, x)
    if i == 0 or i == len(xs):
        return None
    x0, x1 = xs[i - 1], xs[i]
    e0, e1 = curve[x0], curve[x1]
    return e0 + (e1 - e0) * (x - x0) / (x1 - x0)


def partition(
    func1: EnergyFunction,
    func2: EnergyFunction,
    n: int,
    interpolate: bool = False,
) -> PartitionResult:
    """Minimum-energy split of n rows across two processors.

    When both functions have samples at y = n, scans the m on the shared
    grid with both parts at least one granule where both energies are
    available (sampled, or interpolable along x when ``interpolate`` is
    set), in ascending order. Ties go to the smallest m.
    """
    g = func1.granularity_g
    if func2.granularity_g != g:
        raise ValueError(
            f"granularities differ: {g} vs {func2.granularity_g}"
        )
    if n % g or n < 2 * g:
        raise ValueError(
            f"n must be a multiple of {g} with room for two parts, got {n}"
        )

    curve1, curve2 = func1._slices.get(n, {}), func2._slices.get(n, {})
    xs1, xs2 = list(curve1), list(curve2)
    # No other m has both energies: interpolation (along x only) fills m inside
    # both slices' x ranges, and a sample needs m in slice 1 and n - m in slice 2.
    if interpolate and curve1 and curve2:
        candidates = range(max(g, xs1[0], n - xs2[-1]), min(n - g, xs1[-1], n - xs2[0]) + 1, g)
    else:
        candidates = (m for m in xs1 if g <= m <= n - g and n - m in curve2)
    best: tuple[float, int, float, float] | None = None
    for m in candidates:
        e1 = _energy_at(curve1, xs1, m, interpolate)
        e2 = _energy_at(curve2, xs2, n - m, interpolate)
        if e1 is None or e2 is None:
            continue
        # m is unique, so the energies after it never decide a comparison.
        candidate = (e1 + e2, m, e1, e2)
        if best is None or candidate < best:
            best = candidate
    if best is None:
        raise ValueError(
            f"no feasible split of n={n}: no m has energy samples for both "
            f"processors at y={n}"
        )
    total, m, e1, e2 = best
    return PartitionResult(m=m, k=n - m, e1_j=e1, e2_j=e2, total_j=total)


def energy_loss(e_alt_j: float, e_ref_j: float) -> float:
    """Signed percentage energy change of an alternative against a reference.

    Positive means the alternative consumed more; negative, less.
    """
    if not math.isfinite(e_ref_j) or e_ref_j <= 0:
        raise ValueError(f"reference energy must be > 0, got {e_ref_j!r}")
    if not math.isfinite(e_alt_j) or e_alt_j < 0:
        raise ValueError(f"alternative energy must be >= 0, got {e_alt_j!r}")
    return (e_alt_j - e_ref_j) / e_ref_j * 100.0


def _row_fault(row: list[str]) -> str | None:
    """The fault of one energy-function row, checked in this order: its cell
    count, x and y as integers, ``energy_j`` as a number, then their ranges;
    None when it has none."""
    if len(row) != 3:
        return f": expected 3 cells, got {len(row)}"
    x_text, y_text, energy_text = map(str.strip, row)
    try:
        x, y = int(x_text), int(y_text)
    except ValueError:
        return f": x and y must be integers, got {x_text!r}, {y_text!r}"
    try:
        energy = float(energy_text)
    except ValueError:
        return f", column 'energy_j': non-numeric cell {energy_text!r}"
    if x < 1 or y < 1:
        return ": x and y must be >= 1"
    if not math.isfinite(energy) or energy < 0:
        return f", column 'energy_j': must be >= 0, got {energy_text!r}"
    return None


def _parsed_columns(rows: list[list[str]]):
    """The x, y and energy columns of rows of cells, each cell stripped and
    parsed as :func:`_row_fault` parses it; None when some row has a fault."""
    if set(map(len, rows)) != {3}:
        return None
    columns = []
    for parse, cells in zip((int, int, float), zip(*rows)):
        # int() and float() strip the whitespace that str.strip() does, but
        # U+001C to U+001F: only a column with a cell they fail on is stripped.
        try:
            columns.append(list(map(parse, cells)))
        except ValueError:
            try:
                columns.append(list(map(parse, map(str.strip, cells))))
            except ValueError:
                return None
    xs, ys, energies = columns
    if min(xs) < 1 or min(ys) < 1 or not all(map(math.isfinite, energies)) or min(energies) < 0:
        return None
    return xs, ys, energies


@_gc_paused()
def load_energy_function(
    path,
    processor_id: str | None = None,
    granularity: int | None = None,
) -> EnergyFunction:
    """Load an energy function from a CSV with header ``x,y,energy_j``.

    Granularity defaults to the GCD of every x and y in the file; pass it
    explicitly to enforce a coarser grid. The file is read whole, then parsed
    and checked a column at a time; a file with a faulty row reports the first
    such row's first fault, as a check row by row would.
    """
    header, table = _read_table(path)
    if header != ["x", "y", "energy_j"]:
        raise DataFormatError(f"{path}: expected header 'x,y,energy_j', got {','.join(header)!r}")
    if not table:
        raise DataFormatError(f"{path}: no samples")
    columns = _parsed_columns([row for _, row in table])
    if columns is None:
        for row_no, row in table:
            if fault := _row_fault(row):
                raise DataFormatError(f"{path}: row {row_no}{fault}")
    xs, ys, energies = columns

    if processor_id is None:
        # pathlib's stem: the file name without its last suffix.
        name = os.path.basename(path)
        dot = name.rfind(".")
        processor_id = name[:dot] if 0 < dot < len(name) - 1 else name
    samples = list(zip(xs, ys, energies))
    try:
        if granularity is not None:  # the constructor checks the samples against it
            return EnergyFunction(processor_id, samples, granularity)
        return EnergyFunction._checked(processor_id, samples, math.gcd(*xs, *ys))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
