"""Model-based two-processor data partitioning over discrete energy functions.

Each processor contributes a table of measured dynamic energies e(x, y) on a
grid of granularity g, held as its y-slices: for each y, the samples' x and
energy in ascending x. Partitioning a workload of n rows takes both functions'
slice at y = n and picks the split (m, k = n - m) minimizing combined energy,
in one scan by columns for both split kinds. The functions are genuinely
discrete: a split is only feasible where both samples exist, unless
interpolation along x is explicitly requested. Loaded functions are kept in
the parse cache (:mod:`emodel._cache`).
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from itertools import filterfalse, groupby, islice, repeat
from operator import add, itemgetter, sub

from ._cache import _float_bytes, cached_load
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

    @classmethod
    def _from_entry(cls, processor_id: str, floats: memoryview,
                    granularity_g: int | None) -> "EnergyFunction":
        """The function whose checked samples a parse-cache entry holds, as
        :func:`_entry` gives them; ``granularity_g`` None is the GCD of every
        x and y. Already in (y, x) order and checked, they are neither sorted
        nor checked again."""
        count = len(floats) // 3
        xs = list(map(math.trunc, floats[:count].tolist()))
        ys, energies = floats[count:2 * count].tolist(), floats[2 * count:].tolist()
        samples, slices, start = [], {}, 0
        while start < count:
            stop = bisect_right(ys, ys[start], start)
            y = math.trunc(ys[start])
            curve = slices[y] = dict(zip(xs[start:stop], energies[start:stop]))
            samples += zip(curve, repeat(y, stop - start), curve.values())
            start = stop
        func = object.__new__(cls)
        func._set(processor_id, tuple(samples),
                  math.gcd(*xs, *slices) if granularity_g is None else granularity_g)
        object.__setattr__(func, "_slices", slices)
        return func


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


#: The m of an interpolated scan go this many at a time, so that its lists
#: do not grow with the hull.
_BLOCK = 2048


def _energies(curve: dict[int, float], xs: list[int], start: int, stop: int,
              g: int) -> list[float]:
    """The energies along one slice at x in ``range(start, stop, g)``, each x
    inside the slice's x range: its sample, or else the piecewise-linear
    estimate between its neighbouring samples in ``xs``, the slice's x
    values. An estimate whose product overflows is taken with the x offset
    divided first, so that it is finite and lies between its samples."""
    grid = range(start, stop, g)
    energies = list(map(curve.get, grid))
    i = x1 = 0
    for x in filterfalse(curve.__contains__, grid):
        if x > x1:  # past the gap of the last estimate: find this one's
            i = bisect_left(xs, x, i)
            x0, x1 = xs[i - 1], xs[i]
            e0 = curve[x0]
            rise, run = curve[x1] - e0, x1 - x0
        energy = e0 + rise * (x - x0) / run
        if not math.isfinite(energy):
            energy = e0 + rise * ((x - x0) / run)
        energies[(x - start) // g] = energy
    return energies


def _hull(curve1: dict[int, float], curve2: dict[int, float], n: int, g: int):
    """The m inside both slices' x ranges, in blocks of :data:`_BLOCK`
    ascending m, each with both energies (see :func:`_energies`)."""
    xs1, xs2 = list(curve1), list(curve2)
    lo = max(g, xs1[0], n - xs2[-1])
    hi = min(n - g, xs1[-1], n - xs2[0])
    for start in range(lo, hi + 1, _BLOCK * g):
        stop = min(start + _BLOCK * g, hi + g)
        energies2 = _energies(curve2, xs2, n - stop + g, n - start + g, g)
        energies2.reverse()  # k = n - m descends as m ascends
        yield range(start, stop, g), _energies(curve1, xs1, start, stop, g), energies2


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
    set). The scan is by columns: the m in ascending order, the energies of
    both parts at each, and their totals are lists, and the first smallest
    total wins, so ties go to the smallest m. An interpolated scan holds
    :data:`_BLOCK` m at a time.
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
    # No other m has both energies: interpolation (along x only) fills m inside
    # both slices' x ranges, and a sample needs m in slice 1 and n - m in slice 2
    # (every sample's x is at least g, so then both parts are too).
    if interpolate and curve1 and curve2:
        blocks = _hull(curve1, curve2, n, g)
    else:
        ks = set(map(sub, repeat(n), curve2))
        ms = list(filter(ks.__contains__, curve1))
        blocks = [(ms, list(map(curve1.__getitem__, ms)),
                   list(map(curve2.__getitem__, map(sub, repeat(n), ms))))]
    best: tuple[float, int, float, float] | None = None
    for ms, energies1, energies2 in blocks:
        if not ms:
            continue
        totals = list(map(add, energies1, energies2))
        i = totals.index(min(totals))
        # Blocks come in ascending m: a later one wins only with a smaller total.
        if best is None or totals[i] < best[0]:
            best = totals[i], ms[i], energies1[i], energies2[i]
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
    such row's first fault, as a check row by row would. A load that passed
    every check is kept in the parse cache under the file's bytes and
    ``granularity``, and a later load of those bytes builds an equal function
    from it with no parse and no check. A file with a fault is never kept,
    nor one with an x or y of 2**53 or more (a float64 may not hold it).
    """
    if processor_id is None:
        # pathlib's stem: the file name without its last suffix.
        name = os.path.basename(path)
        dot = name.rfind(".")
        processor_id = name[:dot] if 0 < dot < len(name) - 1 else name
    checked = []

    def load():
        checked.append(_checked_function(path, fh, processor_id, granularity))
        return _entry(checked[0]), None

    with open(path, "rb") as fh:
        _, floats, _ = cached_load(fh, ("energy_function", granularity), load)
    return checked[0] if checked else EnergyFunction._from_entry(processor_id, floats, granularity)


def _entry(func: EnergyFunction) -> bytes | None:
    """The floats of the function's parse-cache entry: its samples' x, then
    their y, then their energies, each in the samples' (y, x) order; None
    when an x or y is 2**53 or more, which a float64 may not hold exactly."""
    xs, ys, energies = zip(*func.samples)
    if max(xs) >= 2 ** 53 or ys[-1] >= 2 ** 53:
        return None
    return _float_bytes(xs, ys, energies)


def _checked_function(path, file, processor_id: str, granularity: int | None) -> EnergyFunction:
    """Parse and check the energy-function file at ``path``, open as ``file``;
    or its first fault."""
    header, table = _read_table(path, file)
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

    samples = list(zip(xs, ys, energies))
    try:
        if granularity is not None:  # the constructor checks the samples against it
            return EnergyFunction(processor_id, samples, granularity)
        return EnergyFunction._checked(processor_id, samples, math.gcd(*xs, *ys))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
