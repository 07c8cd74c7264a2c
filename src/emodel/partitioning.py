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
from bisect import bisect_left
from dataclasses import asdict, dataclass
from pathlib import Path

from ._common import DataFormatError, _read_csv

__all__ = [
    "EnergyFunction",
    "PartitionResult",
    "slice_at_n",
    "partition",
    "energy_loss",
    "load_energy_function",
]


@dataclass(frozen=True)
class EnergyFunction:
    """Discrete dynamic-energy samples e(x, y) for one processor.

    All x and y are positive multiples of the granularity; (x, y) pairs are
    unique. Samples are held sorted by (y, x) so identical inputs compare and
    iterate identically, and are also kept as y-slices ``{y: {x: energy}}``.
    """

    processor_id: str
    samples: tuple[tuple[int, int, float], ...]
    granularity_g: int

    def __post_init__(self) -> None:
        if self.granularity_g < 1:
            raise ValueError(f"granularity must be >= 1, got {self.granularity_g}")
        normalized = []
        for x, y, energy in self.samples:
            if x < 1 or y < 1 or x % self.granularity_g or y % self.granularity_g:
                raise ValueError(
                    f"sample ({x}, {y}) is not a positive multiple of "
                    f"granularity {self.granularity_g}"
                )
            energy = float(energy)
            if not math.isfinite(energy) or energy < 0:
                raise ValueError(f"energy at ({x}, {y}) must be >= 0, got {energy!r}")
            normalized.append((int(x), int(y), energy))
        normalized.sort(key=lambda s: (s[1], s[0]))
        slices: dict[int, dict[int, float]] = {}
        for x, y, energy in normalized:
            curve = slices.setdefault(y, {})
            if x in curve:
                raise ValueError(f"duplicate sample at (x={x}, y={y})")
            curve[x] = energy
        object.__setattr__(self, "samples", tuple(normalized))
        object.__setattr__(self, "_slices", slices)


@dataclass(frozen=True)
class PartitionResult:
    """Chosen split: m rows on processor one, k on processor two."""

    m: int
    k: int
    e1_j: float
    e2_j: float
    total_j: float

    def __post_init__(self) -> None:
        if self.m < 1 or self.k < 1:
            raise ValueError(f"both parts must be positive, got m={self.m}, k={self.k}")
        if self.total_j != self.e1_j + self.e2_j:
            raise ValueError("total_j must equal e1_j + e2_j")

    def to_json_dict(self) -> dict:
        return asdict(self)


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


def load_energy_function(
    path,
    processor_id: str | None = None,
    granularity: int | None = None,
) -> EnergyFunction:
    """Load an energy function from a CSV with header ``x,y,energy_j``.

    Granularity defaults to the GCD of every x and y in the file; pass it
    explicitly to enforce a coarser grid.
    """
    samples: list[tuple[int, int, float]] = []
    with _read_csv(path) as (header, rows):
        if header != ["x", "y", "energy_j"]:
            raise DataFormatError(
                f"{path}: expected header 'x,y,energy_j', got {','.join(header)!r}"
            )
        for row_no, row in rows:
            if len(row) != 3:
                raise DataFormatError(f"{path}: row {row_no}: expected 3 cells, got {len(row)}")
            x_text, y_text, energy_text = map(str.strip, row)
            try:
                x, y = int(x_text), int(y_text)
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {row_no}: x and y must be integers, got "
                    f"{x_text!r}, {y_text!r}"
                ) from None
            try:
                energy = float(energy_text)
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {row_no}, column 'energy_j': non-numeric cell {energy_text!r}"
                ) from None
            if x < 1 or y < 1:
                raise DataFormatError(f"{path}: row {row_no}: x and y must be >= 1")
            if not math.isfinite(energy) or energy < 0:
                raise DataFormatError(
                    f"{path}: row {row_no}, column 'energy_j': must be >= 0, got {energy_text!r}"
                )
            samples.append((x, y, energy))
    if not samples:
        raise DataFormatError(f"{path}: no samples")

    if granularity is None:
        granularity = 0
        for x, y, _ in samples:
            granularity = math.gcd(granularity, x, y)
    if processor_id is None:
        processor_id = Path(path).stem
    try:
        return EnergyFunction(processor_id, tuple(samples), granularity)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
