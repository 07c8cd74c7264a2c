"""Model-based two-processor data partitioning over discrete energy functions.

Each processor contributes a table of measured dynamic energies e(x, y) on a
grid of granularity g. Partitioning a workload of n rows slices both tables
at y = n and picks the split (m, k = n - m) minimizing combined energy. The
functions are genuinely discrete: a split is only feasible where both samples
exist, unless interpolation along x is explicitly requested.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
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
    iterate identically.
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
        for first, second in zip(normalized, normalized[1:]):
            if first[:2] == second[:2]:
                raise ValueError(f"duplicate sample at (x={first[0]}, y={first[1]})")
        object.__setattr__(self, "samples", tuple(normalized))

    @cached_property
    def _index(self) -> dict[tuple[int, int], float]:
        return {(x, y): e for x, y, e in self.samples}

    def lookup(self, x: int, y: int) -> float | None:
        return self._index.get((x, y))


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
        return {
            "m": self.m,
            "k": self.k,
            "e1_j": self.e1_j,
            "e2_j": self.e2_j,
            "total_j": self.total_j,
        }


def slice_at_n(func: EnergyFunction, n: int) -> tuple[tuple[int, float], ...]:
    """The function's samples along y = n, sorted by x ascending."""
    if n < 1 or n % func.granularity_g:
        raise ValueError(
            f"n must be a positive multiple of granularity {func.granularity_g}, got {n}"
        )
    curve = tuple((x, e) for x, y, e in func.samples if y == n)
    if not curve:
        raise ValueError(f"function {func.processor_id!r} has no samples at y={n}")
    return curve


def _interpolated(curve: tuple[list[int], list[float]], x: int) -> float | None:
    """Piecewise-linear estimate at x along one slice; None outside the hull.

    ``curve`` holds the slice's x values (ascending) and their energies.
    """
    xs, es = curve
    i = bisect_left(xs, x)
    if i < len(xs) and xs[i] == x:
        return es[i]
    if i == 0 or i == len(xs):
        return None
    x0, e0 = xs[i - 1], es[i - 1]
    x1, e1 = xs[i], es[i]
    return e0 + (e1 - e0) * (x - x0) / (x1 - x0)


def _curve(func: EnergyFunction, n: int) -> tuple[list[int], list[float]]:
    """The y = n slice as (xs, energies); empty when the function has none."""
    try:
        curve = slice_at_n(func, n)
    except ValueError:
        return [], []
    return [x for x, _ in curve], [e for _, e in curve]


def partition(
    func1: EnergyFunction,
    func2: EnergyFunction,
    n: int,
    interpolate: bool = False,
) -> PartitionResult:
    """Minimum-energy split of n rows across two processors.

    Scans every m on the shared grid with both parts at least one granule,
    keeping splits where both energies are available (sampled, or
    interpolable along x when ``interpolate`` is set). Ties go to the
    smallest m.
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

    if interpolate:
        curve1, curve2 = _curve(func1, n), _curve(func2, n)
    best: tuple[float, int] | None = None
    best_energies = (0.0, 0.0)
    for m in range(g, n - g + 1, g):
        k = n - m
        if interpolate:
            e1 = _interpolated(curve1, m)
            e2 = _interpolated(curve2, k)
        else:
            e1 = func1.lookup(m, n)
            e2 = func2.lookup(k, n)
        if e1 is None or e2 is None:
            continue
        candidate = (e1 + e2, m)
        if best is None or candidate < best:
            best = candidate
            best_energies = (e1, e2)
    if best is None:
        raise ValueError(
            f"no feasible split of n={n}: no m has energy samples for both "
            f"processors at y={n}"
        )
    total, m = best
    e1, e2 = best_energies
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
    header, body, row_numbers = _read_csv(path)
    if header != ["x", "y", "energy_j"]:
        raise DataFormatError(
            f"{path}: expected header 'x,y,energy_j', got {','.join(header)!r}"
        )

    samples: list[tuple[int, int, float]] = []
    for row_no, row in zip(row_numbers, body):
        if len(row) != 3:
            raise DataFormatError(f"{path}: row {row_no}: expected 3 cells, got {len(row)}")
        try:
            x, y = int(row[0]), int(row[1])
        except ValueError:
            raise DataFormatError(
                f"{path}: row {row_no}: x and y must be integers, got "
                f"{row[0]!r}, {row[1]!r}"
            ) from None
        try:
            energy = float(row[2])
        except ValueError:
            raise DataFormatError(
                f"{path}: row {row_no}, column 'energy_j': non-numeric cell {row[2]!r}"
            ) from None
        if x < 1 or y < 1:
            raise DataFormatError(f"{path}: row {row_no}: x and y must be >= 1")
        if not math.isfinite(energy) or energy < 0:
            raise DataFormatError(
                f"{path}: row {row_no}, column 'energy_j': must be >= 0, got {row[2]!r}"
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
