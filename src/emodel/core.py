"""Domain types for measured runs, datasets, and linear energy models, plus file I/O.

The interchange formats are CSV with a mandatory header (runs, compounds,
energy functions) and a flat JSON document (models). PMC column order in a
runs file defines the variable order everywhere downstream, so loading is
strictly order-preserving and deterministic: identical bytes produce an
identical :class:`Dataset`.
"""

from __future__ import annotations

import gc
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter, not_
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ._common import DataFormatError, ModelKind, _read_csv

__all__ = [
    "DataFormatError",
    "PmcVector",
    "RunConfig",
    "RunRef",
    "ApplicationRun",
    "CompoundRun",
    "AggregatedRun",
    "Dataset",
    "ModelKind",
    "EnergyModel",
    "load_runs",
    "load_compounds",
    "load_model",
    "save_model",
    "model_to_dict",
]


@dataclass(frozen=True)
class PmcVector:
    """Ordered, named vector of performance-monitoring counts.

    Counts are stored as reals: aggregation across cores and repetition means
    produce non-integer values even though single hardware readings are
    integral.
    """

    names: tuple[str, ...]
    counts: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "counts", tuple(float(c) for c in self.counts))
        if len(self.names) != len(self.counts):
            raise ValueError(
                f"got {len(self.names)} PMC names but {len(self.counts)} counts"
            )
        if len(set(self.names)) != len(self.names):
            dupes = sorted({n for n in self.names if self.names.count(n) > 1})
            raise ValueError(f"duplicate PMC names: {', '.join(dupes)}")
        for name, count in zip(self.names, self.counts):
            if not math.isfinite(count) or count < 0:
                raise ValueError(f"PMC {name!r} has invalid count {count!r}")

    @classmethod
    def _checked(cls, names: tuple[str, ...], counts: tuple[float, ...]) -> "PmcVector":
        """A vector of unique names and finite, non-negative float counts that
        the caller has already checked, built without ``__post_init__``."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "names", names)
        object.__setattr__(vector, "counts", counts)
        return vector

    @classmethod
    def from_dict(cls, mapping: Mapping[str, float]) -> "PmcVector":
        return cls(tuple(mapping.keys()), tuple(mapping.values()))

    def get(self, name: str) -> float:
        try:
            return self.counts[self.names.index(name)]
        except ValueError:
            raise KeyError(f"PMC {name!r} not present in vector") from None

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.names, self.counts))

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class RunConfig:
    """Execution configuration of a run: core count and a free-form problem size."""

    cores: int
    problem_size: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.cores, int) or isinstance(self.cores, bool) or self.cores < 1:
            raise ValueError(f"cores must be a positive integer, got {self.cores!r}")

    def label(self) -> str:
        return f"{self.cores}:{self.problem_size}"


class RunRef(NamedTuple):
    """Reference to a run group: application id plus configuration."""

    app_id: str
    config: RunConfig

    def label(self) -> str:
        return f"{self.app_id}@{self.config.label()}"


@dataclass(frozen=True)
class ApplicationRun:
    """One measured execution of a base application."""

    app_id: str
    config: RunConfig
    pmc: PmcVector
    exec_time_s: float
    dynamic_energy_j: float
    run_id: str | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.exec_time_s) or self.exec_time_s <= 0:
            raise ValueError(f"exec_time_s must be > 0, got {self.exec_time_s!r}")
        if not math.isfinite(self.dynamic_energy_j) or self.dynamic_energy_j < 0:
            raise ValueError(
                f"dynamic_energy_j must be >= 0, got {self.dynamic_energy_j!r}"
            )

    @property
    def ref(self) -> RunRef:
        return RunRef(self.app_id, self.config)


@dataclass(frozen=True)
class CompoundRun:
    """One measured execution of two base applications run serially."""

    compound_id: str
    base_a: RunRef
    base_b: RunRef
    pmc: PmcVector
    dynamic_energy_j: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.dynamic_energy_j) or self.dynamic_energy_j < 0:
            raise ValueError(
                f"dynamic_energy_j must be >= 0, got {self.dynamic_energy_j!r}"
            )


@dataclass(frozen=True)
class AggregatedRun:
    """Repetition mean over all samples of one (app_id, config) group."""

    app_id: str
    config: RunConfig
    pmc: PmcVector
    exec_time_s: float
    dynamic_energy_j: float
    n_samples: int

    @property
    def ref(self) -> RunRef:
        return RunRef(self.app_id, self.config)


def _row_tuples(matrix: np.ndarray) -> Iterator[tuple[float, ...]]:
    """The rows of a matrix as tuples of floats, one at a time: converting all
    rows first would leave as many lists for the garbage collector to scan."""
    return (tuple(row.tolist()) for row in matrix)


def _frozen(values) -> np.ndarray:
    """A read-only ``float64`` copy of ``values``, holding no view of a larger matrix."""
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's TwoSum: ``a + b`` rounded, and the exact error of that rounding."""
    total = a + b
    b_part = total - a
    return total, (a - (total - b_part)) + (b - b_part)


class GroupIndex(NamedTuple):
    """Row positions of a dataset's run groups.

    ``code_of`` maps each group's ``(app_id, cores, problem_size)`` key to its
    group number, in first-seen order, and ``sizes`` gives the groups'
    repetition counts. ``order`` lists the rows group by group, keeping row
    order within a group, and group ``g`` occupies
    ``order[starts[g]:starts[g] + sizes[g]]``.
    """

    code_of: dict[tuple[str, int, str], int]
    sizes: np.ndarray
    order: np.ndarray
    starts: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """An ordered PMC name list with the runs (and optional compounds) that cover it.

    Immutable after construction; any number of readers may share one instance.
    The runs are stored as columns in row order: read-only ``float64`` arrays
    ``counts`` (runs x PMCs), ``exec_time_s`` and ``dynamic_energy_j``, and
    tuples ``app_id``, ``run_id``, ``cores`` and ``problem_size``. ``runs``,
    the :class:`ApplicationRun` rows, is built from them on first access:
    :func:`load_runs` builds it at load, the ``emodel`` commands never do.
    Repeated (app_id, config) rows are repetition samples. ``points()`` gives
    the per-group means, which are the base side of additivity testing.
    ``fit`` and ``correlation_matrix`` take every run row as one sample,
    repetitions included, and so does ``emodel evaluate`` on a runs file.
    """

    pmc_names: tuple[str, ...]
    runs: tuple[ApplicationRun, ...]
    compounds: tuple[CompoundRun, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pmc_names", tuple(self.pmc_names))
        object.__setattr__(self, "runs", tuple(self.runs))
        object.__setattr__(self, "compounds", tuple(self.compounds))
        if len(set(self.pmc_names)) != len(self.pmc_names):
            raise ValueError("dataset PMC names are not unique")
        seen: set[tuple[str, RunConfig, str | None]] = set()
        for run in self.runs:
            if run.pmc.names != self.pmc_names:
                raise ValueError(
                    f"run {run.app_id!r} ({run.config.label()}) PMC names "
                    f"{list(run.pmc.names)} do not match dataset PMC names "
                    f"{list(self.pmc_names)}"
                )
            key = (run.app_id, run.config, run.run_id)
            if key in seen:
                raise ValueError(
                    f"duplicate run ({run.app_id!r}, {run.config.label()}, "
                    f"run_id={run.run_id!r})"
                )
            seen.add(key)
        runs, width = self.runs, len(self.pmc_names)
        self._store(_frozen([run.pmc.counts for run in runs]).reshape(len(runs), width),
                    [run.exec_time_s for run in runs], [run.dynamic_energy_j for run in runs],
                    [run.app_id for run in runs], [run.run_id for run in runs],
                    [run.config.cores for run in runs], [run.config.problem_size for run in runs])
        self.check_compounds(self.compounds)

    @classmethod
    def _from_columns(cls, pmc_names: tuple[str, ...], *columns: Sequence) -> "Dataset":
        """A dataset without compounds whose runs, given as columns in ``_store``
        order, the caller has already checked as ``__post_init__`` does."""
        dataset = object.__new__(cls)
        dataset.__dict__.update(pmc_names=pmc_names, compounds=())
        dataset._store(*columns)
        return dataset

    def _store(self, counts, times, energies, app_id, run_id, cores, sizes) -> None:
        self.__dict__.update(
            counts=counts, exec_time_s=_frozen(times), dynamic_energy_j=_frozen(energies),
            app_id=tuple(app_id), run_id=tuple(run_id), cores=tuple(cores),
            problem_size=tuple(sizes),
        )

    def __getattr__(self, name: str):
        # Reached only for a missing attribute: ``runs`` not yet built from the columns.
        if name != "runs":
            raise AttributeError(f"'Dataset' object has no attribute {name!r}")
        self.__dict__["runs"] = runs = tuple(
            ApplicationRun(app_id, self._configs[cores, size],
                           PmcVector._checked(self.pmc_names, row), time_s, energy, run_id)
            for app_id, cores, size, row, time_s, energy, run_id in zip(
                self.app_id, self.cores, self.problem_size, _row_tuples(self.counts),
                self.exec_time_s.tolist(), self.dynamic_energy_j.tolist(), self.run_id,
            )
        )
        return runs

    @cached_property
    def _configs(self) -> dict[tuple[int, str], RunConfig]:
        """One :class:`RunConfig` per ``(cores, problem_size)``, for ``runs`` and ``points()``."""
        return {pair: RunConfig(*pair) for pair in set(zip(self.cores, self.problem_size))}

    def check_compounds(self, compounds: Iterable[CompoundRun]) -> tuple[list[int], list[int]]:
        """The group numbers of the compounds' first bases and of their second
        bases. Raises ValueError unless every compound has this dataset's PMC
        names and both of its bases are run groups of this dataset."""
        groups: tuple[list[int], list[int]] = ([], [])
        code_of, names = self.group_index.code_of, self.pmc_names
        for comp in compounds:
            if comp.pmc.names is not names and comp.pmc.names != names:
                raise ValueError(f"compound {comp.compound_id!r} PMC names do not match dataset")
            for ref, found in zip((comp.base_a, comp.base_b), groups):
                code = code_of.get((ref.app_id, ref.config.cores, ref.config.problem_size))
                if code is None:
                    raise ValueError(f"compound {comp.compound_id!r} references unknown base "
                                     f"{ref.label()!r}")
                found.append(code)
        return groups

    @cached_property
    def group_index(self) -> GroupIndex:
        """Run groups by (app_id, config) in first-seen order, as row positions."""
        code_of: dict[tuple[str, int, str], int] = {}
        codes = (code_of.setdefault(key, len(code_of))
                 for key in zip(self.app_id, self.cores, self.problem_size))
        row_group = np.fromiter(codes, dtype=np.intp, count=len(self.app_id))
        sizes = np.bincount(row_group, minlength=len(code_of))
        return GroupIndex(code_of=code_of, sizes=sizes, order=np.argsort(row_group, kind="stable"),
                          starts=np.cumsum(sizes) - sizes)

    def groups(self) -> dict[RunRef, tuple[ApplicationRun, ...]]:
        """Runs grouped by (app_id, config), in first-seen order."""
        index = self.group_index
        rows = [self.runs[row] for row in index.order.tolist()]
        return {rows[start].ref: tuple(rows[start:start + size])
                for start, size in zip(index.starts.tolist(), index.sizes.tolist())}

    def group_means(self, values: np.ndarray) -> np.ndarray:
        """Per-group repetition means of each column of a per-run array.

        ``values`` has one row per run (one value per run when 1-D); the
        result has one row per group, in ``group_index`` order. Each mean is
        ``math.fsum(samples) / n`` bit for bit: TwoSum layers keep each running
        sum's exact error, and a cell whose error sum was inexact or whose
        running sum reached 2**1022 is summed again with ``fsum``, so an
        overflowing sum raises :class:`OverflowError`.
        """
        index = self.group_index
        values = np.asarray(values, dtype=float)
        columns = values[:, None] if values.ndim == 1 else values
        sums = columns[index.order[index.starts]]
        errors = np.zeros_like(sums)
        inexact = np.zeros(sums.shape, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, int(index.sizes.max(initial=1))):
                groups = np.flatnonzero(index.sizes > k)
                rows = index.order[index.starts[groups] + k]
                sums[groups], error = _two_sum(sums[groups], columns[rows])
                errors[groups], residue = _two_sum(errors[groups], error)
                inexact[groups] |= (residue != 0.0) | ~(np.abs(sums[groups]) < 2.0 ** 1022)
            sums += errors  # errors are never -0.0, so a -0.0 sum becomes 0.0, as in fsum
        for g, j in zip(*np.nonzero(inexact)):
            rows = index.order[index.starts[g]:index.starts[g] + index.sizes[g]]
            sums[g, j] = math.fsum(columns[rows, j].tolist())
        means = sums / index.sizes[:, None]
        return means.reshape(-1) if values.ndim == 1 else means

    def points(self) -> tuple[AggregatedRun, ...]:
        """One aggregated point per (app_id, config): means over repetitions."""
        index = self.group_index
        counts = _row_tuples(self.group_means(self.counts))
        times = self.group_means(self.exec_time_s).tolist()
        energies = self.group_means(self.dynamic_energy_j).tolist()
        return tuple(
            AggregatedRun(app_id, self._configs[cores, size],
                          PmcVector._checked(self.pmc_names, row),
                          time_s, energy, n)
            for (app_id, cores, size), row, time_s, energy, n in zip(
                index.code_of, counts, times, energies, index.sizes.tolist()
            )
        )

    @cached_property
    def _keys_by_app(self) -> dict[str, list[tuple[str, int, str]]]:
        """Each app's run-group keys, in first-seen order."""
        by_app: dict[str, list[tuple[str, int, str]]] = {}
        for key in self.group_index.code_of:
            by_app.setdefault(key[0], []).append(key)
        return by_app

    def resolve(self, ref: str) -> RunRef:
        """Resolve a textual base reference to a run group.

        Full form is ``app_id@cores:problem_size``; a bare ``app_id`` is
        accepted when exactly one group carries it.
        """
        if "@" in ref:
            app_id, _, config_text = ref.partition("@")
            cores_text, _, problem_size = config_text.partition(":")
            try:
                cores = int(cores_text)
            except ValueError:
                raise DataFormatError(
                    f"malformed base reference {ref!r}: expected "
                    f"'app_id@cores:problem_size'"
                ) from None
            if cores < 1:
                raise DataFormatError(
                    f"malformed base reference {ref!r}: cores must be >= 1, got {cores}"
                )
            if (app_id, cores, problem_size) not in self.group_index.code_of:
                raise DataFormatError(f"unknown base reference {ref!r}")
            return RunRef(app_id, RunConfig(cores, problem_size))
        matches = self._keys_by_app.get(ref)
        if not matches:
            raise DataFormatError(f"unknown base reference {ref!r}")
        if len(matches) > 1:
            raise DataFormatError(
                f"ambiguous base reference {ref!r}: matches "
                f"{', '.join(RunRef(a, RunConfig(c, s)).label() for a, c, s in matches)}"
            )
        return RunRef(ref, RunConfig(*matches[0][1:]))


@dataclass(frozen=True)
class EnergyModel:
    """Linear dynamic-energy model: intercept plus one coefficient per PMC.

    Coefficients are joules per event. The kind records which constraints the
    model was fitted under and is enforced as an invariant: zero-intercept
    kinds carry an exact 0.0 intercept, and the non-negative kind admits no
    negative coefficient.
    """

    pmc_names: tuple[str, ...]
    intercept: float
    coefficients: tuple[float, ...]
    kind: ModelKind

    def __post_init__(self) -> None:
        object.__setattr__(self, "pmc_names", tuple(self.pmc_names))
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        object.__setattr__(self, "kind", ModelKind(self.kind))
        if len(self.pmc_names) != len(self.coefficients):
            raise ValueError(
                f"got {len(self.pmc_names)} PMC names but "
                f"{len(self.coefficients)} coefficients"
            )
        if len(set(self.pmc_names)) != len(self.pmc_names):
            raise ValueError("model PMC names are not unique")
        if not math.isfinite(self.intercept):
            raise ValueError(f"intercept must be finite, got {self.intercept!r}")
        for name, c in zip(self.pmc_names, self.coefficients):
            if not math.isfinite(c):
                raise ValueError(f"coefficient for {name!r} must be finite, got {c!r}")
        if self.kind is not ModelKind.UNCONSTRAINED and self.intercept != 0.0:
            raise ValueError(
                f"{self.kind.value} model must have intercept 0, got {self.intercept!r}"
            )
        if self.kind is ModelKind.ZERO_INTERCEPT_NONNEG:
            for name, c in zip(self.pmc_names, self.coefficients):
                if c < 0:
                    raise ValueError(
                        f"{self.kind.value} model has negative coefficient "
                        f"{c!r} for {name!r}"
                    )


# Runs-CSV column names with fixed meaning; everything else is a PMC column.
_RESERVED_COLUMNS = (
    "app_id",
    "run_id",
    "cores",
    "problem_size",
    "exec_time_s",
    "dynamic_energy_j",
    "total_energy_j",
    "static_power_w",
)


def _columns(path, header: list[str]) -> dict[str, int]:
    """Column positions by name; each name may appear once."""
    dupes = sorted({c for c in header if header.count(c) > 1})
    if dupes:
        raise DataFormatError(f"{path}: duplicate header columns: {', '.join(dupes)}")
    return {name: i for i, name in enumerate(header)}


# Column-by-column parsing. Each loader states its checks once, in the order
# the fields of a row are checked: a check pairs the first row that fails it,
# found from a mask over whole columns, with the fault text of such a row. A
# file's fault is then its earliest faulty row's first failing check, the same
# fault as checking row by row from the top. Each mask goes as soon as its first
# row is known: many masks held at once raise the peak memory of a load.


def _full_rows(body: list[list[str]], width: int) -> list[list[str]]:
    """The rows of ``body`` before the first one without ``width`` cells."""
    if set(map(len, body)) <= {width}:
        return body
    return body[:next(i for i, row in enumerate(body) if len(row) != width)]


def _text_column(rows: list[list[str]], j: int) -> list[str]:
    return list(map(str.strip, map(itemgetter(j), rows)))


def _float_or_nan(text: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        return math.nan


def _float_columns(rows: list[list[str]], positions: list[int]) -> np.ndarray:
    """Rows x positions matrix of the cells at ``positions``, as Python's
    ``float`` parses them after stripping; NaN where a cell is not a number."""
    pick = itemgetter(*positions)  # a tuple of cells, or one cell
    cells = lambda: (chain.from_iterable(map(pick, rows)) if len(positions) > 1
                     else map(pick, rows))
    shape = (len(rows), len(positions))
    try:
        # float() strips the same whitespace as str.strip(), except U+001C to
        # U+001F; cells padded with those take the slow path with the
        # non-numeric ones.
        return np.fromiter(map(float, cells()), float, shape[0] * shape[1]).reshape(shape)
    except ValueError:
        return np.fromiter(map(_float_or_nan, cells()), float, shape[0] * shape[1]).reshape(shape)


def _first(mask: np.ndarray) -> int:
    """Position of the first true entry; the length when there is none."""
    return int(np.argmax(mask)) if mask.any() else len(mask)


def _raise_first_fault(path, row_numbers: list[int], checks) -> None:
    """Raise the fault of the earliest faulty data row, if there is one. A check
    is the first row that fails it (the number of rows it covers when none does)
    with the fault text of such a row; of the checks that the earliest faulty
    row fails, the one listed first names the fault. ``row_numbers`` gives each
    data row's number in the file."""
    first, fault = min(checks, key=itemgetter(0))
    if first < len(row_numbers):
        raise DataFormatError(f"{path}: row {row_numbers[first]}{fault(first)}")


def _number_checks(rows, j: int, name: str, values: np.ndarray,
                   out_of_range: np.ndarray | None = None, wording: str = "") -> list:
    """The checks of column ``name``, cell ``j`` of ``rows`` and parsed as
    ``values``: a finite number, then (when ``out_of_range`` is given) in range."""
    def not_finite(i: int) -> str:
        text = rows[i][j].strip()
        try:
            float(text)
        except ValueError:
            return f", column {name!r}: non-numeric cell {text!r}"
        return f", column {name!r}: non-finite value {text!r}"

    checks = [(_first(~np.isfinite(values)), not_finite)]
    if out_of_range is not None:
        checks.append((_first(out_of_range),
                       lambda i: f", column {name!r}: {wording} {values[i].item()!r}"))
    return checks


def _where(test, values: list) -> np.ndarray:
    """Mask of the ``values`` for which ``test`` is true."""
    return np.fromiter(map(test, values), bool, len(values))


def _is_fault(value) -> bool:
    """Whether a parsed cell holds its fault text in place of its value."""
    return isinstance(value, str)


def _cores(text: str) -> int | str:
    """The core count in a ``cores`` cell, or the cell's fault text."""
    try:
        cores = int(text)
    except ValueError:
        return f", column 'cores': non-integer cell {text!r}"
    return cores if cores >= 1 else f", column 'cores': must be >= 1, got {cores}"


def _repeats(keys: list) -> np.ndarray:
    """Mask of the keys equal to an earlier one."""
    if len(set(keys)) == len(keys):
        return np.zeros(len(keys), bool)
    first_row = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return np.fromiter(map(first_row.__getitem__, keys), np.intp, len(keys)) != np.arange(len(keys))


def load_runs(path) -> Dataset:
    """Load a runs CSV into a :class:`Dataset`, its ``runs`` rows built at load.

    Header: ``app_id,cores,problem_size,exec_time_s,dynamic_energy_j`` plus one
    column per PMC, in model variable order. ``run_id`` is optional and marks
    repetition samples. ``total_energy_j`` together with ``static_power_w``
    may replace ``dynamic_energy_j``, in which case dynamic energy is computed
    at load time.
    """
    dataset = _load_run_columns(path)
    dataset.runs  # built now, so later analysis is not charged for the rows
    return dataset


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, then restore the caller's setting.
    A loader keeps every row it allocates, so the young collections those
    allocations trigger would trace them all and free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def _load_run_columns(path) -> Dataset:
    """:func:`load_runs` with every check, leaving ``runs`` to be built on first access."""
    header, body, row_numbers = _read_csv(path)
    columns = _columns(path, header)

    missing = [c for c in ("app_id", "cores", "problem_size", "exec_time_s") if c not in columns]
    if missing:
        raise DataFormatError(f"{path}: missing header columns: {', '.join(missing)}")

    has_dynamic = "dynamic_energy_j" in columns
    has_total = "total_energy_j" in columns
    has_static = "static_power_w" in columns
    if has_dynamic and (has_total or has_static):
        raise DataFormatError(
            f"{path}: give either dynamic_energy_j or total_energy_j+static_power_w, not both"
        )
    if not (has_dynamic or has_total and has_static):
        raise DataFormatError(
            f"{path}: missing energy columns: need dynamic_energy_j or "
            f"total_energy_j together with static_power_w"
        )

    pmc_names = tuple(c for c in header if c not in _RESERVED_COLUMNS)
    if not pmc_names:
        raise DataFormatError(f"{path}: no PMC columns after the reserved columns")

    rows = _full_rows(body, len(header))
    energy_columns = ("dynamic_energy_j",) if has_dynamic else ("total_energy_j", "static_power_w")
    number_columns = pmc_names + ("exec_time_s",) + energy_columns
    values = _float_columns(rows, [columns[name] for name in number_columns])
    number = dict(zip(number_columns, values.T))
    check = lambda name, *bound: _number_checks(rows, columns[name], name, number[name], *bound)
    times = number["exec_time_s"]
    if has_dynamic:
        energies = number["dynamic_energy_j"]
    else:
        # The arithmetic of stats.dynamic_energy, so values match it bit for
        # bit; a product that overflows gives -inf, a negative energy.
        with np.errstate(over="ignore", invalid="ignore"):
            energies = number["total_energy_j"] - number["static_power_w"] * times

    app_ids = _text_column(rows, columns["app_id"])
    sizes = _text_column(rows, columns["problem_size"])
    run_ids = ([text or None for text in _text_column(rows, columns["run_id"])]
               if "run_id" in columns else [None] * len(rows))
    cores_texts = _text_column(rows, columns["cores"])
    cores_of = {text: _cores(text) for text in set(cores_texts)}
    cores = [cores_of[text] for text in cores_texts]
    keys = list(zip(app_ids, cores, sizes, run_ids))
    _raise_first_fault(path, row_numbers, [
        (len(rows), lambda i: f": expected {len(header)} cells, got {len(body[i])}"),
        (_first(_where(not_, app_ids)), lambda i: ": empty app_id"),
        (_first(_where(_is_fault, cores)), cores.__getitem__),
        *check("exec_time_s", times <= 0, "must be > 0, got"),
        *(check("dynamic_energy_j") if has_dynamic else check("total_energy_j")
          + check("static_power_w", number["static_power_w"] < 0, "must be >= 0, got")),
        (_first(energies < 0), lambda i: f": dynamic energy {energies[i].item()!r} J is negative "
                                         f"(measurement fault: total below static baseline)"),
        *chain.from_iterable(check(name, number[name] < 0, "negative count") for name in pmc_names),
        (_first(_repeats(keys)),
         lambda i: ": duplicate run ({!r}, {}:{}, run_id={!r}), first seen at row {}".format(
             *keys[i], row_numbers[keys.index(keys[i])])),
    ])
    del body, rows, cores_texts, keys  # the cell strings go before the columns are copied
    counts = _frozen(values[:, :len(pmc_names)])
    return Dataset._from_columns(pmc_names, counts, times, energies, app_ids, run_ids, cores, sizes)


@_gc_paused()
def load_compounds(path, dataset: Dataset) -> list[CompoundRun]:
    """Load a compounds CSV, resolving base references against ``dataset``.

    Header: ``compound_id,base_a,base_b,dynamic_energy_j`` followed by the
    dataset's PMC columns in the same order. Base references use the
    ``app_id@cores:problem_size`` form (bare ``app_id`` when unambiguous).
    A file with a valid header and zero data rows is an empty test set, not
    an error.
    """
    header, body, row_numbers = _read_csv(path)
    columns = _columns(path, header)
    required = ("compound_id", "base_a", "base_b", "dynamic_energy_j")
    missing = [c for c in required if c not in columns]
    if missing:
        raise DataFormatError(f"{path}: missing header columns: {', '.join(missing)}")
    pmc_columns = tuple(c for c in header if c not in required)
    if pmc_columns != dataset.pmc_names:
        raise DataFormatError(
            f"{path}: PMC columns {list(pmc_columns)} do not match dataset PMC "
            f"names {list(dataset.pmc_names)}"
        )

    rows = _full_rows(body, len(header))
    number_columns = pmc_columns + ("dynamic_energy_j",)
    values = _float_columns(rows, [columns[name] for name in number_columns])
    number = dict(zip(number_columns, values.T))
    check = lambda name, *bound: _number_checks(rows, columns[name], name, number[name], *bound)
    energies = number["dynamic_energy_j"]
    compound_ids = _text_column(rows, columns["compound_id"])
    base_texts = (_text_column(rows, columns["base_a"]), _text_column(rows, columns["base_b"]))
    ref_of = {}
    for text in set(base_texts[0]).union(base_texts[1]):
        try:
            ref_of[text] = dataset.resolve(text)
        except DataFormatError as exc:
            ref_of[text] = f": {exc}"
    bases_a, bases_b = ([ref_of[text] for text in texts] for texts in base_texts)
    _raise_first_fault(path, row_numbers, [
        (len(rows), lambda i: f": expected {len(header)} cells, got {len(body[i])}"),
        (_first(_where(not_, compound_ids)), lambda i: ": empty compound_id"),
        (_first(_where(_is_fault, bases_a)), bases_a.__getitem__),
        (_first(_where(_is_fault, bases_b)), bases_b.__getitem__),
        *check("dynamic_energy_j", energies < 0, "must be >= 0, got"),
        *chain.from_iterable(check(name, number[name] < 0, "negative count")
                             for name in pmc_columns),
    ])
    del body, rows, base_texts  # the cell strings go before the row objects come

    return [
        CompoundRun(compound_id, base_a, base_b, PmcVector._checked(dataset.pmc_names, row),
                    energy)
        for compound_id, base_a, base_b, row, energy in zip(
            compound_ids, bases_a, bases_b, _row_tuples(values[:, :-1]), energies.tolist()
        )
    ]


def model_to_dict(model: EnergyModel) -> dict:
    """The model-file document as a plain dict."""
    return {
        "kind": model.kind.value,
        "pmc_names": list(model.pmc_names),
        "intercept": model.intercept,
        "coefficients": list(model.coefficients),
    }


def save_model(model: EnergyModel, path) -> None:
    """Write a model file. Floats round-trip bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path) -> EnergyModel:
    """Read a model file, enforcing the declared kind's invariants."""
    with open(path, encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise DataFormatError(f"{path}: expected a JSON object")
    missing = [k for k in ("kind", "pmc_names", "intercept", "coefficients") if k not in document]
    if missing:
        raise DataFormatError(f"{path}: missing keys: {', '.join(missing)}")
    try:
        kind = ModelKind(document["kind"])
    except ValueError:
        raise DataFormatError(
            f"{path}: unknown kind {document['kind']!r}; expected one of "
            f"{', '.join(k.value for k in ModelKind)}"
        ) from None
    names = document["pmc_names"]
    coefficients = document["coefficients"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise DataFormatError(f"{path}: pmc_names must be a list of strings")
    # A JSON number loads as an int or a float; float() would also take a
    # string or a bool.
    number = lambda value: isinstance(value, (int, float)) and not isinstance(value, bool)
    if not isinstance(coefficients, list) or not all(map(number, coefficients)):
        raise DataFormatError(f"{path}: coefficients must be a list of numbers")
    if not number(document["intercept"]):
        raise DataFormatError(f"{path}: intercept must be a number, got {document['intercept']!r}")
    try:
        return EnergyModel(
            pmc_names=tuple(names),
            intercept=float(document["intercept"]),
            coefficients=tuple(float(c) for c in coefficients),
            kind=kind,
        )
    except (OverflowError, ValueError) as exc:  # an integer too large for a float overflows
        raise DataFormatError(f"{path}: {exc}") from None
