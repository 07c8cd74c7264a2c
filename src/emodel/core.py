"""Datasets of measured runs and the runs and compounds loaders.

The interchange formats are CSV with a mandatory header (runs, compounds,
energy functions) and a flat JSON document (models). PMC column order in a
runs file defines the variable order everywhere downstream, so loading is
strictly order-preserving and deterministic: identical bytes produce an
identical :class:`Dataset`. The run records, the model and its file are
defined in the numpy-free :mod:`emodel.model` and re-exported here.

A runs or compounds load that finds its file's bytes in the parse cache
(:mod:`emodel._cache`) reads the checked columns kept there and imports no
numpy: a dataset's float columns become numpy arrays only on first access,
and its rows and the objects of a :class:`Compounds` record are built without
them, and by no ``emodel`` command. Only a load that misses, and so parses and
checks the file, imports numpy here, as the group index and the group means do.
"""

from __future__ import annotations

import math
import struct
from array import array
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from ._cache import cached_load
from ._common import DataFormatError, ModelKind, _gc_paused, _read_csv, _Record, _row_again
from .model import (AggregatedRun, ApplicationRun, CompoundRun, EnergyModel, PmcVector, RunConfig,
                    RunRef, load_model, model_to_dict, save_model)

__all__ = [
    "DataFormatError",
    "PmcVector",
    "RunConfig",
    "RunRef",
    "ApplicationRun",
    "CompoundRun",
    "AggregatedRun",
    "Dataset",
    "Compounds",
    "ModelKind",
    "EnergyModel",
    "load_runs",
    "load_compounds",
    "load_model",
    "save_model",
    "model_to_dict",
]


def _unpacked(floats, rows: int, width: int) -> tuple[Iterator[tuple[float, ...]], Sequence[float]]:
    """The first ``rows`` x ``width`` doubles of ``floats``, a flat buffer of doubles, as one
    tuple per row, made one at a time and without numpy; and the doubles after them."""
    counts = struct.iter_unpack(f"{width}d", floats[:rows * width]) if width else iter([()] * rows)
    return counts, floats[rows * width:]


def _two_sum(a, b):
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


class Dataset(_Record):
    """An ordered PMC name list with the runs (and optional compounds) that cover it.

    Immutable after construction; any number of readers may share one instance.
    The runs are stored as columns in row order: read-only ``float64`` arrays
    ``counts`` (runs x PMCs), ``exec_time_s`` and ``dynamic_energy_j``, and
    tuples ``app_id``, ``run_id``, ``cores`` and ``problem_size``. The three
    arrays are numpy views of one block of doubles, made on first access.
    ``runs``, the :class:`ApplicationRun` rows, is built from that block on
    first access, without numpy: :func:`load_runs` builds it at load, the
    ``emodel`` commands never do. Repeated (app_id, config) rows are
    repetition samples. ``points()`` gives the per-group means, which are the
    base side of additivity testing. ``fit`` and ``correlation_matrix`` take
    every run row as one sample, repetitions included, and so does
    ``emodel evaluate`` on a runs file.
    """

    _FIELDS = ("pmc_names", "runs", "compounds")

    def __init__(self, pmc_names: Sequence[str], runs: Iterable[ApplicationRun],
                 compounds: Iterable[CompoundRun] = ()) -> None:
        self.__dict__.update(pmc_names=tuple(pmc_names), runs=tuple(runs),
                             compounds=tuple(compounds))
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
        runs = self.runs
        floats = array("d", chain.from_iterable(run.pmc.counts for run in runs))
        floats.extend([run.exec_time_s for run in runs])
        floats.extend([run.dynamic_energy_j for run in runs])
        self._store(memoryview(floats).toreadonly(), [run.app_id for run in runs],
                    [run.run_id for run in runs], [run.config.cores for run in runs],
                    [run.config.problem_size for run in runs])
        self.counts  # the arrays, derived from the rows at construction
        self.check_compounds(self.compounds)

    @classmethod
    def _from_columns(cls, key: str | None, floats: memoryview, pmc_names: Sequence[str],
                      *columns: Sequence) -> "Dataset":
        """A dataset without compounds whose runs, given as columns in ``_store``
        order, have passed a loader's checks. ``key`` is the parse-cache key of
        the load (None when it has none), which compounds resolved against
        this dataset are kept under."""
        dataset = object.__new__(cls)
        dataset.__dict__.update(pmc_names=tuple(pmc_names), compounds=(), _key=key)
        dataset._store(floats, *columns)
        return dataset

    def _store(self, floats: memoryview, app_id, run_id, cores, sizes) -> None:
        """``floats`` holds the doubles of ``counts`` (row by row), then of
        ``exec_time_s``, then of ``dynamic_energy_j``."""
        self.__dict__.update(_floats=floats, app_id=tuple(app_id), run_id=tuple(run_id),
                             cores=tuple(cores), problem_size=tuple(sizes))

    def _python_columns(self) -> tuple[Iterator[tuple[float, ...]], memoryview, memoryview]:
        """The rows of ``counts`` as tuples, one at a time, and ``exec_time_s`` and
        ``dynamic_energy_j`` as views: the float columns, read without numpy."""
        rows = len(self.app_id)
        counts, rest = _unpacked(self.__dict__["_floats"], rows, len(self.pmc_names))
        return counts, rest[:rows], rest[rows:]

    def __getattr__(self, name: str):
        # Reached only for a missing attribute: the rows or the arrays, not yet built.
        if name == "runs":
            counts, times, energies = self._python_columns()
            self.__dict__["runs"] = runs = tuple(
                ApplicationRun(app_id, self._configs[cores, size],
                               PmcVector._checked(self.pmc_names, row), time_s, energy, run_id)
                for app_id, cores, size, row, time_s, energy, run_id in zip(
                    self.app_id, self.cores, self.problem_size, counts, times, energies,
                    self.run_id)
            )
            return runs
        if name in ("counts", "exec_time_s", "dynamic_energy_j"):
            import numpy as np

            rows, width = len(self.app_id), len(self.pmc_names)
            floats = np.frombuffer(self.__dict__["_floats"], dtype=float)
            self.__dict__.update(counts=floats[:rows * width].reshape(rows, width),
                                 exec_time_s=floats[rows * width:rows * (width + 1)],
                                 dynamic_energy_j=floats[rows * (width + 1):])
            return self.__dict__[name]
        raise AttributeError(f"'Dataset' object has no attribute {name!r}")

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
    def _group_codes(self) -> tuple[dict[tuple[str, int, str], int], array]:
        """The group index's ``code_of`` and each row's group number, without numpy."""
        code_of: dict[tuple[str, int, str], int] = {}
        return code_of, array("q", (code_of.setdefault(key, len(code_of))
                                    for key in zip(self.app_id, self.cores, self.problem_size)))

    @cached_property
    def group_index(self) -> GroupIndex:
        """Run groups by (app_id, config) in first-seen order, as row positions."""
        import numpy as np

        code_of, codes = self._group_codes
        row_group = np.frombuffer(codes, dtype=np.int64).astype(np.intp, copy=False)
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
        import numpy as np

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
        index, width = self.group_index, len(self.pmc_names)
        counts, _ = _unpacked(self.group_means(self.counts).reshape(-1), len(index.sizes), width)
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
        for key in self._group_codes[0]:
            by_app.setdefault(key[0], []).append(key)
        return by_app

    def resolve(self, ref: str) -> RunRef:
        """Resolve a textual base reference to a run group.

        Full form is ``app_id@cores:problem_size``; a bare ``app_id`` is
        accepted when exactly one group carries it.
        """
        app_id, cores, problem_size = self._group_key(ref)
        return RunRef(app_id, RunConfig(cores, problem_size))

    def _group_key(self, ref: str) -> tuple[str, int, str]:
        """:meth:`resolve`'s run group, as its ``(app_id, cores, problem_size)`` key."""
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
            if (app_id, cores, problem_size) not in self._group_codes[0]:
                raise DataFormatError(f"unknown base reference {ref!r}")
            return app_id, cores, problem_size
        matches = self._keys_by_app.get(ref)
        if not matches:
            raise DataFormatError(f"unknown base reference {ref!r}")
        if len(matches) > 1:
            raise DataFormatError(
                f"ambiguous base reference {ref!r}: matches "
                f"{', '.join(RunRef(a, RunConfig(c, s)).label() for a, c, s in matches)}"
            )
        return matches[0]


class Compounds(_Record, Sequence):
    """Compounds resolved against ``dataset`` as columns, as a loader checked
    them: ids, the group numbers of the first and second bases, and ``floats``,
    the native doubles of the counts (row by row), then of the energies. Also an
    immutable sequence of :class:`CompoundRun`, built without numpy on first access."""

    _FIELDS = ("compound_id", "base_a", "base_b", "floats", "pmc_names", "dataset")

    def __init__(self, compound_id: Iterable[str], base_a: Iterable[int], base_b: Iterable[int],
                 floats: bytes, pmc_names: Iterable[str], dataset: Dataset) -> None:
        self.__dict__.update(zip(self._FIELDS, (tuple(compound_id), tuple(base_a), tuple(base_b),
                                                bytes(floats), tuple(pmc_names), dataset)))

    def __len__(self) -> int:
        return len(self.compound_id)

    def __getitem__(self, index):
        return self._runs[index]

    def __iter__(self) -> Iterator[CompoundRun]:
        return iter(self._runs)

    def _python_columns(self) -> tuple[Iterator[tuple[float, ...]], memoryview]:
        """The counts' rows as tuples, one at a time, and the energies as a view."""
        return _unpacked(memoryview(self.floats).cast("d"), len(self), len(self.pmc_names))

    @cached_property
    def _runs(self) -> tuple[CompoundRun, ...]:
        keys, names = list(self.dataset._group_codes[0]), self.pmc_names
        refs = {g: RunRef(keys[g][0], RunConfig(*keys[g][1:]))
                for g in {*self.base_a, *self.base_b}}
        return tuple([CompoundRun(id_, refs[a], refs[b], PmcVector._checked(names, row), energy)
                      for id_, a, b, row, energy in zip(
                          self.compound_id, self.base_a, self.base_b, *self._python_columns())])


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


# Streamed parsing and column-by-column checks. A loader parses each data row
# as it is read, keeping the numbers in one float buffer and the cells of its
# few text columns, so a load holds no cell text it does not keep. Each loader
# then states its checks once, in the order the fields of a row are checked: a
# check pairs the first row that fails it, found from a mask over whole
# columns, with the fault text of such a row. A file's fault is then its
# earliest faulty row's first failing check, the same fault as checking row by
# row from the top. Each mask goes as soon as its first row is known: many
# masks held at once raise the peak memory of a load.


def _getter(positions: Sequence[int]) -> itemgetter:
    """An itemgetter of ``positions`` that returns a sequence, for one or no position too."""
    return itemgetter(*positions) if len(positions) > 1 else itemgetter(
        slice(positions[0], positions[0] + 1) if positions else slice(0))


def _float_or_nan(text: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        return math.nan


def _parse_rows(rows, width: int, numbers: Sequence[int], texts: Sequence[int]):
    """The ``(row number, cells)`` pairs of ``rows`` (as :func:`_read_csv`
    gives them) before the first one without ``width`` cells, parsed one at a
    time. Gives the rows x ``numbers`` matrix of the cells at those positions
    as Python's ``float`` parses them after stripping (NaN where a cell is not
    a number); a list of the stripped cells at each position in ``texts``; the
    number of every row read, the one that stopped the parse included; and
    that row's cell count (None if no row stopped it)."""
    import numpy as np

    values, row_numbers, flat = array("d"), array("q"), []
    pick_numbers, pick_texts = _getter(numbers), _getter(texts)
    cells = None
    for number, row in rows:
        row_numbers.append(number)
        if len(row) != width:
            cells = len(row)
            break
        # A row's numbers are all parsed before any is appended: when one cell
        # fails, none of the row's values is in the buffer twice. float()
        # strips the same whitespace as str.strip(), except U+001C to U+001F:
        # a row with cells padded with those is parsed again with the
        # non-numeric ones.
        try:
            values.fromlist(list(map(float, pick_numbers(row))))
        except ValueError:
            values.fromlist(list(map(_float_or_nan, pick_numbers(row))))
        flat.extend(map(str.strip, pick_texts(row)))
    matrix = np.frombuffer(values, dtype=float).reshape(-1, len(numbers))
    return matrix, [flat[k::len(texts)] for k in range(len(texts))], row_numbers, cells


def _first(mask) -> int:
    """Position of the first true entry of a boolean array; the length when there is none."""
    return int(mask.argmax()) if mask.any() else len(mask)


def _entry_floats(*blocks) -> bytearray:
    """The float arrays ``blocks``, each in row order, one after another as
    little-endian float64 bytes: the floats of a parse-cache entry."""
    import numpy as np

    data = bytearray(8 * sum(block.size for block in blocks))
    out, start = np.frombuffer(data, dtype="<f8"), 0
    for block in blocks:
        out[start:start + block.size].reshape(block.shape)[...] = block
        start += block.size
    return data


def _raise_first_fault(path, row_numbers: Sequence[int], checks) -> None:
    """Raise the fault of the earliest faulty data row, if there is one. A check
    is the first row that fails it (the number of rows it covers when none does)
    with the fault text of such a row; of the checks that the earliest faulty
    row fails, the one listed first names the fault. ``row_numbers`` gives each
    data row's number in the file."""
    first, fault = min(checks, key=itemgetter(0))
    if first < len(row_numbers):
        raise DataFormatError(f"{path}: row {row_numbers[first]}{fault(first)}")


def _number_checks(path, j: int, name: str, values, out_of_range=None, wording: str = "") -> list:
    """The checks of column ``name``, cell ``j`` of a row of the file at
    ``path``, parsed as ``values``: a finite number, then (when
    ``out_of_range`` is given) in range."""
    def not_finite(i: int) -> str:
        text = _row_again(path, i)[j].strip()
        try:
            float(text)
        except ValueError:
            return f", column {name!r}: non-numeric cell {text!r}"
        return f", column {name!r}: non-finite value {text!r}"

    import numpy as np

    checks = [(_first(~np.isfinite(values)), not_finite)]
    if out_of_range is not None:
        checks.append((_first(out_of_range),
                       lambda i: f", column {name!r}: {wording} {values[i].item()!r}"))
    return checks


def _where(test, values: list):
    """Mask of the ``values`` for which ``test`` is true."""
    import numpy as np

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


def _position(values: list, value) -> int:
    """Position of the first ``value`` in ``values``; the length when there is none."""
    return values.index(value) if value in values else len(values)


def _first_repeat(keys, count: int) -> int:
    """Position of the first of the ``count`` keys from ``keys()`` equal to an earlier one; ``count``
    when there is none. A set of them all tells at C speed whether to look key by key."""
    if len(set(keys())) == count:
        return count
    seen: set = set()
    return next(i for i, key in enumerate(keys()) if key in seen or seen.add(key))


def load_runs(path) -> Dataset:
    """Load a runs CSV into a :class:`Dataset`, its ``runs`` rows and group keys built at load.

    Header: ``app_id,cores,problem_size,exec_time_s,dynamic_energy_j`` plus one
    column per PMC, in model variable order. ``run_id`` is optional and marks
    repetition samples. ``total_energy_j`` together with ``static_power_w``
    may replace ``dynamic_energy_j``, in which case dynamic energy is computed
    at load time.
    """
    dataset = _load_run_columns(path)
    # Built now, without numpy, so later analysis is not charged for them.
    dataset.runs, dataset._group_codes
    return dataset


@_gc_paused()
def _load_run_columns(path) -> Dataset:
    """:func:`load_runs` leaving ``runs`` to be built on first access: the
    checked columns kept in the parse cache for the file's bytes, or those of
    :func:`_checked_runs`, which are then kept."""
    with _read_csv(path) as (header, rows):
        key, floats, document = cached_load(rows.file, ("runs",),
                                            lambda: _checked_runs(path, header, rows))
    return Dataset._from_columns(key, floats, *document)


def _checked_runs(path, header: list[str], rows) -> tuple[bytearray, list]:
    """Parse and check a runs file: the floats of ``counts``, ``exec_time_s``
    and ``dynamic_energy_j``, and the document ``[pmc_names, app_id, run_id,
    cores, problem_size]``; or the file's first fault."""
    import numpy as np

    columns = _columns(path, header)

    missing = [c for c in ("app_id", "cores", "problem_size", "exec_time_s")
               if c not in columns]
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

    energy_columns = (("dynamic_energy_j",) if has_dynamic
                      else ("total_energy_j", "static_power_w"))
    number_columns = pmc_names + ("exec_time_s",) + energy_columns
    text_columns = ("app_id", "problem_size", "cores") + (
        ("run_id",) if "run_id" in columns else ())
    values, texts, row_numbers, cells = _parse_rows(
        rows, len(header), [columns[name] for name in number_columns],
        [columns[name] for name in text_columns])
    number = dict(zip(number_columns, values.T))
    check = lambda name, *bound: _number_checks(path, columns[name], name, number[name], *bound)
    times = number["exec_time_s"]
    if has_dynamic:
        energies = number["dynamic_energy_j"]
    else:
        # The arithmetic of stats.dynamic_energy, so values match it bit for
        # bit; a product that overflows gives -inf, a negative energy.
        with np.errstate(over="ignore", invalid="ignore"):
            energies = number["total_energy_j"] - number["static_power_w"] * times

    app_ids, sizes, cores_texts = texts[:3]
    run_ids = [text or None for text in texts[3]] if len(texts) > 3 else [None] * len(values)
    cores_of = {text: _cores(text) for text in set(cores_texts)}
    cores = list(map(cores_of.__getitem__, cores_texts))
    faults = [value for value in cores_of.values() if _is_fault(value)]
    del texts, cores_texts
    keys = lambda: zip(app_ids, cores, sizes, run_ids)

    def duplicate(i: int) -> str:
        listed = list(keys())
        return ": duplicate run ({!r}, {}:{}, run_id={!r}), first seen at row {}".format(
            *listed[i], row_numbers[listed.index(listed[i])])

    _raise_first_fault(path, row_numbers, [
        (len(values), lambda i: f": expected {len(header)} cells, got {cells}"),
        (_position(app_ids, ""), lambda i: ": empty app_id"),
        (min(map(cores.index, faults), default=len(cores)), cores.__getitem__),
        *check("exec_time_s", times <= 0, "must be > 0, got"),
        *(check("dynamic_energy_j") if has_dynamic else check("total_energy_j")
          + check("static_power_w", number["static_power_w"] < 0, "must be >= 0, got")),
        (_first(energies < 0), lambda i: f": dynamic energy {energies[i].item()!r} J is "
                                         f"negative (measurement fault: total below static "
                                         f"baseline)"),
        *chain.from_iterable(check(name, number[name] < 0, "negative count")
                             for name in pmc_names),
        (_first_repeat(keys, len(values)), duplicate),
    ])
    return (_entry_floats(values[:, :len(pmc_names)], times, energies),
            [pmc_names, app_ids, run_ids, cores, sizes])


def load_compounds(path, dataset: Dataset) -> Compounds:
    """Load a compounds CSV, resolving base references against ``dataset``.

    Header: ``compound_id,base_a,base_b,dynamic_energy_j`` followed by the
    dataset's PMC columns in the same order. Base references use the
    ``app_id@cores:problem_size`` form (bare ``app_id`` when unambiguous).
    A file with a valid header and zero data rows is an empty test set, not
    an error. Resolved against a dataset that :func:`load_runs` read, the
    checked compounds are kept in the parse cache under both files' bytes.
    Gives a :class:`Compounds` record, not a list, its objects built at load.
    """
    compounds = _load_compound_columns(path, dataset)
    compounds._runs  # built now, without numpy, so later analysis is not charged for them
    return compounds


def _load_compound_columns(path, dataset: Dataset) -> Compounds:
    """:func:`load_compounds` leaving the objects to be built on first access."""
    runs_key = vars(dataset).get("_key")
    with _read_csv(path) as (header, rows):
        _, floats, document = cached_load(rows.file if runs_key else None, ("compounds", runs_key),
                                          lambda: _checked_compounds(path, header, rows, dataset))
    # On a hit, ``floats.obj`` is the bytes read from the entry: the record keeps them uncopied.
    return Compounds(*document, floats.obj, dataset.pmc_names, dataset)


def _checked_compounds(path, header: list[str], rows, dataset: Dataset) -> tuple[bytearray, list]:
    """Parse and check a compounds file against ``dataset``: the floats of the
    counts and of the energies, and the document ``[compound_id, base_a,
    base_b]``, where each base is the number of the dataset's run group it
    resolves to; or the file's first fault."""
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

    number_columns = pmc_columns + ("dynamic_energy_j",)
    values, (compound_ids, *base_texts), row_numbers, cells = _parse_rows(
        rows, len(header), [columns[name] for name in number_columns],
        [columns[name] for name in required[:3]])
    number = dict(zip(number_columns, values.T))
    check = lambda name, *bound: _number_checks(path, columns[name], name, number[name], *bound)
    energies = number["dynamic_energy_j"]
    code_of, group_of = dataset._group_codes[0], {}
    for text in set(base_texts[0]).union(base_texts[1]):
        try:
            group_of[text] = code_of[dataset._group_key(text)]
        except DataFormatError as exc:
            group_of[text] = f": {exc}"
    bases_a, bases_b = ([group_of[text] for text in texts] for texts in base_texts)
    del base_texts
    _raise_first_fault(path, row_numbers, [
        (len(values), lambda i: f": expected {len(header)} cells, got {cells}"),
        (_position(compound_ids, ""), lambda i: ": empty compound_id"),
        (_first(_where(_is_fault, bases_a)), bases_a.__getitem__),
        (_first(_where(_is_fault, bases_b)), bases_b.__getitem__),
        *check("dynamic_energy_j", energies < 0, "must be >= 0, got"),
        *chain.from_iterable(check(name, number[name] < 0, "negative count")
                             for name in pmc_columns),
    ])
    return _entry_floats(values[:, :-1], energies), [compound_ids, bases_a, bases_b]
