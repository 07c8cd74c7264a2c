"""Domain types for measured runs, datasets, and linear energy models, plus file I/O.

The interchange formats are CSV with a mandatory header (runs, compounds,
energy functions) and a flat JSON document (models). PMC column order in a
runs file defines the variable order everywhere downstream, so loading is
strictly order-preserving and deterministic: identical bytes produce an
identical :class:`Dataset`.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .stats import MeasurementFaultWarning, dynamic_energy

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
    "drop_low_count_pmcs",
]


class DataFormatError(ValueError):
    """An input file violates the documented format; the message carries the
    offending file, row, and column where applicable."""


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
    def from_dict(cls, mapping: Mapping[str, float]) -> "PmcVector":
        return cls(tuple(mapping.keys()), tuple(mapping.values()))

    def get(self, name: str) -> float:
        try:
            return self.counts[self.names.index(name)]
        except ValueError:
            raise KeyError(f"PMC {name!r} not present in vector") from None

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.names, self.counts))

    def project(self, names: Sequence[str]) -> "PmcVector":
        """Sub-vector with the given names, in the given order."""
        return PmcVector(tuple(names), tuple(self.get(n) for n in names))

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


class GroupIndex(NamedTuple):
    """Row positions of a dataset's run groups.

    ``refs`` lists the groups in first-seen order and ``sizes`` their
    repetition counts. ``row_group`` maps each run row to its group number.
    ``order`` lists the rows group by group, keeping row order within a
    group, and group ``g`` occupies ``order[starts[g]:starts[g] + sizes[g]]``.
    """

    refs: tuple[RunRef, ...]
    sizes: np.ndarray
    row_group: np.ndarray
    order: np.ndarray
    starts: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """An ordered PMC name list with the runs (and optional compounds) that cover it.

    Immutable after construction; any number of readers may share one instance.
    Repeated (app_id, config) rows are repetition samples; ``points()`` gives
    the per-group means, which are the units for model fitting and the base
    side of additivity testing.
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
        seen: dict[tuple[str, RunConfig, str | None], int] = {}
        for i, run in enumerate(self.runs):
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
            seen[key] = i
        self.check_compounds(self.compounds)

    def check_compounds(self, compounds: Iterable[CompoundRun]) -> None:
        """Raise ValueError unless every compound has this dataset's PMC names
        and both of its bases are run groups of this dataset."""
        refs = {run.ref for run in self.runs}
        for comp in compounds:
            if comp.pmc.names != self.pmc_names:
                raise ValueError(
                    f"compound {comp.compound_id!r} PMC names do not match dataset"
                )
            for ref in (comp.base_a, comp.base_b):
                if ref not in refs:
                    raise ValueError(
                        f"compound {comp.compound_id!r} references unknown base "
                        f"{ref.label()!r}"
                    )

    @cached_property
    def counts(self) -> np.ndarray:
        """Read-only runs x PMCs ``float64`` matrix of the runs' counts, in row order."""
        matrix = np.array([run.pmc.counts for run in self.runs], dtype=float)
        matrix = matrix.reshape(len(self.runs), len(self.pmc_names))
        matrix.flags.writeable = False
        return matrix

    @cached_property
    def _groups(self) -> dict[RunRef, tuple[ApplicationRun, ...]]:
        grouped: dict[RunRef, list[ApplicationRun]] = {}
        for run in self.runs:
            grouped.setdefault(run.ref, []).append(run)
        return {ref: tuple(rs) for ref, rs in grouped.items()}

    @cached_property
    def group_index(self) -> GroupIndex:
        """Run groups by (app_id, config) in first-seen order, as row positions."""
        groups = self._groups
        # Rows are found by identity (runs are unique), not by hashing refs again.
        row_of = {id(run): row for row, run in enumerate(self.runs)}
        order = np.fromiter(
            (row_of[id(run)] for run in chain.from_iterable(groups.values())),
            dtype=np.intp,
            count=len(self.runs),
        )
        sizes = np.fromiter(map(len, groups.values()), dtype=np.intp, count=len(groups))
        row_group = np.empty(len(self.runs), dtype=np.intp)
        row_group[order] = np.repeat(np.arange(len(groups)), sizes)
        return GroupIndex(
            refs=tuple(groups), sizes=sizes, row_group=row_group, order=order,
            starts=np.cumsum(sizes) - sizes,
        )

    def groups(self) -> dict[RunRef, tuple[ApplicationRun, ...]]:
        """Runs grouped by (app_id, config), in first-seen order."""
        return dict(self._groups)

    def group_means(self, values: np.ndarray) -> np.ndarray:
        """Per-group repetition means of each column of a per-run array.

        ``values`` has one row per run (one value per run when 1-D); the
        result has one row per group, in ``group_index`` order. Each mean is
        ``math.fsum(samples) / n`` bit for bit: IEEE addition is correctly
        rounded, so groups of one or two samples are summed in numpy, and
        larger groups go through ``math.fsum``. Like ``fsum``, a sum that
        overflows raises :class:`OverflowError`.
        """
        index = self.group_index
        values = np.asarray(values, dtype=float)
        columns = values[:, None] if values.ndim == 1 else values
        first = index.order[index.starts]
        last = index.order[index.starts + index.sizes - 1]
        pairs = index.sizes == 2
        sizes, starts = index.sizes.tolist(), index.starts.tolist()
        large = [g for g, n in enumerate(sizes) if n > 2]
        spans = [(starts[g], sizes[g]) for g in large]
        means = np.empty((len(index.refs), columns.shape[1]))
        for j in range(columns.shape[1]):
            column = columns[:, j]
            # Adding +0.0 turns a -0.0 sum into 0.0, as fsum does.
            with np.errstate(over="ignore"):
                sums = np.where(pairs, column[first] + column[last], column[first]) + 0.0
            if np.isinf(sums).any():
                raise OverflowError("intermediate overflow in fsum")
            means[:, j] = sums / index.sizes
            if large:
                ordered = column[index.order].tolist()
                means[large, j] = [math.fsum(ordered[s:s + n]) / n for s, n in spans]
        return means.reshape(-1) if values.ndim == 1 else means

    def points(self) -> tuple[AggregatedRun, ...]:
        """One aggregated point per (app_id, config): means over repetitions."""
        index = self.group_index
        counts = self.group_means(self.counts).tolist()
        times = self.group_means([run.exec_time_s for run in self.runs]).tolist()
        energies = self.group_means([run.dynamic_energy_j for run in self.runs]).tolist()
        return tuple(
            AggregatedRun(
                app_id=ref.app_id,
                config=ref.config,
                pmc=PmcVector(self.pmc_names, row),
                exec_time_s=time_s,
                dynamic_energy_j=energy,
                n_samples=n,
            )
            for ref, row, time_s, energy, n in zip(
                index.refs, counts, times, energies, index.sizes.tolist()
            )
        )

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
            candidate = RunRef(app_id, RunConfig(cores, problem_size))
            if candidate not in self._groups:
                raise DataFormatError(f"unknown base reference {ref!r}")
            return candidate
        matches = [r for r in self._groups if r.app_id == ref]
        if not matches:
            raise DataFormatError(f"unknown base reference {ref!r}")
        if len(matches) > 1:
            raise DataFormatError(
                f"ambiguous base reference {ref!r}: matches "
                f"{', '.join(m.label() for m in matches)}"
            )
        return matches[0]

    def with_compounds(self, compounds: Iterable[CompoundRun]) -> "Dataset":
        return Dataset(self.pmc_names, self.runs, tuple(compounds))


class ModelKind(str, Enum):
    """The three linear model families, by constraint."""

    UNCONSTRAINED = "unconstrained"
    ZERO_INTERCEPT = "zero_intercept"
    ZERO_INTERCEPT_NONNEG = "zero_intercept_nonneg"


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


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh)]
    if not rows or not any(cell.strip() for cell in rows[0]):
        raise DataFormatError(f"{path}: no header")
    header = [cell.strip() for cell in rows[0]]
    dupes = sorted({c for c in header if header.count(c) > 1})
    if dupes:
        raise DataFormatError(f"{path}: duplicate header columns: {', '.join(dupes)}")
    body = [row for row in rows[1:] if any(cell.strip() for cell in row)]
    return header, body


def _cell_float(path, row_no: int, column: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataFormatError(
            f"{path}: row {row_no}, column {column!r}: non-numeric cell {text!r}"
        ) from None
    if not math.isfinite(value):
        raise DataFormatError(
            f"{path}: row {row_no}, column {column!r}: non-finite value {text!r}"
        )
    return value


def load_runs(path) -> Dataset:
    """Load a runs CSV into a :class:`Dataset`.

    Header: ``app_id,cores,problem_size,exec_time_s,dynamic_energy_j`` plus one
    column per PMC, in model variable order. ``run_id`` is optional and marks
    repetition samples. ``total_energy_j`` together with ``static_power_w``
    may replace ``dynamic_energy_j``, in which case dynamic energy is computed
    at load time.
    """
    header, body = _read_csv(path)
    columns = {name: i for i, name in enumerate(header)}

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
    if not has_dynamic:
        if not (has_total and has_static):
            raise DataFormatError(
                f"{path}: missing energy columns: need dynamic_energy_j or "
                f"total_energy_j together with static_power_w"
            )

    pmc_names = tuple(c for c in header if c not in _RESERVED_COLUMNS)
    if not pmc_names:
        raise DataFormatError(f"{path}: no PMC columns after the reserved columns")

    runs: list[ApplicationRun] = []
    seen: dict[tuple[str, RunConfig, str | None], int] = {}
    for offset, row in enumerate(body):
        row_no = offset + 2  # 1-based, header is row 1
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}: row {row_no}: expected {len(header)} cells, got {len(row)}"
            )
        cell = lambda name: row[columns[name]].strip()

        app_id = cell("app_id")
        if not app_id:
            raise DataFormatError(f"{path}: row {row_no}: empty app_id")
        cores_text = cell("cores")
        try:
            cores = int(cores_text)
        except ValueError:
            raise DataFormatError(
                f"{path}: row {row_no}, column 'cores': non-integer cell {cores_text!r}"
            ) from None
        if cores < 1:
            raise DataFormatError(
                f"{path}: row {row_no}, column 'cores': must be >= 1, got {cores}"
            )
        config = RunConfig(cores, cell("problem_size"))
        run_id = cell("run_id") or None if "run_id" in columns else None

        exec_time_s = _cell_float(path, row_no, "exec_time_s", cell("exec_time_s"))
        if exec_time_s <= 0:
            raise DataFormatError(
                f"{path}: row {row_no}, column 'exec_time_s': must be > 0, got {exec_time_s!r}"
            )

        if has_dynamic:
            energy = _cell_float(path, row_no, "dynamic_energy_j", cell("dynamic_energy_j"))
        else:
            total = _cell_float(path, row_no, "total_energy_j", cell("total_energy_j"))
            static = _cell_float(path, row_no, "static_power_w", cell("static_power_w"))
            if static < 0:
                raise DataFormatError(
                    f"{path}: row {row_no}, column 'static_power_w': must be >= 0, got {static!r}"
                )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", MeasurementFaultWarning)
                energy = dynamic_energy(total, static, exec_time_s)
        if energy < 0:
            raise DataFormatError(
                f"{path}: row {row_no}: dynamic energy {energy!r} J is negative "
                f"(measurement fault: total below static baseline)"
            )

        counts = []
        for name in pmc_names:
            value = _cell_float(path, row_no, name, cell(name))
            if value < 0:
                raise DataFormatError(
                    f"{path}: row {row_no}, column {name!r}: negative count {value!r}"
                )
            counts.append(value)

        key = (app_id, config, run_id)
        if key in seen:
            raise DataFormatError(
                f"{path}: row {row_no}: duplicate run ({app_id!r}, {config.label()}, "
                f"run_id={run_id!r}), first seen at row {seen[key]}"
            )
        seen[key] = row_no
        runs.append(
            ApplicationRun(
                app_id=app_id,
                config=config,
                pmc=PmcVector(pmc_names, tuple(counts)),
                exec_time_s=exec_time_s,
                dynamic_energy_j=energy,
                run_id=run_id,
            )
        )

    return Dataset(pmc_names, tuple(runs))


def load_compounds(path, dataset: Dataset) -> list[CompoundRun]:
    """Load a compounds CSV, resolving base references against ``dataset``.

    Header: ``compound_id,base_a,base_b,dynamic_energy_j`` followed by the
    dataset's PMC columns in the same order. Base references use the
    ``app_id@cores:problem_size`` form (bare ``app_id`` when unambiguous).
    A file with a valid header and zero data rows is an empty test set, not
    an error.
    """
    header, body = _read_csv(path)
    required = ("compound_id", "base_a", "base_b", "dynamic_energy_j")
    missing = [c for c in required if c not in header]
    if missing:
        raise DataFormatError(f"{path}: missing header columns: {', '.join(missing)}")
    pmc_columns = tuple(c for c in header if c not in required)
    if pmc_columns != dataset.pmc_names:
        raise DataFormatError(
            f"{path}: PMC columns {list(pmc_columns)} do not match dataset PMC "
            f"names {list(dataset.pmc_names)}"
        )
    columns = {name: i for i, name in enumerate(header)}

    compounds: list[CompoundRun] = []
    for offset, row in enumerate(body):
        row_no = offset + 2
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}: row {row_no}: expected {len(header)} cells, got {len(row)}"
            )
        cell = lambda name: row[columns[name]].strip()
        compound_id = cell("compound_id")
        if not compound_id:
            raise DataFormatError(f"{path}: row {row_no}: empty compound_id")
        try:
            base_a = dataset.resolve(cell("base_a"))
            base_b = dataset.resolve(cell("base_b"))
        except DataFormatError as exc:
            raise DataFormatError(f"{path}: row {row_no}: {exc}") from None
        energy = _cell_float(path, row_no, "dynamic_energy_j", cell("dynamic_energy_j"))
        if energy < 0:
            raise DataFormatError(
                f"{path}: row {row_no}, column 'dynamic_energy_j': must be >= 0, got {energy!r}"
            )
        counts = []
        for name in dataset.pmc_names:
            value = _cell_float(path, row_no, name, cell(name))
            if value < 0:
                raise DataFormatError(
                    f"{path}: row {row_no}, column {name!r}: negative count {value!r}"
                )
            counts.append(value)
        compounds.append(
            CompoundRun(
                compound_id=compound_id,
                base_a=base_a,
                base_b=base_b,
                pmc=PmcVector(dataset.pmc_names, tuple(counts)),
                dynamic_energy_j=energy,
            )
        )
    return compounds


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
        except json.JSONDecodeError as exc:
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
    if not isinstance(coefficients, list):
        raise DataFormatError(f"{path}: coefficients must be a list of numbers")
    try:
        return EnergyModel(
            pmc_names=tuple(names),
            intercept=float(document["intercept"]),
            coefficients=tuple(float(c) for c in coefficients),
            kind=kind,
        )
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def drop_low_count_pmcs(dataset: Dataset, threshold: float = 10.0,
                        mode: str = "dataset-max") -> Dataset:
    """Drop PMCs whose counts never rise meaningfully above zero.

    ``dataset-max`` (default) drops a PMC when its maximum count over the
    whole dataset is <= threshold; ``any-run`` drops it when any single run
    is at or below the threshold.
    """
    if mode not in ("dataset-max", "any-run"):
        raise ValueError(f"mode must be 'dataset-max' or 'any-run', got {mode!r}")
    keep: list[str] = []
    for i, name in enumerate(dataset.pmc_names):
        values = [run.pmc.counts[i] for run in dataset.runs]
        if not values:
            keep.append(name)
            continue
        low = max(values) <= threshold if mode == "dataset-max" else min(values) <= threshold
        if not low:
            keep.append(name)
    kept = tuple(keep)

    def reproject(run: ApplicationRun) -> ApplicationRun:
        return ApplicationRun(
            app_id=run.app_id,
            config=run.config,
            pmc=run.pmc.project(kept),
            exec_time_s=run.exec_time_s,
            dynamic_energy_j=run.dynamic_energy_j,
            run_id=run.run_id,
        )

    compounds = tuple(
        CompoundRun(
            compound_id=c.compound_id,
            base_a=c.base_a,
            base_b=c.base_b,
            pmc=c.pmc.project(kept),
            dynamic_energy_j=c.dynamic_energy_j,
        )
        for c in dataset.compounds
    )
    return Dataset(kept, tuple(reproject(r) for r in dataset.runs), compounds)
