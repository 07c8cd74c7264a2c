"""Run records, the linear energy model, its file, prediction and its error summary, free of numpy.

:mod:`emodel.core` and :mod:`emodel.fitting` re-export these names as the same objects. Apart
from them, ``conserve`` and ``predict --counts`` need no numpy, nor do ``predict --runs`` and
``evaluate`` on a parse-cache hit, and the probe needs no loader or fit.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache, partial
from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._common import DataFormatError, ModelKind, _Record

__all__ = ["PmcVector", "RunConfig", "RunRef", "ApplicationRun", "CompoundRun", "AggregatedRun",
           "EnergyModel", "ErrorSummary", "load_model", "save_model", "model_to_dict", "predict",
           "evaluate"]


class PmcVector(_Record):
    """Ordered, named vector of performance-monitoring counts.

    Counts are stored as reals: aggregation across cores and repetition means
    produce non-integer values even though single hardware readings are
    integral.
    """

    __slots__ = _FIELDS = ("names", "counts")

    def __init__(self, names: Sequence[str], counts: Sequence[float]) -> None:
        self._set(tuple(names), tuple(float(c) for c in counts))
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
        the caller has already checked, built without the constructor's checks."""
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


class RunConfig(_Record):
    """Execution configuration of a run: core count and a free-form problem size."""

    __slots__ = _FIELDS = ("cores", "problem_size")

    def __init__(self, cores: int, problem_size: str = "") -> None:
        self._set(cores, problem_size)
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


class ApplicationRun(_Record):
    """One measured execution of a base application."""

    __slots__ = _FIELDS = ("app_id", "config", "pmc", "exec_time_s", "dynamic_energy_j", "run_id")

    def __init__(self, app_id: str, config: RunConfig, pmc: PmcVector, exec_time_s: float,
                 dynamic_energy_j: float, run_id: str | None = None) -> None:
        self._set(app_id, config, pmc, exec_time_s, dynamic_energy_j, run_id)
        if not math.isfinite(self.exec_time_s) or self.exec_time_s <= 0:
            raise ValueError(f"exec_time_s must be > 0, got {self.exec_time_s!r}")
        if not math.isfinite(self.dynamic_energy_j) or self.dynamic_energy_j < 0:
            raise ValueError(
                f"dynamic_energy_j must be >= 0, got {self.dynamic_energy_j!r}"
            )

    @property
    def ref(self) -> RunRef:
        return RunRef(self.app_id, self.config)


class CompoundRun(_Record):
    """One measured execution of two base applications run serially."""

    __slots__ = _FIELDS = ("compound_id", "base_a", "base_b", "pmc", "dynamic_energy_j")

    def __init__(self, compound_id: str, base_a: RunRef, base_b: RunRef, pmc: PmcVector,
                 dynamic_energy_j: float) -> None:
        self._set(compound_id, base_a, base_b, pmc, dynamic_energy_j)
        if not math.isfinite(self.dynamic_energy_j) or self.dynamic_energy_j < 0:
            raise ValueError(
                f"dynamic_energy_j must be >= 0, got {self.dynamic_energy_j!r}"
            )


class AggregatedRun(_Record):
    """Repetition mean over all samples of one (app_id, config) group."""

    __slots__ = _FIELDS = ("app_id", "config", "pmc", "exec_time_s", "dynamic_energy_j",
                           "n_samples")

    def __init__(self, app_id: str, config: RunConfig, pmc: PmcVector, exec_time_s: float,
                 dynamic_energy_j: float, n_samples: int) -> None:
        self._set(app_id, config, pmc, exec_time_s, dynamic_energy_j, n_samples)

    @property
    def ref(self) -> RunRef:
        return RunRef(self.app_id, self.config)


class EnergyModel(_Record):
    """Linear dynamic-energy model: intercept plus one coefficient per PMC.

    Coefficients are joules per event. The kind records which constraints the
    model was fitted under and is enforced as an invariant: zero-intercept
    kinds carry an exact 0.0 intercept, and the non-negative kind admits no
    negative coefficient.
    """

    __slots__ = _FIELDS = ("pmc_names", "intercept", "coefficients", "kind")

    def __init__(self, pmc_names: Sequence[str], intercept: float,
                 coefficients: Sequence[float], kind: ModelKind) -> None:
        self._set(tuple(pmc_names), float(intercept), tuple(float(c) for c in coefficients),
                  ModelKind(kind))
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


class ErrorSummary(_Record):
    """Min/mean/max percentage prediction error over a set of cases."""

    __slots__ = _FIELDS = ("min_pct", "avg_pct", "max_pct", "n_cases")

    def __init__(self, min_pct: float, avg_pct: float, max_pct: float, n_cases: int) -> None:
        self._set(min_pct, avg_pct, max_pct, n_cases)
        if self.n_cases < 1:
            raise ValueError(f"n_cases must be >= 1, got {self.n_cases}")
        if not (0 <= self.min_pct <= self.avg_pct <= self.max_pct):
            raise ValueError(
                f"error summary out of order: min={self.min_pct!r} "
                f"avg={self.avg_pct!r} max={self.max_pct!r}"
            )

    def to_json_dict(self) -> dict:
        return self._asdict()


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


def predict(model: EnergyModel, pmc: PmcVector) -> float:
    """Predicted dynamic energy: intercept plus the coefficient dot product.

    The vector may carry extra PMCs; every model PMC must be present. May be
    negative for models whose constraints permit it.

    The sum runs in a kernel of one statement per term (see :func:`_compile`)
    once the model's PMCs have been met at the same positions before, and in
    a loop with the same IEEE sequence until then. A kernel is kept for the
    last (model names, vector names) pair, matched by identity. The pair and
    its kernel live in one tuple, read once and replaced whole, so concurrent
    callers each see a consistent entry.
    """
    global _last_kernel
    wanted, names, kernel = _last_kernel
    if model.pmc_names is not wanted or pmc.names is not names:
        positions = _positions(model.pmc_names, pmc.names)
        kernel = _kernel(positions)
        if kernel is None:
            total = model.intercept
            for coefficient, position in zip(model.coefficients, positions):
                total += coefficient * pmc.counts[position]
            return total
        _last_kernel = model.pmc_names, pmc.names, kernel
    return kernel(model.intercept, model.coefficients, pmc.counts)


_last_kernel: tuple = (None, None, None)  # not (): the empty tuple is a shared object

#: At most this many kernels are compiled, and as many positions tuples are
#: remembered as met once.
_KERNELS = 64
_kernels: dict = {}
_met: set = set()


def _kernel(positions: tuple[int, ...]):
    """The compiled kernel for ``positions``, or None while they have been met
    only once. A tuple is compiled the second time it is met, and its kernel
    is kept for the life of the process: no tuple is compiled twice, so
    rotating among more orders than fit costs a loop per call, not a compile.
    Once ``_KERNELS`` kernels exist, other tuples always take the loop; the
    tuples met once are forgotten together when ``_KERNELS`` of them pile up.
    Concurrent callers may compile one tuple twice or pass the bound by a
    few kernels; each kernel is a pure function, so no result changes."""
    kernel = _kernels.get(positions)
    if kernel is None and len(_kernels) < _KERNELS:
        if positions in _met:
            kernel = _kernels[positions] = _compile(positions)
        else:
            if len(_met) >= _KERNELS:
                _met.clear()
            _met.add(positions)
    return kernel


def _compile(positions: tuple[int, ...]):
    """:func:`predict`'s sum for a vector whose model PMCs sit at ``positions``,
    as straight-line code: ``total = intercept``, then one statement
    ``total += coefficients[j] * counts[position]`` per term, in model order.
    That is a loop's IEEE sequence without the loop. Only integers enter the
    source; the model's values come in as arguments on every call, so no
    float is printed and parsed back, and no kernel holds a model's values
    (an equal model may differ in a zero's sign). One statement per term,
    because one long expression overflows the compiler's recursion limit."""
    source = "\n".join([
        "def kernel(intercept, coefficients, counts):",
        "    total = intercept",
        *(f"    total += coefficients[{j}] * counts[{p}]" for j, p in enumerate(positions)),
        "    return total",
    ])
    namespace: dict = {}
    exec(source, namespace)
    return namespace["kernel"]


def _predict_each(model: EnergyModel, names: tuple[str, ...],
                  rows: Iterable[Sequence[float]]) -> Iterator[float]:
    """:func:`predict` for each counts row of ``rows``, all under the PMC
    ``names``, bit for bit: one kernel (see :func:`_compile`) sums every row.
    The model's PMCs are looked up in ``names`` only when there is a row, so
    no rows give no lookup error."""
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return iter(())
    kernel = _compile(_positions(model.pmc_names, names))
    return map(partial(kernel, model.intercept, model.coefficients), chain((first,), rows))


def evaluate(model: EnergyModel, cases: Iterable[tuple[PmcVector, float]]) -> ErrorSummary:
    """Percentage prediction errors (min, avg, max) over measured cases.

    Every measured energy must be positive and every prediction finite;
    errors are on dynamic energy, ``abs(predicted - measured) / measured *
    100`` per case, and the mean is their ``math.fsum`` over the count. The
    cases are checked in order, each for its missing PMC (KeyError), then its
    energy (ValueError, or if not numeric the TypeError of ``energy <= 0``);
    only then is the first prediction that is not finite an error.
    """
    return _error_summary((predict(model, pmc), energy) for pmc, energy in cases)


def _error_summary(pairs: Iterable[tuple[float, float]]) -> ErrorSummary:
    """:func:`evaluate` on ``(prediction, measured)`` pairs, checked in order."""
    errors: list[float] = []
    unpredictable = None
    for case, (predicted, measured) in enumerate(pairs, start=1):
        if measured <= 0:
            raise ValueError(f"measured must be > 0, got {measured!r}")
        if not measured < math.inf:
            raise ValueError(f"measured energy for case {case} is not finite: {measured!r}")
        if unpredictable is None and not math.isfinite(predicted):
            unpredictable = f"prediction for case {case} is not finite: {predicted!r}"
        errors.append(abs(predicted - measured) / measured * 100.0)
    if not errors:
        raise ValueError("need at least one (pmc, measured) case")
    if unpredictable is not None:
        raise ValueError(unpredictable)
    low, high = min(errors), max(errors)
    avg = min(max(math.fsum(errors) / len(errors), low), high)
    return ErrorSummary(min_pct=low, avg_pct=avg, max_pct=high, n_cases=len(errors))


def _predict_rows(intercept: float, coefficients: Sequence[float], counts):
    """:func:`predict` for each row of the array ``counts`` (columns: the
    model's PMCs, in model order), bit for bit: the one array form of the
    model-order sum. ``np.add.accumulate`` adds the intercept and each term
    ``coefficient * count`` left to right, one at a time, never as a matrix
    product or pairwise sum, which add in another order. An overflow gives
    the scalar sum's inf or NaN, without a numpy warning. Only a caller that
    holds an array runs this, so numpy is imported here, not with the module."""
    import numpy as np

    terms = np.empty((len(counts), len(coefficients) + 1))
    terms[:, 0] = intercept
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(counts, coefficients, out=terms[:, 1:])
        return np.add.accumulate(terms, axis=1)[:, -1]


@lru_cache(maxsize=64)
def _positions(wanted: tuple[str, ...], names: tuple[str, ...]) -> tuple[int, ...]:
    """The position in ``names`` of each name in ``wanted``."""
    index = {name: i for i, name in enumerate(names)}
    for name in wanted:
        if name not in index:
            raise KeyError(f"PMC {name!r} not present in vector")
    return tuple(map(index.__getitem__, wanted))
