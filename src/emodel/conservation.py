"""Energy-conservation checks on models and a synthetic composability harness.

A physically sensible dynamic-energy model predicts zero energy for zero work
and never goes negative on non-negative counts; for a linear model that means
a zero intercept and non-negative coefficients. This module reports the
violations, constructs explicit counter-inputs for negative predictions, and
probes model composability: composing two runs componentwise with "+"
preserves predicted energy for any zero-intercept linear model, while any
other componentwise operator on a coefficient the model can see breaks it.
Those two faces are checked by randomized trials, never asserted wholesale.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import ApplicationRun, EnergyModel, PmcVector
from .fitting import _positions, predict

__all__ = [
    "Operator",
    "SUM",
    "MAX",
    "sum_plus_delta",
    "OperatorTable",
    "ViolationKind",
    "Violation",
    "ViolationReport",
    "check_conservation",
    "negative_witness",
    "compose",
    "CompositionCounterexample",
    "verify_weak_composability",
    "OperatorDetection",
    "ComposabilityReport",
    "strong_composability_check",
    "generate_cases",
]

#: Synthetic PMC counts are drawn log-uniformly from this range, wide enough
#: to cover both rare-event counters and retired-instruction totals.
COUNT_RANGE = (1.0, 1e11)


@dataclass(frozen=True)
class Operator:
    """Componentwise composition operator for one PMC position."""

    kind: str
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("sum", "max", "sum_plus_delta"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if not math.isfinite(self.delta):
            raise ValueError(f"operator delta must be finite, got {self.delta!r}")
        if self.kind != "sum_plus_delta" and self.delta != 0.0:
            raise ValueError(f"{self.kind} operator takes no delta")

    def apply(self, a: float, b: float) -> float:
        if self.kind == "sum":
            return a + b
        if self.kind == "max":
            return max(a, b)
        return a + b + self.delta

    def label(self) -> str:
        if self.kind == "sum_plus_delta":
            return f"sum_plus_delta({self.delta!r})"
        return self.kind


SUM = Operator("sum")
MAX = Operator("max")


def sum_plus_delta(delta: float) -> Operator:
    return Operator("sum_plus_delta", delta)


@dataclass(frozen=True)
class OperatorTable:
    """Composition operators per PMC position.

    ``overrides`` maps 1-based PMC positions to an operator; positions not
    overridden use ``default``.
    """

    default: Operator = SUM
    overrides: Mapping[int, Operator] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "overrides", dict(self.overrides))
        for index, op in self.overrides.items():
            if not isinstance(index, int) or index < 1:
                raise ValueError(f"override index must be a 1-based position, got {index!r}")
            if not isinstance(op, Operator):
                raise TypeError(f"override for index {index} is not an Operator")

    def operator_for(self, index: int) -> Operator:
        return self.overrides.get(index, self.default)


class ViolationKind(str, Enum):
    NONZERO_INTERCEPT = "nonzero_intercept"
    NEGATIVE_COEFFICIENT = "negative_coefficient"
    NEGATIVE_PREDICTION_WITNESS = "negative_prediction_witness"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    pmc_name: str | None = None
    value: float | None = None
    witness: PmcVector | None = None
    predicted_j: float | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind.value}
        if self.pmc_name is not None:
            out["pmc_name"] = self.pmc_name
        if self.value is not None:
            out["value"] = self.value
        if self.witness is not None:
            out["witness"] = self.witness.as_dict()
        if self.predicted_j is not None:
            out["predicted_j"] = self.predicted_j
        return out


@dataclass(frozen=True)
class ViolationReport:
    violations: tuple[Violation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "violations", tuple(self.violations))

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "clean": self.clean,
            "violations": [v.to_json_dict() for v in self.violations],
        }


def negative_witness(model: EnergyModel) -> PmcVector | None:
    """A non-negative PMC vector the model maps to negative energy, if any.

    Puts all weight on the most negative coefficient, sized so the term
    swamps the intercept (clamped to the largest finite float when the
    coefficient is vanishingly small). When every coefficient is
    non-negative, a negative intercept alone is indicted by the zero vector.
    Returns None when no witness with a verifiably negative prediction exists
    within floating-point range.
    """
    n = len(model.pmc_names)
    negatives = [(c, k) for k, c in enumerate(model.coefficients) if c < 0]
    if negatives:
        c, k = min(negatives)
        count = 2.0 * max(model.intercept, 1.0) / abs(c)
        if not math.isfinite(count):
            count = sys.float_info.max
        counts = [0.0] * n
        counts[k] = count
        witness = PmcVector(model.pmc_names, counts)
        if predict(model, witness) < 0:
            return witness
    if model.intercept < 0:
        return PmcVector(model.pmc_names, (0.0,) * n)
    return None


def check_conservation(model: EnergyModel) -> ViolationReport:
    """Flag every way the model can break energy conservation.

    A nonzero intercept claims energy for no work; a negative coefficient
    lets some workload lower the prediction. Whenever a negative prediction
    is reachable, the report carries an explicit witness vector.
    """
    violations: list[Violation] = []
    if model.intercept != 0.0:
        violations.append(
            Violation(ViolationKind.NONZERO_INTERCEPT, value=model.intercept)
        )
    for name, coefficient in zip(model.pmc_names, model.coefficients):
        if coefficient < 0:
            violations.append(
                Violation(
                    ViolationKind.NEGATIVE_COEFFICIENT, pmc_name=name, value=coefficient
                )
            )
    witness = negative_witness(model)
    if witness is not None:
        violations.append(
            Violation(
                ViolationKind.NEGATIVE_PREDICTION_WITNESS,
                witness=witness,
                predicted_j=predict(model, witness),
            )
        )
    return ViolationReport(tuple(violations))


def _pmc(run: ApplicationRun | PmcVector) -> PmcVector:
    return run.pmc if isinstance(run, ApplicationRun) else run


def _in_order(names: tuple[str, ...], vector: PmcVector) -> Iterator[float]:
    """The vector's counts for ``names``, in that order."""
    return map(vector.counts.__getitem__, _positions(names, vector.names))


def compose(
    run_a: ApplicationRun | PmcVector,
    run_b: ApplicationRun | PmcVector,
    ops: OperatorTable | None = None,
) -> PmcVector:
    """Componentwise composition of two runs' PMC vectors under an operator table.

    Accepts runs or bare vectors; name sets must match (order may differ, the
    first argument's order wins). With the default all-SUM table this is
    exact vector addition.
    """
    ops = ops if ops is not None else OperatorTable()
    vec_a, vec_b = _pmc(run_a), _pmc(run_b)
    if set(vec_a.names) != set(vec_b.names):
        raise ValueError(
            f"PMC name sets differ: {sorted(vec_a.names)} vs {sorted(vec_b.names)}"
        )
    for index in ops.overrides:
        if index > len(vec_a):
            raise ValueError(
                f"operator override index {index} exceeds the {len(vec_a)}-component "
                f"PMC vector"
            )
    counts = tuple(
        ops.operator_for(k).apply(a, b)
        for k, (a, b) in enumerate(zip(vec_a.counts, _in_order(vec_a.names, vec_b)), start=1)
    )
    return PmcVector(vec_a.names, counts)


@dataclass(frozen=True)
class CompositionCounterexample:
    """One composed pair whose predicted energy is not the sum of its parts."""

    vec_a: PmcVector
    vec_b: PmcVector
    composed: PmcVector
    lhs_j: float
    rhs_j: float

    def to_json_dict(self) -> dict:
        return {
            "vec_a": self.vec_a.as_dict(),
            "vec_b": self.vec_b.as_dict(),
            "composed": self.composed.as_dict(),
            "lhs_j": self.lhs_j,
            "rhs_j": self.rhs_j,
        }


def _counterexample(
    model: EnergyModel,
    run_a: ApplicationRun | PmcVector,
    run_b: ApplicationRun | PmcVector,
    ops: OperatorTable,
    tol: float,
) -> CompositionCounterexample | None:
    """The composed pair as a counterexample if its predicted energy differs
    from the sum of its parts by more than ``tol`` times the
    cancellation-aware magnitude both sides are built from, else None."""
    vec_a, vec_b = _pmc(run_a), _pmc(run_b)
    composed = compose(vec_a, vec_b, ops)
    lhs = predict(model, composed)
    rhs = predict(model, vec_a) + predict(model, vec_b)
    scale = 0.0
    names = model.pmc_names
    for coefficient, c, a, b in zip(model.coefficients, _in_order(names, composed),
                                    _in_order(names, vec_a), _in_order(names, vec_b)):
        scale += abs(coefficient) * (abs(c) + a + b)
    if abs(lhs - rhs) > tol * scale:
        return CompositionCounterexample(vec_a, vec_b, composed, lhs, rhs)
    return None


def _require_zero_intercept(model: EnergyModel, what: str) -> None:
    if model.intercept != 0.0:
        raise ValueError(
            f"{what} is defined for zero-intercept models; this model has "
            f"intercept {model.intercept!r}"
        )


def verify_weak_composability(
    model: EnergyModel,
    pairs: Sequence[tuple[ApplicationRun | PmcVector, ApplicationRun | PmcVector]],
    ops: OperatorTable | None = None,
    tol: float = 1e-12,
) -> tuple[bool, list[CompositionCounterexample]]:
    """Check predicted-energy conservation over explicit run pairs.

    For each pair, the model's prediction for the composed vector must equal
    the sum of its per-run predictions within ``tol``, relative to the
    accumulated term magnitude (so cancellation cannot fake a failure).
    Returns overall truth plus every counterexample.
    """
    _require_zero_intercept(model, "weak composability")
    ops = ops if ops is not None else OperatorTable()
    found = (_counterexample(model, run_a, run_b, ops, tol) for run_a, run_b in pairs)
    counterexamples = [c for c in found if c is not None]
    return not counterexamples, counterexamples


@dataclass(frozen=True)
class OperatorDetection:
    """Whether replacing "+" by one operator at one position was caught."""

    operator: Operator
    pmc_index: int
    pmc_name: str
    detected: bool
    trials_used: int
    witness: CompositionCounterexample | None

    def to_json_dict(self) -> dict:
        return {
            "operator": self.operator.label(),
            "pmc_index": self.pmc_index,
            "pmc_name": self.pmc_name,
            "detected": self.detected,
            "trials_used": self.trials_used,
            "witness": self.witness.to_json_dict() if self.witness else None,
        }


@dataclass(frozen=True)
class ComposabilityReport:
    """Outcome of the randomized strong-composability check."""

    trials: int
    seed: int
    delta: float
    applicable: bool
    additive_ok: bool
    additive_counterexamples: tuple[CompositionCounterexample, ...]
    detections: tuple[OperatorDetection, ...]

    @property
    def passed(self) -> bool:
        if not self.additive_ok:
            return False
        return all(d.detected for d in self.detections)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "delta": self.delta,
            "applicable": self.applicable,
            "additive_ok": self.additive_ok,
            "additive_counterexamples": [
                c.to_json_dict() for c in self.additive_counterexamples
            ],
            "detections": [d.to_json_dict() for d in self.detections],
            "passed": self.passed,
        }


def _log_uniform_counts(rng: np.random.Generator, size) -> np.ndarray:
    low, high = COUNT_RANGE
    span = math.log10(high) - math.log10(low)
    return 10.0 ** (math.log10(low) + rng.uniform(0.0, span, size=size))


def _trial_counterexamples(
    model: EnergyModel, ops: OperatorTable, stream: Sequence[int], trials: int, tol: float
) -> Iterator[tuple[int, CompositionCounterexample]]:
    """Yield (trial, counterexample) for each violating trial, in order; each
    trial draws its pair from its own random stream ``[*stream, trial]``."""
    names = model.pmc_names
    for trial in range(trials):
        counts = _log_uniform_counts(np.random.default_rng([*stream, trial]), (2, len(names)))
        vec_a, vec_b = (PmcVector(names, tuple(row)) for row in counts)
        found = _counterexample(model, vec_a, vec_b, ops, tol)
        if found is not None:
            yield trial, found


def strong_composability_check(
    model: EnergyModel,
    trials: int = 100,
    seed: int = 0,
    *,
    delta: float = 1.0,
    tol: float = 1e-12,
) -> ComposabilityReport:
    """Randomized two-clause probe of the composability/linearity equivalence.

    Clause one: with "+" at every position, conservation must hold on every
    generated pair. Clause two: planting MAX or SUM_PLUS_DELTA(delta) at any
    position whose coefficient is nonzero must produce at least one violating
    pair within the trial budget. A model with no nonzero coefficient makes
    clause two inapplicable. Deterministic for a given seed: every trial uses
    its own derived random stream.
    """
    _require_zero_intercept(model, "strong composability")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if delta == 0.0 or not math.isfinite(delta):
        raise ValueError(f"delta must be finite and nonzero, got {delta!r}")

    sums = _trial_counterexamples(model, OperatorTable(), [seed, 0, 0], trials, tol)
    additive_counterexamples = [found for _, found in sums]

    detections: list[OperatorDetection] = []
    for op_ordinal, operator in ((1, MAX), (2, sum_plus_delta(delta))):
        for k, coefficient in enumerate(model.coefficients, start=1):
            if coefficient == 0.0:
                continue
            planted = OperatorTable(overrides={k: operator})
            trial, witness = next(
                _trial_counterexamples(model, planted, [seed, op_ordinal, k], trials, tol),
                (trials - 1, None),
            )
            detections.append(
                OperatorDetection(
                    operator=operator,
                    pmc_index=k,
                    pmc_name=model.pmc_names[k - 1],
                    detected=witness is not None,
                    trials_used=trial + 1,
                    witness=witness,
                )
            )

    return ComposabilityReport(
        trials=trials,
        seed=seed,
        delta=delta,
        applicable=any(c != 0.0 for c in model.coefficients),
        additive_ok=not additive_counterexamples,
        additive_counterexamples=tuple(additive_counterexamples),
        detections=tuple(detections),
    )


def generate_cases(
    model: EnergyModel,
    n_cases: int,
    seed: int = 0,
    noise_sigma: float = 0.0,
) -> list[tuple[PmcVector, float]]:
    """Synthetic (pmc, measured energy) cases drawn around a generating model.

    Counts are log-uniform over the standard range; measured energy is the
    model's prediction plus Gaussian noise of the given standard deviation.
    With zero noise the generating model evaluates to zero error on its own
    cases.
    """
    if n_cases < 1:
        raise ValueError(f"n_cases must be >= 1, got {n_cases}")
    if noise_sigma < 0 or not math.isfinite(noise_sigma):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma!r}")
    cases: list[tuple[PmcVector, float]] = []
    for i in range(n_cases):
        rng = np.random.default_rng([seed, i])
        vec = PmcVector(model.pmc_names, tuple(_log_uniform_counts(rng, len(model.pmc_names))))
        measured = predict(model, vec)
        if noise_sigma > 0:
            measured += float(rng.normal(0.0, noise_sigma))
        cases.append((vec, measured))
    return cases
