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
from typing import Mapping, Sequence

import numpy as np

from .core import ApplicationRun, EnergyModel, PmcVector
from .fitting import _positions, _predict_rows, predict

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

#: The most trial rows one kernel call holds, so the probe's memory stays
#: bounded whatever the trial count. Reports do not depend on it: every
#: trial draws from its own stream and is checked on its own row.
_MAX_ROWS = 4096


def _max(a, b, delta):
    """MAX keeps ``a`` on a tie, as Python's ``max`` does, so ``0.0`` against
    ``-0.0`` stays ``0.0``; on arrays, elementwise."""
    if isinstance(a, np.ndarray):
        return np.where(b > a, b, a)
    return max(a, b)


#: Each operator kind as a function of ``(a, b, delta)``, on scalars or
#: elementwise on whole arrays of counts.
_OPERATOR_KINDS = {
    "sum": lambda a, b, delta: a + b,
    "max": _max,
    "sum_plus_delta": lambda a, b, delta: a + b + delta,
}


@dataclass(frozen=True)
class Operator:
    """Componentwise composition operator for one PMC position."""

    kind: str
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _OPERATOR_KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if not math.isfinite(self.delta):
            raise ValueError(f"operator delta must be finite, got {self.delta!r}")
        if self.kind != "sum_plus_delta" and self.delta != 0.0:
            raise ValueError(f"{self.kind} operator takes no delta")

    def apply(self, a: float, b: float) -> float:
        """The composed count of ``a`` and ``b``; the probe's kernel also
        passes equal-shape arrays, composed elementwise."""
        return _OPERATOR_KINDS[self.kind](a, b, self.delta)

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


# The array kernel. Rows are composed pairs (explicit pairs or seeded trials);
# columns are PMC positions. Every value is computed with the same IEEE
# operations, in the same order, as the scalar definition it replaces:
# ``Operator.apply`` per count, and ``predict``'s left-to-right sum per row.


@np.errstate(all="ignore")
def _compose(a: np.ndarray, b: np.ndarray, default: Operator, planted=()) -> np.ndarray:
    """``default`` at every element, then each ``(rows, columns, operator)``
    of ``planted`` at the elements it indexes."""
    composed = default.apply(a, b)
    for rows, columns, operator in planted:
        composed[rows, columns] = operator.apply(a[rows, columns], b[rows, columns])
    return composed


def _sums(model: EnergyModel, a, b, composed) -> tuple[np.ndarray, ...]:
    """Per row: the predicted energy of the composition (lhs), the sum of the
    parts' predictions (rhs), and the cancellation-aware magnitude both are
    built from. The columns are the model's PMCs, in model order."""
    lhs, part_a, part_b = (_predict_rows(model.intercept, model.coefficients, m)
                           for m in (composed, a, b))
    scale = _predict_rows(0.0, [abs(c) for c in model.coefficients], np.abs(composed) + a + b)
    return lhs, part_a + part_b, scale


@np.errstate(all="ignore")
def _flagged(model: EnergyModel, columns, a, b, composed, tol: float) -> tuple[np.ndarray, ...]:
    """Per row: lhs, rhs, and whether the row stops a trial loop: its composed
    counts are not a valid PMC vector, or lhs and rhs differ by more than
    ``tol`` times the scale. ``columns`` picks the model's PMCs, in order.

    A row whose lhs, rhs or scale overflowed is compared again on its three
    count vectors times 2**-s, with s the least shift that bounds the scale
    below 2**1023. Scaling every count by a power of two scales every term
    exactly (unless it falls below the normal range), so the verdict is the
    one unbounded exponents would give; lhs and rhs are reported unscaled.
    """
    picked = [m[:, columns] for m in (a, b, composed)]
    lhs, rhs, scale = _sums(model, *picked)
    gap, bound = np.abs(lhs - rhs), tol * scale
    overflowed = np.flatnonzero(~(np.isfinite(lhs) & np.isfinite(rhs) & np.isfinite(scale)))
    if overflowed.size:
        rows = [m[overflowed] for m in picked]
        # |c| < 2**e_c and each count < 2**e_m, so the scale is below
        # 3n * 2**max(e_c + e_m) <= 2**(max(e_c + e_m) + bit_length(3n)).
        _, e_c = np.frexp(np.array(model.coefficients))
        _, e_m = np.frexp(np.maximum.reduce([np.abs(m) for m in rows]))
        top = (e_c + e_m).max(axis=1, initial=0)
        shift = np.maximum(top + (3 * len(model.coefficients)).bit_length() - 1023, 0)
        scaled = (np.ldexp(m, -shift[:, None]) for m in rows)
        lhs_s, rhs_s, scale_s = _sums(model, *scaled)
        gap[overflowed], bound[overflowed] = np.abs(lhs_s - rhs_s), tol * scale_s
    invalid = ~np.isfinite(composed) | (composed < 0)
    return lhs, rhs, invalid.any(axis=1) | (gap > bound)


def _compose_pair(vec_a: PmcVector, vec_b: PmcVector, ops: OperatorTable
                  ) -> tuple[np.ndarray, ...]:
    """One-row arrays of the counts of ``vec_a`` and of ``vec_b``, both in
    ``vec_a``'s order, and their composition under ``ops``."""
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
    a = np.array([vec_a.counts])
    b = np.array([vec_b.counts])[:, list(_positions(vec_a.names, vec_b.names))]
    planted = [(slice(None), index - 1, op) for index, op in ops.overrides.items()]
    return a, b, _compose(a, b, ops.default, planted)


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
    vec_a = _pmc(run_a)
    _, _, composed = _compose_pair(vec_a, _pmc(run_b), ops or OperatorTable())
    return PmcVector(vec_a.names, tuple(composed[0].tolist()))


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
            "lhs_j": _finite_or_none(self.lhs_j),
            "rhs_j": _finite_or_none(self.rhs_j),
        }


def _finite_or_none(energy: float) -> float | None:
    """JSON has no infinity: an energy that overflowed is reported as null."""
    return energy if math.isfinite(energy) else None


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
    counterexamples: list[CompositionCounterexample] = []
    for run_a, run_b in pairs:
        vec_a, vec_b = _pmc(run_a), _pmc(run_b)
        a, b, composed = _compose_pair(vec_a, vec_b, ops or OperatorTable())
        # Built before the model's columns are looked up, so an invalid
        # composed count is reported ahead of a PMC the model lacks.
        composed_vec = PmcVector(vec_a.names, tuple(composed[0].tolist()))
        columns = list(_positions(model.pmc_names, vec_a.names))
        lhs, rhs, flagged = _flagged(model, columns, a, b, composed, tol)
        if flagged[0]:
            counterexamples.append(CompositionCounterexample(
                vec_a, vec_b, composed_vec, float(lhs[0]), float(rhs[0])
            ))
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


def _require_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _log_uniform_counts(rng: np.random.Generator, size) -> np.ndarray:
    low, high = COUNT_RANGE
    span = math.log10(high) - math.log10(low)
    return 10.0 ** (math.log10(low) + rng.uniform(0.0, span, size=size))


def _draw_pairs(n: int, streams: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """One trial per stream: its pair of n-PMC count vectors, drawn from
    ``np.random.default_rng(stream)``, as rows of ``a`` and of ``b``."""
    pairs = np.array([
        _log_uniform_counts(np.random.default_rng(stream), (2, n)) for stream in streams
    ]).reshape(len(streams), 2, n)
    return pairs[:, 0], pairs[:, 1]


def _trial_witness(names: tuple[str, ...], a, b, composed, lhs, rhs) -> CompositionCounterexample:
    """The counterexample of one flagged trial row; a row whose composed
    counts are invalid raises the ``PmcVector`` error for its first one."""
    return CompositionCounterexample(
        PmcVector(names, tuple(a.tolist())),
        PmcVector(names, tuple(b.tolist())),
        PmcVector(names, tuple(composed.tolist())),
        float(lhs),
        float(rhs),
    )


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
    clause two inapplicable. Deterministic for a given seed: trial ``t`` of
    the additive clause draws its pair from the stream ``[seed, 0, 0, t]``,
    and of operator ``o`` (1 MAX, 2 SUM_PLUS_DELTA) planted at position ``k``
    from ``[seed, o, k, t]``.

    The additive clause runs in batches of up to ``_MAX_ROWS`` trials; the
    planted clauses still undetected share rounds of 1, 4, 16, ... trials
    (fewer when the round would pass ``_MAX_ROWS`` rows), each keeping its
    first violating trial. The report, and the ``ValueError`` for a composed
    count a negative ``delta`` made invalid, are those of a trial-by-trial
    loop over the clauses in report order.
    """
    _require_zero_intercept(model, "strong composability")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if delta == 0.0 or not math.isfinite(delta):
        raise ValueError(f"delta must be finite and nonzero, got {delta!r}")
    _require_seed(seed)
    names = model.pmc_names
    n = len(names)
    columns = slice(None)

    additive_counterexamples: list[CompositionCounterexample] = []
    for start in range(0, trials, _MAX_ROWS):
        block = range(start, min(start + _MAX_ROWS, trials))
        a, b = _draw_pairs(n, [[seed, 0, 0, t] for t in block])
        composed = _compose(a, b, SUM)
        lhs, rhs, flagged = _flagged(model, columns, a, b, composed, tol)
        additive_counterexamples += [
            _trial_witness(names, a[i], b[i], composed[i], lhs[i], rhs[i])
            for i in np.flatnonzero(flagged).tolist()
        ]

    clauses = [
        (ordinal, operator, k)
        for ordinal, operator in ((1, MAX), (2, sum_plus_delta(delta)))
        for k, coefficient in enumerate(model.coefficients, start=1)
        if coefficient != 0.0
    ]
    first_flagged: dict[int, tuple] = {}
    undetected = list(range(len(clauses)))
    start, size = 0, 1
    while undetected and start < trials:
        # However many clauses share a round, it holds at most _MAX_ROWS rows.
        width = min(size, max(_MAX_ROWS // len(undetected), 1), trials - start)
        block = range(start, start + width)
        a, b = _draw_pairs(
            n, [[seed, clauses[c][0], clauses[c][2], t] for c in undetected for t in block]
        )
        planted = [
            (slice(i * width, (i + 1) * width), clauses[c][2] - 1, clauses[c][1])
            for i, c in enumerate(undetected)
        ]
        composed = _compose(a, b, SUM, planted)
        lhs, rhs, flagged = _flagged(model, columns, a, b, composed, tol)
        for i, c in enumerate(undetected):
            hits = np.flatnonzero(flagged[i * width:(i + 1) * width]).tolist()
            if hits:
                row = i * width + hits[0]
                first_flagged[c] = (
                    start + hits[0], a[row], b[row], composed[row], lhs[row], rhs[row]
                )
        undetected = [c for c in undetected if c not in first_flagged]
        start, size = block.stop, 4 * size

    detections: list[OperatorDetection] = []
    for c, (_, operator, k) in enumerate(clauses):
        trial, witness = trials - 1, None
        if c in first_flagged:
            trial, *row = first_flagged[c]
            witness = _trial_witness(names, *row)
        detections.append(
            OperatorDetection(
                operator=operator,
                pmc_index=k,
                pmc_name=names[k - 1],
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
    _require_seed(seed)
    cases: list[tuple[PmcVector, float]] = []
    for i in range(n_cases):
        rng = np.random.default_rng([seed, i])
        vec = PmcVector(model.pmc_names, tuple(_log_uniform_counts(rng, len(model.pmc_names))))
        measured = predict(model, vec)
        if noise_sigma > 0:
            measured += float(rng.normal(0.0, noise_sigma))
        cases.append((vec, measured))
    return cases
