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
from enum import Enum
from typing import TYPE_CHECKING, Mapping, Sequence

from ._common import _finite_or_none, _Record
from .model import ApplicationRun, EnergyModel, PmcVector, _positions, _predict_rows, predict

if TYPE_CHECKING:  # numpy is imported by the composability probe alone, when it runs
    import numpy as np

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

#: Synthetic PMC counts are drawn log-uniformly per octave from this range,
#: wide enough to cover both rare-event counters and retired-instruction totals.
_OCTAVES = 37
COUNT_RANGE = (1.0, 2.0 ** _OCTAVES)

#: The probe's first round shares ``_FIRST_ROWS`` trial rows among its live
#: clauses and each later round twice as many, up to ``_MAX_ROWS``: a clause
#: caught early draws few trials, and memory is bounded whatever the trial
#: count. Reports depend on neither: row t of a clause's stream is its trial t.
_FIRST_ROWS = 128
_MAX_ROWS = 4096


def _max(a, b, delta):
    """MAX keeps ``a`` on a tie, as Python's ``max`` does, so ``0.0`` against
    ``-0.0`` stays ``0.0``; on arrays, elementwise."""
    np = sys.modules.get("numpy")  # an array exists only once numpy is loaded
    if np is not None and isinstance(a, np.ndarray):
        return np.where(b > a, b, a)
    return max(a, b)


#: Each operator kind as a function of ``(a, b, delta)``, on scalars or
#: elementwise on whole arrays of counts.
_OPERATOR_KINDS = {
    "sum": lambda a, b, delta: a + b,
    "max": _max,
    "sum_plus_delta": lambda a, b, delta: a + b + delta,
}


class Operator(_Record):
    """Componentwise composition operator for one PMC position."""

    __slots__ = _FIELDS = ("kind", "delta")

    def __init__(self, kind: str, delta: float = 0.0) -> None:
        self._set(kind, delta)
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


class OperatorTable(_Record):
    """Composition operators per PMC position.

    ``overrides`` maps 1-based PMC positions to an operator; positions not
    overridden use ``default``.
    """

    __slots__ = _FIELDS = ("default", "overrides")

    def __init__(self, default: Operator = SUM, overrides: Mapping[int, Operator] = {}) -> None:
        self._set(default, dict(overrides))
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


class Violation(_Record):
    __slots__ = _FIELDS = ("kind", "pmc_name", "value", "witness", "predicted_j")

    def __init__(self, kind: ViolationKind, pmc_name: str | None = None,
                 value: float | None = None, witness: PmcVector | None = None,
                 predicted_j: float | None = None) -> None:
        self._set(kind, pmc_name, value, witness, predicted_j)

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


class ViolationReport(_Record):
    __slots__ = _FIELDS = ("violations",)

    def __init__(self, violations: Sequence[Violation]) -> None:
        self._set(tuple(violations))

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


def _compose(a: np.ndarray, b: np.ndarray, default: Operator, planted=()) -> np.ndarray:
    """``default`` at every element, then each ``(rows, columns, operator)``
    of ``planted`` at the elements it indexes."""
    import numpy as np
    with np.errstate(all="ignore"):
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
    scale = _predict_rows(0.0, [abs(c) for c in model.coefficients], abs(composed) + a + b)
    return lhs, part_a + part_b, scale


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
    import numpy as np
    with np.errstate(all="ignore"):
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
    import numpy as np
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


class CompositionCounterexample(_Record):
    """One composed pair whose predicted energy is not the sum of its parts."""

    __slots__ = _FIELDS = ("vec_a", "vec_b", "composed", "lhs_j", "rhs_j")

    def __init__(self, vec_a: PmcVector, vec_b: PmcVector, composed: PmcVector, lhs_j: float,
                 rhs_j: float) -> None:
        self._set(vec_a, vec_b, composed, lhs_j, rhs_j)

    def to_json_dict(self) -> dict:
        return {
            "vec_a": self.vec_a.as_dict(),
            "vec_b": self.vec_b.as_dict(),
            "composed": self.composed.as_dict(),
            "lhs_j": _finite_or_none(self.lhs_j),
            "rhs_j": _finite_or_none(self.rhs_j),
        }


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


class OperatorDetection(_Record):
    """Whether replacing "+" by one operator at one position was caught."""

    __slots__ = _FIELDS = ("operator", "pmc_index", "pmc_name", "detected", "trials_used",
                           "witness")

    def __init__(self, operator: Operator, pmc_index: int, pmc_name: str, detected: bool,
                 trials_used: int, witness: CompositionCounterexample | None) -> None:
        self._set(operator, pmc_index, pmc_name, detected, trials_used, witness)

    def to_json_dict(self) -> dict:
        return {
            "operator": self.operator.label(),
            "pmc_index": self.pmc_index,
            "pmc_name": self.pmc_name,
            "detected": self.detected,
            "trials_used": self.trials_used,
            "witness": self.witness.to_json_dict() if self.witness else None,
        }


class ComposabilityReport(_Record):
    """Outcome of the randomized strong-composability check."""

    __slots__ = _FIELDS = ("trials", "seed", "delta", "applicable", "additive_ok",
                           "additive_counterexamples", "detections")

    def __init__(self, trials: int, seed: int, delta: float, applicable: bool, additive_ok: bool,
                 additive_counterexamples: tuple[CompositionCounterexample, ...],
                 detections: tuple[OperatorDetection, ...]) -> None:
        self._set(trials, seed, delta, applicable, additive_ok, additive_counterexamples,
                  detections)

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


def _require_int(name: str, value, least: int) -> None:
    """A ``ValueError`` naming ``name`` unless ``value`` is an int, not a bool, >= ``least``."""
    import numpy as np
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        bound = "a non-negative integer" if least == 0 else f"an integer >= {least}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")


def _counts(u: np.ndarray) -> np.ndarray:
    """The counts of the uniforms ``u`` from a stream's ``random``, two per
    count on the last axis: ``ldexp(1 + u1, floor(u2 * 37))``, so every octave
    of ``COUNT_RANGE`` is equally likely. Only correctly rounded operations
    make a count, so it is the same on every machine; and as each value takes
    one 64-bit word, rows drawn in blocks equal rows drawn at once."""
    import numpy as np
    return np.ldexp(1.0 + u[..., 0], np.floor(u[..., 1] * _OCTAVES).astype(np.intc))


def _trial_witness(names: tuple[str, ...], a, b, composed, lhs, rhs) -> CompositionCounterexample:
    """The counterexample of one flagged trial row; a row whose composed
    counts are invalid raises the ``PmcVector`` error for its first one.
    ``a`` and ``b``, finite and positive from ``_counts``, skip the check,
    as do composed counts of a finite sum (no NaN or inf) and no negative."""
    counts = tuple(composed.tolist())
    valid = min(counts, default=0.0) >= 0.0 and math.isfinite(sum(counts))
    vector_a, vector_b, vector = PmcVector._built(
        3, (names,) * 3, (tuple(a.tolist()), tuple(b.tolist()), counts))
    return CompositionCounterexample(vector_a, vector_b,
                                     vector if valid else PmcVector(names, counts),
                                     float(lhs), float(rhs))


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
    clause two inapplicable.

    Deterministic for a given seed, and the same on every machine: each
    clause draws from one stream, ``np.random.default_rng([seed, o, k])``
    with ``o`` 0 for the additive clause (``k`` 0), 1 for MAX and 2 for
    SUM_PLUS_DELTA planted at the 1-based position ``k``. Row ``t`` of a
    stream, ``2 * PMCs`` counts made by ``_counts``, is trial ``t``:
    the first run's counts, then the second's.

    The live clauses share each round's rows evenly: ``_FIRST_ROWS`` in the
    first, twice the last round's budget in each later one, up to ``_MAX_ROWS``
    (at least one per clause). The additive clause keeps every violating trial;
    a planted clause keeps its first and drops out. The report, and the
    ``ValueError`` for a composed count a negative ``delta`` made invalid, are
    those of a trial-by-trial loop over the clauses in report order.
    """
    _require_zero_intercept(model, "strong composability")
    _require_int("trials", trials, 1)
    if delta == 0.0 or not math.isfinite(delta):
        raise ValueError(f"delta must be finite and nonzero, got {delta!r}")
    _require_int("seed", seed, 0)
    import numpy as np
    names = model.pmc_names
    n = len(names)
    clauses = [(0, SUM, 0)] + [
        (ordinal, operator, k)
        for ordinal, operator in ((1, MAX), (2, sum_plus_delta(delta)))
        for k, coefficient in enumerate(model.coefficients, start=1)
        if coefficient != 0.0
    ]
    streams = [np.random.default_rng([seed, o, k]) for o, _, k in clauses]
    hits: list[list[tuple]] = [[] for _ in clauses]
    live, start, budget = list(range(len(clauses))), 0, min(_FIRST_ROWS, _MAX_ROWS)
    while start < trials:
        width = min(max(budget // len(live), 1), trials - start)
        u = np.empty((len(live) * width, 2 * n, 2))
        for i, c in enumerate(live):
            streams[c].random(out=u[i * width:(i + 1) * width])
        counts = _counts(u)
        a, b = counts[:, :n], counts[:, n:]
        planted = [(slice(i * width, (i + 1) * width), clauses[c][2] - 1, clauses[c][1])
                   for i, c in enumerate(live) if c]
        composed = _compose(a, b, SUM, planted)
        lhs, rhs, flagged = _flagged(model, slice(None), a, b, composed, tol)
        for row in np.flatnonzero(flagged).tolist():
            c = live[row // width]
            if c == 0 or not hits[c]:
                hits[c].append((start + row % width,
                                *(m[row] for m in (a, b, composed, lhs, rhs))))
        live = [c for c in live if c == 0 or not hits[c]]
        start += width
        budget = min(2 * budget, _MAX_ROWS)

    # In report order, so the first invalid witness raises as a clause loop would.
    additive_counterexamples = [_trial_witness(names, *row) for _, *row in hits[0]]
    detections = [
        OperatorDetection(
            operator=operator,
            pmc_index=k,
            pmc_name=names[k - 1],
            detected=bool(found),
            trials_used=found[0][0] + 1 if found else trials,
            witness=_trial_witness(names, *found[0][1:]) if found else None,
        )
        for (_, operator, k), found in zip(clauses[1:], hits[1:])
    ]

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

    Row ``i`` of the stream ``np.random.default_rng(seed)``, drawn as the
    probe draws its counts, is case ``i``'s counts; measured energy is the
    model's prediction plus Gaussian noise of the given standard deviation,
    drawn from the same stream after every case's counts. With zero noise the
    generating model evaluates to zero error on its own cases.
    """
    _require_int("n_cases", n_cases, 1)
    if noise_sigma < 0 or not math.isfinite(noise_sigma):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma!r}")
    _require_int("seed", seed, 0)
    import numpy as np
    rng = np.random.default_rng(seed)
    counts = _counts(rng.random((n_cases, len(model.pmc_names), 2)))
    measured = _predict_rows(model.intercept, model.coefficients, counts)
    if noise_sigma > 0:
        measured += rng.normal(0.0, noise_sigma, n_cases)
    return [(PmcVector(model.pmc_names, tuple(row)), energy)
            for row, energy in zip(counts.tolist(), measured.tolist())]
