"""Correlation analysis and the three linear energy-model families.

Models map a PMC vector to dynamic energy in joules. The three families
differ only in their constraints: ordinary least squares with an intercept,
least squares through the origin, and non-negative least squares through the
origin. OLS goes through a QR factorization rather than normal equations
because PMC columns tend to be strongly collinear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Sequence

import numpy as np

from .core import Dataset, EnergyModel, ModelKind, PmcVector

__all__ = [
    "UNDEFINED",
    "CorrelationMatrix",
    "ErrorSummary",
    "correlation_matrix",
    "fit",
    "predict",
    "evaluate",
    "nnls",
]

#: Sentinel for a correlation against a constant column: Pearson's r is
#: undefined when one side has zero variance.
UNDEFINED = math.nan

#: Reject a design matrix whose QR triangular factor has a diagonal ratio
#: below this: the columns are numerically dependent.
RANK_RATIO_THRESHOLD = 1e-10

#: NNLS active-set iteration budget, as a multiple of the predictor count.
NNLS_ITERATION_FACTOR = 3

#: Relative optimality tolerance for the NNLS active-set loop.
NNLS_TOLERANCE = 1e-10

TARGET_LABEL = "dynamic_energy"


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric Pearson matrix over the target column and selected PMCs.

    ``labels[0]`` is the target; entries involving a constant column hold
    :data:`UNDEFINED` (NaN).
    """

    labels: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "values", tuple(tuple(row) for row in self.values))
        k = len(self.labels)
        if len(self.values) != k or any(len(row) != k for row in self.values):
            raise ValueError("correlation matrix shape does not match its labels")

    def get(self, label_a: str, label_b: str) -> float:
        i = self.labels.index(label_a)
        j = self.labels.index(label_b)
        return self.values[i][j]

    def to_csv(self) -> str:
        lines = ["," + ",".join(self.labels)]
        for label, row in zip(self.labels, self.values):
            cells = ",".join("nan" if math.isnan(v) else repr(v) for v in row)
            lines.append(f"{label},{cells}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "values": [
                [None if math.isnan(v) else v for v in row] for row in self.values
            ],
        }


@dataclass(frozen=True)
class ErrorSummary:
    """Min/mean/max percentage prediction error over a set of cases."""

    min_pct: float
    avg_pct: float
    max_pct: float
    n_cases: int

    def __post_init__(self) -> None:
        if self.n_cases < 1:
            raise ValueError(f"n_cases must be >= 1, got {self.n_cases}")
        if not (0 <= self.min_pct <= self.avg_pct <= self.max_pct):
            raise ValueError(
                f"error summary out of order: min={self.min_pct!r} "
                f"avg={self.avg_pct!r} max={self.max_pct!r}"
            )

    def to_json_dict(self) -> dict:
        return {
            "min_pct": self.min_pct,
            "avg_pct": self.avg_pct,
            "max_pct": self.max_pct,
            "n_cases": self.n_cases,
        }


def _centred(column: np.ndarray) -> tuple[np.ndarray, float]:
    """A column minus its mean, and the Euclidean norm of that difference,
    both for the column times 2**-e, where 2**e bounds its largest magnitude.

    Pearson's r does not change when a column is scaled, and a power of two
    scales every step exactly, so r keeps its bits wherever the unscaled
    arithmetic neither overflows nor underflows. Scaled, the deviations'
    squares can do neither: deviations of 1e200 or of 1e-200 give r, not NaN.
    """
    _, exponent = math.frexp(float(np.abs(column).max()))
    column = np.ldexp(column, -exponent)
    deviations = column - column.mean()
    return deviations, float(np.sqrt(deviations @ deviations))


def _pearson(u: tuple[np.ndarray, float], v: tuple[np.ndarray, float]) -> float:
    """Pearson's r of two :func:`_centred` columns, clamped to [-1, 1]."""
    (du, nu), (dv, nv) = u, v
    if nu == 0.0 or nv == 0.0:
        return UNDEFINED
    r = float((du @ dv) / (nu * nv))
    return max(-1.0, min(1.0, r))


def _column_indices(dataset: Dataset, names: Sequence[str]) -> list[int]:
    """Counts-matrix columns of the named PMCs; KeyError if unknown, ValueError if repeated."""
    position = {name: i for i, name in enumerate(dataset.pmc_names)}
    for k, name in enumerate(names):
        if name not in position:
            raise KeyError(f"PMC {name!r} not in dataset")
        if name in names[:k]:
            raise ValueError(f"PMC {name!r} is listed twice")
    return [position[name] for name in names]


def correlation_matrix(dataset: Dataset, pmcs: Sequence[str] | None = None) -> CorrelationMatrix:
    """Pearson correlations of dynamic energy and PMCs over all runs. Each
    column is centred once; each pair then takes one dot product."""
    if len(dataset.runs) < 2:
        raise ValueError(f"need >= 2 runs for correlations, got {len(dataset.runs)}")
    names = tuple(pmcs) if pmcs is not None else dataset.pmc_names
    columns = [np.array([run.dynamic_energy_j for run in dataset.runs], dtype=float)]
    columns += [dataset.counts[:, i] for i in _column_indices(dataset, names)]

    k = len(columns)
    centred = [_centred(col) for col in columns]
    values = [[UNDEFINED] * k for _ in range(k)]
    for i in range(k):
        values[i][i] = UNDEFINED if float(np.ptp(columns[i])) == 0.0 else 1.0
        for j in range(i + 1, k):
            values[i][j] = values[j][i] = _pearson(centred[i], centred[j])
    return CorrelationMatrix(labels=(TARGET_LABEL,) + names, values=tuple(map(tuple, values)))


def _qr_solve(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares via reduced QR, rejecting numerically rank-deficient input."""
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    largest = diag.max() if diag.size else 0.0
    if largest == 0.0 or diag.min() / largest < RANK_RATIO_THRESHOLD:
        raise ValueError(
            "design matrix is numerically rank-deficient; drop collinear or "
            "constant PMC columns"
        )
    return np.linalg.solve(r, q.T @ y)


def nnls(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Non-negative least squares by the Lawson-Hanson active-set method.

    The passive set grows by the most positive component of w = X'(y - Xb)
    and shrinks whenever a passive-set least-squares solution goes
    non-positive. Terminates when no inactive component of w exceeds a
    relative tolerance; raises RuntimeError if the iteration budget
    (3 x predictors) is exhausted, which signals pathological conditioning.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = design.shape
    if y.shape != (m,):
        raise ValueError(f"y has shape {y.shape}, expected ({m},)")

    beta = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    scale = float(np.abs(design.T @ y).max()) if n else 0.0
    if scale == 0.0:
        return beta
    tolerance = NNLS_TOLERANCE * scale
    budget = NNLS_ITERATION_FACTOR * n
    iterations = 0

    while True:
        w = design.T @ (y - design @ beta)
        w_inactive = np.where(passive, -np.inf, w)
        j = int(np.argmax(w_inactive))
        if w_inactive[j] <= tolerance:
            return beta
        passive[j] = True

        while True:
            iterations += 1
            if iterations > budget:
                raise RuntimeError(
                    f"non-negative least squares did not converge within "
                    f"{budget} active-set iterations"
                )
            trial = np.zeros(n)
            trial[passive], *_ = np.linalg.lstsq(design[:, passive], y, rcond=None)
            if np.all(trial[passive] > 0):
                beta = trial
                break
            # Step from beta toward the trial solution until the first passive
            # coordinate hits zero, then drop every coordinate that reached it.
            blocked = np.flatnonzero(passive & (trial <= 0))
            gaps = beta[blocked] - trial[blocked]
            safe = np.where(gaps > 0, gaps, 1.0)
            steps = np.where(gaps > 0, beta[blocked] / safe, 0.0)
            hit = blocked[int(np.argmin(steps))]
            beta = beta + float(steps.min()) * (trial - beta)
            beta[hit] = 0.0
            passive[hit] = False
            landed = passive & (beta <= 0.0)
            beta[landed] = 0.0
            passive[landed] = False


def fit(dataset: Dataset, pmcs: Sequence[str] | None = None,
        kind: ModelKind = ModelKind.UNCONSTRAINED) -> EnergyModel:
    """Fit a linear dynamic-energy model of the given kind on the dataset's runs.

    Requires more runs than fitted parameters. The QR kinds (``unconstrained``,
    ``zero_intercept``) reject a numerically rank-deficient design with
    ValueError; ``zero_intercept_nonneg`` returns a non-negative minimizer,
    not unique on such a design. The model meets its kind's invariants.
    """
    kind = ModelKind(kind)
    names = tuple(pmcs) if pmcs is not None else dataset.pmc_names
    if not names:
        raise ValueError("need at least one PMC to fit")
    columns = _column_indices(dataset, names)
    offset = 1 if kind is ModelKind.UNCONSTRAINED else 0
    parameters = len(names) + offset
    if len(dataset.runs) <= parameters:
        raise ValueError(
            f"need more runs than parameters: {len(dataset.runs)} runs for "
            f"{parameters} parameters"
        )

    # Filled column by column, so no second runs x PMCs copy is held.
    design = np.ones((len(dataset.runs), parameters))
    for k, column in enumerate(columns):
        design[:, offset + k] = dataset.counts[:, column]
    y = np.array([run.dynamic_energy_j for run in dataset.runs])

    if kind is ModelKind.UNCONSTRAINED:
        solution = _qr_solve(design, y)
        intercept, coefficients = float(solution[0]), solution[1:]
    elif kind is ModelKind.ZERO_INTERCEPT:
        intercept, coefficients = 0.0, _qr_solve(design, y)
    else:
        intercept, coefficients = 0.0, nnls(design, y)

    return EnergyModel(
        pmc_names=names,
        intercept=intercept,
        coefficients=tuple(float(c) for c in coefficients),
        kind=kind,
    )


def predict(model: EnergyModel, pmc: PmcVector) -> float:
    """Predicted dynamic energy: intercept plus the coefficient dot product.

    The vector may carry extra PMCs; every model PMC must be present. May be
    negative for models whose constraints permit it.
    """
    counts = pmc.counts
    total = model.intercept
    for position, coefficient in zip(_positions(model.pmc_names, pmc.names), model.coefficients):
        total += coefficient * counts[position]
    return total


def _predict_rows(intercept: float, coefficients: Sequence[float], counts: np.ndarray
                  ) -> np.ndarray:
    """:func:`predict` for each row of ``counts`` (columns: the model's PMCs,
    in model order), bit for bit: the one array form of the model-order sum.
    Totals start at the intercept and add ``coefficient * column`` one column
    at a time, never a matrix product, which BLAS would sum in another order.
    An overflow gives the scalar sum's inf or NaN, without a numpy warning."""
    totals = np.full(len(counts), intercept, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, coefficient in enumerate(coefficients):
            totals += coefficient * counts[:, j]
    return totals


@lru_cache(maxsize=64)
def _positions(wanted: tuple[str, ...], names: tuple[str, ...]) -> tuple[int, ...]:
    """The position in ``names`` of each name in ``wanted``."""
    index = {name: i for i, name in enumerate(names)}
    for name in wanted:
        if name not in index:
            raise KeyError(f"PMC {name!r} not present in vector")
    return tuple(map(index.__getitem__, wanted))


def evaluate(model: EnergyModel, cases: Sequence[tuple[PmcVector, float]]) -> ErrorSummary:
    """Percentage prediction errors (min, avg, max) over measured cases.

    Every measured energy must be positive and every prediction finite;
    errors are on dynamic energy. All cases are predicted at once by
    :func:`_predict_rows`.
    """
    if not cases:
        raise ValueError("need at least one (pmc, measured) case")
    rows, measured, names = [], [], None
    for pmc, energy in cases:
        if pmc.names is not names:
            names = pmc.names
            positions = _positions(model.pmc_names, names)
            pick = itemgetter(*positions) if positions else (lambda counts: ())
        if energy <= 0:
            raise ValueError(f"measured must be > 0, got {energy!r}")
        rows.append(pick(pmc.counts))
        measured.append(energy)
    counts = np.array(rows, dtype=float).reshape(len(rows), len(model.pmc_names))
    totals = _predict_rows(model.intercept, model.coefficients, counts)
    unpredictable = np.flatnonzero(~np.isfinite(totals))
    if unpredictable.size:
        case = int(unpredictable[0])
        raise ValueError(f"prediction for case {case + 1} is not finite: {float(totals[case])!r}")
    energies = np.array(measured, dtype=float)
    with np.errstate(over="ignore"):
        errors = (np.abs(totals - energies) / energies * 100.0).tolist()
    low, high = min(errors), max(errors)
    avg = min(max(math.fsum(errors) / len(errors), low), high)
    return ErrorSummary(min_pct=low, avg_pct=avg, max_pct=high, n_cases=len(errors))
