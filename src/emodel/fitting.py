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
from typing import Sequence

import numpy as np

from .core import Dataset, EnergyModel, ModelKind, PmcVector
from .stats import percent_error

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


def _pearson(u: np.ndarray, v: np.ndarray) -> float:
    du = u - u.mean()
    dv = v - v.mean()
    nu = float(np.sqrt(du @ du))
    nv = float(np.sqrt(dv @ dv))
    if nu == 0.0 or nv == 0.0:
        return UNDEFINED
    r = float((du @ dv) / (nu * nv))
    return max(-1.0, min(1.0, r))


def _column_indices(dataset: Dataset, names: Sequence[str]) -> list[int]:
    """Counts-matrix columns of the named PMCs; KeyError for an unknown name."""
    position = {name: i for i, name in enumerate(dataset.pmc_names)}
    for name in names:
        if name not in position:
            raise KeyError(f"PMC {name!r} not in dataset")
    return [position[name] for name in names]


def correlation_matrix(
    dataset: Dataset,
    pmcs: Sequence[str] | None = None,
    target: str = TARGET_LABEL,
) -> CorrelationMatrix:
    """Pearson correlations of dynamic energy and PMCs over all runs."""
    if target != TARGET_LABEL:
        raise ValueError(f"unsupported target {target!r}; only {TARGET_LABEL!r} is defined")
    if len(dataset.runs) < 2:
        raise ValueError(f"need >= 2 runs for correlations, got {len(dataset.runs)}")
    names = tuple(pmcs) if pmcs is not None else dataset.pmc_names
    columns = [np.array([run.dynamic_energy_j for run in dataset.runs], dtype=float)]
    columns += [dataset.counts[:, i].copy() for i in _column_indices(dataset, names)]

    k = len(columns)
    constant = [float(np.ptp(col)) == 0.0 for col in columns]
    values = [[UNDEFINED] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            if i == j:
                r = UNDEFINED if constant[i] else 1.0
            else:
                r = _pearson(columns[i], columns[j])
            values[i][j] = r
            values[j][i] = r
    return CorrelationMatrix(labels=(target,) + names, values=tuple(map(tuple, values)))


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

    Every measured energy must be positive; errors are on dynamic energy.
    """
    if not cases:
        raise ValueError("need at least one (pmc, measured) case")
    errors = [percent_error(predict(model, pmc), measured) for pmc, measured in cases]
    low, high = min(errors), max(errors)
    avg = math.fsum(errors) / len(errors)
    return ErrorSummary(
        min_pct=low,
        avg_pct=min(max(avg, low), high),
        max_pct=high,
        n_cases=len(errors),
    )
