"""Correlation analysis and the three linear energy-model families.

Models map a PMC vector to dynamic energy in joules. The three families
differ only in their constraints: ordinary least squares with an intercept,
least squares through the origin, and non-negative least squares through the
origin. Every fit goes through one QR factorization of the augmented matrix
[X | y] rather than normal equations, because PMC columns tend to be strongly
collinear. Only the triangle is computed: its top block is X's R and its last
column holds Q'y, so each kind then works on the small parameters x
parameters problem, and no Q of the runs' size is ever formed.

``predict``, ``evaluate`` and ``ErrorSummary`` are defined in the numpy-free
:mod:`emodel.model` and re-exported here as the same objects.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._common import _csv_table, _finite_or_none, _Record
from .core import Dataset, EnergyModel, ModelKind
from .model import ErrorSummary, _predict_rows, evaluate, predict

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


class CorrelationMatrix(_Record):
    """Symmetric Pearson matrix over the target column and selected PMCs.

    ``labels[0]`` is the target; entries involving a constant column hold
    :data:`UNDEFINED` (NaN).
    """

    __slots__ = _FIELDS = ("labels", "values")

    def __init__(self, labels: Sequence[str], values: Sequence[Sequence[float]]) -> None:
        self._set(tuple(labels), tuple(tuple(row) for row in values))
        k = len(self.labels)
        if len(self.values) != k or any(len(row) != k for row in self.values):
            raise ValueError("correlation matrix shape does not match its labels")

    def get(self, label_a: str, label_b: str) -> float:
        i = self.labels.index(label_a)
        j = self.labels.index(label_b)
        return self.values[i][j]

    def to_csv(self) -> str:
        return _csv_table(("", *self.labels),
                          [(label, *row) for label, row in zip(self.labels, self.values)])

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "values": [list(map(_finite_or_none, row)) for row in self.values],
        }


def _centred(column: np.ndarray) -> tuple[np.ndarray, float]:
    """A column minus its mean, and the Euclidean norm of that difference,
    both for the column times 2**-e, where 2**e bounds its largest magnitude.

    Pearson's r does not change when a column is scaled, and a power of two
    scales every step exactly, so r keeps its bits wherever the unscaled
    arithmetic neither overflows nor underflows. Scaled, the deviations'
    squares can do neither: deviations of 1e200 or of 1e-200 give r, not NaN.
    Dot products are ``np.add.reduce`` of the products, never ``@``: numpy's
    pairwise sum has one order on every CPU, and BLAS does not.
    """
    _, exponent = math.frexp(float(np.abs(column).max()))
    column = np.ldexp(column, -exponent)
    deviations = column - column.mean()
    return deviations, float(np.sqrt(np.add.reduce(deviations * deviations)))


def _pearson(u: tuple[np.ndarray, float], v: tuple[np.ndarray, float]) -> float:
    """Pearson's r of two :func:`_centred` columns, clamped to [-1, 1]."""
    (du, nu), (dv, nv) = u, v
    if nu == 0.0 or nv == 0.0:
        return UNDEFINED
    r = float(np.add.reduce(du * dv) / (nu * nv))
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
    energies = dataset.dynamic_energy_j
    if len(energies) < 2:
        raise ValueError(f"need >= 2 runs for correlations, got {len(energies)}")
    names = tuple(pmcs) if pmcs is not None else dataset.pmc_names
    columns = [energies]
    columns += [dataset.counts[:, i] for i in _column_indices(dataset, names)]

    k = len(columns)
    centred = [_centred(col) for col in columns]
    values = [[UNDEFINED] * k for _ in range(k)]
    for i in range(k):
        values[i][i] = UNDEFINED if float(np.ptp(columns[i])) == 0.0 else 1.0
        for j in range(i + 1, k):
            values[i][j] = values[j][i] = _pearson(centred[i], centred[j])
    return CorrelationMatrix(labels=(TARGET_LABEL,) + names, values=tuple(map(tuple, values)))


def _triangle(augmented: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least-squares problem X b ~ y, reduced by one QR of the augmented
    matrix [X | y] (y last): X's triangle R and the vector Q'y.

    Only R is computed (``mode="r"``): Q is never formed. The top rows of the
    factor are [R | Q'y], and ||Xb - y||^2 = ||Rb - Q'y||^2 + rho^2 with rho
    independent of b, so every fit solves the min(m, n) x n problem instead.
    """
    r = np.linalg.qr(augmented, mode="r")
    n = augmented.shape[1] - 1
    k = min(len(augmented), n)
    return r[:k, :n], r[:k, n]


def _qr_solve(r: np.ndarray, qty: np.ndarray) -> np.ndarray:
    """Least squares from :func:`_triangle`'s (R, Q'y), rejecting a
    numerically rank-deficient design."""
    diag = np.abs(np.diag(r))
    largest = diag.max() if diag.size else 0.0
    if largest == 0.0 or diag.min() / largest < RANK_RATIO_THRESHOLD:
        raise ValueError(
            "design matrix is numerically rank-deficient; drop collinear or "
            "constant PMC columns"
        )
    return np.linalg.solve(r, qty)


def nnls(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Non-negative least squares by the Lawson-Hanson active-set method.

    One QR of [X | y] reduces the problem to (R, Q'y) (see :func:`_triangle`),
    and the active set runs on that P x P triangle rather than the m x P
    design (Lawson and Hanson, *Solving Least Squares Problems*, ch. 23). The
    passive set grows by the most positive component of w = X'(y - Xb) =
    R'(Q'y - Rb) and shrinks whenever a passive-set least-squares solution
    goes non-positive. Terminates when no inactive component of w exceeds a
    tolerance relative to the largest component of X'y, with every column
    scaled to one magnitude (see :func:`_nnls`); raises RuntimeError if the
    iteration budget (3 x predictors) is exhausted, which signals
    pathological conditioning. A NaN or infinity in ``design`` or ``y`` is a
    ValueError naming the argument.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = design.shape
    if y.shape != (m,):
        raise ValueError(f"y has shape {y.shape}, expected ({m},)")
    for name, values in (("design", design), ("y", y)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} holds a value that is not finite")
    return _nnls(*_triangle(np.column_stack([design, y])))


def _nnls(r: np.ndarray, qty: np.ndarray) -> np.ndarray:
    """:func:`nnls` on the reduced problem min ||r b - qty|| subject to b >= 0.

    Each column is first scaled by 2**-e, where 2**e bounds its largest
    magnitude, and the solution scaled back: both steps are exact, and the
    bound b >= 0 does not change. So the stopping tolerance and lstsq's cutoff
    see every column at one scale, whatever its counts' units: a column of
    counts near 1 still enters beside one of counts near 2**37.
    """
    n = r.shape[1]
    _, exponents = np.frexp(np.abs(r).max(axis=0, initial=0.0))
    r = np.ldexp(r, -exponents)
    beta = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    scale = float(np.abs(r.T @ qty).max()) if n else 0.0
    if scale == 0.0:
        return beta
    tolerance = NNLS_TOLERANCE * scale
    budget = NNLS_ITERATION_FACTOR * n
    iterations = 0

    while True:
        w = r.T @ (qty - r @ beta)
        w_inactive = np.where(passive, -np.inf, w)
        j = int(np.argmax(w_inactive))
        if w_inactive[j] <= tolerance:
            return np.ldexp(beta, -exponents)
        passive[j] = True

        while True:
            iterations += 1
            if iterations > budget:
                raise RuntimeError(
                    f"non-negative least squares did not converge within "
                    f"{budget} active-set iterations"
                )
            trial = np.zeros(n)
            trial[passive], *_ = np.linalg.lstsq(r[:, passive], qty, rcond=None)
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

    Requires more runs than fitted parameters. Every kind takes one QR of the
    runs x (parameters + 1) matrix [X | y] and then works on the parameters x
    parameters triangle (see :func:`_triangle`). The QR kinds
    (``unconstrained``, ``zero_intercept``) solve the triangle and reject a
    numerically rank-deficient design with ValueError;
    ``zero_intercept_nonneg`` runs :func:`nnls`'s active set on it and returns
    a non-negative minimizer, not unique on such a design. The model meets its
    kind's invariants.
    """
    kind = ModelKind(kind)
    names = tuple(pmcs) if pmcs is not None else dataset.pmc_names
    if not names:
        raise ValueError("need at least one PMC to fit")
    columns = _column_indices(dataset, names)
    offset = 1 if kind is ModelKind.UNCONSTRAINED else 0
    parameters = len(names) + offset
    y = dataset.dynamic_energy_j
    if len(y) <= parameters:
        raise ValueError(
            f"need more runs than parameters: {len(y)} runs for {parameters} parameters"
        )

    # [X | y], column-major and filled column by column: no second runs x PMCs
    # copy is held, and each column is one contiguous block for LAPACK.
    augmented = np.ones((len(y), parameters + 1), order="F")
    for k, column in enumerate(columns):
        augmented[:, offset + k] = dataset.counts[:, column]
    augmented[:, parameters] = y
    r, qty = _triangle(augmented)

    if kind is ModelKind.UNCONSTRAINED:
        solution = _qr_solve(r, qty)
        intercept, coefficients = float(solution[0]), solution[1:]
    elif kind is ModelKind.ZERO_INTERCEPT:
        intercept, coefficients = 0.0, _qr_solve(r, qty)
    else:
        intercept, coefficients = 0.0, _nnls(r, qty)

    return EnergyModel(
        pmc_names=names,
        intercept=intercept,
        coefficients=tuple(float(c) for c in coefficients),
        kind=kind,
    )
