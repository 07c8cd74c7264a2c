"""Independent checks of every pipeline result.

Each check returns a list of mismatch messages (empty when the result is
right). Verdicts are compared with the truth the generator planted; solvers
with scipy and numpy; partitions with enumeration and ``numpy.interp``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import nnls as scipy_nnls

from workloads import GRANULARITY, Inputs

# Relative tolerance on least-squares objectives: both solvers work in
# float64 on the same design, so their residual norms agree far tighter.
OBJECTIVE_RTOL = 1e-9
# Relative tolerance on values recomputed with numpy in another summation order.
VALUE_RTOL = 1e-9
# Interpolation along x is computed with a different formula than numpy.interp.
INTERP_RTOL = 1e-12


def _columns(inputs: Inputs, names) -> list[int]:
    return [inputs.pmc_names.index(n) for n in names]


def additivity(inputs: Inputs, report, sweep) -> list[str]:
    errors = []
    for entry in report.per_pmc:
        stage1 = entry.pmc not in inputs.stage1_fail
        if entry.stage1_pass != stage1:
            errors.append(f"{entry.pmc}: stage1 {entry.stage1_pass}, planted {stage1}")
    additive = report.additive_names()
    if additive != inputs.expected_additive():
        errors.append(f"additive set {additive} != planted {inputs.expected_additive()}")
    for name, planted in inputs.nonadditive_max_pct.items():
        got = report.entry(name).max_error_pct
        if not abs(got - planted) <= 1e-6 * planted:
            errors.append(f"{name}: max error {got!r}% != planted {planted!r}%")
    if list(sweep) != inputs.expected_sweep():
        errors.append(f"sweep {sweep} != planted {inputs.expected_sweep()}")
    return errors


def stage1(inputs: Inputs, report) -> list[str]:
    """A test without compounds: the verdict is stage 1 alone."""
    got = {e.pmc: e.classification.value == "additive" for e in report.per_pmc}
    planted = {n: n not in inputs.stage1_fail for n in inputs.pmc_names}
    return [] if got == planted else [f"stage 1 verdicts {got} != planted {planted}"]


def points(inputs: Inputs, values) -> list[str]:
    """Repetition means; the generator writes each group's rows together."""
    reps = values[0].n_samples
    means = inputs.counts.reshape(len(values), reps, -1).mean(axis=1)
    errors = _close([v.pmc.counts for v in values], means, "points")
    if any(v.n_samples != reps for v in values):
        errors.append("points: groups of unequal size")
    return errors


def _objective(x: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    r = x @ beta - y
    return float(r @ r)


def _objective_close(lib: float, ref: float, what: str) -> list[str]:
    if abs(lib - ref) <= OBJECTIVE_RTOL * ref:
        return []
    return [f"{what}: objective {lib!r} differs from reference {ref!r} by more than {OBJECTIVE_RTOL} relative"]


def fit_nonneg(inputs: Inputs, model) -> list[str]:
    x = inputs.counts[:, _columns(inputs, model.pmc_names)]
    beta = np.array(model.coefficients)
    errors = []
    if model.intercept != 0.0 or (beta < 0).any():
        errors.append("non-negative model has an intercept or a negative coefficient")
    ref, _ = scipy_nnls(x, inputs.energy, maxiter=50 * x.shape[1])
    errors += _objective_close(_objective(x, inputs.energy, beta),
                               _objective(x, inputs.energy, ref), "nnls vs scipy")
    return errors


def fit_unconstrained(inputs: Inputs, model) -> list[str]:
    x = np.hstack([np.ones((inputs.counts.shape[0], 1)),
                   inputs.counts[:, _columns(inputs, model.pmc_names)]])
    beta = np.array((model.intercept,) + model.coefficients)
    ref, *_ = np.linalg.lstsq(x, inputs.energy, rcond=None)
    return _objective_close(_objective(x, inputs.energy, beta),
                            _objective(x, inputs.energy, ref), "ols vs lstsq")


def _predictions(inputs: Inputs, model, counts: np.ndarray) -> np.ndarray:
    return model.intercept + counts[:, _columns(inputs, model.pmc_names)] @ np.array(model.coefficients)


def _close(lib, ref, what: str, rtol: float = VALUE_RTOL) -> list[str]:
    lib, ref = np.asarray(lib, dtype=float), np.asarray(ref, dtype=float)
    scale = np.maximum(np.abs(ref), np.abs(ref).max() * 1e-3)
    bad = np.flatnonzero(np.abs(lib - ref) > rtol * scale)
    if bad.size:
        i = int(bad[0])
        return [f"{what}: {bad.size} values differ, first at {i}: {lib.flat[i]!r} vs {ref.flat[i]!r}"]
    return []


def predict(inputs: Inputs, model, values) -> list[str]:
    return _close(values, _predictions(inputs, model, inputs.counts), "predict")


def evaluate(inputs: Inputs, model, summary) -> list[str]:
    pred = _predictions(inputs, model, inputs.compound_counts)
    err = np.abs(pred - inputs.compound_energy) / inputs.compound_energy * 100.0
    errors = _close([summary.min_pct, summary.avg_pct, summary.max_pct],
                    [err.min(), err.mean(), err.max()], "evaluate")
    if summary.n_cases != err.size:
        errors.append(f"evaluate: {summary.n_cases} cases, expected {err.size}")
    return errors


def correlation(inputs: Inputs, names, matrix) -> list[str]:
    data = np.column_stack([inputs.energy, inputs.counts[:, _columns(inputs, names)]])
    ref = np.corrcoef(data, rowvar=False)
    got = np.array(matrix.values, dtype=float)
    if got.shape != ref.shape or np.isnan(got).any():
        return [f"correlation: shape {got.shape} or NaN entries, expected {ref.shape}"]
    if not np.allclose(got, ref, rtol=0, atol=1e-9):
        return [f"correlation: max deviation {np.abs(got - ref).max()!r} from numpy.corrcoef"]
    return []


def conservation(model, report, composability=None) -> list[str]:
    expected = set()
    if model.intercept != 0.0:
        expected.add(("nonzero_intercept", None))
    expected |= {("negative_coefficient", n)
                 for n, c in zip(model.pmc_names, model.coefficients) if c < 0}
    if min(model.coefficients) < 0 or model.intercept < 0:
        expected.add(("negative_prediction_witness", None))
    got = {(v.kind.value, v.pmc_name) for v in report.violations}
    errors = [] if got == expected else [f"conservation violations {sorted(got, key=str)} != {sorted(expected, key=str)}"]
    for v in report.violations:
        if v.witness is not None and not v.predicted_j < 0:
            errors.append(f"witness predicts {v.predicted_j!r} J, not a negative energy")
    if composability is not None and not composability.additive_ok:
        errors.append("the sum operator broke conservation on a zero-intercept linear model")
    return errors


def _interp_curve(table: dict, y: int, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pts = sorted((x, e) for (x, yy), e in table.items() if yy == y)
    px = np.array([p[0] for p in pts], dtype=float)
    pe = np.array([p[1] for p in pts], dtype=float)
    values = np.interp(xs, px, pe)
    inside = (xs >= px[0]) & (xs <= px[-1])
    return values, inside


def partition_truth(inputs: Inputs, n: int, interpolate: bool):
    """Enumerate every split of n: (m grid, total energy per m with inf where
    infeasible, m scanned, feasible splits, values filled by interpolation)."""
    g = GRANULARITY
    ms = np.arange(g, n - g + 1, g)
    t1, t2 = inputs.tables
    if interpolate:
        e1, ok1 = _interp_curve(t1, n, ms.astype(float))
        e2, ok2 = _interp_curve(t2, n, (n - ms).astype(float))
        exact1 = np.array([(int(m), n) in t1 for m in ms])
        exact2 = np.array([(int(n - m), n) in t2 for m in ms])
        fills = int((ok1 & ~exact1).sum() + (ok2 & ~exact2).sum())
    else:
        ok1 = np.array([(int(m), n) in t1 for m in ms])
        ok2 = np.array([(int(n - m), n) in t2 for m in ms])
        e1 = np.array([t1.get((int(m), n), np.nan) for m in ms])
        e2 = np.array([t2.get((int(n - m), n), np.nan) for m in ms])
        fills = 0
    ok = ok1 & ok2
    totals = np.where(ok, e1 + e2, np.inf)
    return ms, totals, int(ms.size), int(ok.sum()), fills


def partition(inputs: Inputs, n: int, interpolate: bool, result) -> list[str]:
    ms, totals, _, feasible, _ = partition_truth(inputs, n, interpolate)
    if feasible == 0:
        return [f"partition n={n}: the generator left no feasible split"]
    best = int(np.argmin(totals))
    if result.m + result.k != n:
        return [f"partition n={n}: m + k = {result.m + result.k}"]
    if not interpolate:
        want = (int(ms[best]), float(totals[best]))
        if (result.m, result.total_j) != want:
            return [f"partition n={n}: got (m, total) {(result.m, result.total_j)}, enumeration {want}"]
        return []
    at = int(np.flatnonzero(ms == result.m)[0])
    errors = _close([result.total_j], [totals[best]], f"partition n={n} interpolated optimum", INTERP_RTOL)
    errors += _close([result.total_j], [totals[at]], f"partition n={n} interpolated total at m", INTERP_RTOL)
    return errors
