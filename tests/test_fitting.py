import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from emodel import (
    EnergyModel,
    ModelKind,
    PmcVector,
    correlation_matrix,
    evaluate,
    fit,
    nnls,
    predict,
)
from emodel import fitting, model as model_module
from emodel.fitting import RANK_RATIO_THRESHOLD, UNDEFINED, ErrorSummary, _centred
from helpers import (
    correlation_by_pairs,
    dataset_from_matrix,
    evaluate_by_cases,
    make_dataset,
    make_run,
    nnls_by_enumeration,
    predict_by_names,
)

COUNTS = [(10.0, 5.0), (20.0, 3.0), (5.0, 9.0), (40.0, 2.0), (15.0, 15.0)]


def exact_dataset(intercept, beta):
    y = [intercept + beta[0] * a + beta[1] * b for a, b in COUNTS]
    return dataset_from_matrix(COUNTS, y, names=("C1", "C2"))


# --- correlations ---------------------------------------------------------


def test_correlation_perfect_linear_target():
    dataset = exact_dataset(0.0, (3.0, 0.0))
    matrix = correlation_matrix(dataset)
    assert matrix.labels == ("dynamic_energy", "C1", "C2")
    r = matrix.get("dynamic_energy", "C1")
    assert r == pytest.approx(1.0, abs=1e-12)
    assert r <= 1.0
    assert matrix.get("C1", "dynamic_energy") == r


def test_correlation_negative():
    x = [(1.0,), (2.0,), (3.0,)]
    dataset = dataset_from_matrix(x, [30.0, 20.0, 10.0], names=("C1",))
    matrix = correlation_matrix(dataset)
    r = matrix.get("dynamic_energy", "C1")
    assert r == pytest.approx(-1.0, abs=1e-12)
    assert r >= -1.0


def test_correlation_diagonal_and_symmetry():
    dataset = exact_dataset(30.0, (0.5, 2.0))
    matrix = correlation_matrix(dataset)
    k = len(matrix.labels)
    for i in range(k):
        assert matrix.values[i][i] == 1.0
        for j in range(k):
            assert matrix.values[i][j] == matrix.values[j][i]
            assert -1.0 <= matrix.values[i][j] <= 1.0


def test_correlation_constant_column_is_undefined():
    x = [(1.0, 7.0), (2.0, 7.0), (3.0, 7.0)]
    dataset = dataset_from_matrix(x, [1.0, 2.0, 3.0], names=("C1", "C2"))
    matrix = correlation_matrix(dataset)
    assert math.isnan(matrix.get("C2", "C2"))
    assert math.isnan(matrix.get("dynamic_energy", "C2"))
    assert matrix.get("dynamic_energy", "C1") == pytest.approx(1.0, abs=1e-12)

    assert ",nan" in matrix.to_csv()
    payload = matrix.to_json_dict()
    assert payload["values"][0][2] is None


def test_correlation_subset_and_errors():
    dataset = exact_dataset(30.0, (0.5, 2.0))
    matrix = correlation_matrix(dataset, pmcs=["C2"])
    assert matrix.labels == ("dynamic_energy", "C2")
    with pytest.raises(KeyError):
        correlation_matrix(dataset, pmcs=["C9"])

    tiny = dataset_from_matrix([(1.0,)], [1.0], names=("C1",))
    with pytest.raises(ValueError):
        correlation_matrix(tiny)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_fit_rejects_a_repeated_pmc(kind):
    with pytest.raises(ValueError, match="^PMC 'C1' is listed twice$"):
        fit(exact_dataset(30.0, (0.5, 2.0)), ["C1", "C2", "C1"], kind)


def test_correlation_rejects_a_repeated_pmc():
    dataset = exact_dataset(30.0, (0.5, 2.0))
    with pytest.raises(ValueError, match="^PMC 'C2' is listed twice$"):
        correlation_matrix(dataset, ["C2", "C2"])
    with pytest.raises(KeyError, match="C9"):
        correlation_matrix(dataset, ["C9", "C9"])


def test_correlation_matches_numpy_corrcoef():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 100.0, size=(12, 3))
    y = rng.uniform(1.0, 50.0, size=12)
    dataset = dataset_from_matrix(x.tolist(), y.tolist())
    matrix = correlation_matrix(dataset)
    stacked = np.corrcoef(np.column_stack([y, x]), rowvar=False)
    assert np.allclose(np.array(matrix.values), stacked, atol=1e-12)


def test_pearson_stays_in_bounds():
    def _pearson(u, v):
        return fitting._pearson(_centred(u), _centred(v))

    u = np.array([1.0, 2.0, 3.0])
    assert _pearson(u, 2.0 * u) == pytest.approx(1.0, abs=1e-12)
    assert -1.0 <= _pearson(u, 2.0 * u) <= 1.0
    assert _pearson(u, -u) == pytest.approx(-1.0, abs=1e-12)
    assert -1.0 <= _pearson(u, -u) <= 1.0
    assert math.isnan(_pearson(u, np.full(3, 4.0)))


def value_keys(rows):
    return [["nan" if math.isnan(v) else v.hex() for v in row] for row in rows]


def scaled_columns(x):
    """Each column times the power of two that brings its largest magnitude into [0.5, 1)."""
    return np.column_stack([
        np.ldexp(column, -math.frexp(float(np.abs(column).max()))[1]) for column in x.T
    ])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_correlation_matrix_matches_per_pair_oracle(data):
    n, k = data.draw(st.integers(2, 25)), data.draw(st.integers(1, 5))
    cell = st.one_of(st.floats(0.0, 1e12), st.integers(0, 4).map(float),
                     st.sampled_from([0.0, 5e-324, 1e-300, 1e150]))
    x = np.array(data.draw(st.lists(st.lists(cell, min_size=k, max_size=k),
                                    min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(cell, min_size=n, max_size=n)))
    # Column 0 is the energy; a constant column makes its correlations undefined.
    for column in data.draw(st.sets(st.integers(0, k))):
        if column == 0:
            y[:] = y[0]
        else:
            x[:, column - 1] = x[0, column - 1]
    dataset = dataset_from_matrix(x, y)
    names = data.draw(st.permutations(dataset.pmc_names))[:data.draw(st.integers(0, k))]
    matrix = correlation_matrix(dataset, names)
    assert matrix.labels == ("dynamic_energy", *names)
    # Each column is scaled before it is centred.
    scaled = dataset_from_matrix(scaled_columns(x), scaled_columns(y[:, None])[:, 0])
    assert value_keys(matrix.values) == value_keys(correlation_by_pairs(scaled, names))
    # Where the unscaled per-pair arithmetic neither overflows nor underflows,
    # that scaling changes no bit.
    try:
        with np.errstate(over="raise", under="raise"):
            unscaled = correlation_by_pairs(dataset, names)
    except FloatingPointError:
        return
    assert value_keys(matrix.values) == value_keys(unscaled)


@pytest.mark.parametrize("tiny", [False, True])
def test_correlation_survives_huge_and_tiny_deviations(tiny):
    """Squared deviations of 1e200 overflow and those of 1e-200 underflow;
    neither may turn a perfect anti-correlation into -0.0 or UNDEFINED."""
    base = 1e-200 if tiny else 1e200
    dataset = dataset_from_matrix([[base], [2 * base], [3 * base]], [3.0, 2.0, 1.0])
    matrix = correlation_matrix(dataset)
    assert matrix.get("dynamic_energy", "P1") == pytest.approx(-1.0, abs=1e-12)
    assert matrix.get("P1", "P1") == 1.0


@pytest.mark.parametrize("seed", [0, 1])
def test_correlation_matrix_matches_per_pair_oracle_on_many_runs(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1e9, size=(3000, 6)) * rng.uniform(0.0, 1.0, size=(3000, 6)) ** 4
    x[:, 2] = 7.0
    y = x @ rng.uniform(0.0, 1e-6, size=6) + rng.uniform(0.0, 5.0, size=3000)
    dataset = dataset_from_matrix(x, y)
    expected = correlation_by_pairs(dataset, dataset.pmc_names)
    assert value_keys(correlation_matrix(dataset).values) == value_keys(expected)
    constant = dataset_from_matrix(x, np.full(3000, 2.5))
    expected = correlation_by_pairs(constant, constant.pmc_names)
    assert value_keys(correlation_matrix(constant).values) == value_keys(expected)


def test_correlation_csv_layout():
    x = [(1.0,), (2.0,), (3.0,)]
    dataset = dataset_from_matrix(x, [10.0, 20.0, 30.0], names=("C1",))
    matrix = correlation_matrix(dataset)
    text = matrix.to_csv()
    r = repr(matrix.get("dynamic_energy", "C1"))
    assert text == (
        ",dynamic_energy,C1\n"
        f"dynamic_energy,1.0,{r}\n"
        f"C1,{r},1.0\n"
    )


# --- least squares fits ---------------------------------------------------


def test_unconstrained_recovers_exact_model():
    model = fit(exact_dataset(30.0, (0.5, 2.0)))
    assert model.kind is ModelKind.UNCONSTRAINED
    assert model.intercept == pytest.approx(30.0, abs=1e-9)
    assert model.coefficients == pytest.approx((0.5, 2.0), abs=1e-9)


def test_zero_intercept_recovers_exact_model():
    model = fit(exact_dataset(0.0, (0.5, 2.0)), kind=ModelKind.ZERO_INTERCEPT)
    assert model.intercept == 0.0
    assert model.coefficients == pytest.approx((0.5, 2.0), abs=1e-9)


def test_fit_accepts_kind_as_string():
    model = fit(exact_dataset(0.0, (1.0, 1.0)), kind="zero_intercept_nonneg")
    assert model.kind is ModelKind.ZERO_INTERCEPT_NONNEG


def test_unconstrained_residual_orthogonality():
    rng = np.random.default_rng(21)
    x = rng.uniform(0.0, 1000.0, size=(40, 4))
    beta = rng.uniform(0.1, 3.0, size=4)
    y = 50.0 + x @ beta + rng.normal(0.0, 5.0, size=40)
    y = np.maximum(y, 0.0)
    model = fit(dataset_from_matrix(x.tolist(), y.tolist()))

    predictions = model.intercept + x @ np.array(model.coefficients)
    residual = y - predictions
    r_norm = float(np.linalg.norm(residual)) + 1e-300
    assert abs(residual.sum()) / (math.sqrt(len(y)) * r_norm) < 1e-8
    for column in x.T:
        cosine = abs(float(column @ residual)) / (float(np.linalg.norm(column)) * r_norm)
        assert cosine < 1e-8


def test_fit_matches_lstsq_oracle():
    rng = np.random.default_rng(99)
    x = rng.uniform(0.0, 100.0, size=(25, 3))
    y = rng.uniform(1.0, 500.0, size=25)
    model = fit(dataset_from_matrix(x.tolist(), y.tolist()))
    design = np.column_stack([np.ones(25), x])
    expected, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert model.intercept == pytest.approx(expected[0], rel=1e-10, abs=1e-10)
    assert np.allclose(model.coefficients, expected[1:], rtol=1e-10, atol=1e-10)


def test_fit_requires_more_runs_than_parameters():
    # 3 runs, 2 PMCs + intercept = 3 parameters: not enough
    x = [(1.0, 2.0), (2.0, 5.0), (4.0, 3.0)]
    dataset = dataset_from_matrix(x, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="more runs than parameters"):
        fit(dataset)
    # without the intercept the same data suffices
    fit(dataset, kind=ModelKind.ZERO_INTERCEPT)


def test_fit_rejects_collinear_columns():
    x = [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0), (4.0, 8.0)]
    dataset = dataset_from_matrix(x, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="rank-deficient"):
        fit(dataset, kind=ModelKind.ZERO_INTERCEPT)


def test_fit_rejects_constant_column_against_intercept():
    x = [(1.0, 7.0), (2.0, 7.0), (3.0, 7.0), (4.0, 7.0), (5.0, 7.0)]
    dataset = dataset_from_matrix(x, [1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(ValueError, match="rank-deficient"):
        fit(dataset)


def test_fit_pmc_selection():
    dataset = exact_dataset(0.0, (3.0, 0.0))
    model = fit(dataset, pmcs=["C1"], kind=ModelKind.ZERO_INTERCEPT)
    assert model.pmc_names == ("C1",)
    assert model.coefficients == pytest.approx((3.0,), abs=1e-12)
    with pytest.raises(KeyError):
        fit(dataset, pmcs=["C7"])
    with pytest.raises(ValueError):
        fit(dataset, pmcs=[])


def test_fit_uses_every_repetition_row_not_points():
    # Group a has three identical repetitions, so it weighs three times in a
    # fit on the rows and once in a fit on the repetition means.
    rows = [("a", 1.0, 3.0), ("a", 1.0, 3.0), ("a", 1.0, 3.0), ("b", 2.0, 2.0), ("c", 3.0, 3.0)]
    runs = [make_run(app, ("X1",), (x,), y, run_id=f"r{i}") for i, (app, x, y) in enumerate(rows)]
    dataset = make_dataset(("X1",), runs)
    points = dataset.points()
    on_points = dataset_from_matrix([p.pmc.counts for p in points],
                                    [p.dynamic_energy_j for p in points], names=("X1",))
    on_rows = fit(dataset, kind=ModelKind.ZERO_INTERCEPT).coefficients[0]
    assert on_rows == pytest.approx(22.0 / 16.0, rel=1e-12)
    assert fit(on_points, kind=ModelKind.ZERO_INTERCEPT).coefficients[0] == pytest.approx(
        16.0 / 14.0, rel=1e-12)


# --- non-negative least squares -------------------------------------------


def test_nnls_clamps_negative_coefficient():
    c1 = [1.0, 2.0, 3.0, 4.0, 5.0]
    c2 = [2.1, 3.9, 6.2, 7.8, 10.1]
    y = [2.0 * a - 0.3 * b for a, b in zip(c1, c2)]
    dataset = dataset_from_matrix(list(zip(c1, c2)), y)

    plain = fit(dataset, kind=ModelKind.ZERO_INTERCEPT)
    assert plain.coefficients == pytest.approx((2.0, -0.3), abs=1e-9)

    constrained = fit(dataset, kind=ModelKind.ZERO_INTERCEPT_NONNEG)
    assert constrained.coefficients[1] == 0.0
    assert constrained.coefficients[0] == pytest.approx(1.398909090909091, rel=1e-12)


def test_nnls_equals_unconstrained_when_interior():
    model = fit(exact_dataset(0.0, (0.5, 2.0)), kind=ModelKind.ZERO_INTERCEPT_NONNEG)
    assert model.coefficients == pytest.approx((0.5, 2.0), abs=1e-9)


def test_nnls_zero_target():
    beta = nnls(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2))
    assert beta.tolist() == [0.0, 0.0]


def test_nnls_shape_mismatch():
    with pytest.raises(ValueError):
        nnls(np.ones((3, 2)), np.ones(4))


@pytest.mark.parametrize("argument", ["design", "y"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_nnls_rejects_a_value_that_is_not_finite(argument, value, capfd):
    design = np.arange(1.0, 11.0).reshape(5, 2)
    y = np.arange(1.0, 6.0)
    (design if argument == "design" else y)[2:3].flat[0] = value
    with pytest.raises(ValueError) as info:
        nnls(design, y)
    assert str(info.value) == f"{argument} holds a value that is not finite"
    # Nothing reaches LAPACK, so nothing is printed.
    assert capfd.readouterr() == ("", "")


def kkt_holds(design, y, beta, tol=1e-8):
    w = design.T @ (y - design @ beta)
    scale = max(1.0, float(np.abs(design.T @ y).max()))
    for k in range(len(beta)):
        if beta[k] > 0:
            if abs(w[k]) > tol * scale:
                return False
        elif w[k] > tol * scale:
            return False
    return bool(np.all(beta >= 0))


@pytest.mark.parametrize("seed", range(25))
def test_nnls_against_scipy_and_enumeration(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 12))
    n = int(rng.integers(1, 5))
    design = rng.normal(0.0, 10.0, size=(m, n))
    y = rng.normal(0.0, 10.0, size=m)

    beta = nnls(design, y)
    assert kkt_holds(design, y, beta)

    ref, ref_norm = scipy.optimize.nnls(design, y)
    ours = float(np.linalg.norm(y - design @ beta))
    assert ours <= ref_norm * (1 + 1e-10) + 1e-12
    assert np.allclose(beta, ref, rtol=1e-8, atol=1e-8)

    enum_beta, enum_norm = nnls_by_enumeration(design, y)
    assert ours <= enum_norm * (1 + 1e-10) + 1e-12


def near_collinear_design(seed, ratio, m=40):
    """Four count-like columns whose QR diagonal ratio is ``ratio``: column 2
    is column 1 plus a small part orthogonal to the other three columns."""
    rng = np.random.default_rng(seed)
    design = rng.uniform(1.0, 10.0, (m, 4))
    q, _ = np.linalg.qr(design[:, [0, 2, 3]])
    z = rng.normal(size=m)
    z -= q @ (q.T @ z)
    design[:, 1] = design[:, 0] + ratio * np.linalg.norm(design[:, 0]) * z / np.linalg.norm(z)
    return design, rng


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("ratio", [1e-11, 3e-11, 1e-10, 3e-10, 1e-9])
def test_nnls_near_rank_threshold_against_scipy(ratio, seed):
    design, rng = near_collinear_design(seed, ratio)
    diag = np.abs(np.diag(np.linalg.qr(design)[1]))
    assert diag.min() / diag.max() == pytest.approx(ratio, rel=0.01)
    noise = rng.normal(0.0, 0.1, len(design))
    targets = [
        design @ np.array([1.0, 2.0, 0.5, 0.0]) + noise,
        design @ np.array([3.0, -2.0, 0.5, 1.0]) + noise,
        rng.normal(0.0, 10.0, len(design)),
    ]
    for y in targets:
        beta = nnls(design, y)
        assert kkt_holds(design, y, beta)
        ref, ref_norm = scipy.optimize.nnls(design, y)
        assert float(np.linalg.norm(y - design @ beta)) <= ref_norm * (1 + 1e-12)
        assert np.allclose(beta, ref, rtol=1e-9, atol=1e-9)
    # The QR path rejects the same design exactly when it falls below the threshold.
    if ratio != RANK_RATIO_THRESHOLD:
        dataset = dataset_from_matrix(design, targets[0])
        if ratio < RANK_RATIO_THRESHOLD:
            with pytest.raises(ValueError, match="rank-deficient"):
                fit(dataset, kind=ModelKind.ZERO_INTERCEPT)
        else:
            fit(dataset, kind=ModelKind.ZERO_INTERCEPT)


def test_fit_rank_rule_on_near_collinear_design():
    # Only the QR kinds check rank; NNLS returns a non-negative minimizer.
    design, _ = near_collinear_design(0, 1e-11)
    y = design @ np.array([1.0, 2.0, 0.5, 0.0])
    dataset = dataset_from_matrix(design, y)
    for kind in (ModelKind.UNCONSTRAINED, ModelKind.ZERO_INTERCEPT):
        with pytest.raises(ValueError, match="rank-deficient"):
            fit(dataset, kind=kind)
    beta = np.array(fit(dataset, kind=ModelKind.ZERO_INTERCEPT_NONNEG).coefficients)
    assert (beta >= 0).all()
    _, ref_norm = scipy.optimize.nnls(design, y)
    assert float(np.sum((y - design @ beta) ** 2)) <= ref_norm ** 2 + 1e-9 * float(y @ y)


def correlated_design(seed):
    """A square-ish design with strongly mixed columns, so that columns
    enter and leave the passive set, and a target uncorrelated with it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    m = n + int(rng.integers(1, 3 * n))
    design = rng.normal(size=(m, n))
    design = design @ (np.eye(n) + 0.9 * rng.normal(size=(n, n)) / np.sqrt(n))
    return design, rng.normal(size=m)


@pytest.mark.parametrize("seed", [37, 126, 214, 281])
def test_nnls_within_iteration_budget_against_scipy(seed):
    # The seeds whose designs need the most active-set iterations of the
    # first 300: up to 1.2 x predictors, inside the 3 x predictors budget
    # scipy's nnls shares.
    design, y = correlated_design(seed)
    beta = nnls(design, y)
    assert kkt_holds(design, y, beta)
    ref, ref_norm = scipy.optimize.nnls(design, y)
    assert float(np.linalg.norm(y - design @ beta)) <= ref_norm * (1 + 1e-12) + 1e-12
    assert np.allclose(beta, ref, rtol=1e-8, atol=1e-10)


def test_nnls_iteration_budget_boundary(monkeypatch):
    # Each active-set iteration is one least-squares solve: count them, then
    # run with the budget at exactly that count and at one fewer.
    design, y = correlated_design(214)
    n = design.shape[1]
    solves = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: solves.append(1) or lstsq(*a, **k))
    expected = nnls(design, y)
    needed = len(solves)
    assert n < needed <= fitting.NNLS_ITERATION_FACTOR * n

    monkeypatch.setattr(fitting, "NNLS_ITERATION_FACTOR", needed / n)
    assert nnls(design, y).tolist() == expected.tolist()
    monkeypatch.setattr(fitting, "NNLS_ITERATION_FACTOR", (needed - 1) / n)
    with pytest.raises(RuntimeError, match=f"within {needed - 1}(\\.0)? active-set iterations"):
        nnls(design, y)


def test_nnls_all_active_solution():
    # y is anti-correlated with every column: the zero vector is optimal
    design = np.array([[1.0], [2.0], [3.0]])
    beta = nnls(design, -np.arange(1.0, 4.0))
    assert beta.tolist() == [0.0]


@pytest.mark.parametrize("kind", list(ModelKind))
def test_each_fit_takes_one_triangle_only_qr(monkeypatch, kind):
    modes = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode="reduced": modes.append(mode) or qr(a, mode))
    rng = np.random.default_rng(5)
    x = rng.uniform(1.0, 100.0, size=(30, 3))
    fit(dataset_from_matrix(x, rng.uniform(1.0, 500.0, 30)), kind=kind)
    assert modes == ["r"]
    modes.clear()
    nnls(x, x[:, 0])
    assert modes == ["r"]


def count_scaled_design(seed, m=3000, n=12):
    """A tall design whose column scales run from 1 to 2**37, as PMC counts
    do, and a target that four negative coefficients fit best."""
    rng = np.random.default_rng(seed)
    scales = np.ldexp(1.0, np.linspace(0, 37, n).round().astype(int))
    design = rng.uniform(0.5, 1.5, (m, n)) * scales
    truth = rng.uniform(0.5, 2.0, n) / scales
    truth[rng.choice(n, 4, replace=False)] *= -1
    return design, design @ truth + rng.normal(0.0, 0.05, m)


@pytest.mark.parametrize("seed", range(8))
def test_nnls_on_count_scaled_tall_design_against_scipy(seed):
    design, y = count_scaled_design(seed)
    beta = nnls(design, y)
    ref, _ = scipy.optimize.nnls(design, y, maxiter=50 * design.shape[1])
    objective, expected = (float(np.sum((y - design @ b) ** 2)) for b in (beta, ref))
    assert abs(objective - expected) <= 1e-12 * expected
    assert (beta == 0).tolist() == (ref == 0).tolist()
    assert (ref == 0).sum() >= 3
    assert (beta >= 0).all()


@pytest.mark.parametrize("seed", range(20))
def test_nnls_square_and_wide_designs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    m = int(rng.integers(1, n + 1))
    design = rng.normal(0.0, 10.0, size=(m, n))
    y = rng.normal(0.0, 10.0, size=m)
    beta = nnls(design, y)
    assert kkt_holds(design, y, beta)
    _, ref_norm = scipy.optimize.nnls(design, y)
    assert float(np.linalg.norm(y - design @ beta)) <= ref_norm * (1 + 1e-10) + 1e-12


# --- prediction and evaluation --------------------------------------------


def model_c1(intercept=0.0, coefficient=1.0, kind=ModelKind.UNCONSTRAINED):
    return EnergyModel(
        pmc_names=("C1",), intercept=intercept,
        coefficients=(coefficient,), kind=kind,
    )


def test_predict_arithmetic():
    model = EnergyModel(
        pmc_names=("C1", "C2"), intercept=10.0,
        coefficients=(2.0, 0.5), kind=ModelKind.UNCONSTRAINED,
    )
    vector = PmcVector(("C2", "C1", "C3"), (4.0, 3.0, 99.0))
    assert predict(model, vector) == 10.0 + 2.0 * 3.0 + 0.5 * 4.0


def test_predict_sums_left_to_right_on_a_reordered_superset():
    model = EnergyModel(
        pmc_names=("C1", "C2", "C3"), intercept=1.0,
        coefficients=(1e16, 1.0, -1e16), kind=ModelKind.UNCONSTRAINED,
    )
    # 1 + 1e16 rounds to 1e16, adding 1 rounds back to 1e16, and subtracting
    # 1e16 leaves 0; summing in another order gives 2.
    assert predict(model, PmcVector(("C4", "C3", "C1", "C2"), (5.0, 1.0, 1.0, 1.0))).hex() == "0x0.0p+0"
    rng = np.random.default_rng(7)
    for names in [("C3", "C9", "C2", "C1"), ("C2", "C1", "C3"), ("C3", "C9", "C2", "C1")]:
        vector = PmcVector(names, tuple(rng.uniform(0.0, 1e6, len(names))))
        expected = model.intercept
        for name, coefficient in zip(model.pmc_names, model.coefficients):
            expected += coefficient * vector.get(name)
        assert predict(model, vector).hex() == expected.hex()


def bit_keys(values):
    """``float.hex`` and the sign bit of each value, so -0.0 and a NaN's sign count."""
    return [(v.hex(), math.copysign(1.0, v)) for v in values]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_predict_rows_matches_predict_bit_for_bit(data):
    names = tuple(f"C{j}" for j in range(8))
    m = data.draw(st.sampled_from([0, 1, 2, 5, 8]))
    model_names = data.draw(st.permutations(names))[:m]
    edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1.5, -3.0])
    coefficient = edge | st.floats(allow_nan=False, allow_infinity=False)
    intercept = st.sampled_from([0.0, -0.0]) | coefficient
    model = EnergyModel(pmc_names=model_names, intercept=data.draw(intercept),
                        coefficients=data.draw(st.lists(coefficient, min_size=m, max_size=m)),
                        kind=ModelKind.UNCONSTRAINED)
    count = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1.0, 1e300, 1.7e308]) | st.floats(
        0.0, allow_infinity=False, allow_nan=False)
    vectors = []
    for _ in range(data.draw(st.integers(1, 6))):
        # The model's PMCs, maybe more, in any order.
        extra = data.draw(st.sets(st.sampled_from(names)))
        vector_names = data.draw(st.permutations(sorted(set(model_names) | extra)))
        counts = data.draw(st.lists(count, min_size=len(vector_names), max_size=len(vector_names)))
        vectors.append(PmcVector(tuple(vector_names), tuple(counts)))
    picked = np.array([[vector.get(name) for name in model_names] for vector in vectors])
    totals = fitting._predict_rows(model.intercept, model.coefficients,
                                   picked.reshape(len(vectors), m))
    assert bit_keys(totals.tolist()) == bit_keys([predict(model, v) for v in vectors])


def test_predict_rows_keeps_zero_signs_and_overflow():
    model = EnergyModel(pmc_names=("C1", "C2"), intercept=-0.0,
                        coefficients=(1e300, -1e300), kind=ModelKind.UNCONSTRAINED)
    vectors = [PmcVector(("C2", "C1"), counts) for counts in
               [(0.0, -0.0), (-0.0, -0.0), (0.0, 1e300), (1e300, 0.0), (1e300, 1e300),
                (5e-324, 5e-324)]]
    picked = np.array([[v.get("C1"), v.get("C2")] for v in vectors])
    totals = fitting._predict_rows(model.intercept, model.coefficients, picked).tolist()
    expected = [predict(model, v) for v in vectors]
    assert bit_keys(totals) == bit_keys(expected)
    assert [str(v) for v in expected] == ["-0.0", "0.0", "inf", "-inf", "nan", "0.0"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_predict_matches_lookup_by_name_bit_for_bit(data):
    names = tuple(f"C{j}" for j in range(8))
    m = data.draw(st.sampled_from([0, 1, 2, 5, 8]))
    model_names = data.draw(st.permutations(names))[:m]
    coefficient = st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300, 1.5]) | st.floats(
        allow_nan=False, allow_infinity=False)
    model = EnergyModel(pmc_names=model_names,
                        intercept=data.draw(st.sampled_from([0.0, -0.0]) | coefficient),
                        coefficients=data.draw(st.lists(coefficient, min_size=m, max_size=m)),
                        kind=ModelKind.UNCONSTRAINED)
    count = st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1e300, 1.7e308]) | st.floats(
        0.0, allow_infinity=False, allow_nan=False)
    vector_names = data.draw(st.permutations(sorted(set(model_names) | data.draw(
        st.sets(st.sampled_from(names))))))
    vector = PmcVector(tuple(vector_names), tuple(data.draw(
        st.lists(count, min_size=len(vector_names), max_size=len(vector_names)))))
    assert bit_keys([predict(model, vector)]) == bit_keys([predict_by_names(model, vector)])


def test_predict_keeps_zero_signs_and_overflow():
    for names, coefficients, counts, expected in [
        ((), (), (), "-0.0"),
        (("C1",), (-0.0,), (0.0,), "-0.0"),
        (("C1",), (1e300,), (1e300,), "inf"),
        (("C1", "C2"), (1e300, -1e300), (1e300, 1e300), "nan"),
    ]:
        model = EnergyModel(pmc_names=names, intercept=-0.0, coefficients=coefficients,
                            kind=ModelKind.UNCONSTRAINED)
        vector = PmcVector(("X",) + names, (7.0,) + counts)
        assert bit_keys([predict(model, vector)]) == bit_keys([predict_by_names(model, vector)])
        assert str(predict(model, vector)) == expected


def test_predict_keeps_each_models_zero_signs_when_equal_models_alternate():
    # Equal under == and of equal hash, but the sign of a zero intercept or
    # coefficient sets the sign of the prediction: no model may take
    # another's values from a cache.
    names = ("C1",)
    models = [EnergyModel(pmc_names=pmc_names, intercept=intercept, coefficients=(coefficient,),
                          kind=ModelKind.UNCONSTRAINED)
              for pmc_names in (names, tuple(["C1"]))
              for intercept, coefficient in [(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0)]]
    assert all(m == models[0] and hash(m) == hash(models[0]) for m in models)
    vector = PmcVector(("X", "C1"), (1.0, 5.0))
    for _ in range(3):
        for model in models + models[::-1]:
            assert bit_keys([predict(model, vector)]) == bit_keys([predict_by_names(model, vector)])
    assert [str(predict(m, vector)) for m in models[:4]] == ["-0.0", "0.0", "0.0", "0.0"]


def test_predict_on_a_model_of_thousands_of_pmcs():
    rng = np.random.default_rng(11)
    m = 3000
    names = tuple(f"P{j}" for j in range(m))
    coefficients = rng.normal(size=m) * 10.0 ** rng.integers(-8, 9, m)
    model = EnergyModel(pmc_names=names, intercept=1e16, coefficients=tuple(coefficients),
                        kind=ModelKind.UNCONSTRAINED)
    order = rng.permutation(m + 5)
    vector_names = tuple((names + tuple(f"X{j}" for j in range(5)))[k] for k in order)
    vector = PmcVector(vector_names, tuple(rng.uniform(0.0, 1e9, m + 5)))
    expected = predict_by_names(model, vector)
    assert bit_keys([predict(model, vector)]) == bit_keys([expected])
    # The model order matters at these magnitudes: the reversed sum differs.
    reversed_total = model.intercept
    for name, coefficient in reversed(tuple(zip(model.pmc_names, model.coefficients))):
        reversed_total += coefficient * vector.get(name)
    assert reversed_total != expected


def test_predict_interleaving_models_and_vector_name_orders():
    rng = np.random.default_rng(5)
    first = EnergyModel(pmc_names=("C1", "C2", "C3"), intercept=1.0,
                        coefficients=(1e16, 1.0, -1e16), kind=ModelKind.UNCONSTRAINED)
    second = EnergyModel(pmc_names=("C3", "C1"), intercept=-0.0, coefficients=(-0.0, 2.5),
                         kind=ModelKind.UNCONSTRAINED)
    # Equal to ``first``'s names but another tuple, and in another order.
    third = EnergyModel(pmc_names=tuple(["C1", "C2", "C3"]), intercept=-3.0,
                        coefficients=(0.5, -1e16, 1e16), kind=ModelKind.UNCONSTRAINED)
    orders = [("C3", "C9", "C2", "C1"), ("C2", "C1", "C3"), ("C1", "C2", "C3", "C4")]
    vectors = [PmcVector(names, tuple(rng.uniform(0.0, 1e6, len(names)))) for names in orders]
    calls = [(model, vector) for model in (first, second, third) for vector in vectors]
    calls = calls + calls[::-1] + [calls[k] for k in rng.integers(0, len(calls), 60)]
    for model, vector in calls:
        assert bit_keys([predict(model, vector)]) == bit_keys([predict_by_names(model, vector)])


def test_predict_on_a_model_without_pmcs():
    for intercept in (-0.0, 0.0, 2.5):
        model = EnergyModel(pmc_names=(), intercept=intercept, coefficients=(),
                            kind=ModelKind.UNCONSTRAINED)
        for vector in (PmcVector((), ()), PmcVector(("C1",), (3.0,)), PmcVector((), ())):
            assert bit_keys([predict(model, vector)]) == bit_keys([intercept])
    # As a fresh process's first call, when no earlier (names, names) pair is kept.
    first_call = subprocess.run([sys.executable, "-c", (
        "from emodel import EnergyModel, PmcVector, predict\n"
        "print(predict(EnergyModel((), -0.0, (), 'unconstrained'), PmcVector((), ())))")],
        capture_output=True, text=True)
    assert (first_call.returncode, first_call.stdout, first_call.stderr) == (0, "-0.0\n", "")


def test_predict_names_a_missing_pmc_after_a_kernel_is_kept():
    model = EnergyModel(pmc_names=("C1", "C2"), intercept=0.0, coefficients=(1.0, 2.0),
                        kind=ModelKind.UNCONSTRAINED)
    complete = PmcVector(("C2", "C1"), (1.0, 1.0))
    assert predict(model, complete) == 3.0
    for lacking, missing in [(PmcVector(("C1",), (1.0,)), "C2"),
                             (PmcVector(("C2", "C9"), (1.0, 1.0)), "C1")]:
        with pytest.raises(KeyError) as info:
            predict(model, lacking)
        assert info.value.args == (f"PMC {missing!r} not present in vector",)
        assert predict(model, complete) == 3.0


def test_predict_compiles_an_order_once_and_only_when_met_again(monkeypatch):
    """100 vector name orders in rotation over 2,000 calls compile no order
    twice and at most ``_KERNELS`` in all: an order not compiled sums in a
    loop, never by compiling on every call. An order met again is compiled
    once and kept. Every result has the bits of the name-by-name sum."""
    compiled = []
    compile_kernel = model_module._compile
    monkeypatch.setattr(model_module, "_compile",
                        lambda positions: compiled.append(positions) or compile_kernel(positions))
    monkeypatch.setattr(model_module, "_kernels", {})
    monkeypatch.setattr(model_module, "_met", set())
    monkeypatch.setattr(model_module, "_last_kernel", (None, None, None))
    rng = np.random.default_rng(19)
    names = tuple(f"C{i}" for i in range(14))
    model = EnergyModel(pmc_names=names, intercept=0.5, kind=ModelKind.UNCONSTRAINED,
                        coefficients=tuple(rng.uniform(-1e3, 1e3, len(names))))
    orders = {tuple(rng.permutation(names).tolist()) for _ in range(100)}
    vectors = [PmcVector(order, tuple(rng.uniform(0.0, 1e9, len(order)))) for order in orders]
    assert len(vectors) == 100
    for call in range(2000):
        vector = vectors[call % len(vectors)]
        assert predict(model, vector).hex() == predict_by_names(model, vector).hex()
    assert len(set(compiled)) == len(compiled) <= model_module._KERNELS

    before = len(compiled)
    for vector in [vectors[0]] * 5 + [vectors[1], vectors[0]] * 5:
        assert predict(model, vector).hex() == predict_by_names(model, vector).hex()
    assert len(compiled) - before <= 2 and len(set(compiled)) == len(compiled)
    assert model_module._last_kernel[1] is vectors[0].names
    assert model_module._last_kernel[2] in model_module._kernels.values()


def test_predict_missing_pmc():
    with pytest.raises(KeyError, match="C1"):
        predict(model_c1(), PmcVector(("C9",), (1.0,)))


def test_predict_can_be_negative():
    model = model_c1(intercept=-100.0, coefficient=1.0)
    assert predict(model, PmcVector(("C1",), (10.0,))) == -90.0


def test_evaluate_summary():
    model = model_c1()
    cases = [
        (PmcVector(("C1",), (110.0,)), 100.0),
        (PmcVector(("C1",), (95.0,)), 100.0),
        (PmcVector(("C1",), (100.0,)), 100.0),
    ]
    summary = evaluate(model, cases)
    assert summary.min_pct == 0.0
    assert summary.max_pct == pytest.approx(10.0)
    assert summary.avg_pct == pytest.approx(5.0)
    assert summary.n_cases == 3


def test_evaluate_single_case():
    summary = evaluate(model_c1(), [(PmcVector(("C1",), (90.0,)), 100.0)])
    assert summary.min_pct == summary.avg_pct == summary.max_pct == pytest.approx(10.0)


def test_evaluate_requires_cases():
    with pytest.raises(ValueError):
        evaluate(model_c1(), [])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_evaluate_matches_per_case_oracle(data):
    names = tuple(f"C{j}" for j in range(10))
    m = data.draw(st.integers(0, 8))
    model_names = data.draw(st.permutations(names))[:m]
    magnitude = st.floats(-1e3, 1e3) | st.sampled_from([0.0, 1e-9, 3.0, -7.5, 1e6])
    model = EnergyModel(
        pmc_names=model_names, intercept=data.draw(magnitude),
        coefficients=data.draw(st.lists(magnitude, min_size=m, max_size=m)),
        kind=ModelKind.UNCONSTRAINED,
    )
    count = st.floats(0.0, 1e12) | st.integers(0, 10 ** 6).map(float)
    cases = []
    for _ in range(data.draw(st.integers(1, 12))):
        # Each case lists the model's PMCs, and maybe more, in any order.
        extra = data.draw(st.sets(st.sampled_from(names)))
        vector_names = data.draw(st.permutations(sorted(set(model_names) | extra)))
        counts = data.draw(st.lists(count, min_size=len(vector_names),
                                    max_size=len(vector_names)))
        measured = data.draw(st.floats(1e-3, 1e9))
        cases.append((PmcVector(tuple(vector_names), tuple(counts)), measured))
    summary = evaluate(model, cases)
    got = (summary.min_pct, summary.avg_pct, summary.max_pct)
    low, avg, high, n = evaluate_by_cases(model, cases)
    assert [v.hex() for v in got] == [v.hex() for v in (low, avg, high)]
    assert summary.n_cases == n


def test_evaluate_matches_per_case_oracle_on_many_pmcs():
    rng = np.random.default_rng(3)
    names = tuple(f"C{j}" for j in range(24))
    model = EnergyModel(pmc_names=names[::-1], intercept=0.0,
                        coefficients=rng.uniform(0.0, 1e-6, size=24).tolist(),
                        kind=ModelKind.ZERO_INTERCEPT_NONNEG)
    counts = rng.uniform(0.0, 1e9, size=(500, 24)) * rng.uniform(0.0, 1.0, size=(500, 24)) ** 4
    cases = [(PmcVector(names, row), energy)
             for row, energy in zip(counts.tolist(), rng.uniform(1.0, 1e4, size=500).tolist())]
    summary = evaluate(model, cases)
    got = (summary.min_pct, summary.avg_pct, summary.max_pct)
    assert [v.hex() for v in got] == [v.hex() for v in evaluate_by_cases(model, cases)[:3]]


def test_evaluate_error_precedence_matches_per_case_oracle():
    model = model_c1()
    missing = (PmcVector(("C9",), (1.0,)), 100.0)
    nonpositive = (PmcVector(("C1",), (1.0,)), 0.0)
    both = (PmcVector(("C9",), (1.0,)), -1.0)
    for cases, error in [([missing, nonpositive], KeyError), ([nonpositive, missing], ValueError),
                         ([both], KeyError)]:
        with pytest.raises(error) as expected:
            evaluate_by_cases(model, cases)
        with pytest.raises(error) as raised:
            evaluate(model, cases)
        assert str(raised.value) == str(expected.value)

    # A prediction that is not finite is reported after every case's own checks.
    huge = EnergyModel(pmc_names=("C1", "C2"), intercept=0.0,
                       coefficients=(1e300, -1e300), kind=ModelKind.UNCONSTRAINED)
    fine = (PmcVector(("C1", "C2"), (1.0, 1.0)), 100.0)
    infinite = (PmcVector(("C1", "C2"), (1e300, 1.0)), 100.0)
    undefined = (PmcVector(("C1", "C2"), (1e300, 1e300)), 100.0)
    for cases, error, message in [
        ([fine, undefined, infinite], ValueError, "prediction for case 2 is not finite: nan"),
        ([fine, infinite], ValueError, "prediction for case 2 is not finite: inf"),
        ([undefined, (fine[0], 0.0)], ValueError, "measured must be > 0, got 0.0"),
        ([infinite, missing], KeyError, "PMC 'C1' not present in vector"),
    ]:
        with pytest.raises(error) as expected:
            evaluate_by_cases(huge, cases)
        with pytest.raises(error) as raised:
            evaluate(huge, cases)
        assert str(raised.value) == str(expected.value)
        assert message in str(raised.value)


def test_evaluate_on_equal_but_distinct_name_tuples_matches_per_case_oracle():
    model = EnergyModel(pmc_names=("C2", "C1"), intercept=0.5, coefficients=(3.0, 1e-3),
                        kind=ModelKind.UNCONSTRAINED)
    rng = np.random.default_rng(5)
    cases = [(PmcVector(tuple(["C1", "C2", "C3"]), tuple(rng.uniform(0.0, 1e6, 3))),
              float(rng.uniform(1.0, 1e6))) for _ in range(20)]
    assert len({id(pmc.names) for pmc, _ in cases}) == len(cases)
    summary = evaluate(model, cases)
    got = (summary.min_pct, summary.avg_pct, summary.max_pct)
    assert [v.hex() for v in got] == [v.hex() for v in evaluate_by_cases(model, cases)[:3]]


def test_evaluate_reports_a_cases_missing_pmc_before_its_energy():
    model = model_c1()
    fine = (PmcVector(("C1",), (1.0,)), 100.0)
    for cases, error in [
        ([fine, (PmcVector(("C9",), (1.0,)), 0.0), (fine[0], -1.0)], KeyError),
        ([fine, (PmcVector(("C9",), (1.0,)), "5"), (fine[0], 0.0)], KeyError),
        ([fine, (fine[0], 0), (PmcVector(("C9",), (1.0,)), 100.0)], ValueError),
        ([fine, (fine[0], "5"), (PmcVector(("C9",), (1.0,)), 0.0)], TypeError),
        ([fine, (fine[0], 0.0), (fine[0], "5")], ValueError),
        ([fine, (fine[0], None), (fine[0], 0.0)], TypeError),
        ([(fine[0], -2), fine], ValueError),
    ]:
        with pytest.raises(error) as expected:
            evaluate_by_cases(model, cases)
        with pytest.raises(error) as raised:
            evaluate(model, cases)
        assert str(raised.value) == str(expected.value)
    # A non-finite energy is a fault of its own case, ahead of a later case's.
    for later in ("5", None, 0.0):
        with pytest.raises(ValueError, match="^measured energy for case 2 is not finite: nan$"):
            evaluate(model, [fine, (fine[0], math.nan), (fine[0], later)])


def test_evaluate_rejects_non_finite_measured_energy():
    fine = (PmcVector(("C1",), (1.0,)), 100.0)
    for energy in (math.inf, math.nan):
        with pytest.raises(ValueError) as info:
            evaluate(model_c1(), [fine, (PmcVector(("C1",), (1.0,)), energy)])
        assert str(info.value) == f"measured energy for case 2 is not finite: {energy!r}"


def test_error_summary_validation():
    with pytest.raises(ValueError):
        ErrorSummary(min_pct=5.0, avg_pct=4.0, max_pct=6.0, n_cases=2)
    with pytest.raises(ValueError):
        ErrorSummary(min_pct=1.0, avg_pct=2.0, max_pct=3.0, n_cases=0)
    payload = ErrorSummary(1.0, 2.0, 3.0, 4).to_json_dict()
    assert payload == {"min_pct": 1.0, "avg_pct": 2.0, "max_pct": 3.0, "n_cases": 4}
