import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emodel import (
    MAX,
    SUM,
    ComposabilityReport,
    EnergyModel,
    ModelKind,
    Operator,
    OperatorTable,
    ViolationKind,
    check_conservation,
    compose,
    generate_cases,
    negative_witness,
    predict,
    strong_composability_check,
    sum_plus_delta,
    verify_weak_composability,
)
from emodel import conservation
from emodel.conservation import COUNT_RANGE
from emodel.core import PmcVector
from helpers import (
    compose_by_names,
    conservation_gap_by_names,
    generate_cases_by_formula,
    make_run,
    strong_composability_by_loops,
    weak_composability_by_loops,
)


def linear_model(coefficients, names=None, intercept=0.0,
                 kind=ModelKind.UNCONSTRAINED):
    names = names or tuple(f"P{i + 1}" for i in range(len(coefficients)))
    return EnergyModel(
        pmc_names=names, intercept=intercept,
        coefficients=tuple(coefficients), kind=kind,
    )


# --- operators -------------------------------------------------------------


def test_operator_arithmetic():
    assert SUM.apply(2.0, 3.0) == 5.0
    assert MAX.apply(2.0, 3.0) == 3.0
    assert sum_plus_delta(4.0).apply(2.0, 3.0) == 9.0
    assert sum_plus_delta(-1.5).apply(2.0, 3.0) == 3.5


def test_operator_apply_on_scalars_returns_python_scalars():
    for operator in (SUM, MAX, sum_plus_delta(0.5)):
        assert type(operator.apply(2.0, 3.0)) is float
    assert type(MAX.apply(3, 2)) is int and MAX.apply(3, 2) == 3


def test_operator_validation():
    with pytest.raises(ValueError):
        Operator("median")
    with pytest.raises(ValueError):
        Operator("max", delta=1.0)
    with pytest.raises(ValueError):
        Operator("sum_plus_delta", delta=math.inf)
    assert sum_plus_delta(2.5).label() == "sum_plus_delta(2.5)"
    assert MAX.label() == "max"


def test_operator_table_precedence():
    table = OperatorTable(default=MAX, overrides={2: sum_plus_delta(9.0)})
    assert table.operator_for(2) == sum_plus_delta(9.0)
    assert table.operator_for(1) is MAX
    assert OperatorTable().operator_for(1) is SUM


def test_operator_table_validation():
    with pytest.raises(ValueError, match="1-based position, got 0"):
        OperatorTable(overrides={0: MAX})
    with pytest.raises(TypeError):
        OperatorTable(overrides={1: "max"})
    # overrides are keyed by position alone; app-pair keys are rejected
    with pytest.raises(ValueError, match=r"1-based position, got \('\*', '\*', 1\)"):
        OperatorTable(overrides={("*", "*", 1): MAX})


# --- composition -----------------------------------------------------------


def test_compose_default_is_addition():
    a = PmcVector(("P1", "P2"), (1.0, 10.0))
    b = PmcVector(("P1", "P2"), (2.0, 20.0))
    assert compose(a, b).counts == (3.0, 30.0)


def test_compose_aligns_names():
    a = PmcVector(("P1", "P2"), (1.0, 10.0))
    b = PmcVector(("P2", "P1"), (20.0, 2.0))
    composed = compose(a, b)
    assert composed.names == ("P1", "P2")
    assert composed.counts == (3.0, 30.0)


def test_compose_rejects_different_name_sets():
    a = PmcVector(("P1",), (1.0,))
    b = PmcVector(("P2",), (2.0,))
    with pytest.raises(ValueError, match="name sets differ"):
        compose(a, b)


def test_compose_with_positional_override():
    a = PmcVector(("P1", "P2"), (5.0, 10.0))
    b = PmcVector(("P1", "P2"), (3.0, 20.0))
    table = OperatorTable(overrides={1: MAX})
    assert compose(a, b, table).counts == (5.0, 30.0)


def test_compose_index_out_of_range():
    a = PmcVector(("P1",), (1.0,))
    table = OperatorTable(overrides={2: MAX})
    with pytest.raises(ValueError, match="index 2 exceeds the 1-component"):
        compose(a, a, table)


# --- conservation checks ---------------------------------------------------


def test_clean_model_has_no_violations():
    report = check_conservation(linear_model((1.0, 2.0), kind=ModelKind.ZERO_INTERCEPT))
    assert report.clean
    assert report.violations == ()
    assert negative_witness(linear_model((1.0, 2.0), kind=ModelKind.ZERO_INTERCEPT)) is None


def test_positive_intercept_flagged_without_witness():
    report = check_conservation(linear_model((1.0,), intercept=42.0))
    kinds = [v.kind for v in report.violations]
    assert kinds == [ViolationKind.NONZERO_INTERCEPT]
    assert report.violations[0].value == 42.0
    assert not report.clean


def test_negative_coefficient_yields_witness():
    model = linear_model((2.0, -0.5, -3.0), intercept=10.0)
    report = check_conservation(model)
    kinds = [v.kind for v in report.violations]
    assert kinds == [
        ViolationKind.NONZERO_INTERCEPT,
        ViolationKind.NEGATIVE_COEFFICIENT,
        ViolationKind.NEGATIVE_COEFFICIENT,
        ViolationKind.NEGATIVE_PREDICTION_WITNESS,
    ]
    witness_violation = report.violations[-1]
    witness = witness_violation.witness
    # weight goes on the most negative coefficient, P3
    assert witness.get("P3") > 0
    assert witness.get("P1") == witness.get("P2") == 0.0
    assert witness_violation.predicted_j == predict(model, witness)
    assert witness_violation.predicted_j < 0
    assert witness_violation.predicted_j == pytest.approx(10.0 - 2.0 * 10.0)


def test_negative_intercept_zero_vector_witness():
    model = linear_model((1.0, 0.0), intercept=-5.0)
    report = check_conservation(model)
    kinds = [v.kind for v in report.violations]
    assert kinds == [
        ViolationKind.NONZERO_INTERCEPT,
        ViolationKind.NEGATIVE_PREDICTION_WITNESS,
    ]
    witness = report.violations[-1].witness
    assert witness.counts == (0.0, 0.0)
    assert report.violations[-1].predicted_j == -5.0


coefficient = st.one_of(
    st.just(0.0), st.floats(1e-6, 10.0), st.floats(-10.0, -1e-6)
)


@given(
    intercept=st.floats(-100.0, 100.0),
    coefficients=st.lists(coefficient, min_size=1, max_size=4),
)
def test_witness_exists_iff_negative_reachable(intercept, coefficients):
    model = linear_model(coefficients, intercept=intercept)
    witness = negative_witness(model)
    reachable = intercept < 0 or any(c < 0 for c in coefficients)
    assert (witness is not None) == reachable
    if witness is not None:
        assert all(c >= 0 for c in witness.counts)
        assert predict(model, witness) < 0


def test_witness_clamps_vanishing_coefficient():
    # so small a slope that the ideal witness count overflows: the count is
    # clamped, and with a zero intercept the prediction still goes negative
    model = linear_model((-2.5e-309,), intercept=0.0)
    witness = negative_witness(model)
    assert witness is not None
    assert math.isfinite(witness.counts[0])
    assert predict(model, witness) < 0


def test_witness_unreachable_within_float_range():
    # the negative term cannot overcome the intercept with any finite count
    model = linear_model((-2.5e-309,), intercept=10.0)
    assert negative_witness(model) is None
    kinds = [v.kind for v in check_conservation(model).violations]
    assert kinds == [
        ViolationKind.NONZERO_INTERCEPT,
        ViolationKind.NEGATIVE_COEFFICIENT,
    ]


def test_violation_report_json():
    report = check_conservation(linear_model((-1.0,), intercept=3.0))
    payload = report.to_json_dict()
    assert json.dumps(payload)
    assert payload["clean"] is False
    assert len(payload["violations"]) == 3


# --- weak composability ----------------------------------------------------


def random_pairs(names, count, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        a, b = rng.uniform(1.0, 1e9, size=(2, len(names)))
        pairs.append((PmcVector(names, tuple(a)), PmcVector(names, tuple(b))))
    return pairs


def test_weak_composability_holds_for_sums():
    model = linear_model((1.5, 0.25, 40.0), kind=ModelKind.ZERO_INTERCEPT)
    pairs = random_pairs(model.pmc_names, 50, seed=3)
    ok, counterexamples = verify_weak_composability(model, pairs)
    assert ok
    assert counterexamples == []


def test_weak_composability_fails_under_max():
    model = linear_model((1.5,), kind=ModelKind.ZERO_INTERCEPT)
    pairs = random_pairs(model.pmc_names, 10, seed=4)
    table = OperatorTable(default=MAX)
    ok, counterexamples = verify_weak_composability(model, pairs, table)
    assert not ok
    assert len(counterexamples) == 10
    worst = counterexamples[0]
    assert worst.lhs_j != worst.rhs_j


def test_weak_composability_requires_zero_intercept():
    model = linear_model((1.0,), intercept=2.0)
    with pytest.raises(ValueError, match="zero-intercept"):
        verify_weak_composability(model, [])


def test_composability_tolerance_is_cancellation_aware():
    # enormous opposing magnitudes: the raw gap |lhs - rhs| cannot be
    # compared against lhs itself without tripping over cancellation
    model = linear_model((1e9, 1e9), kind=ModelKind.ZERO_INTERCEPT)
    a = PmcVector(("P1", "P2"), (1e11, 1.0))
    b = PmcVector(("P1", "P2"), (1e11, 1.0))
    ok, _ = verify_weak_composability(model, [(a, b)])
    assert ok


# --- strong composability --------------------------------------------------


def test_strong_check_passes_for_linear_model():
    model = linear_model((2.0, 0.5), kind=ModelKind.ZERO_INTERCEPT)
    report = strong_composability_check(model, trials=100, seed=11)
    assert report.passed
    assert report.applicable
    assert report.additive_ok
    assert report.additive_counterexamples == ()
    # two operators x two nonzero coefficients
    assert len(report.detections) == 4
    for detection in report.detections:
        assert detection.detected
        assert detection.trials_used == 1
        assert detection.witness is not None


def test_strong_check_skips_zero_coefficients():
    model = linear_model((5.0, 0.0), kind=ModelKind.ZERO_INTERCEPT)
    report = strong_composability_check(model, trials=50, seed=1)
    assert report.passed
    assert {d.pmc_index for d in report.detections} == {1}
    assert len(report.detections) == 2


def test_strong_check_vacuous_for_zero_model():
    model = linear_model((0.0, 0.0), kind=ModelKind.ZERO_INTERCEPT)
    report = strong_composability_check(model, trials=10, seed=0)
    assert not report.applicable
    assert report.detections == ()
    assert report.passed


def test_strong_check_deterministic():
    model = linear_model((1.0, 3.0), kind=ModelKind.ZERO_INTERCEPT)
    first = strong_composability_check(model, trials=20, seed=7)
    second = strong_composability_check(model, trials=20, seed=7)
    assert first == second
    other_seed = strong_composability_check(model, trials=20, seed=8)
    assert other_seed.passed


def test_strong_check_validation():
    zero_intercept = linear_model((1.0,), kind=ModelKind.ZERO_INTERCEPT)
    with pytest.raises(ValueError):
        strong_composability_check(zero_intercept, trials=0)
    with pytest.raises(ValueError):
        strong_composability_check(zero_intercept, delta=0.0)
    with pytest.raises(ValueError, match="zero-intercept"):
        strong_composability_check(linear_model((1.0,), intercept=1.0))


def test_strong_check_report_serializes():
    model = linear_model((1.0,), kind=ModelKind.ZERO_INTERCEPT)
    report = strong_composability_check(model, trials=5, seed=2)
    payload = report.to_json_dict()
    text = json.dumps(payload)
    assert '"passed": true' in text
    assert isinstance(report, ComposabilityReport)


def test_strong_check_negative_delta_detected():
    model = linear_model((4.0,), kind=ModelKind.ZERO_INTERCEPT)
    report = strong_composability_check(model, trials=50, seed=5, delta=-2.5)
    assert report.passed
    labels = {d.operator.label() for d in report.detections}
    assert labels == {"max", "sum_plus_delta(-2.5)"}


def test_seed_must_be_non_negative():
    model = linear_model((1.0,), kind=ModelKind.ZERO_INTERCEPT)
    message = "^seed must be a non-negative integer, got -1$"
    with pytest.raises(ValueError, match=message):
        strong_composability_check(model, trials=5, seed=-1)
    with pytest.raises(ValueError, match=message):
        generate_cases(model, 3, seed=-1)


def test_huge_delta_overflow_is_still_detected():
    # delta = 1e308 overflows lhs and scale at P1 (2 * 1e308 = inf); compared
    # on counts scaled by a power of two, the planted operator is caught.
    model = linear_model((2.0, 0.0, 3.2e-9), kind=ModelKind.ZERO_INTERCEPT_NONNEG)
    report = strong_composability_check(model, trials=5, seed=0, delta=1e308)
    assert report.passed
    planted = [d for d in report.detections if d.operator == sum_plus_delta(1e308)]
    assert [(d.pmc_index, d.detected, d.trials_used) for d in planted] == [(1, True, 1), (3, True, 1)]
    assert planted[0].witness.lhs_j == math.inf  # reported as computed, unscaled
    assert planted[0].witness.to_json_dict()["lhs_j"] is None  # JSON has no inf
    assert harness_outcome(strong_composability_by_loops, model, 5, 0, delta=1e308) == json.dumps(
        report.to_json_dict())


def test_overflowed_comparison_matches_exact_arithmetic():
    # Coefficients near 1e300 overflow lhs, rhs or scale; the verdict on the
    # scaled counts must be the one exact rational arithmetic gives.
    rng = np.random.default_rng(11)
    overflowed = 0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        names = tuple(f"P{i + 1}" for i in range(n))
        exponents = rng.integers(280, 308, n).astype(float)
        model = linear_model(tuple(rng.uniform(-1.0, 1.0, n) * 10.0 ** exponents), names)
        vec_a, vec_b = (PmcVector(names, tuple(10.0 ** rng.uniform(0.0, 11.0, n)))
                        for _ in range(2))
        operator = (SUM, MAX, sum_plus_delta(1e9))[int(rng.integers(0, 3))]
        table = OperatorTable(overrides={int(rng.integers(1, n + 1)): operator})
        composed = compose(vec_a, vec_b, table)
        overflowed += not all(map(math.isfinite, conservation_gap_by_names(
            model, vec_a, vec_b, composed)))
        terms = [(Fraction(c), Fraction(x), Fraction(u), Fraction(v)) for c, x, u, v in zip(
            model.coefficients, composed.counts, vec_a.counts, vec_b.counts)]
        gap = abs(sum(c * (x - u - v) for c, x, u, v in terms))
        scale = sum(abs(c) * (abs(x) + u + v) for c, x, u, v in terms)
        ok, _ = verify_weak_composability(model, [(vec_a, vec_b)], table)
        assert ok == (gap <= Fraction(1e-12) * scale)
    assert overflowed > 50


# --- synthetic cases -------------------------------------------------------


def test_generate_cases_zero_noise_reproduces_model():
    model = linear_model((2.0, 0.5), intercept=7.0)
    cases = generate_cases(model, 20, seed=3)
    assert len(cases) == 20
    low, high = COUNT_RANGE
    for vector, measured in cases:
        assert measured == predict(model, vector)
        assert all(low <= c <= high for c in vector.counts)


def test_generate_cases_deterministic_and_noisy():
    model = linear_model((2.0,), kind=ModelKind.ZERO_INTERCEPT)
    a = generate_cases(model, 5, seed=9, noise_sigma=1.0)
    b = generate_cases(model, 5, seed=9, noise_sigma=1.0)
    assert a == b
    clean = generate_cases(model, 5, seed=9)
    assert any(x[1] != y[1] for x, y in zip(a, clean))
    # noise perturbs measured energy, not the counts
    assert all(x[0] == y[0] for x, y in zip(a, clean))


def test_generate_cases_validation():
    model = linear_model((1.0,))
    with pytest.raises(ValueError):
        generate_cases(model, 0)
    with pytest.raises(ValueError):
        generate_cases(model, 3, noise_sigma=-1.0)


# --- reference harness -------------------------------------------------------

NAME_POOL = ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "cycles", "l1_miss")

oracle_coefficient = st.one_of(
    st.just(0.0),
    st.floats(-1e3, 1e3),
    st.sampled_from([5e-324, -5e-324, 1e-300, -2.5e-309, 3.2e-9, 1e300, -1e300]),
)
oracle_delta = st.one_of(
    st.sampled_from([1.0, -1.0, 1e9, -1e9, 1e12, -1e12, 0.0, math.inf, math.nan]),
    st.floats(-1e13, 1e13),
)
oracle_operator = st.one_of(
    st.just(SUM), st.just(MAX), oracle_delta.filter(math.isfinite).map(sum_plus_delta)
)


@st.composite
def oracle_models(draw):
    names = tuple(draw(st.lists(st.sampled_from(NAME_POOL), min_size=1, max_size=8, unique=True)))
    coefficients = draw(st.lists(oracle_coefficient, min_size=len(names), max_size=len(names)))
    intercept = draw(st.sampled_from([0.0, 0.0, 0.0, 2.0, -1e-9]))
    return linear_model(coefficients, names, intercept=intercept)


def harness_outcome(check, *args, **kwargs):
    """A check's report as JSON bytes, or the type and text of its error."""
    try:
        result = check(*args, **kwargs)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(result, ComposabilityReport):
        return json.dumps(result.to_json_dict())
    ok, counterexamples = result
    return json.dumps([ok, [c.to_json_dict() for c in counterexamples]])


def composed_outcome(compose_pair, *args):
    """A composed vector's names and exact counts, or the type and text of its error."""
    try:
        vector = compose_pair(*args)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)
    return vector.names, [count.hex() for count in vector.counts]


@settings(max_examples=300, deadline=None)
@given(
    model=oracle_models(),
    trials=st.integers(1, 40),
    seed=st.integers(0, 2**32),
    delta=oracle_delta,
)
@example(model=linear_model((2.0, -0.5), kind=ModelKind.ZERO_INTERCEPT), trials=10, seed=1,
         delta=-1e12)
@example(model=linear_model((3.0, -1e-300, 0.0)), trials=40, seed=3, delta=1e9)
def test_strong_check_matches_reference_loops(model, trials, seed, delta):
    got = harness_outcome(strong_composability_check, model, trials, seed, delta=delta)
    expected = harness_outcome(strong_composability_by_loops, model, trials, seed, delta=delta)
    assert got == expected


@st.composite
def oracle_pairs(draw, names):
    count = st.one_of(st.floats(0.0, 1e12), st.sampled_from([0.0, 1.0, 5e-324, 1e11]))
    pairs = []
    for _ in range(draw(st.integers(0, 5))):
        pair = []
        for side in "ab":
            order = tuple(draw(st.permutations(names)))
            if len(names) > 1 and draw(st.integers(0, 9)) == 0:
                order = order[1:] + ("other",)
            counts = draw(st.lists(count, min_size=len(order), max_size=len(order)))
            if draw(st.booleans()):
                pair.append(make_run(f"app_{side}", order, counts, 1.0))
            else:
                pair.append(PmcVector(order, tuple(counts)))
        pairs.append(tuple(pair))
    return pairs


@settings(max_examples=300, deadline=None)
@given(data=st.data(), model=oracle_models())
def test_weak_check_matches_reference_loops(data, model):
    n = len(model.pmc_names)
    pairs = data.draw(oracle_pairs(model.pmc_names))
    default = data.draw(oracle_operator)
    overrides = data.draw(st.dictionaries(st.integers(1, n + 1), oracle_operator, max_size=3))
    tol = data.draw(st.sampled_from([1e-12, 0.0, 1e-6]))
    table = OperatorTable(default, overrides)

    got = harness_outcome(verify_weak_composability, model, pairs, table, tol)
    expected = harness_outcome(weak_composability_by_loops, model, pairs, default, overrides, tol)
    assert got == expected
    for run_a, run_b in pairs:
        got = composed_outcome(compose, run_a, run_b, table)
        assert got == composed_outcome(compose_by_names, run_a, run_b, default, overrides)


def test_weak_check_boundary_verdicts_match_reference():
    # With tol = |lhs - rhs| / scale, a verdict turns on the last bits of the
    # scale, so these pairs pin the scale's summation order and grouping.
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        names = tuple(f"P{i + 1}" for i in range(n))
        magnitudes = 10.0 ** rng.integers(-9, 3, n).astype(float)
        model = linear_model(tuple(rng.uniform(-10.0, 10.0, n) * magnitudes), names)
        vec_a, vec_b = (PmcVector(names, tuple(10.0 ** rng.uniform(0.0, 11.0, n)))
                        for _ in range(2))
        composed = compose_by_names(vec_a, vec_b, MAX, {})
        lhs, rhs, scale = conservation_gap_by_names(model, vec_a, vec_b, composed)
        tol = abs(lhs - rhs) / scale
        expected = weak_composability_by_loops(model, [(vec_a, vec_b)], MAX, {}, tol)
        got = verify_weak_composability(model, [(vec_a, vec_b)], OperatorTable(MAX), tol)
        assert got == expected


def test_strong_check_rounds_match_reference_loops():
    # Tiny coefficients hide planted operators from most trials, so
    # detections land in every round of trials (1, 2-5, 6-21, 22-85) and some
    # clauses use the whole budget of 200, whose last round is cut short.
    model = linear_model((1.0, 1e-12, 3e-13, 1e-13, 2e-14), kind=ModelKind.ZERO_INTERCEPT_NONNEG)
    used = set()
    for seed in range(4):
        report = strong_composability_check(model, 200, seed)
        assert harness_outcome(strong_composability_by_loops, model, 200, seed) == json.dumps(
            report.to_json_dict())
        used |= {d.trials_used for d in report.detections}
    rounds = {next(r for r, last in enumerate((1, 5, 21, 85, 200)) if t <= last) for t in used}
    assert rounds == {0, 1, 2, 3, 4}


def test_strong_check_row_cap_keeps_reports(monkeypatch):
    # A cap of 8 rows splits the 60 additive trials into 8 batches and
    # narrows the planted rounds (6 clauses share the first one); the
    # report is still the trial-by-trial one.
    model = linear_model((1.0, 1e-12, 3e-13), kind=ModelKind.ZERO_INTERCEPT_NONNEG)
    monkeypatch.setattr(conservation, "_MAX_ROWS", 8)
    rows = []
    draw_pairs = conservation._draw_pairs
    monkeypatch.setattr(conservation, "_draw_pairs",
                        lambda n, streams: rows.append(len(streams)) or draw_pairs(n, streams))
    for seed in range(3):
        rows.clear()
        report = strong_composability_check(model, 60, seed)
        assert rows[:8] == [8] * 7 + [4] and max(rows) == 8
        assert harness_outcome(strong_composability_by_loops, model, 60, seed) == json.dumps(
            report.to_json_dict())
    assert any(d.trials_used > 8 for d in report.detections)


def test_strong_check_beyond_row_cap_matches_reference_loops():
    # More trials than one kernel call holds, at the module's own cap; P2's
    # planted operators are never seen, so both clauses run every trial.
    trials = conservation._MAX_ROWS + 5
    model = linear_model((1.0, 1e-300), kind=ModelKind.ZERO_INTERCEPT_NONNEG)
    report = strong_composability_check(model, trials, 4)
    assert [d.trials_used for d in report.detections if d.pmc_index == 2] == [trials, trials]
    assert harness_outcome(strong_composability_by_loops, model, trials, 4) == json.dumps(
        report.to_json_dict())


def test_strong_check_invalid_count_follows_clause_order():
    # sum_plus_delta(-1000) composes a negative count for P3 at trial 1 but
    # for P2 only at trial 34, three rounds later; P1's clause is detected at
    # trial 0. A clause-by-clause loop meets P2's count first.
    model = linear_model((1.0, 1e-300, 1e-300), kind=ModelKind.ZERO_INTERCEPT_NONNEG)
    expected = (ValueError, "PMC 'P2' has invalid count -521.3618584128378")
    assert harness_outcome(strong_composability_check, model, 100, 8, delta=-1e3) == expected
    assert harness_outcome(strong_composability_by_loops, model, 100, 8, delta=-1e3) == expected


def test_max_keeps_first_operand_on_signed_zero_tie():
    zero, negative_zero = PmcVector(("P1",), (0.0,)), PmcVector(("P1",), (-0.0,))
    table = OperatorTable(MAX)
    assert math.copysign(1.0, compose(zero, negative_zero, table).counts[0]) == 1.0
    assert math.copysign(1.0, compose(negative_zero, zero, table).counts[0]) == -1.0
    assert math.copysign(1.0, MAX.apply(-0.0, 0.0)) == -1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_composability_checks_raise_no_numpy_warnings():
    model = linear_model((1e300, -1e300, 3.2e-9), kind=ModelKind.ZERO_INTERCEPT)
    strong_composability_check(model, 20, 1, delta=1e308)
    big = PmcVector(model.pmc_names, (1e308, 1e308, 1.0))
    verify_weak_composability(model, [(big, big)], OperatorTable(MAX))
    with pytest.raises(ValueError, match="PMC 'P1' has invalid count inf"):
        compose(big, big)


@settings(max_examples=100, deadline=None)
@given(
    model=oracle_models(),
    n_cases=st.integers(1, 20),
    seed=st.integers(0, 2**32),
    noise_sigma=st.sampled_from([0.0, 1e-3, 1.0, 1e6]),
)
def test_generate_cases_matches_reference_formula(model, n_cases, seed, noise_sigma):
    def hexed(cases):
        return [([c.hex() for c in vector.counts], measured.hex()) for vector, measured in cases]

    got = generate_cases(model, n_cases, seed, noise_sigma)
    assert hexed(got) == hexed(generate_cases_by_formula(model, n_cases, seed, noise_sigma))
