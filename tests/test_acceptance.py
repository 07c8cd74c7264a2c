"""End-to-end acceptance gate.

One test per numbered criterion; each records a PASS/FAIL line that the
terminal summary prints after the run. Every quantitative bound asserted here
is checked at its stated tolerance, and timed criteria measure wall-clock
time of the operation under test.
"""

import json
import time

import numpy as np
import pytest

from emodel import (
    Classification,
    ModelKind,
    PmcVector,
    core_config_analysis,
    dynamic_error_from_total,
    evaluate,
    fit,
    load_model,
    partition,
    percent_error,
    predict,
    run_additivity_test,
    sample_mean_ci,
    strong_composability_check,
    student_t_quantile,
    tolerance_sweep,
)
from emodel.core import EnergyModel
from emodel.partitioning import energy_loss
from helpers import (
    dataset_from_matrix,
    headline_workload,
    make_compound,
    make_dataset,
    make_run,
    nnls_by_enumeration,
    partition_by_enumeration,
    random_energy_function,
)

SIX_PMCS = ("X1", "X2", "X3", "X4", "X5", "X6")

# Reference microbenchmark counts and the four frozen model files whose
# predictions on them are known to three significant figures.
MICRO_COUNTS = PmcVector(
    SIX_PMCS,
    (7022011.0, 623142.0, 121489.0, 5101219180.0, 33210.0, 186971207082.0),
)

REFERENCE_MODELS = {
    "model_a": (
        {
            "kind": "unconstrained",
            "pmc_names": list(SIX_PMCS),
            "intercept": 1.02e01,
            "coefficients": [3.06e-09, 1.95e-08, 3.30e-07, -1.02e-06, 6.18e-08, -9.39e-11],
        },
        -5210.52,
    ),
    "model_b": (
        {
            "kind": "unconstrained",
            "pmc_names": ["X1", "X2", "X3", "X5", "X6"],
            "intercept": 1.28e01,
            "coefficients": [3.68e-09, 2.26e-10, 3.43e-07, 7.40e-08, -4.763e-10],
        },
        -76.23,
    ),
    "model_c": (
        {
            "kind": "unconstrained",
            "pmc_names": ["X1", "X3", "X5", "X6"],
            "intercept": 1.64e01,
            "coefficients": [3.71e-09, 3.34e-07, 7.45e-08, -4.87e-10],
        },
        -74.59,
    ),
    "model_d": (
        {
            "kind": "unconstrained",
            "pmc_names": ["X1", "X5", "X6"],
            "intercept": 2.99e01,
            "coefficients": [3.72e-09, 7.54e-08, -5.076e-10],
        },
        -64.98,
    ),
}


def test_criterion_1_microbenchmark_predictions(tmp_path, acceptance):
    started = time.perf_counter()
    deviations = {}
    for name, (document, expected) in REFERENCE_MODELS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        model = load_model(path)
        value = predict(model, MICRO_COUNTS)
        deviations[name] = abs(value - expected)
    elapsed = time.perf_counter() - started

    passed = all(d <= 0.5 for d in deviations.values()) and elapsed < 1.0
    worst = max(deviations.values())
    acceptance(
        1,
        "four frozen model files reproduce reference predictions within 0.5 J",
        passed,
        f"worst deviation {worst:.3f} J, {elapsed:.3f} s",
    )
    assert passed, deviations


def test_criterion_2_error_decomposition(acceptance):
    checks = [
        (dynamic_error_from_total(16500.0, 18000.0, 9000.0), 16.67),
        (percent_error(16500.0, 18000.0), 8.33),
        (dynamic_error_from_total(9500.0, 10000.0, 7000.0), 16.67),
        (dynamic_error_from_total(9500.0, 10000.0, 4000.0), 8.33),
    ]
    deviations = [abs(got - want) for got, want in checks]
    passed = all(d <= 0.05 for d in deviations)
    acceptance(
        2,
        "dynamic-vs-total error decomposition reproduces worked examples to 0.05 pp",
        passed,
        f"worst deviation {max(deviations):.4f} pp",
    )
    assert passed, checks


def nnls_instance(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(3, 6))
    m = p + int(rng.integers(3, 10))
    x = rng.uniform(0.0, 1000.0, size=(m, p))
    # mix of positive, zero, and negative true weights so some instances
    # clamp at the boundary and others stay interior
    beta = rng.uniform(-2.0, 5.0, size=p)
    y = np.maximum(x @ beta + rng.normal(0.0, 50.0, size=m), 0.0)
    return x, y


def test_criterion_3_nnls_against_enumeration(acceptance):
    started = time.perf_counter()
    kkt_ok = residual_ok = 0
    for seed in range(100):
        x, y = nnls_instance(seed)
        dataset = dataset_from_matrix(x.tolist(), y.tolist())
        model = fit(dataset, kind=ModelKind.ZERO_INTERCEPT_NONNEG)
        beta = np.array(model.coefficients)

        w = x.T @ (y - x @ beta)
        scale = max(1.0, float(np.abs(x.T @ y).max()))
        satisfied = bool(np.all(beta >= 0.0)) and all(
            abs(w[k]) <= 1e-8 * scale if beta[k] > 0 else w[k] <= 1e-8 * scale
            for k in range(len(beta))
        )
        kkt_ok += satisfied

        _, expected_norm = nnls_by_enumeration(x, y)
        ours = float(np.linalg.norm(y - x @ beta))
        residual_ok += ours <= expected_norm * (1.0 + 1e-6) + 1e-9
    elapsed = time.perf_counter() - started

    passed = kkt_ok == 100 and residual_ok == 100 and elapsed < 10.0
    acceptance(
        3,
        "constrained fits satisfy KKT at 1e-8 and match support enumeration on 100 instances",
        passed,
        f"kkt {kkt_ok}/100, residual {residual_ok}/100, {elapsed:.2f} s",
    )
    assert passed


def test_criterion_4_ols_orthogonality_and_recovery(acceptance):
    orthogonal = recovered = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        p = int(rng.integers(2, 5))
        m = p + int(rng.integers(6, 20))
        x = rng.uniform(0.0, 1000.0, size=(m, p))
        beta = rng.uniform(0.5, 5.0, size=p)
        intercept = float(rng.uniform(0.0, 50.0))

        noisy = np.maximum(intercept + x @ beta + rng.normal(0.0, 10.0, size=m), 0.0)
        model = fit(dataset_from_matrix(x.tolist(), noisy.tolist()))
        residual = noisy - (model.intercept + x @ np.array(model.coefficients))
        r_norm = float(np.linalg.norm(residual)) + 1e-300
        ones = np.ones(m)
        columns_ok = all(
            abs(float(col @ residual)) <= 1e-8 * float(np.linalg.norm(col)) * r_norm
            for col in np.column_stack([ones, x]).T
        )
        orthogonal += columns_ok

        exact = intercept + x @ beta
        plain = fit(dataset_from_matrix(x.tolist(), exact.tolist()))
        through_origin = fit(
            dataset_from_matrix(x.tolist(), (x @ beta).tolist()),
            kind=ModelKind.ZERO_INTERCEPT,
        )
        recovery_ok = (
            abs(plain.intercept - intercept) <= 1e-9 * max(1.0, abs(intercept))
            and np.allclose(plain.coefficients, beta, rtol=1e-9, atol=0.0)
            and np.allclose(through_origin.coefficients, beta, rtol=1e-9, atol=0.0)
        )
        recovered += recovery_ok

    passed = orthogonal == 100 and recovered == 100
    acceptance(
        4,
        "least-squares residuals orthogonal at 1e-8; noise-free recovery at 1e-9 for both kinds",
        passed,
        f"orthogonality {orthogonal}/100, recovery {recovered}/100",
    )
    assert passed


def test_criterion_5_composability_harness(acceptance):
    conservation_ok = True
    detection_ok = True
    max_trials_used = 0
    for seed, coefficients in [
        (0, (3.2e-9, 7.5e-8, 5.0e-10)),
        (1, (1.0, 0.0, 2.5)),
        (2, (42.0,)),
    ]:
        model = EnergyModel(
            pmc_names=tuple(f"P{i + 1}" for i in range(len(coefficients))),
            intercept=0.0,
            coefficients=coefficients,
            kind=ModelKind.ZERO_INTERCEPT,
        )
        report = strong_composability_check(model, trials=1000, seed=seed)
        conservation_ok = conservation_ok and report.additive_ok
        for detection in report.detections:
            detection_ok = detection_ok and detection.detected and detection.trials_used <= 100
            max_trials_used = max(max_trials_used, detection.trials_used)

    passed = conservation_ok and detection_ok
    acceptance(
        5,
        "sum-composition conserves energy over 1000 pairs; planted operators caught within 100 trials",
        passed,
        f"max trials to detect: {max_trials_used}",
    )
    assert passed


def injected_error_dataset():
    names = ("P1", "P2", "P3", "P4")
    base = (1000.0,) * 4
    runs = [
        make_run("alpha", names, base, 50.0, run_id="r1"),
        make_run("alpha", names, base, 50.0, run_id="r2"),
        make_run("beta", names, base, 50.0, run_id="r1"),
        make_run("beta", names, base, 50.0, run_id="r2"),
    ]
    # base sums are 2000 per PMC; compounds inject 3, 12, 25, 40 percent
    compound = make_compound(
        "ab", "alpha", "beta", names, (2060.0, 2240.0, 2500.0, 2800.0), 100.0
    )
    return make_dataset(names, runs, [compound])


def test_criterion_6_additivity_classification(acceptance):
    report = run_additivity_test(injected_error_dataset(), tolerance_pct=5.0)
    classifications = [e.classification for e in report.per_pmc]
    class_ok = classifications == [
        Classification.ADDITIVE,
        Classification.NON_ADDITIVE,
        Classification.NON_ADDITIVE,
        Classification.NON_ADDITIVE,
    ]
    sweep = tolerance_sweep(report, [5.0, 20.0, 30.0])
    sweep_ok = [count for _, count in sweep] == [1, 2, 3]

    monotone_ok = True
    rng = np.random.default_rng(17)
    for _ in range(20):
        errors = rng.uniform(0.0, 60.0, size=6)
        names = tuple(f"P{i + 1}" for i in range(6))
        base = (1000.0,) * 6
        runs = [make_run("alpha", names, base, 5.0), make_run("beta", names, base, 5.0)]
        compound_counts = tuple(2000.0 * (1 + e / 100.0) for e in errors)
        compound = make_compound("ab", "alpha", "beta", names, compound_counts, 10.0)
        dataset = make_dataset(names, runs, [compound])
        t1, t2 = sorted(rng.uniform(1.0, 70.0, size=2))
        if t1 == t2:
            continue
        low = run_additivity_test(dataset, tolerance_pct=t1)
        high = run_additivity_test(dataset, tolerance_pct=t2)
        monotone_ok = monotone_ok and set(low.additive_names()) <= set(high.additive_names())

    passed = class_ok and sweep_ok and monotone_ok
    acceptance(
        6,
        "injected 3/12/25/40% errors classify as expected; sweep counts [1,2,3]; monotone in tolerance",
        passed,
        f"sweep {[c for _, c in sweep]}",
    )
    assert passed


def test_criterion_7_partition_matches_brute_force(acceptance):
    rng = np.random.default_rng(2024)
    agreements = 0
    comparisons = 0
    started = time.perf_counter()
    for seed in range(50):
        n = 512 * int(rng.integers(2, 33))  # up to 16384
        drop = float(rng.uniform(0.0, 0.3))
        func1 = random_energy_function(seed, "p1", n, drop_probability=drop,
                                       integer_energies=True)
        func2 = random_energy_function(10_000 + seed, "p2", n, drop_probability=drop,
                                       integer_energies=True)
        expected = partition_by_enumeration(func1, func2, n)
        if expected is None:
            with pytest.raises(ValueError):
                partition(func1, func2, n)
            agreements += 1
        else:
            result = partition(func1, func2, n)
            got = (result.m, result.k, result.e1_j, result.e2_j, result.total_j)
            agreements += got == expected
        comparisons += 1
    elapsed = time.perf_counter() - started

    passed = agreements == comparisons == 50 and elapsed < 1.0
    acceptance(
        7,
        "partition equals brute-force argmin with tie-breaks on 50 seeded pairs",
        passed,
        f"{agreements}/{comparisons} exact, {elapsed:.3f} s",
    )
    assert passed


def test_criterion_8_confidence_intervals(acceptance):
    q1 = student_t_quantile(0.975, 1)
    q29 = student_t_quantile(0.975, 29)
    quantiles_ok = abs(q1 - 12.7062) < 5e-5 and abs(q29 - 2.0452) < 5e-5

    constant = sample_mean_ci([7.5] * 6)
    constant_ok = constant.converged and constant.half_width == 0.0 and constant.mean == 7.5

    passed = quantiles_ok and constant_ok
    acceptance(
        8,
        "t-quantiles match tabulated values to 4 decimals; constant samples converge at zero width",
        passed,
        f"t(0.975,1)={q1:.6f}, t(0.975,29)={q29:.6f}",
    )
    assert passed


def test_criterion_9_hardware_shape_checks(acceptance):
    # (a) non-additive counts do not decrease as core count scales the
    # injected disturbance up
    def config_dataset(error_pcts):
        names = tuple(f"P{i + 1}" for i in range(4))
        base = (1000.0,) * 4
        runs = [make_run("alpha", names, base, 5.0), make_run("beta", names, base, 5.0)]
        counts = tuple(2000.0 * (1 + e / 100.0) for e in error_pcts)
        compound = make_compound("ab", "alpha", "beta", names, counts, 10.0)
        return make_dataset(names, runs, [compound])

    analysis = core_config_analysis(
        [
            (2, config_dataset((1.0, 2.0, 3.0, 4.0))),
            (12, config_dataset((1.0, 8.0, 9.0, 4.0))),
            (24, config_dataset((6.0, 8.0, 9.0, 40.0))),
        ],
        tolerance_pct=5.0,
    )
    counts = [c for _, c in analysis]
    cores_ok = counts == [0, 2, 4] and counts == sorted(counts)

    # (b) widening the tolerance never shrinks the additive set
    report = run_additivity_test(injected_error_dataset(), tolerance_pct=5.0)
    sweep_counts = [c for _, c in tolerance_sweep(report, [2.0, 5.0, 13.0, 26.0, 41.0])]
    sweep_ok = sweep_counts == sorted(sweep_counts) and sweep_counts[-1] == 4

    # (c) loss arithmetic on representative magnitudes
    loss_ok = (
        energy_loss(165.0, 100.0) == pytest.approx(65.0)
        and energy_loss(100.0, 100.0) == 0.0
        and energy_loss(44.0, 100.0) == pytest.approx(-56.0)
    )

    passed = cores_ok and sweep_ok and loss_ok
    acceptance(
        9,
        "shape checks: non-additivity grows with cores, sweeps monotone, loss arithmetic exact",
        passed,
        f"cores {counts}, sweep {sweep_counts}",
    )
    assert passed


def test_criterion_10_additive_nonneg_model_beats_unconstrained_on_compounds(acceptance):
    """The direction of the paper's headline: on serial compounds, a
    zero-intercept non-negative model on the additive PMCs predicts better
    than an unconstrained model on every PMC."""
    kept_ok, ratios = True, []
    for seed in range(5):
        dataset, compounds = headline_workload(seed)
        additive = run_additivity_test(dataset, compounds, tolerance_pct=5.0).additive_names()
        kept_ok = kept_ok and additive == ("E1", "E2", "U")
        cases = [(c.pmc, c.dynamic_energy_j) for c in compounds]
        constrained = evaluate(fit(dataset, additive, ModelKind.ZERO_INTERCEPT_NONNEG), cases)
        unconstrained = evaluate(fit(dataset, None, ModelKind.UNCONSTRAINED), cases)
        ratios.append(constrained.avg_pct / unconstrained.avg_pct)

    passed = kept_ok and max(ratios) <= 0.5
    acceptance(
        10,
        "additivity keeps exactly the additive PMCs; on serial compounds the additive "
        "non-negative model's average error is at most half the unconstrained one's",
        passed,
        f"worst error ratio {max(ratios):.3f} over 5 seeds",
    )
    assert passed, ratios
