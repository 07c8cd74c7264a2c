import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emodel import (
    INFINITE,
    Dataset,
    AdditivityReport,
    Classification,
    PmcAdditivity,
    additivity_error,
    core_config_analysis,
    load_compounds,
    load_runs,
    run_additivity_test,
    tolerance_sweep,
)
from emodel.additivity import report_to_csv, report_to_json_dict
from helpers import additivity_by_brute_force, make_compound, make_dataset, make_run


def fixture_dataset(base_counts, compound_counts, *, repetitions=2, names=None,
                    jitter=None):
    """Two base apps with identical counts plus one compound over them.

    ``jitter`` maps a PMC index to a per-repetition multiplier list, used to
    manufacture stage-1 reproducibility failures.
    """
    names = names or tuple(f"N{i + 1}" for i in range(len(base_counts)))
    runs = []
    for app in ("alpha", "beta"):
        for rep in range(repetitions):
            counts = list(base_counts)
            if jitter:
                for index, factors in jitter.items():
                    counts[index] = base_counts[index] * factors[rep]
            runs.append(
                make_run(app, names, counts, 50.0, run_id=f"r{rep + 1}")
            )
    compound = make_compound("ab", "alpha", "beta", names, compound_counts, 100.0)
    return make_dataset(names, runs, [compound])


def test_additivity_error_cases():
    assert additivity_error(1000, 1000) == 0.0
    assert additivity_error(1000, 1050) == 5.0
    assert additivity_error(0, 7) == INFINITE
    assert additivity_error(0, 0) == 0.0
    with pytest.raises(ValueError):
        additivity_error(-1, 5)
    with pytest.raises(ValueError):
        additivity_error(5, -1)


@given(
    base=st.floats(1.0, 1e9),
    compound=st.floats(0.0, 1e9),
    k=st.floats(0.001, 1e6),
)
def test_additivity_error_scale_invariant(base, compound, k):
    reference = additivity_error(base, compound)
    scaled = additivity_error(k * base, k * compound)
    assert scaled == pytest.approx(reference, rel=1e-9, abs=1e-9)


def test_exact_sums_are_additive():
    dataset = fixture_dataset((1000.0, 400.0), (2000.0, 800.0))
    report = run_additivity_test(dataset)
    assert all(e.classification is Classification.ADDITIVE for e in report.per_pmc)
    assert all(e.max_error_pct == 0.0 for e in report.per_pmc)


def test_injected_error_classifies_one_pmc():
    # second PMC inflated by 37% over the base sum
    dataset = fixture_dataset((1000.0, 500.0), (2000.0, 1370.0))
    report = run_additivity_test(dataset, tolerance_pct=5.0)
    first, second = report.per_pmc
    assert first.classification is Classification.ADDITIVE
    assert second.classification is Classification.NON_ADDITIVE
    assert second.max_error_pct == pytest.approx(37.0)
    assert second.stage1_pass


def test_boundary_error_is_additive():
    dataset = fixture_dataset((1000.0,), (2100.0,))
    report = run_additivity_test(dataset, tolerance_pct=5.0)
    assert report.per_pmc[0].max_error_pct == 5.0
    assert report.per_pmc[0].classification is Classification.ADDITIVE


def test_stage1_failure_dominates_exact_sums():
    # repetitions swing 10%: fails the 2.5% reproducibility bar even though
    # the compound matches the base sum
    dataset = fixture_dataset(
        (1000.0, 500.0),
        (2000.0, 1000.0),
        jitter={0: [0.9, 1.1]},
    )
    report = run_additivity_test(dataset)
    flaky = report.entry("N1")
    assert not flaky.stage1_pass
    assert flaky.classification is Classification.NON_ADDITIVE
    assert report.entry("N2").classification is Classification.ADDITIVE


def test_zero_base_nonzero_compound_is_infinite():
    dataset = fixture_dataset((0.0, 100.0), (7.0, 200.0))
    report = run_additivity_test(dataset)
    entry = report.entry("N1")
    assert math.isinf(entry.max_error_pct)
    assert entry.classification is Classification.NON_ADDITIVE
    assert report.ranking[-1] == "N1"


def test_no_compounds_means_zero_errors():
    dataset = fixture_dataset((10.0,), (20.0,))
    report = run_additivity_test(make_dataset(dataset.pmc_names, dataset.runs), [])
    assert report.per_pmc[0].max_error_pct == 0.0
    assert report.per_pmc[0].classification is Classification.ADDITIVE


def test_max_error_over_multiple_compounds():
    names = ("N1",)
    runs = [make_run("alpha", names, (100.0,), 5.0), make_run("beta", names, (100.0,), 5.0)]
    compounds = [
        make_compound("c1", "alpha", "beta", names, (210.0,), 10.0),
        make_compound("c2", "alpha", "beta", names, (260.0,), 10.0),
        make_compound("c3", "alpha", "alpha", names, (200.0,), 10.0),
    ]
    dataset = make_dataset(names, runs, compounds)
    report = run_additivity_test(dataset)
    assert report.per_pmc[0].max_error_pct == pytest.approx(30.0)


def test_stage2_uses_repetition_means():
    names = ("N1",)
    runs = [
        make_run("alpha", names, (99.0,), 5.0, run_id="r1"),
        make_run("alpha", names, (101.0,), 5.0, run_id="r2"),
        make_run("beta", names, (100.0,), 5.0),
    ]
    compound = make_compound("ab", "alpha", "beta", names, (200.0,), 10.0)
    report = run_additivity_test(make_dataset(names, runs, [compound]))
    assert report.per_pmc[0].max_error_pct == 0.0


def test_ranking_sorted_with_name_tiebreak():
    names = ("zeta", "echo", "kilo")
    runs = [make_run("alpha", names, (100.0,) * 3, 5.0),
            make_run("beta", names, (100.0,) * 3, 5.0)]
    # zeta and echo tie at 10% error; kilo is exact
    compound = make_compound("ab", "alpha", "beta", names, (220.0, 220.0, 200.0), 10.0)
    report = run_additivity_test(make_dataset(names, runs, [compound]))
    assert report.ranking == ("kilo", "echo", "zeta")
    assert sorted(report.ranking) == sorted(names)


def test_validation():
    dataset = fixture_dataset((1.0,), (2.0,))
    with pytest.raises(ValueError):
        run_additivity_test(dataset, tolerance_pct=0.0)
    with pytest.raises(ValueError):
        run_additivity_test(dataset, reproducibility_cov=-0.1)
    stranger = make_compound("x", "alpha", "ghost", dataset.pmc_names, (1.0,), 1.0)
    with pytest.raises(ValueError, match="ghost"):
        run_additivity_test(dataset, [stranger])


# Counts with exact zeros (both signs), values whose fsum mean differs from
# the naive one, and arbitrary magnitudes down to subnormals.
COUNTS = st.one_of(
    st.floats(0.0, 1e12),
    st.sampled_from([0.0, -0.0, 1.0, 0.101, 1e16, 5e-324, 3e-320]),
)


@st.composite
def additivity_cases(draw, pmcs=st.integers(1, 3), group_size=st.sampled_from([1, 2, 3, 5]),
                     groups=5):
    """Interleaved repetition rows, compounds with zero and nonzero counts over
    zero base sums, and a stage-1 bound that is 0, the default, or planted
    within a few ulps of one group's exact CoV."""
    names = tuple(f"P{i}" for i in range(draw(pmcs)))
    sizes = draw(st.lists(group_size, min_size=1, max_size=groups))
    samples = []  # per group, per PMC: the repetition values
    for size in sizes:
        group = []
        for _ in names:
            shape = draw(st.sampled_from(["zero", "constant", "noisy", "subnormal", "free"]))
            if shape == "zero":
                group.append([draw(st.sampled_from([0.0, -0.0])) for _ in range(size)])
            elif shape == "constant":
                group.append([draw(COUNTS)] * size)
            elif shape == "noisy":
                base = draw(st.floats(1.0, 1e12))
                group.append([base * draw(st.floats(0.97, 1.03)) for _ in range(size)])
            elif shape == "subnormal":
                group.append([draw(st.integers(0, 64)) * 5e-324 for _ in range(size)])
            else:
                group.append([draw(COUNTS) for _ in range(size)])
        samples.append(group)
    runs = [
        make_run(f"g{g}", names, [column[rep] for column in group], 1.0, run_id=f"r{rep}")
        for g, group in enumerate(samples)
        for rep in range(sizes[g])
    ]
    dataset = make_dataset(names, draw(st.permutations(runs)))

    compounds = []
    for c in range(draw(st.integers(0, 4))):
        a, b = (draw(st.integers(0, len(sizes) - 1)) for _ in range(2))
        counts = []
        for i in range(len(names)):
            base = sum(math.fsum(samples[g][i]) / sizes[g] for g in (a, b))
            kind = draw(st.sampled_from(["sum", "scaled", "zero", "free"]))
            if kind == "sum":
                counts.append(base)
            elif kind == "scaled":
                counts.append(base * draw(st.floats(0.5, 1.5)))
            elif kind == "zero":
                counts.append(0.0)
            else:
                counts.append(draw(COUNTS))
        compounds.append(make_compound(f"c{c}", f"g{a}", f"g{b}", names, counts, 1.0))

    bound = draw(st.sampled_from([0.0, 0.025, "planted"]))
    repeated = [(g, i) for g, size in enumerate(sizes) if size >= 2 for i in range(len(names))]
    if bound == "planted" and repeated:
        g, i = draw(st.sampled_from(repeated))
        values = samples[g][i]
        mean = math.fsum(values) / len(values)
        bound = 0.0 if mean == 0 else statistics.stdev(values) / mean
        for _ in range(draw(st.integers(0, 3))):
            bound = math.nextafter(bound, draw(st.sampled_from([0.0, math.inf])))
    elif bound == "planted":
        bound = 0.025
    return dataset, compounds, bound


@settings(max_examples=300, deadline=None)
@given(additivity_cases())
def test_vectorized_additivity_matches_brute_force(case):
    check_against_brute_force(case)


# 9 to 17 PMCs span two or three column blocks; groups of 8 to 17 rows are the
# sizes whose one-column sum numpy may take pairwise, where a block sums row
# by row, so a CoV planted at the bound may differ from the block's in its
# last bits.
@settings(max_examples=25, deadline=None)
@given(additivity_cases(pmcs=st.integers(9, 17), group_size=st.integers(8, 17), groups=3))
def test_block_additivity_matches_brute_force(case):
    check_against_brute_force(case)


# 16 repetitions whose two-pass CoV, summed down a block, rounds 1 ulp above
# the exact statistics.stdev / fsum-mean ratio.
ABOVE_EXACT = [
    714082702398.1177, 731480113533.1287, 742044139853.5957, 750148942425.2003,
    710601114605.2131, 742116455399.6786, 715459176314.646, 716465534204.2747,
    723624765138.0099, 711088795703.6497, 731129797725.005, 719471788325.8379,
    747029674019.6923, 741264630540.176, 738034518237.0647, 716299173403.9404,
]


@pytest.mark.parametrize("ulps_below", [0, 1])
def test_block_stage1_at_a_bound_planted_on_the_exact_cov(ulps_below):
    names = tuple(f"P{i}" for i in range(10))
    runs = [make_run("g", names, [1.0 + rep] * 9 + [value], 1.0, run_id=f"r{rep}")
            for rep, value in enumerate(ABOVE_EXACT)]
    runs += [make_run("h", names, [2.0] * 10, 1.0, run_id=f"r{rep}") for rep in range(2)]
    bound = statistics.stdev(ABOVE_EXACT) / (math.fsum(ABOVE_EXACT) / len(ABOVE_EXACT))
    for _ in range(ulps_below):
        bound = math.nextafter(bound, 0.0)
    dataset = make_dataset(names, runs)
    check_against_brute_force((dataset, [], bound))
    report = run_additivity_test(dataset, [], reproducibility_cov=bound)
    assert report.entry("P9").stage1_pass is (ulps_below == 0)


def check_against_brute_force(case):
    dataset, compounds, bound = case
    report = run_additivity_test(dataset, compounds, 5.0, reproducibility_cov=bound)
    got = [(e.pmc, e.stage1_pass, e.max_error_pct.hex()) for e in report.per_pmc]
    expected = additivity_by_brute_force(dataset, compounds, bound)
    assert got == [(name, stage1, error.hex()) for name, stage1, error in expected]

    groups = dataset.groups()
    for point in dataset.points():
        runs = groups[point.ref]
        for i, mean in enumerate(point.pmc.counts):
            assert mean.hex() == (math.fsum(r.pmc.counts[i] for r in runs) / len(runs)).hex()


def mixed_case(seed):
    """Rows of repeated and single-run groups interleaved, compounds over two
    repeated bases, two single-run bases and one of each, and single-run groups
    that no compound names. One PMC's bases are zero, so one error is infinite."""
    rng = np.random.default_rng(seed)
    names = ("P0", "P1", "P2", "ZERO")
    sizes = {"r0": 3, "s0": 1, "r1": 2, "s1": 1, "s2": 1, "r2": 4, "s3": 1, "s4": 1}
    means, runs = {}, []
    for app, size in sizes.items():
        level = 10.0 ** rng.uniform(3.0, 9.0, 3)
        rows = [list(level * rng.uniform(0.98, 1.02, 3)) + [0.0] for _ in range(size)]
        means[app] = [math.fsum(column) / size for column in zip(*rows)]
        runs += [make_run(app, names, row, 1.0, run_id=f"x{rep}") for rep, row in enumerate(rows)]
    pairs = [("r0", "r2"), ("s0", "s1"), ("r1", "s2"), ("s2", "r0"), ("s1", "s1")]
    compounds = [
        make_compound(f"c{c}", a, b, names, [(x + y) * rng.choice([1.0, 1.01, 1.2])
                                             for x, y in zip(means[a][:3], means[b][:3])] + [c],
                      1.0)
        for c, (a, b) in enumerate(pairs)]
    return make_dataset(names, [runs[i] for i in rng.permutation(len(runs))]), compounds


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("bound", [0.0, 0.005, 0.025])
def test_mixed_singleton_and_repeated_groups_match_brute_force(tmp_path, seed, bound):
    dataset, compounds = mixed_case(seed)
    check_against_brute_force((dataset, compounds, bound))
    # The same inputs as files: the compounds record resolved against the dataset.
    runs = tmp_path / "runs.csv"
    runs.write_text("app_id,run_id,cores,problem_size,exec_time_s,dynamic_energy_j,"
                    + ",".join(dataset.pmc_names) + "\n" + "".join(
                        f"{r.app_id},{r.run_id},2,1024,10.0,1.0,"
                        + ",".join(map(repr, r.pmc.counts)) + "\n" for r in dataset.runs),
                    encoding="utf-8")
    path = tmp_path / "compounds.csv"
    path.write_text("compound_id,base_a,base_b,dynamic_energy_j," + ",".join(dataset.pmc_names)
                    + "\n" + "".join(f"{c.compound_id},{c.base_a.app_id},{c.base_b.app_id},1.0,"
                                     + ",".join(map(repr, c.pmc.counts)) + "\n"
                                     for c in compounds), encoding="utf-8")
    loaded = load_runs(runs)
    expected = run_additivity_test(dataset, compounds, 5.0, reproducibility_cov=bound)
    assert run_additivity_test(loaded, load_compounds(path, loaded), 5.0,
                               reproducibility_cov=bound) == expected
    assert math.isinf(expected.entry("ZERO").max_error_pct)


def test_additivity_on_single_run_groups_holds_less_than_one_counts_matrix():
    # Stage 1 has no group to read and stage 2 reads 20 of 50,000 groups: a mean
    # for every group would take one runs x PMCs array, and its error sums another.
    rows, names = 50_000, tuple(f"P{j}" for j in range(8))
    counts = np.random.default_rng(3).uniform(1.0, 1e9, (rows, len(names)))
    floats = np.concatenate([counts.ravel(), np.ones(rows), np.ones(rows)])
    dataset = Dataset._from_columns(None, memoryview(floats).toreadonly(), names,
                                    [f"a{i}" for i in range(rows)], [None] * rows, [1] * rows,
                                    ["s"] * rows)
    compounds = [make_compound(f"c{c}", f"a{2 * c}", f"a{2 * c + 1}", names,
                               counts[2 * c] + counts[2 * c + 1], 1.0, cores=1, size="s")
                 for c in range(10)]
    dataset.group_index, dataset.counts  # as a load leaves them
    tracemalloc.start()
    try:
        report = run_additivity_test(dataset, compounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.additive_names() == names
    assert peak < counts.nbytes


def test_tolerance_sweep_counts():
    dataset = fixture_dataset(
        (1000.0,) * 4,
        (2060.0, 2240.0, 2500.0, 2800.0),  # errors 3, 12, 25, 40
    )
    report = run_additivity_test(dataset, tolerance_pct=5.0)
    classifications = [e.classification for e in report.per_pmc]
    assert classifications == [
        Classification.ADDITIVE,
        Classification.NON_ADDITIVE,
        Classification.NON_ADDITIVE,
        Classification.NON_ADDITIVE,
    ]
    sweep = tolerance_sweep(report, [5.0, 20.0, 30.0])
    assert sweep == [(5.0, 1), (20.0, 2), (30.0, 3)]


def test_tolerance_sweep_validation():
    report = run_additivity_test(fixture_dataset((1.0,), (2.0,)))
    with pytest.raises(ValueError):
        tolerance_sweep(report, [])
    with pytest.raises(ValueError):
        tolerance_sweep(report, [5.0, 4.0])
    with pytest.raises(ValueError):
        tolerance_sweep(report, [-1.0, 5.0])


@settings(max_examples=50)
@given(
    errors=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=8),
    tolerances=st.lists(st.floats(0.5, 300.0), min_size=1, max_size=5),
)
def test_sweep_counts_monotone(errors, tolerances):
    per_pmc = tuple(
        PmcAdditivity(f"P{i}", True, e, Classification.ADDITIVE if e <= 5 else Classification.NON_ADDITIVE)
        for i, e in enumerate(errors)
    )
    ranking = tuple(e.pmc for e in sorted(per_pmc, key=lambda e: (e.max_error_pct, e.pmc)))
    report = AdditivityReport(5.0, per_pmc, ranking)
    counts = [c for _, c in tolerance_sweep(report, sorted(tolerances))]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


@given(tolerance=st.floats(0.5, 100.0), bump=st.floats(0.1, 100.0))
def test_classification_monotone_in_tolerance(tolerance, bump):
    dataset = fixture_dataset((1000.0, 1000.0), (2060.0, 2300.0))
    low = run_additivity_test(dataset, tolerance_pct=tolerance)
    high = run_additivity_test(dataset, tolerance_pct=tolerance + bump)
    for entry_low, entry_high in zip(low.per_pmc, high.per_pmc):
        if entry_low.classification is Classification.ADDITIVE:
            assert entry_high.classification is Classification.ADDITIVE


def test_error_depends_only_on_base_sum():
    names = ("N1",)
    runs = [make_run("alpha", names, (300.0,), 5.0), make_run("beta", names, (700.0,), 5.0)]
    swapped_runs = [make_run("alpha", names, (700.0,), 5.0), make_run("beta", names, (300.0,), 5.0)]
    compound = make_compound("ab", "alpha", "beta", names, (1100.0,), 10.0)
    a = run_additivity_test(make_dataset(names, runs, [compound]))
    b = run_additivity_test(make_dataset(names, swapped_runs, [compound]))
    assert a.per_pmc[0].max_error_pct == b.per_pmc[0].max_error_pct


def test_core_config_analysis_counts():
    def config(cores, bad_pmcs):
        names = tuple(f"N{i + 1}" for i in range(4))
        runs = [make_run("alpha", names, (100.0,) * 4, 5.0, cores=cores),
                make_run("beta", names, (100.0,) * 4, 5.0, cores=cores)]
        counts = tuple(300.0 if i in bad_pmcs else 200.0 for i in range(4))
        compound = make_compound("ab", "alpha", "beta", names, counts, 10.0, cores=cores)
        return make_dataset(names, runs, [compound])

    analysis = core_config_analysis(
        [(2, config(2, {0})), (24, config(24, {0, 1, 3}))], tolerance_pct=5.0
    )
    assert analysis == [(2, 1), (24, 3)]
    counts = [c for _, c in analysis]
    assert counts == sorted(counts)


def test_core_config_analysis_validation():
    with pytest.raises(ValueError):
        core_config_analysis([])
    names_a = ("N1",)
    names_b = ("M1",)
    ds_a = make_dataset(names_a, [make_run("a", names_a, (1.0,), 1.0)])
    ds_b = make_dataset(names_b, [make_run("a", names_b, (1.0,), 1.0)])
    with pytest.raises(ValueError, match="PMC name set"):
        core_config_analysis([(2, ds_a), (4, ds_b)])


def test_csv_serialization_with_infinite():
    dataset = fixture_dataset((0.0, 1000.0), (7.0, 2060.0))
    report = run_additivity_test(dataset)
    text = report_to_csv(report)
    lines = text.splitlines()
    assert lines[0] == "pmc,stage1,max_error_pct,classification"
    assert lines[1] == "N1,true,inf,non_additive"
    assert lines[2] == "N2,true,3.0,additive"

    payload = report_to_json_dict(report)
    assert payload["per_pmc"][0]["max_error_pct"] == "inf"
    assert payload["per_pmc"][1]["max_error_pct"] == 3.0
    assert payload["ranking"] == ["N2", "N1"]
