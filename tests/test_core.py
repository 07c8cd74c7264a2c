import csv
import gc
import io
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emodel import (
    DataFormatError,
    Dataset,
    EnergyModel,
    ModelKind,
    PmcVector,
    RunConfig,
    RunRef,
    load_compounds,
    load_model,
    load_runs,
    predict,
    run_additivity_test,
    save_model,
)
from emodel._common import _Record
from emodel.additivity import _gathered
from emodel.core import AggregatedRun, _load_run_columns, model_to_dict
from helpers import (
    group_means_by_fsum,
    groups_by_dict,
    load_compounds_by_rows,
    load_runs_by_rows,
    make_compound,
    make_dataset,
    make_run,
    resolve_by_scan,
)

RUNS_CSV = """app_id,run_id,cores,problem_size,exec_time_s,dynamic_energy_j,X1,X2
dgemm,r1,2,1024,10.0,100.0,1000,500
dgemm,r2,2,1024,10.5,102.0,1002,498
fft,r1,2,1024,8.0,80.0,800,400
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_pmc_vector_basics():
    vec = PmcVector(("a", "b"), (1.0, 2.0))
    assert vec.get("b") == 2.0
    assert vec.as_dict() == {"a": 1.0, "b": 2.0}
    assert len(vec) == 2
    with pytest.raises(KeyError):
        vec.get("missing")


def test_pmc_vector_invariants():
    with pytest.raises(ValueError):
        PmcVector(("a", "a"), (1.0, 2.0))
    with pytest.raises(ValueError):
        PmcVector(("a",), (-1.0,))
    with pytest.raises(ValueError):
        PmcVector(("a",), (math.inf,))
    with pytest.raises(ValueError):
        PmcVector(("a", "b"), (1.0,))


def test_load_runs_happy_path(tmp_path):
    dataset = load_runs(write(tmp_path / "runs.csv", RUNS_CSV))
    assert dataset.pmc_names == ("X1", "X2")
    assert len(dataset.runs) == 3
    first = dataset.runs[0]
    assert first.app_id == "dgemm"
    assert first.run_id == "r1"
    assert first.config == RunConfig(2, "1024")
    assert first.pmc.counts == (1000.0, 500.0)

    groups = dataset.groups()
    assert len(groups) == 2
    points = dataset.points()
    dgemm = next(p for p in points if p.app_id == "dgemm")
    assert dgemm.n_samples == 2
    assert dgemm.pmc.counts == (1001.0, 499.0)
    assert dgemm.dynamic_energy_j == 101.0


def test_points_and_additivity_share_the_fsum_repetition_mean():
    # Left to right, 1e16 + 1.0 rounds back to 1e16 twice; fsum gives 1e16 + 2.
    samples = [1e16, 1.0, 1.0]
    mean = math.fsum(samples) / 3
    assert mean != (samples[0] + samples[1] + samples[2]) / 3
    names = ("X1",)
    runs = [make_run("big", names, [v], 1.0, run_id=f"r{i}") for i, v in enumerate(samples)]
    runs.insert(1, make_run("none", names, [0.0], 1.0))
    dataset = make_dataset(names, runs)
    big = next(p for p in dataset.points() if p.app_id == "big")
    assert big.pmc.counts == (mean,)
    compound = make_compound("c", "big", "none", names, [mean], 1.0)
    assert run_additivity_test(dataset, [compound]).per_pmc[0].max_error_pct == 0.0


def test_points_raise_on_overflowing_repetition_sum():
    names = ("X1",)
    for samples in ([1e308, 1e308], [1e308, 1e308, 1e308]):
        runs = [make_run("a", names, [v], 1.0, run_id=f"r{i}") for i, v in enumerate(samples)]
        with pytest.raises(OverflowError):
            make_dataset(names, runs).points()


# Cells for the exactness oracle: the whole finite range, subnormals and
# signed zeros included, and ordinary magnitudes that mostly sum without overflow.
FSUM_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 1e16,
                     1e308, -1e308]),
)
BIG = sys.float_info.max


@st.composite
def grouped_cells(draw):
    """Group labels of interleaved rows (groups of 1 to 12 samples) and one
    row of 1 to 3 cells per label."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    labels = draw(st.permutations([g for g, n in enumerate(sizes) for _ in range(n)]))
    width = draw(st.integers(1, 3))
    row = st.lists(FSUM_CELLS, min_size=width, max_size=width)
    return labels, draw(st.lists(row, min_size=len(labels), max_size=len(labels)))


def dataset_of_groups(labels):
    names = ("X1",)
    runs = [make_run(f"g{g}", names, [1.0], 1.0, run_id=f"r{i}") for i, g in enumerate(labels)]
    return make_dataset(names, runs)


def hexes(array):
    return [v.hex() for v in np.asarray(array).ravel().tolist()]


@settings(max_examples=300, deadline=None)
@given(grouped_cells())
@example(([0, 1, 0, 0], [[1e16], [2.0], [1.0], [1.0]]))
@example(([0, 0, 1], [[-0.0, 1e308], [-0.0, 1e308], [-0.0, -0.0]]))
@example(([0, 0, 0], [[1e308], [1e308], [1e308]]))
def test_group_means_match_fsum(case):
    labels, cells = case
    dataset = dataset_of_groups(labels)
    matrix = np.array(cells, dtype=float)
    for values in (matrix, matrix[:, 0]):
        try:
            expected = group_means_by_fsum(dataset.runs, values)
        except OverflowError as exc:
            with pytest.raises(OverflowError, match=f"^{exc}$"):
                dataset.group_means(values)
            continue
        means = dataset.group_means(values)
        assert means.shape == expected.shape
        assert hexes(means) == hexes(expected)


@st.composite
def grouped_cells_and_groups(draw):
    """A :func:`grouped_cells` case and some of its group numbers, in any order."""
    labels, cells = draw(grouped_cells())
    return labels, cells, draw(st.lists(st.integers(0, max(labels)), unique=True))


@settings(max_examples=300, deadline=None)
@given(grouped_cells_and_groups())
@example(([0, 1, 0, 2], [[-0.0], [-0.0], [-0.0], [5e-324]], [2, 0]))
@example(([0, 1, 0, 1], [[5e-324, 1e308], [-5e-324, 1.0], [5e-324, 1e308], [1.0, 2.0]], [0]))
@example(([1, 0, 0, 2], [[1.0], [2.0 ** 1022], [2.0 ** 1022 * 0.75], [-0.0]], [0, 2]))
@example(([0, 1, 1, 1], [[3.0], [1e308], [1e308], [1e308]], [0]))
@example(([0, 1, 1, 1], [[3.0], [1e308], [1e308], [1e308]], [1]))
def test_group_means_of_some_groups_are_their_rows_of_all_group_means(case):
    labels, cells, groups = case
    dataset = dataset_of_groups(labels)
    index = _gathered(dataset.group_index, np.array(groups, dtype=np.intp))
    matrix = np.array(cells, dtype=float)
    for values in (matrix, matrix[:, 0]):
        try:
            expected = hexes(dataset.group_means(values)[groups])
        except OverflowError:
            # Some group's sum overflows: the chosen groups' means raise only if one of theirs does.
            columns = values.reshape(len(labels), -1)
            rows = list(groups_by_dict(dataset.runs).values())
            try:
                expected = hexes([[math.fsum(columns[rows[g], j].tolist()) / len(rows[g])
                                   for j in range(columns.shape[1])] for g in groups])
            except OverflowError:
                expected = "overflow"
        try:
            got = hexes(dataset._group_means(values, index))
        except OverflowError:
            got = "overflow"
        assert got == expected


@pytest.mark.parametrize("samples, rechecked", [
    # The 2**-200 that the error sum loses breaks a rounding tie upwards.
    ([1.0, 2.0 ** -53, 2.0 ** -200], True),
    ([1.0, 2.0 ** -60, 2.0 ** -170], True),
    # fsum's partial sums overflow on the third sample; the running sum does not.
    ([BIG, 2.0 ** 969, 2.0 ** 969 + 2.0 ** 918, -BIG], True),
    ([1e308, 1e308, 1e308], True),
    ([1e16, 1.0, 1.0], False),
    ([-0.0, -0.0], False),
    ([-0.0], False),
])
def test_group_means_recheck_with_fsum(monkeypatch, samples, rechecked):
    labels = [0, 1] + [0] * (len(samples) - 1)
    cells = [[samples[0]], [3.0]] + [[v] for v in samples[1:]]
    dataset = dataset_of_groups(labels)
    try:
        expected = hexes(group_means_by_fsum(dataset.runs, np.array(cells)))
    except OverflowError:
        expected = "intermediate overflow in fsum"
    fsum, calls = math.fsum, []
    monkeypatch.setattr(math, "fsum", lambda xs: calls.append(xs) or fsum(xs))
    try:
        got = hexes(dataset.group_means(np.array(cells)))
    except OverflowError as exc:
        got = str(exc)
    monkeypatch.undo()
    assert got == expected
    assert calls == ([samples] if rechecked else [])


def test_dataset_without_runs_has_no_points():
    dataset = Dataset(("X1", "X2"), ())
    assert dataset.counts.shape == (0, 2)
    assert dataset.points() == ()
    report = run_additivity_test(dataset)
    assert [(e.stage1_pass, e.max_error_pct) for e in report.per_pmc] == [(True, 0.0)] * 2


def test_counts_matrix_is_read_only():
    dataset = make_dataset(("X1", "X2"), [make_run("a", ("X1", "X2"), [1.0, 2.0], 1.0)])
    assert dataset.counts.tolist() == [[1.0, 2.0]]
    with pytest.raises(ValueError):
        dataset.counts[0, 0] = 5.0


def test_load_runs_computes_dynamic_energy(tmp_path):
    text = (
        "app_id,cores,problem_size,exec_time_s,total_energy_j,static_power_w,X1\n"
        "app,2,n,100.0,18000,90,7\n"
    )
    dataset = load_runs(write(tmp_path / "total.csv", text))
    assert dataset.runs[0].dynamic_energy_j == 9000.0


def test_load_runs_rejects_negative_dynamic_energy(tmp_path):
    text = (
        "app_id,cores,problem_size,exec_time_s,total_energy_j,static_power_w,X1\n"
        "app,2,n,100.0,500,90,7\n"
    )
    with pytest.raises(DataFormatError, match="row 2"):
        load_runs(write(tmp_path / "neg.csv", text))


def test_load_runs_error_locations(tmp_path):
    no_header = write(tmp_path / "empty.csv", "")
    with pytest.raises(DataFormatError, match="no header"):
        load_runs(no_header)

    bad_cell = RUNS_CSV.replace("800,400", "oops,400")
    with pytest.raises(DataFormatError, match=r"row 4.*X1.*oops"):
        load_runs(write(tmp_path / "cell.csv", bad_cell))

    negative = RUNS_CSV.replace("800,400", "-1,400")
    with pytest.raises(DataFormatError, match=r"row 4.*X1"):
        load_runs(write(tmp_path / "negcount.csv", negative))

    missing = RUNS_CSV.replace("app_id,", "application,")
    with pytest.raises(DataFormatError, match="app_id"):
        load_runs(write(tmp_path / "missing.csv", missing))

    duplicated_header = RUNS_CSV.replace(",X2", ",X1")
    with pytest.raises(DataFormatError, match="duplicate header"):
        load_runs(write(tmp_path / "dupcol.csv", duplicated_header))


def test_load_runs_rejects_duplicate_rows(tmp_path):
    text = RUNS_CSV + "dgemm,r1,2,1024,10.0,100.0,1000,500\n"
    with pytest.raises(DataFormatError, match=r"duplicate run.*dgemm"):
        load_runs(write(tmp_path / "dup.csv", text))


def test_load_runs_rejects_both_energy_conventions(tmp_path):
    text = (
        "app_id,cores,problem_size,exec_time_s,dynamic_energy_j,total_energy_j,static_power_w,X1\n"
        "app,2,n,1.0,5.0,10.0,1.0,7\n"
    )
    with pytest.raises(DataFormatError, match="not both"):
        load_runs(write(tmp_path / "both.csv", text))


def test_load_runs_requires_pmc_columns(tmp_path):
    text = "app_id,cores,problem_size,exec_time_s,dynamic_energy_j\napp,2,n,1.0,5.0\n"
    with pytest.raises(DataFormatError, match="no PMC columns"):
        load_runs(write(tmp_path / "nopmc.csv", text))


def test_load_compounds(tmp_path):
    dataset = load_runs(write(tmp_path / "runs.csv", RUNS_CSV))
    text = (
        "compound_id,base_a,base_b,dynamic_energy_j,X1,X2\n"
        "c1,dgemm@2:1024,fft@2:1024,180.0,1801,899\n"
        "c2,dgemm@2:1024,dgemm@2:1024,210.0,2002,998\n"
    )
    compounds = load_compounds(write(tmp_path / "comp.csv", text), dataset)
    assert [c.compound_id for c in compounds] == ["c1", "c2"]
    assert compounds[0].base_b.app_id == "fft"
    assert compounds[1].base_a == compounds[1].base_b


def test_load_compounds_bare_reference_resolves_when_unique(tmp_path):
    dataset = load_runs(write(tmp_path / "runs.csv", RUNS_CSV))
    text = (
        "compound_id,base_a,base_b,dynamic_energy_j,X1,X2\n"
        "c1,dgemm,fft,180.0,1801,899\n"
    )
    compounds = load_compounds(write(tmp_path / "comp.csv", text), dataset)
    assert compounds[0].base_a.config.cores == 2


def test_load_compounds_unknown_base_named(tmp_path):
    dataset = load_runs(write(tmp_path / "runs.csv", RUNS_CSV))
    text = (
        "compound_id,base_a,base_b,dynamic_energy_j,X1,X2\n"
        "c1,mystery,fft,180.0,1801,899\n"
    )
    with pytest.raises(DataFormatError, match="mystery"):
        load_compounds(write(tmp_path / "comp.csv", text), dataset)


def test_load_compounds_empty_body_is_empty_list(tmp_path):
    dataset = load_runs(write(tmp_path / "runs.csv", RUNS_CSV))
    text = "compound_id,base_a,base_b,dynamic_energy_j,X1,X2\n"
    assert list(load_compounds(write(tmp_path / "comp.csv", text), dataset)) == []


def test_load_compounds_pmc_mismatch(tmp_path):
    dataset = load_runs(write(tmp_path / "runs.csv", RUNS_CSV))
    text = "compound_id,base_a,base_b,dynamic_energy_j,X2,X1\nc1,dgemm,fft,1.0,1,1\n"
    with pytest.raises(DataFormatError, match="PMC columns"):
        load_compounds(write(tmp_path / "comp.csv", text), dataset)


def test_dataset_resolve():
    runs = [
        make_run("app", ("X1",), (1.0,), 10.0, cores=2),
        make_run("app", ("X1",), (2.0,), 20.0, cores=4),
        make_run("solo", ("X1",), (3.0,), 30.0, cores=2),
    ]
    dataset = make_dataset(("X1",), runs)
    assert dataset.resolve("app@4:1024").config.cores == 4
    assert dataset.resolve("solo").app_id == "solo"
    with pytest.raises(DataFormatError, match="ambiguous"):
        dataset.resolve("app")
    with pytest.raises(DataFormatError, match="unknown"):
        dataset.resolve("ghost")
    with pytest.raises(DataFormatError, match="malformed"):
        dataset.resolve("app@fast:1024")


def test_dataset_rejects_inconsistent_runs():
    run_a = make_run("a", ("X1", "X2"), (1.0, 2.0), 10.0)
    run_b = make_run("b", ("X2", "X1"), (2.0, 1.0), 10.0)
    with pytest.raises(ValueError, match="PMC names"):
        make_dataset(("X1", "X2"), [run_a, run_b])


def test_dataset_rejects_unresolvable_compound():
    run_a = make_run("a", ("X1",), (1.0,), 10.0)
    compound = make_compound("c", "a", "ghost", ("X1",), (2.0,), 20.0)
    with pytest.raises(ValueError, match="ghost"):
        make_dataset(("X1",), [run_a], [compound])


# The group index against the plain-dict grouping oracle in helpers.py.

INTERLEAVED = [("a", 2, "s"), ("b", 2, "s"), ("a", 4, "s"), ("a", 2, "s"), ("c", 1, ""),
               ("b", 2, "s"), ("a", 2, "t"), ("a", 2, "s"), ("b", 2, "s")]
REFERENCES = ["a@2:s", "a@4:s", "a@2:t", "b@2:s", "c@1:", "a@3:s", "a@2:", "ghost@2:s",
              "a", "b", "c", "ghost", ""]


def interleaved_dataset(rows):
    runs = [make_run(app, ("X1",), (float(i),), 1.0, cores=cores, size=size, run_id=f"r{i}")
            for i, (app, cores, size) in enumerate(rows)]
    return make_dataset(("X1",), runs)


def check_groups_against_dict(dataset):
    expected = groups_by_dict(dataset.runs)
    keys = list(expected)
    index = dataset.group_index
    assert index._fields == ("code_of", "sizes", "order", "starts")
    assert index.code_of == {(app_id, config.cores, config.problem_size): g
                             for g, (app_id, config) in enumerate(keys)}
    assert list(index.code_of.values()) == list(range(len(keys)))
    assert index.sizes.tolist() == [len(rows) for rows in expected.values()]
    assert index.order.tolist() == [row for rows in expected.values() for row in rows]
    assert index.starts.tolist() == [sum(map(len, list(expected.values())[:g]))
                                     for g in range(len(keys))]
    groups = dataset.groups()
    assert [(ref.app_id, ref.config) for ref in groups] == keys
    assert [list(runs) for runs in groups.values()] == [
        [dataset.runs[row] for row in rows] for rows in expected.values()
    ]
    for text in REFERENCES:
        want = resolve_by_scan(expected, text)
        if isinstance(want, tuple):
            ref = dataset.resolve(text)
            assert (ref.app_id, ref.config) == want
        else:
            with pytest.raises(DataFormatError) as info:
                dataset.resolve(text)
            assert str(info.value) == want


def test_group_index_on_interleaved_repetitions():
    dataset = interleaved_dataset(INTERLEAVED)
    assert dataset.group_index.sizes.tolist() == [3, 3, 1, 1, 1]
    check_groups_against_dict(dataset)


def test_ambiguous_bare_reference_lists_groups_in_first_seen_order():
    # App "a" has groups first seen out of config order, between other apps'.
    rows = [("a", 8, "z"), ("b", 1, "s"), ("a", 2, "s"), ("a", 8, "z"), ("c", 1, "s"),
            ("a", 4, "m"), ("b", 1, "s"), ("a", 2, "s")]
    dataset = interleaved_dataset(rows)
    with pytest.raises(DataFormatError) as info:
        dataset.resolve("a")
    assert str(info.value) == "ambiguous base reference 'a': matches a@8:z, a@2:s, a@4:m"
    assert dataset.resolve("c") == RunRef("c", RunConfig(1, "s"))
    check_groups_against_dict(dataset)


def test_group_index_without_runs():
    dataset = Dataset(("X1",), ())
    assert dataset.groups() == {}
    assert dataset.group_index.sizes.tolist() == []
    check_groups_against_dict(dataset)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(1, 2), st.sampled_from(["", "s"])),
                max_size=12))
def test_group_index_matches_dict_grouping(rows):
    check_groups_against_dict(interleaved_dataset(rows))


def test_check_compounds_error_texts():
    dataset = interleaved_dataset(INTERLEAVED)
    ghost = make_compound("c1", "a", "ghost", ("X1",), (1.0,), 1.0, size="s")
    renamed = make_compound("c2", "a", "b", ("X2",), (1.0,), 1.0, size="s")
    for compound, message in [
        (ghost, "compound 'c1' references unknown base 'ghost@2:s'"),
        (renamed, "compound 'c2' PMC names do not match dataset"),
    ]:
        for check in (lambda: dataset.check_compounds([compound]),
                      lambda: make_dataset(("X1",), dataset.runs, [compound]),
                      lambda: run_additivity_test(dataset, [compound])):
            with pytest.raises(ValueError) as info:
                check()
            assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        Dataset(("X1",), (), (make_compound("c3", "a", "a", ("X1",), (1.0,), 1.0),))
    assert str(info.value) == "compound 'c3' references unknown base 'a@2:1024'"


def test_model_round_trip_is_exact(tmp_path):
    model = EnergyModel(
        pmc_names=("X1", "X2", "X3", "X4", "X5", "X6"),
        intercept=1.02e1,
        coefficients=(3.06e-9, 1.95e-8, 3.30e-7, -1.02e-6, 6.18e-8, -9.39e-11),
        kind=ModelKind.UNCONSTRAINED,
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model

    vec = PmcVector(model.pmc_names, (7022011, 623142, 121489, 5101219180, 33210, 186971207082))
    assert predict(loaded, vec) == predict(model, vec)


def test_model_intercept_is_stored_as_float():
    model = EnergyModel(("C1",), 0, (2.0,), ModelKind.ZERO_INTERCEPT)
    assert type(model.intercept) is float
    assert json.dumps(model_to_dict(model)["intercept"]) == "0.0"
    bare = EnergyModel((), 3, (), ModelKind.UNCONSTRAINED)
    assert type(predict(bare, PmcVector((), ()))) is float


def test_model_kind_invariants_enforced():
    with pytest.raises(ValueError, match="intercept"):
        EnergyModel(("X1",), 10.2, (1.0,), ModelKind.ZERO_INTERCEPT)
    with pytest.raises(ValueError, match="negative"):
        EnergyModel(("X1",), 0.0, (-1.0,), ModelKind.ZERO_INTERCEPT_NONNEG)
    with pytest.raises(ValueError):
        EnergyModel(("X1", "X2"), 0.0, (1.0,), ModelKind.ZERO_INTERCEPT)


def test_load_model_rejects_invariant_violations(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "kind": "zero_intercept",
        "pmc_names": ["X1"],
        "intercept": 10.2,
        "coefficients": [1.0],
    }), encoding="utf-8")
    with pytest.raises(DataFormatError, match="intercept"):
        load_model(path)

    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataFormatError, match="JSON"):
        load_model(path)

    path.write_text(json.dumps({"kind": "sparse", "pmc_names": [], "intercept": 0,
                                "coefficients": []}), encoding="utf-8")
    with pytest.raises(DataFormatError, match="kind"):
        load_model(path)

    # Numbers only: float() would take a string or a bool, and an integer too
    # large for a float overflows.
    document = {"kind": "zero_intercept", "pmc_names": ["X1", "X2"]}
    for intercept, coefficients, message in [
        (False, ["2.5", True], "coefficients must be a list of numbers"),
        (0, [1.0, "2.5"], "coefficients must be a list of numbers"),
        (0, [True, 1.0], "coefficients must be a list of numbers"),
        (0, [1.0, None], "coefficients must be a list of numbers"),
        (False, [1.0, 2.0], "intercept must be a number, got False"),
        ("0", [1.0, 2.0], "intercept must be a number, got '0'"),
        (None, [1.0, 2.0], "intercept must be a number, got None"),
        (0, [1.0, 10 ** 400], "int too large to convert to float"),
    ]:
        path.write_text(json.dumps({**document, "intercept": intercept,
                                    "coefficients": coefficients}), encoding="utf-8")
        with pytest.raises(DataFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: {message}"
    path.write_text(json.dumps({**document, "intercept": 0, "coefficients": [1, 2.5]}),
                    encoding="utf-8")
    model = load_model(path)
    assert (model.intercept, model.coefficients) == (0.0, (1.0, 2.5))


def test_load_runs_deterministic(tmp_path):
    path = write(tmp_path / "runs.csv", RUNS_CSV)
    assert load_runs(path) == load_runs(path)


def test_dataset_is_immutable():
    dataset = make_dataset(("X1",), [make_run("a", ("X1",), (1.0,), 1.0)])
    with pytest.raises(AttributeError):
        dataset.pmc_names = ("X2",)


# Column-by-column loaders against the row-by-row reference in helpers.py.

PADS = ["", "", "", " ", "\t", "\n", "\x1c", "\u2003"]
COUNTS = (["1", "2.5", "1_000", "١٢", "0", "-0.0", "1e-320", "1e308", "7"],
          ["-1", "-1e-320", "nan", "inf", "-inf", "abc", "", "1__0", "1,5"])
# (valid, faulty) cells per column; other columns take COUNTS.
RUN_CELLS = {
    "app_id": (["a", "b", "c"], [""]),
    "run_id": (["", "1", "2", "3"], []),
    "cores": (["1", "2", "02", "+2", "١", "4"], ["0", "-1", "x", "1.5", "", "1__0"]),
    "problem_size": (["", "s", "t"], []),
    "exec_time_s": (["1", "0.5", "2e-3", "1e10", "1_0"], ["0", "-0.0", "-1", "nan", "inf", "x"]),
    "total_energy_j": (["10", "1e308", "5", "0", "12.5"], ["nan", "x", "-5"]),
    "static_power_w": (["0", "1", "0.5", "1e-3", "1e308"], ["-1", "inf", ""]),
}
TWO_FAULTS_RUNS = (
    "app_id,cores,problem_size,exec_time_s,dynamic_energy_j,X1,X2\n"
    "a,2,s,1,1,1,-3\n"
    ",x,s,nan,1,1,1\n"
)


@st.composite
def csv_text(draw, header, cells):
    """A CSV file with the given header and valid cells, padded, into which
    up to three faults are planted: a faulty cell or a row of the wrong
    width. Blank rows come now and then, with minimal or full quoting."""
    valid = [st.sampled_from([left + cell + right for left in PADS for right in PADS
                              for cell in cells.get(name, COUNTS)[0]]) for name in header]
    rows = [[draw(cell) for cell in valid] for _ in range(draw(st.integers(0, 6)))]
    faulty = [name for name in header if cells.get(name, COUNTS)[1]]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.sampled_from(rows))
        if draw(st.integers(0, 5)):
            j = header.index(draw(st.sampled_from(faulty)))
            if j < len(row):
                row[j] = draw(st.sampled_from(cells.get(header[j], COUNTS)[1]))
        elif draw(st.booleans()):
            row.append("1")
        else:
            row.pop()
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from([[], [""], [" ", ""]])))
    out = io.StringIO()
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    csv.writer(out, quoting=quoting).writerows([header] + rows)
    return out.getvalue()


@st.composite
def runs_files(draw):
    pmcs = draw(st.lists(st.sampled_from(["X1", "X2", "X3"]), min_size=1, max_size=3, unique=True))
    header = ["app_id", "cores", "problem_size", "exec_time_s"] + pmcs
    header += ["dynamic_energy_j"] if draw(st.booleans()) else ["total_energy_j", "static_power_w"]
    if draw(st.booleans()):
        header.append("run_id")
    return draw(csv_text(draw(st.permutations(header)), RUN_CELLS))


@st.composite
def compounds_files(draw):
    header = draw(st.permutations(["compound_id", "base_a", "base_b", "dynamic_energy_j", "X"]))
    # The PMC columns keep the dataset's order.
    header = [name if name != "X" else "X1" for name in header]
    header.insert(header.index("X1") + draw(st.integers(1, 5 - header.index("X1"))), "X2")
    bases = (["a", "a@2:s", "a@02:s", "b@4:s", "b@2:s"], ["b", "zz", "a@0:s", "a@x:s", "", "a@2"])
    cells = {"compound_id": (["c1", "c2", "c3"], [""]), "base_a": bases, "base_b": bases}
    return draw(csv_text(header, cells))


def outcome(load, *args):
    """What a loader gives: its result, or the type and text of its error."""
    try:
        return load(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def hexed(values):
    return [value.hex() for value in values]


def run_digest(dataset):
    return (
        dataset.pmc_names,
        [(run.app_id, run.config, run.run_id, run.pmc.names, hexed(run.pmc.counts),
          run.exec_time_s.hex(), run.dynamic_energy_j.hex()) for run in dataset.runs],
        [hexed(row) for row in dataset.counts.tolist()],
    )


# Only the warnings the loaders can emit become errors: a blanket "error"
# filter also fires inside hypothesis's failure report and aborts the run.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("error::emodel.stats.MeasurementFaultWarning")
@settings(max_examples=400, deadline=None)
@given(runs_files())
@example(TWO_FAULTS_RUNS)
def test_load_runs_matches_row_by_row_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "oracle_runs.csv"
    path.write_text(text, encoding="utf-8")
    got, expected = outcome(load_runs, path), outcome(load_runs_by_rows, path)
    if isinstance(expected, Dataset):
        assert isinstance(got, Dataset) and not got.counts.flags.writeable
        assert got == expected
        assert run_digest(got) == run_digest(expected)
    else:
        assert got == expected


@settings(max_examples=200, deadline=None)
@given(runs_files())
@example(TWO_FAULTS_RUNS)
def test_column_loader_matches_row_by_row_reference(tmp_path_factory, text):
    """The columns, the rows built from them on first access and the group
    index equal the row-by-row loader's runs and the index derived from them."""
    path = tmp_path_factory.getbasetemp() / "oracle_columns.csv"
    path.write_text(text, encoding="utf-8")
    got, expected = outcome(_load_run_columns, path), outcome(load_runs_by_rows, path)
    if not isinstance(expected, Dataset):
        assert got == expected
        return
    index = got.group_index  # from the columns: no row exists yet
    assert "runs" not in vars(got)
    rows = expected.runs
    assert (got.app_id, got.run_id, got.cores, got.problem_size) == (
        tuple(run.app_id for run in rows), tuple(run.run_id for run in rows),
        tuple(run.config.cores for run in rows), tuple(run.config.problem_size for run in rows))
    assert hexed(got.exec_time_s.tolist()) == [run.exec_time_s.hex() for run in rows]
    assert hexed(got.dynamic_energy_j.tolist()) == [run.dynamic_energy_j.hex() for run in rows]
    assert not (got.exec_time_s.flags.writeable or got.dynamic_energy_j.flags.writeable)
    assert run_digest(got) == run_digest(expected)
    assert got == expected
    groups = groups_by_dict(rows)
    assert list(index.code_of.items()) == [((app_id, config.cores, config.problem_size), g)
                                           for g, (app_id, config) in enumerate(groups)]
    assert index.sizes.tolist() == list(map(len, groups.values()))
    assert index.order.tolist() == [row for members in groups.values() for row in members]
    assert index.starts.tolist() == [sum(map(len, list(groups.values())[:g]))
                                     for g in range(len(groups))]


@st.composite
def runs_with_planted_key_faults(draw):
    """A runs file of distinct valid rows into which up to three each of
    repeated keys (the cores cell perhaps spelt another way), empty app_ids
    and bad cores cells are planted, at random rows."""
    with_run_id = draw(st.booleans())
    rows = [[f"a{i % 3}", str(1 + i % 2), f"s{i}", "1.0", "2.0", str(i), "1"]
            + ([f"r{i % 2}"] if with_run_id else []) for i in range(draw(st.integers(1, 40)))]
    row = st.integers(0, len(rows) - 1)
    for _ in range(draw(st.integers(0, 3)) if len(rows) > 1 else 0):
        first, again = draw(st.lists(row, min_size=2, max_size=2, unique=True))
        for j in (0, 2, 7)[:3 if with_run_id else 2]:
            rows[again][j] = rows[first][j]
        rows[again][1] = draw(st.sampled_from(["", "0", "+", " "])) + rows[first][1].strip(" +0")
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(row)][0] = draw(st.sampled_from(["", " "]))
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(row)][1] = draw(st.sampled_from(["0", "-1", "x", "1.5", ""]))
    header = ["app_id", "cores", "problem_size", "exec_time_s", "dynamic_energy_j", "X1", "X2"]
    return "\n".join(",".join(cells) for cells in [header + ["run_id"] * with_run_id] + rows)


@settings(max_examples=300, deadline=None)
@given(runs_with_planted_key_faults())
def test_key_faults_at_random_rows_match_row_by_row_reference(tmp_path_factory, text):
    """The empty-app_id, cores and duplicate checks, decided from whole
    columns, name the fault that checking row by row from the top names."""
    path = tmp_path_factory.getbasetemp() / "planted_keys.csv"
    path.write_text(text, encoding="utf-8")
    expected = outcome(load_runs_by_rows, path)
    assert outcome(_load_run_columns, path) == expected
    assert outcome(load_runs, path) == expected


def test_rows_are_built_once_and_the_dataset_stays_frozen(tmp_path):
    dataset = _load_run_columns(write(tmp_path / "runs.csv", RUNS_CSV))
    assert "runs" not in vars(dataset)
    assert dataset.runs is dataset.runs
    assert dataset.runs[1].config is dataset.runs[0].config
    assert "runs" in vars(load_runs(write(tmp_path / "runs.csv", RUNS_CSV)))
    with pytest.raises(AttributeError):
        dataset.missing
    with pytest.raises(AttributeError):
        dataset.app_id = ("x",)


def assert_load_pauses_gc(load, path, bad, rows):
    """``load(path)`` gives ``rows`` rows without a collection inside it, and
    ``load(bad)`` raises naming ``oops``; each restores the caller's gc setting."""
    collections = []
    callback = lambda phase, info: phase == "start" and collections.append(info)
    gc.callbacks.append(callback)
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            gc.collect()
            collections.clear()  # the explicit collection's
            assert len(load(path)) == rows
            # At most the one young collection that the first allocation
            # after the load sets off, where an unpaused load runs dozens.
            assert len(collections) <= int(enabled)
            assert gc.isenabled() is enabled
            with pytest.raises(DataFormatError, match="oops"):
                load(bad)
            assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(callback)
        gc.enable()


def test_run_columns_load_pauses_gc_and_restores_the_callers_setting(tmp_path):
    # 3,000 rows allocate far more containers than gc's young threshold.
    header = RUNS_CSV.splitlines()[0]
    rows = "".join(f"a{i},r1,2,1024,1.0,2.0,3,4\n" for i in range(3000))
    path = write(tmp_path / "runs.csv", f"{header}\n{rows}")
    bad = write(tmp_path / "bad.csv", f"{header}\n{rows}a,r1,2,1024,1.0,2.0,3,oops\n")
    assert_load_pauses_gc(lambda p: _load_run_columns(p).app_id, path, bad, 3000)


def test_compounds_load_keeps_the_callers_gc_setting(tmp_path):
    # Unpaused: the collections a paused load deferred fell in the analysis after it.
    dataset = load_runs(write(tmp_path / "runs.csv", RUNS_CSV))
    header = "compound_id,base_a,base_b,dynamic_energy_j,X1,X2"
    rows = "".join(f"c{i},dgemm,fft,180.0,1800,900\n" for i in range(3000))
    path = write(tmp_path / "compounds.csv", f"{header}\n{rows}")
    bad = write(tmp_path / "bad.csv", f"{header}\n{rows}c,dgemm,fft,180.0,1800,oops\n")
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert len(load_compounds(path, dataset)) == 3000
            assert gc.isenabled() is enabled
            with pytest.raises(DataFormatError, match="oops"):
                load_compounds(bad, dataset)
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_points_share_the_rows_configs(tmp_path):
    dataset = load_runs(write(tmp_path / "runs.csv", RUNS_CSV + "fft,r1,4,1024,8.0,80.0,800,400\n"))
    index = dataset.group_index
    points = dataset.points()
    for g, row in enumerate(index.order[index.starts].tolist()):
        assert points[g].config is dataset.runs[row].config


def bits(value):
    """``value`` with each float as its hex, and each record as its class name
    and fields, through tuples: equal only where every field has the same type
    and bits (a float subclass, or a -0.0 for a 0.0, differs)."""
    if type(value) is float:
        return "float", value.hex()
    if isinstance(value, _Record):
        return type(value).__name__, tuple(bits(getattr(value, name)) for name in value._FIELDS)
    if isinstance(value, tuple):
        return tuple(map(bits, value))
    return type(value).__name__, value


BUILT_RUNS = {
    "dynamic": "app_id,run_id,cores,problem_size,exec_time_s,dynamic_energy_j,X1,X2\n"
               "a,r1,2,s,1.5,-0.0,1e9,-0.0\n"
               "a,,2,s,2.5,3.25,7,0.1\n"
               "b,r1,02,s,0.1,0.0,5,0.2\n"
               "a,r2,2,s,1e-3,1e300,0,3\n"
               "b,r2,4,t,0.3,2.0,9,0.3\n"
               "c,,4,t,0.7,0.5,1.5,1e-310\n",
    "total-energy": "X1,app_id,cores,problem_size,exec_time_s,total_energy_j,static_power_w\n"
                    "1,a,1,,2.0,10.0,0.5\n"
                    "2,b,1,,2.0,10.0,5.0\n"
                    "3,c,3,n,0.25,1.0,0.125\n",
}
BUILT_COMPOUNDS = {
    "dynamic": "compound_id,base_a,base_b,dynamic_energy_j,X1,X2\n"
               "ab,a,b@2:s,-0.0,1e9,-0.0\n"
               "ba,b@4:t,a@2:s,4.5,0.5,1e-310\n"
               "cc,c,c,1e300,2,3\n",
    "total-energy": "compound_id,base_a,base_b,X1,dynamic_energy_j\nab,a,b,7,0.0\n",
}


@pytest.mark.parametrize("case", BUILT_RUNS)
def test_rows_compounds_and_points_match_the_row_by_row_loaders_cold_and_warm(
        tmp_path, monkeypatch, case):
    """Rows, compound objects and points, built a field at a time from the
    checked columns, equal field by field what the row-by-row loaders build
    and the fsum group means, on a load that parses and on one from the cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    runs_path = write(tmp_path / "runs.csv", BUILT_RUNS[case])
    compounds_path = write(tmp_path / "compounds.csv", BUILT_COMPOUNDS[case])
    expected = load_runs_by_rows(runs_path)
    runs = expected.runs
    names = expected.pmc_names
    means = [group_means_by_fsum(runs, values).tolist() for values in (
        [run.pmc.counts for run in runs], [run.exec_time_s for run in runs],
        [run.dynamic_energy_j for run in runs])]
    points = tuple(AggregatedRun(app_id, config, PmcVector(names, counts), time_s, energy,
                                 len(rows))
                   for ((app_id, config), rows), counts, time_s, energy in zip(
                       groups_by_dict(runs).items(), means[0], means[1], means[2]))
    for load in ("cold", "warm"):
        dataset = load_runs(runs_path)
        assert bits(dataset.runs) == bits(runs), load
        assert bits(tuple(load_compounds(compounds_path, dataset))) == bits(
            tuple(load_compounds_by_rows(compounds_path, dataset))), load
        assert bits(dataset.points()) == bits(points), load
        # One RunConfig per (cores, problem_size), shared by the rows and the points.
        configs = {(run.config.cores, run.config.problem_size): run.config
                   for run in dataset.runs}
        assert all(run.config is configs[run.config.cores, run.config.problem_size]
                   for run in dataset.runs)
        assert all(point.config is configs[point.config.cores, point.config.problem_size]
                   for point in dataset.points())
        assert len(os.listdir(tmp_path / "xdg" / "emodel")) == 2
    assert [run.run_id for run in dataset.runs].count(None) == (2 if case == "dynamic" else 3)


COMPOUND_BASES = (
    "app_id,cores,problem_size,exec_time_s,dynamic_energy_j,X1,X2\n"
    "a,2,s,1,1,1,1\n"
    "b,2,s,1,1,1,1\n"
    "b,4,s,1,1,1,1\n"
)
TWO_FAULTS_COMPOUNDS = (
    "compound_id,base_a,base_b,dynamic_energy_j,X1,X2\n"
    "c1,b,zz,1,1,-3\n"
    ",zz,a,-1,1,1\n"
)


@settings(max_examples=300, deadline=None)
@given(compounds_files())
@example(TWO_FAULTS_COMPOUNDS)
def test_load_compounds_matches_row_by_row_reference(tmp_path_factory, text):
    base = tmp_path_factory.getbasetemp()
    dataset = load_runs(write(base / "oracle_bases.csv", COMPOUND_BASES))
    path = write(base / "oracle_compounds.csv", text)
    got = outcome(load_compounds, path, dataset)
    expected = outcome(load_compounds_by_rows, path, dataset)
    if isinstance(expected, list):
        assert list(got) == expected
        assert [hexed(c.pmc.counts) + [c.dynamic_energy_j.hex()] for c in got] == [
            hexed(c.pmc.counts) + [c.dynamic_energy_j.hex()] for c in expected
        ]
    else:
        assert got == expected


def test_load_runs_names_the_earliest_row_first(tmp_path):
    # Row 3 fails in earlier columns, but row 2 comes first.
    with pytest.raises(DataFormatError, match=r"row 2, column 'X2': negative count -3\.0$"):
        load_runs(write(tmp_path / "two.csv", TWO_FAULTS_RUNS))


def test_load_runs_and_compounds_number_rows_as_in_the_file(tmp_path):
    # Blank rows count, as they do in energy-function files.
    header = "app_id,run_id,cores,problem_size,exec_time_s,dynamic_energy_j,X1\n"
    bad_cell = header + "\na,r1,2,s,1,1,1\n\nb,r1,2,s,1,1,oops\n"
    with pytest.raises(DataFormatError, match=r"row 5, column 'X1': non-numeric cell 'oops'$"):
        load_runs(write(tmp_path / "cell.csv", bad_cell))
    duplicate = header + "\na,r1,2,s,1,1,1\n\n\na,r1,2,s,1,1,1\n"
    with pytest.raises(DataFormatError, match=r"row 6: duplicate run .*first seen at row 3$"):
        load_runs(write(tmp_path / "dup.csv", duplicate))

    dataset = load_runs(write(tmp_path / "runs.csv", header + "a,r1,2,s,1,1,1\n"))
    compounds = "compound_id,base_a,base_b,dynamic_energy_j,X1\n\n\nc,a,a,2,2\n\nd,a,zz,2,2\n"
    with pytest.raises(DataFormatError, match=r"row 6: unknown base reference 'zz'$"):
        load_compounds(write(tmp_path / "compounds.csv", compounds), dataset)


def test_resolve_rejects_cores_below_one():
    dataset = make_dataset(("X1",), [make_run("a", ("X1",), (1.0,), 1.0, size="s")])
    for ref, cores in (("a@0:s", 0), ("a@-3:s", -3)):
        with pytest.raises(DataFormatError,
                           match=rf"^malformed base reference '{ref}': cores must be >= 1, "
                                 rf"got {cores}$"):
            dataset.resolve(ref)


@pytest.mark.filterwarnings("error")
def test_load_runs_overflowing_static_baseline_is_negative_energy(tmp_path):
    text = (
        "app_id,cores,problem_size,exec_time_s,total_energy_j,static_power_w,X1\n"
        "app,2,n,10.0,5.0,1e308,7\n"
    )
    with pytest.raises(DataFormatError, match=r"row 2: dynamic energy -inf J is negative"):
        load_runs(write(tmp_path / "overflow.csv", text))


def test_load_compounds_without_pmc_columns(tmp_path):
    run = make_run("a", (), (), 1.0)
    dataset = make_dataset((), [run])
    path = write(tmp_path / "compounds.csv",
                 "compound_id,base_a,base_b,dynamic_energy_j\nc,a,a,2.5\nd,a,a,1e3\n")
    compounds = load_compounds(path, dataset)
    assert list(compounds) == load_compounds_by_rows(path, dataset)
    assert [c.dynamic_energy_j for c in compounds] == [2.5, 1000.0]
