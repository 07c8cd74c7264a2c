import json
import math

import pytest

from emodel import (
    DataFormatError,
    Dataset,
    EnergyModel,
    ModelKind,
    PmcVector,
    RunConfig,
    drop_low_count_pmcs,
    load_compounds,
    load_model,
    load_runs,
    predict,
    run_additivity_test,
    save_model,
)
from helpers import make_compound, make_dataset, make_run

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
    assert vec.project(("b",)).counts == (2.0,)
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
    assert load_compounds(write(tmp_path / "comp.csv", text), dataset) == []


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


def test_drop_low_count_pmcs_dataset_max():
    runs = [
        make_run("a", ("hot", "cold"), (100.0, 3.0), 10.0),
        make_run("b", ("hot", "cold"), (200.0, 9.0), 20.0),
    ]
    dataset = make_dataset(("hot", "cold"), runs)
    filtered = drop_low_count_pmcs(dataset, threshold=10.0)
    assert filtered.pmc_names == ("hot",)
    assert all(run.pmc.names == ("hot",) for run in filtered.runs)


def test_drop_low_count_pmcs_any_run_mode():
    runs = [
        make_run("a", ("spiky", "steady"), (1000.0, 50.0), 10.0),
        make_run("b", ("spiky", "steady"), (2.0, 60.0), 20.0),
    ]
    dataset = make_dataset(("spiky", "steady"), runs)
    assert drop_low_count_pmcs(dataset, mode="any-run").pmc_names == ("steady",)
    assert drop_low_count_pmcs(dataset, mode="dataset-max").pmc_names == ("spiky", "steady")
    with pytest.raises(ValueError):
        drop_low_count_pmcs(dataset, mode="per-row")


def test_drop_low_count_projects_compounds():
    runs = [make_run("a", ("hot", "cold"), (100.0, 1.0), 10.0)]
    compound = make_compound("c", "a", "a", ("hot", "cold"), (200.0, 2.0), 20.0)
    dataset = make_dataset(("hot", "cold"), runs, [compound])
    filtered = drop_low_count_pmcs(dataset)
    assert filtered.compounds[0].pmc.names == ("hot",)


def test_load_runs_deterministic(tmp_path):
    path = write(tmp_path / "runs.csv", RUNS_CSV)
    assert load_runs(path) == load_runs(path)


def test_dataset_is_immutable():
    dataset = make_dataset(("X1",), [make_run("a", ("X1",), (1.0,), 1.0)])
    with pytest.raises(AttributeError):
        dataset.pmc_names = ("X2",)
