import argparse
import contextlib
import csv
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emodel import (
    ApplicationRun,
    EnergyModel,
    ModelKind,
    RunConfig,
    check_conservation,
    correlation_matrix,
    evaluate,
    fit,
    load_model,
    load_runs,
    predict,
    run_additivity_test,
    save_model,
    strong_composability_check,
)
from emodel import cli
from emodel.additivity import report_to_json_dict
from emodel.cli import _json_text, run_cli
from emodel.core import _load_run_columns, model_to_dict
from helpers import load_compounds_by_rows, load_runs_by_rows

RUNS_ADD = """app_id,run_id,cores,problem_size,exec_time_s,dynamic_energy_j,X1,X2
alpha,r1,2,1024,10.0,50.0,1000,500
alpha,r2,2,1024,10.0,50.0,1000,500
beta,r1,2,1024,10.0,50.0,1000,500
beta,r2,2,1024,10.0,50.0,1000,500
"""

COMPOUNDS_ADD = """compound_id,base_a,base_b,dynamic_energy_j,X1,X2
ab,alpha,beta,100.0,2060,1370
"""

# energy = 2*X1 + 0.5*X2 exactly, five runs
RUNS_FIT = """app_id,run_id,cores,problem_size,exec_time_s,dynamic_energy_j,X1,X2
a,r1,2,1024,1.0,22.5,10,5
b,r1,2,1024,1.0,41.5,20,3
c,r1,2,1024,1.0,14.5,5,9
d,r1,2,1024,1.0,81.0,40,2
e,r1,2,1024,1.0,37.5,15,15
"""

FUNC_QUAD = "x,y,energy_j\n" + "".join(
    f"{x},4096,{(x / 512.0) ** 2!r}\n" for x in range(512, 4096, 512)
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("runs_add.csv", RUNS_ADD),
        ("compounds_add.csv", COMPOUNDS_ADD),
        ("runs_fit.csv", RUNS_FIT),
        ("f1.csv", FUNC_QUAD),
        ("f2.csv", FUNC_QUAD),
    ]:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)

    clean = EnergyModel(
        pmc_names=("X1", "X2"), intercept=0.0,
        coefficients=(2.0, 0.5), kind=ModelKind.ZERO_INTERCEPT_NONNEG,
    )
    save_model(clean, tmp_path / "clean.json")
    paths["clean.json"] = str(tmp_path / "clean.json")

    dirty = EnergyModel(
        pmc_names=("X1", "X2"), intercept=-5.1,
        coefficients=(1.5, -2.5), kind=ModelKind.UNCONSTRAINED,
    )
    save_model(dirty, tmp_path / "dirty.json")
    paths["dirty.json"] = str(tmp_path / "dirty.json")
    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- additivity -------------------------------------------------------------


def test_additivity_json(files, capsys):
    code, out, err = run(
        capsys, "additivity", "--runs", files["runs_add.csv"],
        "--compounds", files["compounds_add.csv"],
    )
    assert code == 0
    payload = json.loads(out)
    by_name = {e["pmc"]: e for e in payload["per_pmc"]}
    assert by_name["X1"]["classification"] == "additive"
    assert by_name["X1"]["max_error_pct"] == 3.0
    assert by_name["X2"]["classification"] == "non_additive"
    assert by_name["X2"]["max_error_pct"] == 37.0
    assert payload["ranking"] == ["X1", "X2"]


def test_additivity_csv_and_sweep(files, capsys):
    code, out, _ = run(
        capsys, "additivity", "--runs", files["runs_add.csv"],
        "--compounds", files["compounds_add.csv"],
        "--format", "csv", "--sweep", "5,40",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pmc,stage1,max_error_pct,classification"
    assert lines[1] == "X1,true,3.0,additive"
    assert "tolerance_pct,additive_count" in lines
    assert lines[-2:] == ["5.0,1", "40.0,2"]


def test_additivity_sweep_json(files, capsys):
    code, out, _ = run(
        capsys, "additivity", "--runs", files["runs_add.csv"],
        "--compounds", files["compounds_add.csv"], "--sweep", "5,40",
    )
    assert json.loads(out)["sweep"] == [
        {"tolerance_pct": 5.0, "additive_count": 1},
        {"tolerance_pct": 40.0, "additive_count": 2},
    ]


def test_additivity_out_file(files, capsys):
    target = files["dir"] / "report.json"
    code, out, _ = run(
        capsys, "additivity", "--runs", files["runs_add.csv"],
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["per_pmc"]


def test_additivity_bad_tolerance(files, capsys):
    code, _, err = run(
        capsys, "additivity", "--runs", files["runs_add.csv"], "--tolerance", "0",
    )
    assert code == 1
    assert "error" in err


def test_additivity_deterministic_bytes(files, capsys):
    args = ("additivity", "--runs", files["runs_add.csv"],
            "--compounds", files["compounds_add.csv"])
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


# --- correlate and fit ------------------------------------------------------


def test_correlate_formats(files, capsys):
    code, out, _ = run(capsys, "correlate", "--runs", files["runs_fit.csv"])
    assert code == 0
    payload = json.loads(out)
    assert payload["labels"] == ["dynamic_energy", "X1", "X2"]
    assert payload["values"][0][0] == 1.0

    code, out, _ = run(
        capsys, "correlate", "--runs", files["runs_fit.csv"], "--format", "csv",
    )
    assert out.splitlines()[0] == ",dynamic_energy,X1,X2"


def test_correlate_subset(files, capsys):
    code, out, _ = run(
        capsys, "correlate", "--runs", files["runs_fit.csv"], "--pmcs", "X2",
    )
    assert json.loads(out)["labels"] == ["dynamic_energy", "X2"]
    code, _, err = run(
        capsys, "correlate", "--runs", files["runs_fit.csv"], "--pmcs", "nope",
    )
    assert code == 1
    assert "nope" in err


@pytest.mark.parametrize("command", [["correlate"], ["fit", "--kind", "unconstrained"]])
def test_repeated_pmc_is_an_input_error(files, capsys, command):
    code, out, err = run(
        capsys, *command, "--runs", files["runs_fit.csv"], "--pmcs", "X1,X2,X1",
    )
    assert (code, out, err) == (1, "", "emodel: error: PMC 'X1' is listed twice\n")


def test_fit_stdout_and_file(files, capsys):
    code, out, _ = run(
        capsys, "fit", "--runs", files["runs_fit.csv"], "--kind", "zero_intercept",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "zero_intercept"
    assert payload["intercept"] == 0.0
    assert payload["pmc_names"] == ["X1", "X2"]
    assert payload["coefficients"][0] == pytest.approx(2.0, abs=1e-9)

    target = files["dir"] / "model.json"
    code, out, _ = run(
        capsys, "fit", "--runs", files["runs_fit.csv"],
        "--kind", "zero_intercept_nonneg", "--out", str(target),
    )
    assert (code, out) == (0, "")
    _, printed, _ = run(
        capsys, "fit", "--runs", files["runs_fit.csv"], "--kind", "zero_intercept_nonneg",
    )
    assert target.read_text(encoding="utf-8") == printed
    model = load_model(target)
    assert model.kind is ModelKind.ZERO_INTERCEPT_NONNEG
    assert model.coefficients[1] == pytest.approx(0.5, abs=1e-9)


def test_fit_rejects_unknown_kind(files, capsys):
    code, _, err = run(
        capsys, "fit", "--runs", files["runs_fit.csv"], "--kind", "quadratic",
    )
    assert code == 1
    assert "invalid choice" in err


def test_fit_underdetermined(files, capsys):
    code, _, err = run(
        capsys, "fit", "--runs", files["runs_add.csv"], "--kind", "unconstrained",
    )
    # four identical runs cannot support a 3-parameter fit
    assert code == 1
    assert "error" in err


# --- predict and evaluate ---------------------------------------------------


def test_predict_counts(files, capsys):
    code, out, _ = run(
        capsys, "predict", "--model", files["clean.json"],
        "--counts", "X1=10,X2=4",
    )
    assert code == 0
    assert json.loads(out) == {"prediction_j": 22.0}

    code, out, _ = run(
        capsys, "predict", "--model", files["clean.json"],
        "--counts", "X1=10,X2=4", "--format", "csv",
    )
    assert out == "prediction_j\n22.0\n"


def test_predict_runs(files, capsys):
    code, out, _ = run(
        capsys, "predict", "--model", files["clean.json"],
        "--runs", files["runs_fit.csv"],
    )
    rows = json.loads(out)["predictions"]
    assert [r["prediction_j"] for r in rows] == [22.5, 41.5, 14.5, 81.0, 37.5]
    assert rows[0]["app_id"] == "a"

    code, out, _ = run(
        capsys, "predict", "--model", files["clean.json"],
        "--runs", files["runs_fit.csv"], "--format", "csv",
    )
    lines = out.splitlines()
    assert lines[0] == "app_id,run_id,cores,problem_size,prediction_j"
    assert lines[1] == "a,r1,2,1024,22.5"


def per_row_report(model, dataset, fmt):
    """The ``predict --runs`` report built from one ``predict`` call per row."""
    rows = [(run.app_id, run.run_id, run.config.cores, run.config.problem_size,
             predict(model, run.pmc)) for run in dataset.runs]
    fields = ("app_id", "run_id", "cores", "problem_size", "prediction_j")
    if fmt == "csv":
        return "".join(",".join(map(cell, row)) + "\n" for row in [fields, *rows])
    return json.dumps({"predictions": [dict(zip(fields, row)) for row in rows]}, indent=2) + "\n"


def cell(value):
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("runs", ["runs_add.csv", "runs_fit.csv"])
def test_predict_runs_matches_per_row_predict(files, capsys, runs, fmt):
    subset = EnergyModel(pmc_names=("X2",), intercept=-0.1, coefficients=(0.3,),
                         kind=ModelKind.UNCONSTRAINED)
    save_model(subset, files["dir"] / "subset.json")
    for model_file in ("clean.json", "dirty.json", "subset.json"):
        path = str(files["dir"] / model_file)
        code, out, err = run(capsys, "predict", "--model", path, "--runs", files[runs],
                             "--format", fmt)
        assert (code, err) == (0, "")
        assert out == per_row_report(load_model(path), load_runs(files[runs]), fmt)


@pytest.mark.parametrize("fmt,expected", [
    ("json", '{\n  "predictions": []\n}\n'),
    ("csv", "app_id,run_id,cores,problem_size,prediction_j\n"),
])
def test_predict_runs_with_no_rows(files, capsys, fmt, expected):
    """A header-only runs file gives an empty report, even when the model
    names PMCs the file lacks: there is no row to predict."""
    header = RUNS_ADD.splitlines()[0] + "\n"
    (files["dir"] / "empty.csv").write_text(header, encoding="utf-8")
    lacking = EnergyModel(pmc_names=("X9", "X1"), intercept=0.0, coefficients=(1.0, 2.0),
                          kind=ModelKind.ZERO_INTERCEPT)
    save_model(lacking, files["dir"] / "lacking.json")
    for model_file in ("clean.json", "lacking.json"):
        code, out, err = run(capsys, "predict", "--model", str(files["dir"] / model_file),
                             "--runs", str(files["dir"] / "empty.csv"), "--format", fmt)
        assert (code, out, err) == (0, expected, "")
    code, out, err = run(capsys, "predict", "--model", str(files["dir"] / "lacking.json"),
                         "--runs", files["runs_add.csv"], "--format", fmt)
    assert (code, out, err) == (1, "", "emodel: error: PMC 'X9' not present in vector\n")


def test_predict_missing_pmc(files, capsys):
    code, _, err = run(
        capsys, "predict", "--model", files["clean.json"], "--counts", "X1=10",
    )
    assert code == 1
    assert "X2" in err


def test_predict_malformed_counts(files, capsys):
    code, _, err = run(
        capsys, "predict", "--model", files["clean.json"], "--counts", "X1:10",
    )
    assert code == 1
    assert "error" in err


def test_predict_counts_naming_a_pmc_twice_is_a_usage_error(files, capsys):
    for counts, name in [("X1=1,X2=1,X1=2", "X1"), ("X1=10,X2=4,X2=4", "X2")]:
        assert run(capsys, "predict", "--model", files["clean.json"], "--counts", counts) == (
            1, "", f"error: --counts names PMC {name!r} twice\n")


def test_predict_rejects_a_model_file_with_strings_or_booleans(files, capsys):
    path = files["dir"] / "strings.json"
    path.write_text(json.dumps({"kind": "zero_intercept", "pmc_names": ["X1", "X2"],
                                "intercept": False, "coefficients": ["2.5", True]}),
                    encoding="utf-8")
    code, out, err = run(capsys, "predict", "--model", str(path), "--counts", "X1=2,X2=3")
    assert (code, out) == (1, "")
    assert err == f"emodel: error: {path}: coefficients must be a list of numbers\n"


def test_predict_sources_are_exclusive(files, capsys):
    code, _, err = run(
        capsys, "predict", "--model", files["clean.json"],
        "--counts", "X1=1,X2=1", "--runs", files["runs_fit.csv"],
    )
    assert code == 1
    assert "not allowed" in err


def test_evaluate_runs_and_compounds(files, capsys):
    code, out, _ = run(
        capsys, "evaluate", "--model", files["clean.json"],
        "--runs", files["runs_fit.csv"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_cases"] == 5
    assert payload["max_pct"] == 0.0

    code, out, _ = run(
        capsys, "evaluate", "--model", files["clean.json"],
        "--runs", files["runs_add.csv"],
        "--compounds", files["compounds_add.csv"], "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "min_pct,avg_pct,max_pct,n_cases"


def test_runs_file_commands_build_no_row_objects(files, capsys, monkeypatch):
    """fit, correlate, additivity, evaluate and predict --runs read the runs
    file's columns: with ApplicationRun construction made to raise, each
    still prints what the library gives on the row-by-row loader's runs."""
    runs, compounds = files["runs_fit.csv"], files["compounds_add.csv"]
    model_file = files["dirty.json"]
    rows = load_runs_by_rows(runs)
    bases = load_runs_by_rows(files["runs_add.csv"])
    model = load_model(model_file)
    expected = {
        ("fit", "--runs", runs, "--kind", "zero_intercept_nonneg"):
            _json_text(model_to_dict(fit(rows, None, ModelKind.ZERO_INTERCEPT_NONNEG))),
        ("fit", "--runs", runs, "--kind", "unconstrained"):
            _json_text(model_to_dict(fit(rows, None, ModelKind.UNCONSTRAINED))),
        ("correlate", "--runs", runs): _json_text(correlation_matrix(rows).to_json_dict()),
        ("additivity", "--runs", files["runs_add.csv"], "--compounds", compounds):
            _json_text(report_to_json_dict(run_additivity_test(
                bases, load_compounds_by_rows(compounds, bases)))),
        ("evaluate", "--model", model_file, "--runs", runs):
            _json_text(evaluate(model, [(r.pmc, r.dynamic_energy_j) for r in rows.runs])
                       .to_json_dict()),
        ("evaluate", "--model", model_file, "--runs", files["runs_add.csv"],
         "--compounds", compounds):
            _json_text(evaluate(model, [(c.pmc, c.dynamic_energy_j) for c in
                                        load_compounds_by_rows(compounds, bases)]).to_json_dict()),
        ("predict", "--model", model_file, "--runs", runs): per_row_report(model, rows, "json"),
        ("predict", "--model", model_file, "--runs", runs, "--format", "csv"):
            per_row_report(model, rows, "csv"),
    }

    def refuse(self, *args, **kwargs):
        raise AssertionError("an ApplicationRun was built")

    monkeypatch.setattr(ApplicationRun, "__init__", refuse)
    for argv, text in expected.items():
        assert run(capsys, *argv) == (0, text, ""), argv


def test_group_index_builds_no_per_group_object(files, capsys, monkeypatch):
    """The run-group index holds column keys: building it constructs no
    RunConfig, and additivity and evaluate --compounds construct at most one
    per distinct base reference in the compounds file."""
    runs, compounds = files["dir"] / "groups.csv", files["dir"] / "compounds.csv"
    # 20 apps at 3 core counts, 2 repetitions each: 60 groups, 3 of them named.
    runs.write_text(RUNS_ADD.splitlines()[0] + "\n" + "".join(
        f"app{a},r{r},{cores},s,1.0,{10 + a},{100 + a + r},{50 + cores}\n"
        for a in range(20) for cores in (1, 2, 4) for r in range(2)), encoding="utf-8")
    compounds.write_text(COMPOUNDS_ADD.splitlines()[0] + "\n"
                         "c1,app0@1:s,app1@2:s,21.0,201,53\n"
                         "c2,app1@2:s,app0@1:s,21.0,201,53\n"
                         "c3,app0@1:s,app2@4:s,22.0,202,55\n", encoding="utf-8")
    built, init = [], RunConfig.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RunConfig, "__init__", counted)
    assert len(_load_run_columns(runs).group_index.sizes) == 60
    assert built == []
    for argv in (("additivity", "--runs", runs, "--compounds", compounds),
                 ("evaluate", "--model", files["clean.json"], "--runs", runs,
                  "--compounds", compounds)):
        built.clear()
        code, out, err = run(capsys, *map(str, argv))
        assert (code, err) == (0, "") and out
        assert len(built) <= 3, argv


# --- conserve ----------------------------------------------------------------


def test_conserve_clean_model(files, capsys):
    code, out, _ = run(capsys, "conserve", "--model", files["clean.json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["clean"] is True
    assert payload["violations"] == []


def test_conserve_violations_exit_2(files, capsys):
    code, out, _ = run(capsys, "conserve", "--model", files["dirty.json"])
    assert code == 2
    payload = json.loads(out)
    kinds = [v["kind"] for v in payload["violations"]]
    assert kinds == [
        "nonzero_intercept",
        "negative_coefficient",
        "negative_prediction_witness",
    ]

    code, out, _ = run(
        capsys, "conserve", "--model", files["dirty.json"], "--format", "csv",
    )
    assert code == 2
    assert out.splitlines()[0] == "kind,pmc_name,value,predicted_j"
    assert len(out.splitlines()) == 4


def test_conserve_composability_trials(files, capsys):
    code, out, _ = run(
        capsys, "conserve", "--model", files["clean.json"],
        "--composability-trials", "50", "--seed", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["clean"] is True
    assert payload["composability"]["passed"] is True
    assert len(payload["composability"]["detections"]) == 4


def test_conserve_composability_trials_csv_rejected(files, capsys):
    code, _, err = run(
        capsys, "conserve", "--model", files["clean.json"],
        "--composability-trials", "10", "--format", "csv",
    )
    assert code == 1
    assert "JSON only" in err


def test_conserve_composability_needs_zero_intercept(files, capsys):
    code, _, err = run(
        capsys, "conserve", "--model", files["dirty.json"], "--composability-trials", "10",
    )
    assert code == 1
    assert "zero-intercept" in err


def test_conserve_negative_seed_names_the_flag(files, capsys):
    code, out, err = run(
        capsys, "conserve", "--model", files["clean.json"],
        "--composability-trials", "5", "--seed", "-1",
    )
    assert (code, out, err) == (1, "", "error: --seed must be a non-negative integer, got -1\n")


def test_conserve_composability_trials_below_one_names_the_flag(files, capsys):
    for trials in ("0", "-1"):
        assert run(capsys, "conserve", "--model", files["clean.json"],
                   "--composability-trials", trials) == (
            1, "", f"error: --composability-trials must be >= 1, got {trials}\n")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_conserve_huge_delta_detects_planted_operator(tmp_path, capsys):
    # 2 * (a + b + 1e308) overflows; the overflowed comparison is redone on
    # counts scaled by a power of two, so P1's shifted sum is still caught.
    model = EnergyModel(("P1", "P2", "P3"), 0.0, (2.0, 0.0, 3.2e-9),
                        ModelKind.ZERO_INTERCEPT_NONNEG)
    save_model(model, tmp_path / "m.json")
    code, out, err = run(
        capsys, "conserve", "--model", str(tmp_path / "m.json"),
        "--composability-trials", "5", "--delta", "1e308",
    )
    assert (code, err) == (0, "")
    # Strict JSON: an energy that overflowed is null, never Infinity.
    detections = json.loads(out, parse_constant=_reject_constant)["composability"]["detections"]
    assert [(d["operator"], d["pmc_name"], d["detected"]) for d in detections] == [
        ("max", "P1", True), ("max", "P3", True),
        ("sum_plus_delta(1e+308)", "P1", True), ("sum_plus_delta(1e+308)", "P3", True),
    ]
    assert detections[2]["witness"]["lhs_j"] is None


def _conserve_subprocess(model_path, *flags, env=None):
    return subprocess.run(
        [sys.executable, "-m", "emodel.cli", "conserve", "--model", str(model_path), *flags],
        capture_output=True, text=True, env=env,
    )


def _dispatched_cpu_features():
    """The features numpy dispatches to at run time that this CPU has."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]


def test_conserve_composability_report_is_the_same_at_every_simd_level(tmp_path):
    # The probe makes its counts with correctly rounded operations only, so
    # switching off numpy's run-time SIMD kernels changes no byte of it.
    features = _dispatched_cpu_features()
    if not features:
        pytest.skip("numpy dispatches to no SIMD feature of this CPU at run time, "
                    "so there is no lower SIMD level to compare with")
    model = EnergyModel(tuple(f"X{i}" for i in range(1, 9)), 0.0,
                        (2.0, 0.5, 3e-9, 1e-10, 7.0, 0.0, 1e-3, 4.2),
                        ModelKind.ZERO_INTERCEPT_NONNEG)
    save_model(model, tmp_path / "m.json")
    flags = ("--composability-trials", "100", "--seed", "1")
    default = _conserve_subprocess(tmp_path / "m.json", *flags)
    reduced = _conserve_subprocess(tmp_path / "m.json", *flags, env={
        **os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(features)})
    assert default.returncode in (0, 2) and default.stdout
    assert (reduced.returncode, reduced.stdout) == (default.returncode, default.stdout)


# Digests of BLAS dot products and of np.exp, which a BLAS core type or a
# SIMD level that takes effect on this machine changes.
_BLAS_AND_SIMD_PROBE = (
    "import hashlib, numpy as np; x = np.random.default_rng(0).uniform(-1, 1, (8, 2000)); "
    "print(hashlib.sha256(np.array([u @ v for u in x for v in x]).tobytes()).hexdigest(), "
    "hashlib.sha256(np.exp(x).tobytes()).hexdigest())"
)


def test_correlate_report_is_the_same_at_every_blas_core_and_simd_level(tmp_path):
    # correlate takes its dot products as numpy pairwise sums, never through
    # BLAS: neither OpenBLAS's kernel choice nor numpy's SIMD level changes a
    # byte of it. A setting that changes nothing here is named in a warning.
    rng = np.random.default_rng(3)
    counts = rng.uniform(0.0, 1e9, size=(2000, 4)) * rng.uniform(0.0, 1.0, size=(2000, 4)) ** 3
    energies = counts @ np.array([1e-9, 3e-8, 0.0, 2e-9]) + rng.uniform(0.1, 5.0, size=2000)
    path, header = tmp_path / "runs.csv", "app_id,cores,problem_size,exec_time_s,dynamic_energy_j"
    path.write_text(header + ",P1,P2,P3,P4\n" + "".join(
        f"a{i},1,,1.0,{energy!r},{','.join(map(repr, row))}\n"
        for i, (energy, row) in enumerate(zip(energies.tolist(), counts.tolist()))),
        encoding="utf-8")
    settings = {f"OPENBLAS_CORETYPE={core}": {"OPENBLAS_CORETYPE": core}
                for core in ("Haswell", "Prescott")}
    features = " ".join(_dispatched_cpu_features())
    if features:
        settings[f"NPY_DISABLE_CPU_FEATURES={features}"] = {"NPY_DISABLE_CPU_FEATURES": features}

    def outputs(setting):
        env = {**os.environ, **setting}
        report = subprocess.run([sys.executable, "-m", "emodel.cli", "correlate", "--runs",
                                 str(path)], capture_output=True, text=True, env=env)
        probe = subprocess.run([sys.executable, "-c", _BLAS_AND_SIMD_PROBE],
                               capture_output=True, text=True, env=env, check=True)
        return report, probe.stdout

    default, default_probe = outputs({})
    assert (default.returncode, default.stderr) == (0, "") and default.stdout
    idle = []
    for name, setting in settings.items():
        report, probe = outputs(setting)
        assert (report.returncode, report.stdout) == (0, default.stdout), name
        if probe == default_probe:
            idle.append(name)
    if idle:
        warnings.warn(f"{'; '.join(idle)}: changes no BLAS or SIMD result on this machine, "
                      f"so the comparison under it shows nothing")


def test_conserve_subprocess_huge_coefficients_exact_output(tmp_path):
    # Coefficient times count overflows on every trial: no numpy warning may
    # reach stderr, and the report is the library's, byte for byte.
    model = EnergyModel(("X1", "X2"), 0.0, (1e300, 3e300), ModelKind.ZERO_INTERCEPT_NONNEG)
    save_model(model, tmp_path / "m.json")
    result = _conserve_subprocess(tmp_path / "m.json", "--composability-trials", "5",
                                  "--seed", "2")
    payload = check_conservation(model).to_json_dict()
    payload["composability"] = strong_composability_check(model, 5, 2).to_json_dict()
    assert payload["composability"]["passed"] is True
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == json.dumps(payload, indent=2) + "\n"
    json.loads(result.stdout, parse_constant=_reject_constant)


def test_conserve_subprocess_negative_delta_exact_output(files):
    # -1e12 makes the first shifted-sum composition a negative count: an input
    # error with the library's message, no traceback, no numpy warning.
    with pytest.raises(ValueError) as info:
        strong_composability_check(load_model(files["clean.json"]), 10, 0, delta=-1e12)
    assert str(info.value).startswith("PMC 'X1' has invalid count -")
    result = _conserve_subprocess(files["clean.json"], "--composability-trials", "10",
                                  "--delta=-1e12")
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"emodel: error: {info.value}\n"


def test_negative_exponent_values_are_not_flags(files, capsys):
    # argparse alone reads "-1e12" as an unknown flag and exits with
    # "expected one argument"; these reach the library instead.
    flags = ["conserve", "--model", files["clean.json"], "--composability-trials", "10"]
    code, out, err = run(capsys, *flags, "--delta", "-1e12")
    assert (code, out, err) == run(capsys, *flags, "--delta=-1e12")
    assert (code, out) == (1, "") and err.startswith("emodel: error: PMC 'X1' has invalid count -")

    assert run(capsys, "loss", "--alt", "-1e3", "--ref", "100") == (
        1, "", "emodel: error: alternative energy must be >= 0, got -1000.0\n")

    code, out, err = run(capsys, "stats", "--values", "-1.5,-1.4,-1.6")
    assert (code, err) == (0, "")
    assert json.loads(out)["mean"] == -1.5


# --- partition and loss -------------------------------------------------------


def test_partition_default_csv(files, capsys):
    code, out, _ = run(
        capsys, "partition", "--func1", files["f1.csv"],
        "--func2", files["f2.csv"], "--n", "4096",
    )
    assert code == 0
    assert out == "m,k,e1_j,e2_j,total_j\n2048,2048,16.0,16.0,32.0\n"


def test_partition_json(files, capsys):
    code, out, _ = run(
        capsys, "partition", "--func1", files["f1.csv"],
        "--func2", files["f2.csv"], "--n", "4096", "--format", "json",
    )
    assert json.loads(out) == {
        "m": 2048, "k": 2048, "e1_j": 16.0, "e2_j": 16.0, "total_j": 32.0,
    }


def test_partition_infeasible(files, capsys):
    code, _, err = run(
        capsys, "partition", "--func1", files["f1.csv"],
        "--func2", files["f2.csv"], "--n", "8192",
    )
    assert code == 1
    assert "error" in err


def test_partition_granularity_below_one_names_the_flag(files, capsys, monkeypatch):
    """A usage error, found before either file is opened: the same text for a
    missing file as for one that would load."""
    opened = []
    real_open = open
    monkeypatch.setattr("builtins.open", lambda *a, **k: opened.append(a[0]) or real_open(*a, **k))
    for granularity in ("0", "-512"):
        for func1 in (files["f1.csv"], str(files["dir"] / "missing.csv")):
            assert run(capsys, "partition", "--func1", func1, "--func2", files["f2.csv"],
                       "--n", "4096", "--granularity", granularity) == (
                1, "", f"error: --granularity must be >= 1, got {granularity}\n")
    assert opened == []


def test_loss(files, capsys):
    code, out, _ = run(capsys, "loss", "--alt", "90", "--ref", "100")
    assert code == 0
    assert json.loads(out) == {"loss_pct": -10.0}

    code, out, _ = run(
        capsys, "loss", "--alt", "115", "--ref", "100", "--format", "csv",
    )
    assert out == "loss_pct\n15.0\n"

    code, _, err = run(capsys, "loss", "--alt", "1", "--ref", "0")
    assert code == 1


def strict_json(text):
    """``json.loads`` that refuses the non-standard NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture
def huge(files):
    """A model whose prediction on one-row runs file ``one.csv`` is inf - inf."""
    huge = EnergyModel(pmc_names=("X1", "X2"), intercept=0.0, coefficients=(1e300, -1e300),
                       kind=ModelKind.UNCONSTRAINED)
    save_model(huge, files["dir"] / "huge.json")
    (files["dir"] / "one.csv").write_text(
        RUNS_ADD.splitlines()[0] + "\nalpha,r1,2,1024,10.0,50.0,1e300,1e300\n", encoding="utf-8")
    return files


def test_non_finite_results_are_json_null(huge, capsys):
    files = huge
    (files["dir"] / "huge.csv").write_text("x,y,energy_j\n512,1024,1e308\n", encoding="utf-8")
    for argv, key, expected in [
        (["loss", "--alt", "1e308", "--ref", "1e-300"], "loss_pct", None),
        (["partition", "--func1", "@huge.csv", "--func2", "@huge.csv", "--n", "1024"],
         "total_j", None),
        (["predict", "--model", "@huge.json", "--counts", "X1=1e300,X2=1e300"],
         "prediction_j", None),
        (["predict", "--model", "@huge.json", "--runs", "@one.csv"], "predictions", [{
            "app_id": "alpha", "run_id": "r1", "cores": 2, "problem_size": "1024",
            "prediction_j": None}]),
    ]:
        argv = [str(files["dir"] / arg[1:]) if arg.startswith("@") else arg for arg in argv]
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert strict_json(out)[key] == expected
    # CSV keeps Python's spelling of a non-finite float.
    code, out, _ = run(capsys, "loss", "--alt", "1e308", "--ref", "1e-300", "--format", "csv")
    assert (code, out) == (0, "loss_pct\ninf\n")


def test_evaluate_non_finite_prediction_is_one_error_line(huge):
    result = subprocess.run(
        [sys.executable, "-m", "emodel.cli", "evaluate", "--model",
         str(huge["dir"] / "huge.json"), "--runs", str(huge["dir"] / "one.csv")],
        capture_output=True, text=True, check=False,
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == "emodel: error: prediction for case 1 is not finite: nan\n"


# --- stats ---------------------------------------------------------------------


def test_stats_inline_values(files, capsys):
    code, out, _ = run(capsys, "stats", "--values", "10,12")
    assert code == 0
    payload = json.loads(out)
    assert payload["mean"] == 11.0
    assert payload["n"] == 2
    assert payload["half_width"] == pytest.approx(12.706204736174698, rel=1e-9)


def test_stats_values_file(files, capsys):
    path = files["dir"] / "samples.txt"
    path.write_text("5.0 5.0\n5.0\n", encoding="utf-8")
    code, out, _ = run(capsys, "stats", "--values-file", str(path), "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "mean,half_width,n,converged,relative_undefined"
    assert out.splitlines()[1] == "5.0,0.0,3,true,false"


def test_stats_values_file_not_utf8(files, capsys):
    path = files["dir"] / "latin1_samples.txt"
    path.write_bytes(b"5.0 5.0\n\xff5.0\n")
    code, out, err = run(capsys, "stats", "--values-file", str(path))
    assert (code, out) == (1, "")
    assert err == (
        f"emodel: error: {path}: not UTF-8 text (invalid start byte)\n"
    )


def test_stats_single_sample_rejected(files, capsys):
    code, _, err = run(capsys, "stats", "--values", "10")
    assert code == 1
    assert "error" in err


def test_stats_non_finite_sample_rejected(files, capsys):
    code, out, err = run(capsys, "stats", "--values", "nan,1,2")
    assert (code, out, err) == (1, "", "emodel: error: sample 1 is not finite: nan\n")


# --- CSV quoting ----------------------------------------------------------------

# Text with every character that needs quoting. The test frames it in letters,
# so that the loaders' stripping of surrounding whitespace leaves it unchanged.
QUOTABLE = st.text(alphabet='ab ,"\r\n', max_size=5)


def csv_rows(text):
    return list(csv.reader(io.StringIO(text, newline="")))


@settings(max_examples=40, deadline=None)
@given(apps=st.lists(QUOTABLE, min_size=2, max_size=2, unique=True),
       run_ids=st.lists(QUOTABLE, min_size=2, max_size=2, unique=True),
       pmcs=st.lists(QUOTABLE, min_size=2, max_size=2, unique=True))
def test_csv_reports_read_back_whole(apps, run_ids, pmcs):
    apps = [f"a{a}b" for a in apps]
    run_ids = [f"r{r}s" for r in run_ids]
    pmcs = [f"P{p}Q" for p in pmcs]
    runs = [(app, run_id, 2, 1024, 1.0, 10.0 + 7 * i + 3 * k, 100 + 5 * i + k, 50 + 2 * k + i * i)
            for i, app in enumerate(apps) for k, run_id in enumerate(run_ids)]
    model = EnergyModel(pmc_names=tuple(pmcs), intercept=0.0, coefficients=(2.0, -0.5),
                        kind=ModelKind.ZERO_INTERCEPT)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in ("runs.csv", "comps.csv", "m.json")}
        with open(paths["runs.csv"], "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([("app_id", "run_id", "cores", "problem_size",
                                       "exec_time_s", "dynamic_energy_j", *pmcs), *runs])
        with open(paths["comps.csv"], "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([("compound_id", "base_a", "base_b", "dynamic_energy_j",
                                       *pmcs), ("c", apps[0], apps[1], 50.0, 230, 120)])
        save_model(model, paths["m.json"])
        reports = {}
        for name, code, argv in [
            ("predict", 0, ["predict", "--model", paths["m.json"], "--runs", paths["runs.csv"]]),
            ("correlate", 0, ["correlate", "--runs", paths["runs.csv"]]),
            ("additivity", 0, ["additivity", "--runs", paths["runs.csv"],
                               "--compounds", paths["comps.csv"]]),
            ("conserve", 2, ["conserve", "--model", paths["m.json"]]),
        ]:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert run_cli([*argv, "--format", "csv"]) == code
            reports[name] = csv_rows(out.getvalue())

    for rows in reports.values():
        assert len(rows) > 1
        assert all(len(row) == len(rows[0]) for row in rows)
    assert [tuple(row[:2]) for row in reports["predict"][1:]] == [run[:2] for run in runs]
    assert reports["correlate"][0] == ["", "dynamic_energy", *pmcs]
    assert [row[0] for row in reports["correlate"][1:]] == ["dynamic_energy", *pmcs]
    assert [row[0] for row in reports["additivity"][1:]] == pmcs
    assert pmcs[1] in [row[1] for row in reports["conserve"][1:]]


# --- one-row reports -------------------------------------------------------------

# "@name" stands for the path of fixture file ``name``.
ONE_ROW_REPORTS = [
    (["predict", "--model", "@clean.json", "--counts", "X1=10,X2=4.5"],
     '{\n  "prediction_j": 22.25\n}\n',
     "prediction_j\n22.25\n"),
    (["evaluate", "--model", "@clean.json", "--runs", "@runs_add.csv",
      "--compounds", "@compounds_add.csv"],
     '{\n  "min_pct": 4705.0,\n  "avg_pct": 4705.0,\n  "max_pct": 4705.0,\n  "n_cases": 1\n}\n',
     "min_pct,avg_pct,max_pct,n_cases\n4705.0,4705.0,4705.0,1\n"),
    (["partition", "--func1", "@f1.csv", "--func2", "@f2.csv", "--n", "4096"],
     '{\n  "m": 2048,\n  "k": 2048,\n  "e1_j": 16.0,\n  "e2_j": 16.0,\n  "total_j": 32.0\n}\n',
     "m,k,e1_j,e2_j,total_j\n2048,2048,16.0,16.0,32.0\n"),
    (["loss", "--alt", "90.5", "--ref", "100"],
     '{\n  "loss_pct": -9.5\n}\n',
     "loss_pct\n-9.5\n"),
    (["stats", "--values", "10,12,11"],
     '{\n  "mean": 11.0,\n  "half_width": 2.4841377117503263,\n  "n": 3,\n'
     '  "converged": false,\n  "relative_undefined": false\n}\n',
     "mean,half_width,n,converged,relative_undefined\n11.0,2.4841377117503263,3,false,false\n"),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv,json_text,csv_text", ONE_ROW_REPORTS, ids=[case[0][0] for case in ONE_ROW_REPORTS]
)
def test_one_row_report_exact_bytes(files, capsys, argv, json_text, csv_text, fmt):
    argv = [files[arg[1:]] if arg.startswith("@") else arg for arg in argv]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == (json_text if fmt == "json" else csv_text)


# --- global behavior -------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert run(capsys)[0] == 1


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "invalid choice" in err


def test_unknown_flag(files, capsys):
    code, _, err = run(capsys, "loss", "--alt", "1", "--ref", "2", "--bogus")
    assert code == 1
    assert "unrecognized" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "correlate", "--runs", "/nonexistent/runs.csv")
    assert code == 1
    assert "error" in err


def test_installed_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "emodel.cli", "loss", "--alt", "90", "--ref", "100"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"loss_pct": -10.0}


# Calls cli.main() as the installed ``emodel`` script does, its fit handler
# wrapped to write whether the cyclic collector runs before and after it.
MAIN_WITH_TRACED_GC = (
    "import gc, sys\n"
    "from emodel import cli\n"
    "handler = cli._cmd_fit\n"
    "def traced(args):\n"
    "    before = gc.isenabled()\n"
    "    code = handler(args)\n"
    "    sys.stderr.write(f'{before} {gc.isenabled()}')\n"
    "    return code\n"
    "cli._cmd_fit = traced\n"
    "assert gc.isenabled()\n"
    "cli.main()\n"
)


def test_main_runs_the_command_with_the_collector_off(files):
    result = subprocess.run(
        [sys.executable, "-c", MAIN_WITH_TRACED_GC, "fit", "--runs", files["runs_fit.csv"],
         "--kind", "zero_intercept"], capture_output=True, text=True,
    )
    assert (result.returncode, result.stderr) == (0, "False False")
    assert json.loads(result.stdout)["coefficients"] == pytest.approx([2.0, 0.5])


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("command", ["fit", "loss"])
def test_run_cli_leaves_the_callers_collector_setting(files, capsys, monkeypatch, enabled,
                                                      command):
    argv = {"fit": ["fit", "--runs", files["runs_fit.csv"], "--kind", "zero_intercept"],
            "loss": ["loss", "--alt", "90", "--ref", "100"]}[command]
    handler, seen = getattr(cli, f"_cmd_{command}"), []
    monkeypatch.setattr(cli, f"_cmd_{command}",
                        lambda args: seen.append(gc.isenabled()) or handler(args))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run_cli(argv) == 0
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert (seen, after) == ([enabled], enabled)


# --- the emodel process: main() flushes, then ends in os._exit ------------------


def emodel_process(argv, unbuffered="1", **streams):
    """``python -m emodel.cli argv`` as a child, with PYTHONUNBUFFERED set to
    ``unbuffered`` or, for None, unset; stdout and stderr are captured unless
    ``streams`` says otherwise."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run([sys.executable, "-m", "emodel.cli", *argv], env=env, **streams)


@pytest.fixture
def predictions(files):
    """A runs file of 1,300 rows, more than two blocks of the JSON prediction report."""
    path = files["dir"] / "runs_many.csv"
    path.write_text(RUNS_FIT.splitlines()[0] + "\n" + "".join(
        f"app{i},r1,2,1024,1.0,{2.0 * i + 0.5 * (i % 9)!r},{i},{i % 9}\n"
        for i in range(1300)), encoding="utf-8")
    files["runs_many.csv"] = str(path)
    return files


MAIN_CASES = [
    pytest.param(["fit", "--runs", "runs_fit.csv", "--kind", "zero_intercept_nonneg"], 0,
                 id="fit"),
    pytest.param(["predict", "--model", "clean.json", "--runs", "runs_many.csv"], 0,
                 id="predict-runs"),
    pytest.param(["partition", "--func1", "f1.csv", "--func2", "f2.csv", "--n", "4096"], 0,
                 id="partition"),
    pytest.param(["loss", "--alt", "90", "--ref", "100"], 0, id="loss"),
    pytest.param(["loss", "--alt", "90"], 1, id="usage-error"),
    pytest.param(["conserve", "--model", "dirty.json"], 2, id="conserve-violations"),
]


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, code", MAIN_CASES)
def test_main_gives_run_clis_bytes_and_exit_code(predictions, capsys, argv, code, unbuffered):
    argv = [predictions.get(arg, arg) for arg in argv]
    child = emodel_process(argv, unbuffered)
    assert run_cli(argv) == code
    captured = capsys.readouterr()
    assert (child.returncode, child.stdout, child.stderr) == (
        code, captured.out.encode(), captured.err.encode())


@pytest.mark.parametrize("argv", [
    pytest.param(["predict", "--model", "clean.json", "--runs", "runs_many.csv"], id="predict"),
    pytest.param(["fit", "--runs", "runs_many.csv", "--kind", "zero_intercept"], id="fit"),
])
def test_main_leaves_an_out_file_complete(predictions, capsys, argv):
    argv = [predictions.get(arg, arg) for arg in argv]
    out = predictions["dir"] / "report.txt"
    child = emodel_process([*argv, "--out", str(out)])
    assert (child.returncode, child.stdout, child.stderr) == (0, b"", b"")
    assert run_cli(argv) == 0
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out


def test_run_cli_returns_and_never_ends_the_process(files, monkeypatch):
    def refuse(code):
        raise AssertionError(f"os._exit({code}) called in process")

    monkeypatch.setattr(os, "_exit", refuse)
    assert run_cli(["loss", "--alt", "90", "--ref", "100"]) == 0
    assert run_cli(["loss", "--alt", "90"]) == 1
    assert run_cli(["conserve", "--model", files["dirty.json"]]) == 2


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
NO_SPACE = b"emodel: error: [Errno 28] No space left on device\n"


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    pytest.param(["loss", "--alt", "1", "--ref", "2"], id="loss"),
    pytest.param(["predict", "--model", "clean.json", "--runs", "runs_many.csv"], id="predict"),
])
def test_a_full_stdout_is_one_error_line_and_exit_1(predictions, argv, unbuffered):
    argv = [predictions.get(arg, arg) for arg in argv]
    with open("/dev/full", "wb") as full:
        child = emodel_process(argv, unbuffered, stdout=full)
    assert (child.returncode, child.stderr) == (1, NO_SPACE)


def test_a_closed_stdout_is_one_error_line_and_exit_1():
    child = emodel_process(["loss", "--alt", "1", "--ref", "2"], stdout=None,
                           preexec_fn=lambda: os.close(1))
    assert (child.returncode, child.stderr) == (1, b"emodel: error: stdout is closed\n")


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, full_stdout", [
    pytest.param(["loss", "--alt", "1"], False, id="usage-error"),
    pytest.param(["loss", "--alt", "1", "--ref", "2"], True, id="full-stdout"),
])
def test_a_full_stderr_still_exits_1(argv, full_stdout, unbuffered):
    with open("/dev/full", "wb") as full:
        streams = {"stdout": full, "stderr": full} if full_stdout else {"stderr": full}
        child = emodel_process(argv, unbuffered, **streams)
    assert child.returncode == 1


def test_overflowing_repetition_sum_is_an_input_error(tmp_path):
    runs = tmp_path / "huge.csv"
    runs.write_text(
        "app_id,run_id,cores,problem_size,exec_time_s,dynamic_energy_j,X1\n"
        "a,r1,2,s,1.0,1.0,1e308\n"
        "a,r2,2,s,1.0,1.0,1e308\n",
        encoding="utf-8",
    )
    result = subprocess.run(
        [sys.executable, "-m", "emodel.cli", "additivity", "--runs", str(runs)],
        capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert result.stderr == "emodel: error: intermediate overflow in fsum\n"
    assert "Traceback" not in result.stderr


def test_additivity_base_with_zero_cores_names_file_and_row(files, tmp_path):
    compounds = tmp_path / "zero_cores.csv"
    compounds.write_text(
        "compound_id,base_a,base_b,dynamic_energy_j,X1,X2\n"
        "ab,alpha@0:1024,beta,100.0,2060,1370\n",
        encoding="utf-8",
    )
    result = subprocess.run(
        [sys.executable, "-m", "emodel.cli", "additivity", "--runs", files["runs_add.csv"],
         "--compounds", str(compounds)],
        capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert result.stderr == (
        f"emodel: error: {compounds}: row 2: malformed base reference 'alpha@0:1024': "
        f"cores must be >= 1, got 0\n"
    )


# --- unreadable input files --------------------------------------------------

OVERSIZED_CELL = "9" * 200_000  # past csv.field_size_limit()'s default of 131,072


def _bad_input_argv(files, kind, path):
    """The command that reads ``path`` as the given kind of input file."""
    return {
        "runs": ["additivity", "--runs", path],
        "compounds": ["additivity", "--runs", files["runs_add.csv"], "--compounds", path],
        "function": ["partition", "--func1", path, "--func2", files["f2.csv"], "--n", "4096"],
        "model": ["conserve", "--model", path],
    }[kind]


_VALID_TEXT = {
    "runs": RUNS_ADD,
    "compounds": COMPOUNDS_ADD,
    "function": FUNC_QUAD,
}


@pytest.mark.parametrize("kind", ["runs", "compounds", "function"])
def test_oversized_csv_cell_is_an_input_error(files, capsys, kind):
    lines = _VALID_TEXT[kind].splitlines(keepends=True)
    # Repeat the first data row with its last cell widened, as the last line.
    lines.append(lines[1].rsplit(",", 1)[0] + "," + OVERSIZED_CELL + "\n")
    path = files["dir"] / f"oversized_{kind}.csv"
    path.write_text("".join(lines), encoding="utf-8")
    code, out, err = run(capsys, *_bad_input_argv(files, kind, str(path)))
    assert (code, out) == (1, "")
    assert err == (f"emodel: error: {path}: line {len(lines)}: "
                   f"field larger than field limit (131072)\n")


@pytest.mark.parametrize("kind", ["runs", "compounds", "function", "model"])
def test_invalid_utf8_is_an_input_error(files, capsys, kind):
    suffix = ".json" if kind == "model" else ".csv"
    if kind == "model":
        data = open(files["clean.json"], "rb").read()
    else:
        data = _VALID_TEXT[kind].encode("utf-8")
    path = files["dir"] / f"latin1_{kind}{suffix}"
    path.write_bytes(data.replace(b"\n", b"\n\xff", 1))
    code, out, err = run(capsys, *_bad_input_argv(files, kind, str(path)))
    assert (code, out) == (1, "")
    assert err.startswith(f"emodel: error: {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_deeply_nested_model_is_an_input_error(files, capsys):
    path = files["dir"] / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "conserve", "--model", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"emodel: error: {path}: not valid JSON: ")
    assert err.count("\n") == 1


# --- empty flag values -------------------------------------------------------------

# One invocation per subcommand and source that sets every flag which takes free text
# (paths, names, numbers as a list), each to a valid value; "{name}" is a file of `files`.
FULL_INVOCATIONS = [
    ["additivity", "--runs", "{runs_add.csv}", "--compounds", "{compounds_add.csv}",
     "--sweep", "5,10", "--out", "{report.out}"],
    ["correlate", "--runs", "{runs_add.csv}", "--pmcs", "X1", "--out", "{report.out}"],
    ["fit", "--runs", "{runs_fit.csv}", "--kind", "unconstrained", "--pmcs", "X1,X2",
     "--out", "{report.out}"],
    ["predict", "--model", "{clean.json}", "--counts", "X1=1,X2=2", "--out", "{report.out}"],
    ["predict", "--model", "{clean.json}", "--runs", "{runs_add.csv}", "--out", "{report.out}"],
    ["evaluate", "--model", "{clean.json}", "--runs", "{runs_add.csv}",
     "--compounds", "{compounds_add.csv}", "--out", "{report.out}"],
    ["conserve", "--model", "{clean.json}", "--out", "{report.out}"],
    ["partition", "--func1", "{f1.csv}", "--func2", "{f2.csv}", "--n", "4096",
     "--out", "{report.out}"],
    ["loss", "--alt", "90", "--ref", "100", "--out", "{report.out}"],
    ["stats", "--values", "10,12,11", "--out", "{report.out}"],
    ["stats", "--values-file", "{samples.txt}", "--out", "{report.out}"],
]


def in_dir(files, argv):
    (files["dir"] / "samples.txt").write_text("10 12 11\n", encoding="utf-8")
    return [str(files["dir"] / arg[1:-1]) if arg.startswith("{") else arg for arg in argv]


def subcommand_parsers():
    return next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def text_flags(subcommand):
    """The flags of a subcommand that take a value of free text: no type, no choices."""
    return {action.option_strings[-1] for action in subcommand_parsers()[subcommand]._actions
            if action.option_strings and action.nargs is None and action.type is None
            and action.choices is None and not action.const and action.dest != "help"}


def test_the_empty_value_cases_cover_every_text_flag():
    covered = {}
    for argv in FULL_INVOCATIONS:
        covered.setdefault(argv[0], set()).update(a for a in argv if a.startswith("--"))
    assert set(covered) == set(subcommand_parsers())
    for subcommand, flags in covered.items():
        assert text_flags(subcommand) <= flags, subcommand


@pytest.mark.parametrize("argv", FULL_INVOCATIONS)
def test_an_empty_text_flag_is_one_error_line_and_exit_1(files, capsys, argv):
    argv, out = in_dir(files, argv), files["dir"] / "report.out"
    assert run(capsys, *argv)[0] in (0, 2)  # every value valid
    for position, flag in enumerate(argv):
        if flag not in text_flags(argv[0]):
            continue
        out.unlink(missing_ok=True)
        emptied = argv[:position + 1] + [""] + argv[position + 2:]
        code, stdout, stderr = run(capsys, *emptied)
        assert (code, stdout, stderr.count("\n")) == (1, "", 1), emptied
        assert "Traceback" not in stderr and stderr.startswith(("error: ", "emodel: error: "))
        assert not out.exists(), emptied


@pytest.mark.parametrize("argv, message", [
    (["stats", "--values", ""], "error: --values is empty"),
    (["stats", "--values", ","], "error: --values is empty"),
    (["predict", "--model", "{clean.json}", "--counts", ""], "error: --counts is empty"),
    (["additivity", "--runs", "{runs_add.csv}", "--sweep", ""], "error: --sweep is empty"),
    (["correlate", "--runs", "{runs_add.csv}", "--pmcs", ""], "error: --pmcs is empty"),
    (["fit", "--runs", "{runs_fit.csv}", "--kind", "unconstrained", "--pmcs", " , "],
     "error: --pmcs is empty"),
    (["additivity", "--runs", "{runs_add.csv}", "--compounds", ""],
     "emodel: error: [Errno 2] No such file or directory: ''"),
    (["evaluate", "--model", "{clean.json}", "--runs", "{runs_add.csv}", "--compounds", ""],
     "emodel: error: [Errno 2] No such file or directory: ''"),
    (["additivity", "--runs", ""], "emodel: error: [Errno 2] No such file or directory: ''"),
    (["loss", "--alt", "90", "--ref", "100", "--out", ""],
     "emodel: error: [Errno 2] No such file or directory: ''"),
])
def test_an_empty_flag_is_never_read_as_absent(files, capsys, argv, message):
    assert run(capsys, *in_dir(files, argv)) == (1, "", message + "\n")


@pytest.mark.parametrize("argv", [["stats", "--values", ""],
                                  ["predict", "--model", "{clean.json}", "--counts", ""]])
def test_an_empty_flag_of_a_numpy_free_command_has_no_traceback(files, argv):
    result = subprocess.run([sys.executable, "-m", "emodel.cli", *in_dir(files, argv)],
                            capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
