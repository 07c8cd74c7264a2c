"""Fuzzing of every input-file loader and of the CLI commands that read them.

Whatever bytes a runs, compounds, energy-function, model or values file
holds, the loader returns a result or raises :class:`DataFormatError`, and
``run_cli`` returns 0, 1 or 2 without raising.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emodel import (
    DataFormatError,
    load_compounds,
    load_energy_function,
    load_model,
    load_runs,
)
from emodel.cli import run_cli

RUNS_TEXT = """app_id,run_id,cores,problem_size,exec_time_s,dynamic_energy_j,X1,X2
alpha,r1,2,1024,10.0,50.0,1000,500
alpha,r2,2,1024,10.0,50.0,1000,500
beta,r1,2,1024,10.0,50.0,1000,500
"""
FUNC_TEXT = "x,y,energy_j\n512,2048,1.0\n1024,2048,2.0\n1536,2048,3.0\n"
MODEL_TEXT = json.dumps({
    "kind": "zero_intercept_nonneg", "pmc_names": ["X1", "X2"],
    "intercept": 0.0, "coefficients": [2.0, 0.5],
})

HEADERS = {
    "runs": RUNS_TEXT.splitlines()[0].encode(),
    "compounds": b"compound_id,base_a,base_b,dynamic_energy_j,X1,X2",
    "function": b"x,y,energy_j",
}

# Cells that pass or fail the loaders' checks in different ways.
CELLS = [b"", b"0", b"1", b"-1", b"512", b"2048", b"1.5", b"1e308", b"-1e308", b"nan",
         b"inf", b"alpha", b"beta", b"alpha@2:1024", b"beta@0:1024", b"r1", b"\xff",
         b"\x00", b'"', b'"a,b"', b" ", b"\r"]


def csv_bytes(header):
    """Arbitrary bytes, or the given header followed by arbitrary bytes or by
    rows of interesting cells."""
    rows = st.lists(st.lists(st.sampled_from(CELLS), max_size=9).map(b",".join), max_size=6)
    return st.one_of(
        st.binary(max_size=300),
        st.binary(max_size=300).map(lambda tail: header + b"\n" + tail),
        rows.map(lambda body: b"\n".join([header, *body])),
    )


def model_bytes():
    """Arbitrary bytes, or a JSON document whose values vary in type and size."""
    values = st.recursive(
        st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=5)
        | st.sampled_from(["unconstrained", "zero_intercept", "zero_intercept_nonneg"]),
        lambda inner: st.lists(inner, max_size=3),
        max_leaves=6,
    )
    keys = st.sampled_from(["kind", "pmc_names", "intercept", "coefficients", "extra"])
    documents = st.dictionaries(keys, values).map(lambda d: json.dumps(d).encode())
    return st.one_of(st.binary(max_size=300), documents)


@pytest.fixture(scope="module")
def fixed(tmp_path_factory):
    """A small runs file, its dataset, an energy function and a model."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"root": root}
    for name, text in [("runs.csv", RUNS_TEXT), ("func.csv", FUNC_TEXT),
                       ("model.json", MODEL_TEXT)]:
        (root / name).write_text(text, encoding="utf-8")
        paths[name] = str(root / name)
    paths["dataset"] = load_runs(paths["runs.csv"])
    return paths


def check_loader(load, path):
    try:
        load(path)
    except DataFormatError as exc:
        assert str(exc).startswith(f"{path}: ")


def check_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(list(argv))
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


FUZZ = settings(max_examples=40, deadline=None)


@FUZZ
@given(data=csv_bytes(HEADERS["runs"]))
def test_fuzzed_runs_file(fixed, data):
    path = fixed["root"] / "fuzzed_runs.csv"
    path.write_bytes(data)
    check_loader(load_runs, str(path))
    check_cli("additivity", "--runs", str(path))
    check_cli("fit", "--runs", str(path), "--kind", "zero_intercept_nonneg")


@FUZZ
@given(data=csv_bytes(HEADERS["compounds"]))
def test_fuzzed_compounds_file(fixed, data):
    path = fixed["root"] / "fuzzed_compounds.csv"
    path.write_bytes(data)
    check_loader(lambda p: load_compounds(p, fixed["dataset"]), str(path))
    check_cli("additivity", "--runs", fixed["runs.csv"], "--compounds", str(path))
    check_cli("evaluate", "--model", fixed["model.json"], "--runs", fixed["runs.csv"],
              "--compounds", str(path))


@FUZZ
@given(data=csv_bytes(HEADERS["function"]))
def test_fuzzed_energy_function_file(fixed, data):
    path = fixed["root"] / "fuzzed_func.csv"
    path.write_bytes(data)
    check_loader(load_energy_function, str(path))
    for flags in ([], ["--interpolate"]):
        check_cli("partition", "--func1", str(path), "--func2", fixed["func.csv"],
                  "--n", "2048", *flags)


@FUZZ
@given(data=st.one_of(st.binary(max_size=300),
                      st.lists(st.sampled_from(CELLS), max_size=9).map(b" ".join)))
def test_fuzzed_values_file(fixed, data):
    path = fixed["root"] / "fuzzed_values.txt"
    path.write_bytes(data)
    check_cli("stats", "--values-file", str(path))


@FUZZ
@given(data=model_bytes())
def test_fuzzed_model_file(fixed, data):
    path = fixed["root"] / "fuzzed_model.json"
    path.write_bytes(data)
    check_loader(load_model, str(path))
    check_cli("conserve", "--model", str(path))
    check_cli("evaluate", "--model", str(path), "--runs", fixed["runs.csv"])
