"""Compounds as columns: the ``Compounds`` record that ``load_compounds`` gives.

The record holds the compounds' ids, their bases' group numbers and one block
of their counts and energies, and it is a read-only sequence of the
``CompoundRun`` objects the list it replaced held. ``run_additivity_test`` on
the dataset the record was resolved against, and ``emodel additivity`` and
``evaluate --compounds``, read the columns; every report they give must equal,
byte for byte, the report on the record's objects, with the parse cache off,
cold and warm.
"""

import contextlib
import io
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emodel import (CompoundRun, Compounds, EnergyModel, ModelKind, evaluate, load_compounds,
                    load_runs, run_additivity_test, save_model)
from emodel.additivity import report_to_json_dict
from emodel.cli import _json_text, run_cli
from emodel.core import _load_compound_columns
from helpers import load_compounds_by_rows
from test_additivity import additivity_cases

RUNS_HEADER = "app_id,run_id,cores,problem_size,exec_time_s,dynamic_energy_j"
COMPOUNDS_HEADER = "compound_id,base_a,base_b,dynamic_energy_j"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def case_files(directory, dataset, compounds):
    """The runs and compounds files of a generated case, each number as its repr."""
    names = ",".join(dataset.pmc_names)
    runs = "".join(
        f"{r.app_id},{r.run_id},{r.config.cores},{r.config.problem_size},{r.exec_time_s!r},"
        f"{r.dynamic_energy_j!r},{','.join(map(repr, r.pmc.counts))}\n" for r in dataset.runs)
    rows = "".join(
        f"{c.compound_id},{c.base_a.label()},{c.base_b.label()},{c.dynamic_energy_j!r},"
        f"{','.join(map(repr, c.pmc.counts))}\n" for c in compounds)
    return (write(directory / "runs.csv", f"{RUNS_HEADER},{names}\n{runs}"),
            write(directory / "compounds.csv", f"{COMPOUNDS_HEADER},{names}\n{rows}"))


@contextlib.contextmanager
def cache_home(path):
    """Loads in this block keep their entries under ``path``."""
    before = os.environ["XDG_CACHE_HOME"]
    os.environ["XDG_CACHE_HOME"] = str(path)
    try:
        yield
    finally:
        os.environ["XDG_CACHE_HOME"] = before


def cache_modes(directory):
    """The parse cache off (a directory anyone may write to), cold, then warm."""
    shared = directory / "shared"
    (shared / "emodel").mkdir(parents=True)
    (shared / "emodel").chmod(0o777)
    return [("off", shared), ("cold", directory / "own"), ("warm", directory / "own")]


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(list(argv))
    return code, out.getvalue(), err.getvalue()


def additivity_text(*args, **kwargs):
    return _json_text(report_to_json_dict(run_additivity_test(*args, **kwargs)))


def evaluate_outcome(model, compounds):
    """What ``emodel evaluate`` owes for these compounds, from the library."""
    try:
        summary = evaluate(model, [(c.pmc, c.dynamic_energy_j) for c in compounds])
    except ValueError as exc:
        return 1, "", f"emodel: error: {exc}\n"
    return 0, _json_text(summary.to_json_dict()), ""


def additivity_outcome(*args):
    try:
        return additivity_text(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(additivity_cases(), st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
def test_reports_from_the_record_equal_reports_from_its_objects(tmp_path_factory, case,
                                                                coefficients):
    generated, compounds, bound = case
    directory = tmp_path_factory.mktemp("record")
    runs, path = case_files(directory, generated, compounds)
    names = generated.pmc_names
    model_file = str(directory / "model.json")
    model = EnergyModel(names, 0.0, coefficients[:len(names)], ModelKind.ZERO_INTERCEPT)
    save_model(model, model_file)
    records = []
    for mode, home in cache_modes(directory):
        with cache_home(home):
            dataset = load_runs(runs)
            record = load_compounds(path, dataset)
            assert isinstance(record, Compounds) and record.dataset is dataset, mode
            objects = list(record)
            assert objects == load_compounds_by_rows(path, dataset), mode
            expected = additivity_text(dataset, objects, reproducibility_cov=bound)
            assert additivity_text(dataset, record, reproducibility_cov=bound) == expected, mode
            assert cli("additivity", "--runs", runs, "--compounds", path,
                       "--cov", repr(bound)) == (0, expected, ""), mode
            assert cli("evaluate", "--model", model_file, "--runs", runs, "--compounds",
                       path) == evaluate_outcome(model, objects), mode
            records.append(_load_compound_columns(path, dataset))
    assert records[0] == records[1] == records[2]
    assert os.listdir(directory / "shared" / "emodel") == []
    assert len(os.listdir(directory / "own" / "emodel")) == 2


RUNS = (
    f"{RUNS_HEADER},X1,X2\n"
    "a,r1,2,s,1.0,10.0,100,7\n"
    "a,r2,2,s,1.0,10.0,104,7\n"
    "b,r1,2,s,1.0,20.0,50,9\n"
    "c,r1,4,s,1.0,30.0,20,3\n"
)
# The same groups in another order and with other counts, and a dataset without b.
REORDERED = (
    f"{RUNS_HEADER},X1,X2\n"
    "c,r1,4,s,1.0,30.0,25,3\n"
    "b,r1,2,s,1.0,20.0,40,9\n"
    "a,r1,2,s,1.0,10.0,100,7\n"
)
WITHOUT_B = f"{RUNS_HEADER},X1,X2\na,r1,2,s,1.0,10.0,100,7\nc,r1,4,s,1.0,30.0,20,3\n"
COMPOUNDS = (
    f"{COMPOUNDS_HEADER},X1,X2\n"
    "ab,a,b,30.0,152,16\n"
    "bc,b@2:s,c@4:s,50.0,70,13\n"
    "ca,c,a,40.0,118,10.5\n"
)


def test_a_record_resolved_against_another_dataset(tmp_path):
    path = write(tmp_path / "compounds.csv", COMPOUNDS)
    first = load_runs(write(tmp_path / "runs.csv", RUNS))
    record = load_compounds(path, first)
    assert record.base_a == (0, 1, 2) and record.base_b == (1, 2, 0)

    reordered = load_runs(write(tmp_path / "reordered.csv", REORDERED))
    expected = additivity_text(reordered, load_compounds(path, reordered))
    assert additivity_text(reordered, record) == expected
    assert additivity_text(reordered, list(record)) == expected
    assert expected != additivity_text(first, record)

    without_b = load_runs(write(tmp_path / "without_b.csv", WITHOUT_B))
    fault = (ValueError, "compound 'ab' references unknown base 'b@2:s'")
    assert additivity_outcome(without_b, record) == additivity_outcome(without_b, list(record))
    assert additivity_outcome(without_b, record) == fault

    # An equal dataset that is another object takes the objects' path, with the same report.
    again = load_runs(str(tmp_path / "runs.csv"))
    assert again == first and again is not first
    assert additivity_text(again, record) == additivity_text(first, record)


def test_an_empty_compounds_file(tmp_path):
    runs = write(tmp_path / "runs.csv", RUNS)
    path = write(tmp_path / "compounds.csv", f"{COMPOUNDS_HEADER},X1,X2\n")
    dataset = load_runs(runs)
    record = load_compounds(path, dataset)
    assert len(record) == 0 and not record and list(record) == []
    assert (record.compound_id, record.base_a, record.base_b, record.floats) == ((), (), (), b"")
    expected = additivity_text(dataset, [])
    assert additivity_text(dataset, record) == additivity_text(dataset) == expected
    assert cli("additivity", "--runs", runs, "--compounds", path) == (0, expected, "")
    model = write(tmp_path / "model.json", '{"kind": "zero_intercept", "pmc_names": ["X1", "X2"], '
                                           '"intercept": 0.0, "coefficients": [0.1, 1.0]}\n')
    assert cli("evaluate", "--model", model, "--runs", runs, "--compounds", path) == (
        1, "", "emodel: error: need at least one (pmc, measured) case\n")


def test_the_record_is_the_sequence_the_list_was(tmp_path):
    dataset = load_runs(write(tmp_path / "runs.csv", RUNS))
    path = write(tmp_path / "compounds.csv", COMPOUNDS)
    expected = load_compounds_by_rows(path, dataset)
    for record in (load_compounds(path, dataset), _load_compound_columns(path, dataset)):
        assert len(record) == len(expected) == 3
        assert [record[i] for i in range(3)] == [record[i - 3] for i in range(3)] == expected
        assert list(record) == list(iter(record)) == expected
        assert list(reversed(record)) == expected[::-1]
        assert record[1:] == tuple(expected[1:])
        assert expected[1] in record and record.index(expected[2]) == 2
        assert record.count(expected[0]) == 1
        assert record[0] is record[0]
        with pytest.raises(IndexError):
            record[3]
        assert not isinstance(record, list)
    assert record.base_a == (0, 1, 2) and record.pmc_names == ("X1", "X2")


def test_the_record_cannot_be_changed(tmp_path):
    dataset = load_runs(write(tmp_path / "runs.csv", RUNS))
    record = load_compounds(write(tmp_path / "compounds.csv", COMPOUNDS), dataset)
    for name in (*Compounds._FIELDS, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in Compounds._FIELDS:
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(TypeError):
        record[0] = record[1]
    with pytest.raises(TypeError):
        del record[0]
    with pytest.raises(AttributeError):
        record.append(record[0])
    with pytest.raises(TypeError):
        record.floats[0] = 0
    with pytest.raises(TypeError):
        record += [record[0]]
    assert [type(getattr(record, name)) for name in Compounds._FIELDS[:5]] == [
        tuple, tuple, tuple, bytes, tuple]
    assert list(record) == load_compounds_by_rows(str(tmp_path / "compounds.csv"), dataset)


def test_additivity_and_evaluate_build_no_compound_objects(tmp_path, monkeypatch):
    runs = write(tmp_path / "runs.csv", RUNS)
    path = write(tmp_path / "compounds.csv", COMPOUNDS)
    model = EnergyModel(("X1", "X2"), 0.0, (0.1, 1.0), ModelKind.ZERO_INTERCEPT)
    save_model(model, tmp_path / "model.json")
    dataset = load_runs(runs)
    objects = load_compounds_by_rows(path, dataset)
    expected = {
        ("additivity", "--runs", runs, "--compounds", path):
            (0, additivity_text(dataset, objects), ""),
        ("evaluate", "--model", str(tmp_path / "model.json"), "--runs", runs, "--compounds", path):
            evaluate_outcome(model, objects),
    }

    def refuse(self, *args, **kwargs):
        raise AssertionError("a CompoundRun was built")

    monkeypatch.setattr(CompoundRun, "__init__", refuse)
    for _ in range(2):  # cold, then warm
        for argv, result in expected.items():
            assert cli(*argv) == result, argv
