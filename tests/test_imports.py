"""What the package and each CLI subcommand import.

``import emodel`` resolves its public names on first use, and each ``emodel``
subcommand imports only the modules it runs: ``partition``, ``loss`` and
``stats`` need no numpy, nor :mod:`dataclasses`, :mod:`json` (unless the
report is JSON) or :mod:`pathlib`; ``conserve`` without its composability
probe and ``predict --counts`` need no numpy either, and the probe imports
none of the loaders or the fitting code. ``predict --runs`` and ``evaluate``
import numpy only when the parse cache misses: each test here has a cache of
its own, so every command starts cold. ``partition`` reads its energy
functions through the cache, without :mod:`json` cold or warm. No command
imports :mod:`dataclasses`.
"""

import importlib
import subprocess
import sys

import pytest

import emodel

# Runs ``emodel.cli`` as ``python -m`` does, with every import of numpy failing.
WITHOUT_NUMPY = (
    "import runpy, sys\n"
    "sys.modules['numpy'] = None\n"
    "runpy.run_module('emodel.cli', run_name='__main__')\n"
)

RUNS = """app_id,run_id,cores,problem_size,exec_time_s,dynamic_energy_j,X1,X2
a,r1,2,s,1.0,22.5,10,5
a,r2,2,s,1.0,22.5,10,5
b,r1,2,s,1.0,41.5,20,3
c,r1,2,s,1.0,14.5,5,9
"""

COMPOUNDS = """compound_id,base_a,base_b,dynamic_energy_j,X1,X2
ab,a,b@2:s,64.0,30,8
bc,b,c,57.0,25,12
"""

MODEL = """{"kind": "zero_intercept", "pmc_names": ["X1", "X2"], "intercept": 0.0,
 "coefficients": [2.0, 0.5]}
"""

# Names a PMC that the runs file does not have.
LACKING_MODEL = """{"kind": "zero_intercept", "pmc_names": ["X1", "X9"], "intercept": 0.0,
 "coefficients": [2.0, 0.5]}
"""

# Breaks energy conservation: a nonzero intercept and a negative coefficient.
BAD_MODEL = """{"kind": "unconstrained", "pmc_names": ["X1", "X2"], "intercept": 1.5,
 "coefficients": [2.0, -0.5]}
"""


@pytest.fixture(autouse=True)
def cache_home(tmp_path, monkeypatch):
    """A parse cache of this test's own, for its child processes too: a
    command's cache state must not depend on which tests ran before."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))


@pytest.fixture
def inputs(tmp_path):
    # Processor one is sampled at the ends of y = 4096 only; the split that
    # --interpolate finds (m = 2048) differs from the exact one (m = 512).
    func1 = "x,y,energy_j\n512,4096,1.0\n3584,4096,7.0\n"
    func2 = "x,y,energy_j\n" + "".join(
        f"{k},4096,{10.0 * (k / 512 - 4) ** 2!r}\n" for k in range(512, 4096, 512)
    )
    paths = {}
    for name, text in (("f1.csv", func1), ("f2.csv", func2), ("values.txt", "1.0 1.1\n0.9 1.0\n"),
                       ("runs.csv", RUNS), ("compounds.csv", COMPOUNDS), ("model.json", MODEL),
                       ("bad.json", BAD_MODEL), ("lacking.json", LACKING_MODEL)):
        (tmp_path / name).write_text(text, encoding="utf-8")
        paths[name] = str(tmp_path / name)
    return paths


PARTITION = ["partition", "--func1", "f1.csv", "--func2", "f2.csv", "--n", "4096"]


@pytest.mark.parametrize("argv, code", [
    pytest.param(PARTITION, 0, id="partition"),
    pytest.param(PARTITION + ["--interpolate"], 0, id="partition-interpolate"),
    pytest.param(PARTITION + ["--format", "json"], 0, id="partition-json"),
    pytest.param(["loss", "--alt", "90", "--ref", "100"], 0, id="loss"),
    pytest.param(["stats", "--values", "1.0,1.1,0.9,1.0,1.05"], 0, id="stats-values"),
    pytest.param(["stats", "--values-file", "values.txt", "--format", "csv"], 0,
                 id="stats-values-file"),
    pytest.param(["conserve", "--model", "model.json"], 0, id="conserve-clean"),
    pytest.param(["conserve", "--model", "bad.json"], 2, id="conserve-violations"),
    pytest.param(["conserve", "--model", "bad.json", "--format", "csv"], 2, id="conserve-csv"),
    pytest.param(["predict", "--model", "bad.json", "--counts", "X2=4,X1=1"], 0,
                 id="predict-counts"),
])
def test_subcommand_runs_without_numpy(inputs, argv, code):
    argv = [inputs.get(arg, arg) for arg in argv]
    normal = subprocess.run([sys.executable, "-m", "emodel.cli", *argv], capture_output=True)
    blocked = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, *argv], capture_output=True)
    assert (normal.returncode, normal.stderr) == (code, b"")
    assert (blocked.returncode, blocked.stderr) == (code, b"")
    assert blocked.stdout == normal.stdout
    if argv[0] == "conserve" and code:
        assert b"negative_prediction_witness" in normal.stdout


def loaded_emodel_modules(argv):
    """Exit code and the ``emodel`` modules imported by ``python -m emodel.cli``."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "emodel.cli", *argv],
        capture_output=True, text=True,
    )
    names = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
             if line.startswith("import time:")}
    return result.returncode, {name for name in names if name.split(".")[0] == "emodel"}


BASE = {"emodel", "emodel._cache", "emodel._common", "emodel.core", "emodel.model"}
NUMPY_FREE_MODEL = {"emodel", "emodel._common", "emodel.model"}


@pytest.mark.parametrize("argv, modules", [
    pytest.param(["additivity", "--runs", "runs.csv"], BASE | {"emodel.additivity"},
                 id="additivity"),
    pytest.param(["fit", "--runs", "runs.csv", "--kind", "zero_intercept"],
                 BASE | {"emodel.fitting"}, id="fit"),
    pytest.param(["predict", "--model", "model.json", "--counts", "X1=1,X2=2"],
                 NUMPY_FREE_MODEL, id="predict"),
    pytest.param(["predict", "--model", "model.json", "--runs", "runs.csv"], BASE,
                 id="predict-runs"),
    pytest.param(["conserve", "--model", "model.json"],
                 NUMPY_FREE_MODEL | {"emodel.conservation"}, id="conserve"),
    pytest.param(PARTITION, {"emodel", "emodel._cache", "emodel._common", "emodel.partitioning"},
                 id="partition"),
])
def test_subcommand_imports_only_its_modules(inputs, argv, modules):
    assert loaded_emodel_modules([inputs.get(arg, arg) for arg in argv]) == (0, modules)


# Runs ``emodel.cli`` as ``python -m`` does and writes to stderr the modules it
# imported beyond those of the interpreter's start-up (which differ with the
# installation: a .pth file may import pathlib, say). ``cli.main`` ends the
# process with ``os._exit``, which runs no ``finally``, so the list is written
# by a wrapper around ``os._exit`` before the real one is called.
NEW_MODULES = (
    "import os, runpy, sys\n"
    "before = set(sys.modules)\n"
    "real_exit = os._exit\n"
    "def listing_exit(code):\n"
    "    sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))\n"
    "    sys.stderr.flush()\n"
    "    real_exit(code)\n"
    "os._exit = listing_exit\n"
    "runpy.run_module('emodel.cli', run_name='__main__')\n"
)


def new_modules(argv):
    """Exit code and the modules that ``python -m emodel.cli`` imports. Run as
    ``__main__``, ``emodel.cli`` never enters ``sys.modules``; the ``emodel._common``
    it imports at module level (``import emodel`` does not) shows that the list
    was written after the command ran."""
    result = subprocess.run([sys.executable, "-c", NEW_MODULES, *argv], capture_output=True,
                            text=True)
    modules = set(result.stderr.split())
    assert "emodel._common" in modules, result.stderr
    return result.returncode, modules


#: Modules a numpy-free command has no use for; json only for a JSON report.
UNUSED = {"numpy", "dataclasses", "inspect", "json", "pathlib"}


@pytest.mark.parametrize("argv, unused", [
    pytest.param(PARTITION, set(), id="partition"),
    pytest.param(PARTITION + ["--interpolate"], set(), id="partition-interpolate"),
    pytest.param(["loss", "--alt", "90", "--ref", "100", "--format", "csv"], set(), id="loss-csv"),
    pytest.param(["stats", "--values-file", "values.txt", "--format", "csv"], set(),
                 id="stats-csv"),
    pytest.param(PARTITION + ["--format", "json"], {"json"}, id="partition-json"),
    pytest.param(["loss", "--alt", "90", "--ref", "100"], {"json"}, id="loss-json"),
    pytest.param(["stats", "--values", "1.0,1.1,0.9,1.0,1.05"], {"json"}, id="stats-json"),
])
def test_numpy_free_commands_import_only_what_they_use(inputs, argv, unused):
    code, modules = new_modules([inputs.get(arg, arg) for arg in argv])
    assert code == 0
    assert modules & UNUSED <= unused, sorted(modules)


@pytest.mark.parametrize("argv", [
    pytest.param(["additivity", "--runs", "runs.csv"], id="additivity"),
    pytest.param(["fit", "--runs", "runs.csv", "--kind", "zero_intercept"], id="fit"),
    pytest.param(["predict", "--model", "model.json", "--runs", "runs.csv"], id="predict"),
    pytest.param(["conserve", "--model", "model.json", "--composability-trials", "5"],
                 id="conserve"),
    pytest.param(["evaluate", "--model", "model.json", "--runs", "runs.csv"], id="evaluate"),
    pytest.param(["correlate", "--runs", "runs.csv"], id="correlate"),
])
def test_numpy_commands_import_no_dataclasses(inputs, argv):
    code, modules = new_modules([inputs.get(arg, arg) for arg in argv])
    assert code == 0
    assert "numpy" in modules and "dataclasses" not in modules, sorted(modules)


RUNS_COMMANDS = [
    pytest.param(["predict", "--model", "model.json", "--runs", "runs.csv"], id="predict-runs"),
    pytest.param(["predict", "--model", "model.json", "--runs", "runs.csv", "--format", "csv"],
                 id="predict-runs-csv"),
    pytest.param(["evaluate", "--model", "model.json", "--runs", "runs.csv"], id="evaluate"),
    pytest.param(["evaluate", "--model", "model.json", "--runs", "runs.csv",
                  "--compounds", "compounds.csv"], id="evaluate-compounds"),
]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("argv", RUNS_COMMANDS)
def test_runs_commands_import_numpy_only_on_a_miss(inputs, argv, warm):
    """A miss parses and checks the files with numpy; a hit reads the checked
    columns and predicts in pure Python. Either way the same emodel modules load."""
    argv = [inputs.get(arg, arg) for arg in argv]
    if warm:
        assert loaded_emodel_modules(argv)[0] == 0
    code, modules = new_modules(argv)
    assert code == 0
    assert {name for name in modules if name.split(".")[0] == "emodel"} == BASE
    assert any(name.split(".")[0] == "numpy" for name in modules) is not warm, sorted(modules)


@pytest.mark.parametrize("argv", [
    *RUNS_COMMANDS,
    pytest.param(["predict", "--model", "lacking.json", "--runs", "runs.csv"],
                 id="predict-runs-lacking"),
    pytest.param(["evaluate", "--model", "lacking.json", "--runs", "runs.csv",
                  "--compounds", "compounds.csv"], id="evaluate-lacking"),
])
def test_warm_runs_commands_run_without_numpy(inputs, argv):
    """Once a cold run has kept its loads, the same command runs with every
    import of numpy failing and prints the cold run's bytes."""
    expected = ((1, b"emodel: error: PMC 'X9' not present in vector\n") if "lacking.json" in argv
                else (0, b""))
    argv = [inputs.get(arg, arg) for arg in argv]
    cold = subprocess.run([sys.executable, "-m", "emodel.cli", *argv], capture_output=True)
    warm = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, *argv], capture_output=True)
    assert (cold.returncode, cold.stderr) == expected
    assert (warm.returncode, warm.stdout, warm.stderr) == (cold.returncode, cold.stdout,
                                                           cold.stderr)


def test_a_warm_load_of_runs_and_compounds_imports_no_numpy(inputs):
    code = ("import sys\nfrom emodel import load_compounds, load_runs\n"
            "compounds = load_compounds(sys.argv[2], load_runs(sys.argv[1]))\n"
            "print(len(compounds), 'numpy' in sys.modules)\n")
    outputs = [subprocess.run([sys.executable, "-c", code, inputs["runs.csv"],
                               inputs["compounds.csv"]], capture_output=True, text=True,
                              check=True).stdout for _ in range(2)]
    assert outputs == ["2 True\n", "2 False\n"]


@pytest.mark.parametrize("flags", [[], ["--interpolate"]], ids=["exact", "interpolate"])
def test_a_warm_partition_imports_neither_json_nor_numpy(inputs, tmp_path, flags):
    """Energy-function entries hold no JSON document: a hit reads only floats."""
    argv = [inputs.get(arg, arg) for arg in PARTITION + flags]
    cold = subprocess.run([sys.executable, "-m", "emodel.cli", *argv], capture_output=True)
    assert (cold.returncode, cold.stderr) == (0, b"")
    assert len(list((tmp_path / "xdg" / "emodel").iterdir())) == 2
    code, modules = new_modules(argv)
    assert code == 0 and "emodel._cache" in modules
    assert not {"json", "numpy"} & modules, sorted(modules)
    warm = subprocess.run([sys.executable, "-m", "emodel.cli", *argv], capture_output=True)
    assert (warm.returncode, warm.stdout, warm.stderr) == (0, cold.stdout, b"")


def test_composability_probe_imports_no_loader_or_fitting(inputs):
    """The probe needs numpy, but not the runs loaders, the parse cache or the fits."""
    code, modules = new_modules(["conserve", "--model", inputs["model.json"],
                                 "--composability-trials", "100", "--seed", "1"])
    assert code == 0 and {"numpy", "emodel.conservation"} <= modules, sorted(modules)
    assert not {"emodel.core", "emodel._cache", "emodel.fitting"} & modules, sorted(modules)


def test_a_clean_additivity_run_imports_no_statistics(inputs):
    """Only a CoV near the stage-1 bound is recomputed with statistics.stdev."""
    code, modules = new_modules(["additivity", "--runs", inputs["runs.csv"]])
    assert code == 0
    assert "emodel.additivity" in modules
    assert not {"statistics", "decimal", "fractions"} & modules, sorted(modules)


def test_import_emodel_defers_numpy(tmp_path):
    code = (
        "import sys\n"
        "import emodel\n"
        "assert not {'numpy', 'emodel.core'} & set(sys.modules), sorted(sys.modules)\n"
        "assert set(emodel.__all__) <= set(dir(emodel))\n"
        "emodel.energy_loss, emodel.sample_mean_ci, emodel.DataFormatError, emodel.ModelKind\n"
        "model = emodel.EnergyModel(('X1', 'X2'), 1.0, (2.0, -0.5), 'unconstrained')\n"
        "emodel.save_model(model, sys.argv[1])\n"
        "assert emodel.load_model(sys.argv[1]) == model\n"
        "assert emodel.predict(model, emodel.PmcVector(('X2', 'X1'), (4.0, 1.0))) == 1.0\n"
        "assert not emodel.check_conservation(model).clean\n"
        "assert not {'numpy', 'emodel.core', 'emodel.fitting'} & set(sys.modules)\n"
        "emodel.fit\n"
        "assert 'numpy' in sys.modules\n"
    )
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path / "model.json")],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_public_names_are_their_modules_objects():
    for name in emodel.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"emodel.{emodel._EXPORTS[name]}")
        assert getattr(emodel, name) is getattr(module, name), name
    assert emodel.core.DataFormatError is emodel.partitioning.DataFormatError
    assert emodel.core.DataFormatError is emodel._common.DataFormatError
    assert emodel.core.ModelKind is emodel._common.ModelKind
    assert {"DataFormatError", "ModelKind"} <= set(emodel.core.__all__)


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from emodel import *", namespace)
    assert set(emodel.__all__) <= set(namespace)
    assert set(emodel.__all__) <= set(dir(emodel))
    assert len(set(emodel.__all__)) == len(emodel.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"module 'emodel' has no attribute 'no_such_name'"):
        emodel.no_such_name
    assert not hasattr(emodel, "report_to_csv")  # public in emodel.additivity only
    with pytest.raises(ImportError):
        exec("from emodel import no_such_name", {})
