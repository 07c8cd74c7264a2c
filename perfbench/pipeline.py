"""The paper's pipeline, once as a sequence of emodel CLI processes and once
through the library API, with the CLI's serialization of every result.

Operation keys, in pipeline order:

    additivity              additivity --runs R --compounds C --sweep 5,10,20
    fit_nonneg              fit --kind zero_intercept_nonneg --pmcs <additive>
    conserve_nonneg         conserve --composability-trials 100 --seed S
    evaluate                evaluate --compounds C
    predict                 predict --runs R
    correlate               correlate --pmcs <additive>
    fit_unconstrained       fit --kind unconstrained
    conserve_unconstrained  conserve
    partition_exact_<n>     partition --n n            (one per y slice)
    partition_interp_<n>    partition --n n --interpolate
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass

from emodel import (
    ModelKind,
    check_conservation,
    correlation_matrix,
    evaluate,
    fit,
    load_compounds,
    load_energy_function,
    load_runs,
    partition,
    predict,
    run_additivity_test,
    strong_composability_check,
    tolerance_sweep,
)
from emodel.additivity import report_to_json_dict
from emodel.core import model_to_dict

from workloads import SWEEP, TOLERANCE_PCT, Inputs

TRIALS = 100


def keys(inputs: Inputs) -> list[str]:
    out = ["additivity", "fit_nonneg", "conserve_nonneg", "evaluate", "predict",
           "correlate", "fit_unconstrained", "conserve_unconstrained"]
    for n in inputs.slices_n:
        out += [f"partition_exact_{n}", f"partition_interp_{n}"]
    return out


def command_of(key: str) -> str:
    """The CLI subcommand an operation runs."""
    return key.split("_")[0]


@dataclass
class CliResult:
    seconds: float
    scaled_s: float  # seconds at the reference speed; see reference.py
    code: int
    max_rss_mib: float
    stdout: bytes
    stderr: bytes


class Spawner:
    """Runs children one at a time through spawn.py; see there for why."""

    def __init__(self, env: dict) -> None:
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawn.py")
        self._proc = subprocess.Popen([sys.executable, script], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, env=env, text=True)

    def run(self, argv: list[str], out_path: str, err_path: str) -> tuple[float, int, float]:
        """Run one child to completion: (wall seconds, exit code, max RSS in MiB)."""
        self._proc.stdin.write(json.dumps({"argv": argv, "out": out_path, "err": err_path}) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        return reply["seconds"], reply["code"], reply["max_rss_kib"] / 1024.0

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def cli_pass(inputs: Inputs, seed: int, outdir: str, spawner: Spawner, clock,
             tracer) -> dict[str, CliResult]:
    """Run the CLI sequence, one child at a time; ``clock`` scales each child."""
    runs, compounds = inputs.runs_csv, inputs.compounds_csv
    func1, func2 = inputs.func_csvs
    results: dict[str, CliResult] = {}
    clock.mark()

    def call(key: str, *args: str) -> CliResult:
        out = os.path.join(outdir, f"{key}.out")
        err = os.path.join(outdir, f"{key}.err")
        command = command_of(key)
        with tracer.span(f"cli.{command}"):
            seconds, code, rss = spawner.run(
                [sys.executable, "-m", "emodel.cli", command, *args], out, err)
        scaled = clock.scale(seconds)
        with open(out, "rb") as fh_out, open(err, "rb") as fh_err:
            results[key] = CliResult(seconds, scaled, code, rss, fh_out.read(), fh_err.read())
        return results[key]

    report = call("additivity", "--runs", runs, "--compounds", compounds,
                  "--sweep", ",".join(f"{t:g}" for t in SWEEP))
    try:
        additive = [e["pmc"] for e in json.loads(report.stdout)["per_pmc"]
                    if e["classification"] == "additive"]
    except (ValueError, KeyError, TypeError):
        # The additivity operation is already failed; keep the rest of the
        # pass measurable with the planted answer.
        additive = list(inputs.expected_additive())
    pmcs = ",".join(additive)
    nonneg = os.path.join(outdir, "fit_nonneg.out")
    unconstrained = os.path.join(outdir, "fit_unconstrained.out")
    call("fit_nonneg", "--runs", runs, "--kind", "zero_intercept_nonneg", "--pmcs", pmcs)
    call("conserve_nonneg", "--model", nonneg, "--composability-trials", str(TRIALS),
         "--seed", str(seed))
    call("evaluate", "--model", nonneg, "--runs", runs, "--compounds", compounds)
    call("predict", "--model", nonneg, "--runs", runs)
    call("correlate", "--runs", runs, "--pmcs", pmcs)
    call("fit_unconstrained", "--runs", runs, "--kind", "unconstrained")
    call("conserve_unconstrained", "--model", unconstrained)
    for n in inputs.slices_n:
        call(f"partition_exact_{n}", "--func1", func1, "--func2", func2, "--n", str(n))
        call(f"partition_interp_{n}", "--func1", func1, "--func2", func2, "--n", str(n),
             "--interpolate")
    return results


@dataclass
class Loaded:
    dataset: object
    compounds: list
    func1: object
    func2: object


def load(inputs: Inputs, tracer) -> Loaded:
    with tracer.span("core.load_runs"):
        dataset = load_runs(inputs.runs_csv)
    with tracer.span("core.load_compounds"):
        compounds = load_compounds(inputs.compounds_csv, dataset)
    with tracer.span("partitioning.load"):
        func1 = load_energy_function(inputs.func_csvs[0])
        func2 = load_energy_function(inputs.func_csvs[1])
    return Loaded(dataset, compounds, func1, func2)


def library_pass(inputs: Inputs, loaded: Loaded, seed: int, tracer):
    """Run every operation in process.

    Returns the results by operation key, plus the key and exception of the
    operation that raised (every later operation then has no result).
    """
    ds, comps = loaded.dataset, loaded.compounds
    results: dict[str, object] = {}
    key = "additivity"
    try:
        with tracer.span("additivity.test"):
            report = run_additivity_test(ds, comps, TOLERANCE_PCT)
        with tracer.span("additivity.sweep"):
            sweep = tolerance_sweep(report, SWEEP)
        results[key] = (report, sweep)
        additive = report.additive_names()

        key = "fit_nonneg"
        with tracer.span("fitting.fit_nonneg"):
            nonneg = fit(ds, additive, ModelKind.ZERO_INTERCEPT_NONNEG)
        results[key] = nonneg

        key = "conserve_nonneg"
        with tracer.span("conservation.check"):
            violations = check_conservation(nonneg)
        with tracer.span("conservation.composability"):
            composability = strong_composability_check(nonneg, TRIALS, seed)
        results[key] = (violations, composability)

        key = "evaluate"
        with tracer.span("fitting.evaluate"):
            results[key] = evaluate(nonneg, [(c.pmc, c.dynamic_energy_j) for c in comps])

        key = "predict"
        with tracer.span("fitting.predict"):
            results[key] = [predict(nonneg, run.pmc) for run in ds.runs]

        key = "correlate"
        with tracer.span("fitting.correlation"):
            results[key] = correlation_matrix(ds, additive)

        key = "fit_unconstrained"
        with tracer.span("fitting.fit_unconstrained"):
            unconstrained = fit(ds, None, ModelKind.UNCONSTRAINED)
        results[key] = unconstrained

        key = "conserve_unconstrained"
        with tracer.span("conservation.check"):
            results[key] = check_conservation(unconstrained)

        for n in inputs.slices_n:
            key = f"partition_exact_{n}"
            with tracer.span("partitioning.exact"):
                results[key] = partition(loaded.func1, loaded.func2, n)
            key = f"partition_interp_{n}"
            with tracer.span("partitioning.interp"):
                results[key] = partition(loaded.func1, loaded.func2, n, interpolate=True)
    except Exception as exc:  # counted as a failed operation, never fatal
        return results, (key, exc)
    return results, None


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def serialize(key: str, result, loaded: Loaded) -> bytes:
    """The bytes the CLI prints for this operation, built from the library result."""
    if key == "additivity":
        report, sweep = result
        payload = report_to_json_dict(report)
        payload["sweep"] = [{"tolerance_pct": t, "additive_count": c} for t, c in sweep]
        text = _json_text(payload)
    elif key.startswith("fit_"):
        text = _json_text(model_to_dict(result))
    elif key == "conserve_nonneg":
        violations, composability = result
        payload = violations.to_json_dict()
        payload["composability"] = composability.to_json_dict()
        text = _json_text(payload)
    elif key == "predict":
        text = _json_text({"predictions": [
            {"app_id": run.app_id, "run_id": run.run_id, "cores": run.config.cores,
             "problem_size": run.config.problem_size, "prediction_j": value}
            for run, value in zip(loaded.dataset.runs, result)
        ]})
    elif key.startswith("partition_"):
        r = result
        text = f"m,k,e1_j,e2_j,total_j\n{r.m},{r.k},{r.e1_j!r},{r.e2_j!r},{r.total_j!r}\n"
    else:  # evaluate, correlate, conserve_unconstrained
        text = _json_text(result.to_json_dict())
    return text.encode("utf-8")


def expected_code(key: str, result) -> int:
    """Exit code the CLI owes for this operation, taken from the library report."""
    if key == "conserve_nonneg":
        violations, composability = result
        return 0 if violations.clean and composability.passed else 2
    if key == "conserve_unconstrained":
        return 0 if result.clean else 2
    return 0
