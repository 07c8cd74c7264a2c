"""Benchmark of the emodel pipeline on seeded synthetic workloads.

Run from the repository root:

    python3 perfbench/run.py --workload repeats --seed 1 --seconds 36 --trace 0

One client runs a closed loop of passes for ``--seconds`` (at least two
passes). A pass runs the paper's pipeline (see pipeline.py) twice: as a
sequence of ``emodel`` CLI processes, one at a time, and in process through
the library on inputs loaded fresh, untimed, before the pass. Library passes
alone, each on its own fresh load, get as much of the run as the CLI passes,
and the time too short for another pass goes to them too. Every result is checked
against independent oracles, CLI stdout against the library result
serialized the same way, and every output against the first pass's bytes.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``cli_s``,
``library_s``, ``peak_rss_mib`` (medians over passes) and ``error_rate``.
The three times are scaled to a fixed reference speed (see reference.py);
the raw wall times are printed beside them. The benchmark and its children
run on one CPU, with one BLAS thread.
``--trace 1`` is a separate run that records a span around every library call
and CLI child and prints the per-layer metrics, including the tracing
overhead. The last stdout line is one JSON object; details, per-output
SHA-256 digests and the spans go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time

# Single-threaded BLAS in the benchmark and in every child, set before numpy
# loads. With OpenBLAS's default pool on a shared 2-CPU machine, fits varied
# up to 4x between runs, and the first fit after additivity in a process
# sometimes took about 1 s instead of 0.08 s.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from reference import ReferenceClock  # noqa: E402
from workloads import WORKLOADS, Inputs, generate  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5
MIN_PASSES = 2

SETUP_CODE = """\
import sys
import emodel, emodel.cli
from emodel import load_compounds, load_energy_function, load_runs
runs, compounds, func1, func2 = sys.argv[1:]
load_compounds(compounds, load_runs(runs))
load_energy_function(func1)
load_energy_function(func2)
"""


class Book:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages += [f"{what}: {p}" for p in problems]


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (1 - 10 / n))
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def describe(name: str, samples: list[float], unit: str) -> str:
    t = tail(samples)
    spread = f"p{t[0]} {t[1]:.6g}" if t else "no percentile with 10 samples beyond"
    return (f"  {name:<14} median {statistics.median(samples):.6g} {unit:<5} "
            f"max {max(samples):.6g}  {spread}  (n={len(samples)})")


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def library_problems(key: str, lib_bytes: dict, error, first: dict) -> list[str]:
    if key not in lib_bytes:
        return [f"library raised {error[1]!r} at {error[0]}" if error else "no library result"]
    text = digest(lib_bytes[key])
    return [] if first.setdefault(key, text) == text else ["library output differs from pass 0"]


def cli_problems(key: str, r, lib: dict, lib_bytes: dict, first: dict) -> list[str]:
    import pipeline

    problems = []
    if key in lib:
        code = pipeline.expected_code(key, lib[key])
        if r.code != code:
            problems.append(f"exit code {r.code}, expected {code}")
        if r.stdout != lib_bytes[key]:
            problems.append("stdout differs from the library result")
    if b"Traceback" in r.stderr:
        problems.append("traceback on stderr")
    if first.setdefault(key, digest(r.stdout)) != digest(r.stdout):
        problems.append("stdout differs from pass 0")
    return problems


def oracle_problems(key: str, results: dict, inputs: Inputs) -> list[str]:
    """Check one operation's library result; models come from the same pass."""
    import oracles

    result = results[key]
    nonneg = results.get("fit_nonneg")
    if key == "additivity":
        return oracles.additivity(inputs, *result)
    if key == "fit_nonneg":
        return oracles.fit_nonneg(inputs, result)
    if key == "fit_unconstrained":
        return oracles.fit_unconstrained(inputs, result)
    if key == "conserve_nonneg":
        return oracles.conservation(nonneg, *result)
    if key == "conserve_unconstrained":
        return oracles.conservation(results["fit_unconstrained"], result)
    if key == "evaluate":
        return oracles.evaluate(inputs, nonneg, result)
    if key == "predict":
        return oracles.predict(inputs, nonneg, result)
    if key == "correlate":
        return oracles.correlation(inputs, nonneg.pmc_names, result)
    n = int(key.rsplit("_", 1)[1])
    return oracles.partition(inputs, n, "_interp_" in key, result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "emodel", "cli.py")):
        print(f"perfbench: no emodel sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    # Additivity is measured on its serial path; no child may inherit a thread count.
    os.environ.pop("EMODEL_THREADS", None)
    # The benchmark, the reference loop and every child share one CPU. On a
    # shared VM each virtual CPU has its own speed at any moment, and only
    # one process runs at a time anyway, so the reference loop then runs on
    # the CPU it scales for.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import pipeline

    workload = WORKLOADS[args.workload]
    inputs_dir = os.path.join(WORK, "inputs", workload.name)
    out_dir = os.path.join(WORK, "out", workload.name)
    results_dir = os.path.join(WORK, "results")
    for d in (inputs_dir, out_dir):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    os.makedirs(results_dir, exist_ok=True)

    inputs = generate(workload, args.seed, inputs_dir)
    spawner = pipeline.Spawner({**os.environ, "PYTHONPATH": SRC})
    try:
        return measure(args, workload, inputs, spawner, out_dir, inputs_dir, results_dir)
    finally:
        spawner.close()


def measure(args, workload, inputs, spawner, out_dir, inputs_dir, results_dir) -> int:
    import pipeline
    from tracing import NullTracer, Tracer

    book = Book()
    keys = pipeline.keys(inputs)
    clock = ReferenceClock()
    setup, setup_wall = [], []
    for _ in range(SETUP_REPEATS):
        seconds, code, _ = spawner.run(
            [sys.executable, "-c", SETUP_CODE, inputs.runs_csv, inputs.compounds_csv,
             *inputs.func_csvs],
            os.path.join(out_dir, "setup.out"), os.path.join(out_dir, "setup.err"))
        book.record("setup", [] if code == 0 else [f"exit code {code}"])
        setup.append(clock.scale(seconds))
        setup_wall.append(seconds)

    tracer = Tracer() if args.trace else NullTracer()
    untraced = NullTracer()
    # Scaled times feed the metrics; wall times are printed and kept beside them.
    cli_s, cli_wall, library_s, library_wall, peak_rss = [], [], [], [], []
    untraced_library_wall = []
    first_cli: dict[str, str] = {}
    first_lib: dict[str, str] = {}
    first_results: dict = {}
    checks: list[tuple[str, str, list[str]]] = []
    probes = []
    round_s = []

    def library_round(what: str, tracer):
        """Load fresh (untimed), run the library pass (timed), check its output."""
        round_start = time.perf_counter()
        loaded = pipeline.load(inputs, tracer)
        clock.mark()
        t0 = time.perf_counter()
        with tracer.span("library"):
            lib, error = pipeline.library_pass(inputs, loaded, args.seed, tracer)
        seconds = time.perf_counter() - t0
        scaled = clock.scale(seconds)
        lib_bytes = {k: pipeline.serialize(k, v, loaded) for k, v in lib.items()}
        for key in keys:
            checks.append((f"{what} {key}", key, library_problems(key, lib_bytes, error, first_lib)))
        round_s.append(time.perf_counter() - round_start)
        return loaded, lib, lib_bytes, seconds, scaled

    def extra_library_round():
        _, _, _, seconds, scaled = library_round(f"extra {len(library_s)} library", untraced)
        library_s.append(scaled)
        library_wall.append(seconds)

    def time_left(typical: list[float]) -> bool:
        return time.perf_counter() - start + statistics.median(typical) <= args.seconds

    start = time.perf_counter()
    cycle_s, cli_pass_s = [], []
    # Start a cycle only if a typical cycle still ends within the time given.
    while len(cycle_s) < MIN_PASSES or time_left(cycle_s):
        cycle_start = time.perf_counter()
        p = tracer.pass_id = len(cli_s)
        with tracer.span("pass"):
            cli = pipeline.cli_pass(inputs, args.seed, out_dir, spawner, clock, tracer)
            cli_pass_s.append(time.perf_counter() - cycle_start)
            cli_s.append(sum(r.scaled_s for r in cli.values()))
            cli_wall.append(sum(r.seconds for r in cli.values()))
            peak_rss.append(max(r.max_rss_mib for r in cli.values()))
            loaded, lib, lib_bytes, seconds, scaled = library_round(f"pass {p} library", tracer)
            library_s.append(scaled)
            library_wall.append(seconds)
        for key in keys:
            checks.append((f"pass {p} cli {key}", key,
                           cli_problems(key, cli[key], lib, lib_bytes, first_cli)))
        if p == 0:
            first_results = lib
        if args.trace:
            # Probes time two inner steps on their own, on the traced pass's
            # dataset (grouping cached, as inside the test). Then the same
            # library pass untraced, on its own fresh load and with the traced
            # dataset freed, gives the tracing overhead.
            probes.append(probe(inputs, loaded, tracer, checks, p))
            del loaded
            untraced_library_wall.append(
                library_round(f"pass {p} untraced library", untraced)[3])
        else:
            del loaded
        del cli, lib, lib_bytes
        if not args.trace:
            # A library pass is a fraction of a CLI pass, so one sample per
            # pass would leave library_s the noisier metric. Library passes
            # alone get as much of the run as the CLI passes.
            while sum(round_s) < sum(cli_pass_s) and time_left(round_s):
                extra_library_round()
        cycle_s.append(time.perf_counter() - cycle_start)

    if not args.trace:
        # The time too short for another cycle goes to library passes alone.
        while time_left(round_s):
            extra_library_round()

    # Every pass produced the bytes of pass 0 (checked above), so an oracle
    # mismatch on pass 0 fails every instance of that operation.
    oracle_failures = {key: oracle_problems(key, first_results, inputs) for key in first_results}
    for what, key, problems in checks:
        book.record(what, problems + oracle_failures.get(key, []))

    env_info = environment()
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "passes": len(cli_s), "environment": env_info,
        "inputs": {"rows": int(inputs.counts.shape[0]), "pmcs": len(inputs.pmc_names),
                   "compounds": int(inputs.compound_counts.shape[0]),
                   "slices_n": list(inputs.slices_n), "bytes": inputs.bytes_in},
        "sha256": first_cli, "failures": book.messages,
    }
    print(f"{workload.name} seed {args.seed}: {len(cli_s)} passes, "
          f"{book.attempted} operations, {book.failed} failed, "
          f"error_rate {book.failed / book.attempted:.6g}")
    print(f"  python {env_info['python']}, numpy {env_info['numpy']}, {env_info['blas']}, "
          f"blas threads {env_info['blas_threads_env']}, nproc {env_info['nproc']}, "
          f"pinned to CPU {env_info['cpus_used']}")
    for message in book.messages[:20]:
        print(f"  FAIL {message}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(inputs, tracer, first_results, probes,
                                library_wall, untraced_library_wall)
        tracer.write(os.path.join(results_dir, f"{tag}-spans.jsonl"))
        for name, m in metrics.items():
            print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    else:
        samples = {"setup_s": (setup, "s"), "cli_s": (cli_s, "s"),
                   "library_s": (library_s, "s"), "peak_rss_mib": (peak_rss, "MiB")}
        walls = {"setup_wall_s": setup_wall, "cli_wall_s": cli_wall,
                 "library_wall_s": library_wall, "reference_s": clock.references}
        for name, (values, unit) in samples.items():
            print(describe(name, values, unit))
        for name, values in walls.items():
            print(describe(name, values, "s"))
        metrics = {name: {"value": statistics.median(values), "unit": unit}
                   for name, (values, unit) in samples.items()}
        details["samples"] = {name: values for name, (values, _) in samples.items()}
        details["samples"].update(walls)
    details["metrics"] = metrics
    details["error_rate"] = book.failed / book.attempted
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    shutil.rmtree(out_dir, ignore_errors=True)
    shutil.rmtree(inputs_dir, ignore_errors=True)

    print(json.dumps({"correct": book.failed == 0, "attempted": book.attempted,
                      "failed": book.failed, "metrics": metrics}))
    return 0


def probe(inputs: Inputs, loaded, tracer, checks: list, p: int) -> dict:
    """Time ``Dataset.points`` and stage 1 alone; check them against the truth."""
    import oracles
    from emodel import run_additivity_test
    from workloads import TOLERANCE_PCT

    with tracer.span("core.points"):
        points = loaded.dataset.points()
    with tracer.span("additivity.stage1"):
        stage1 = run_additivity_test(loaded.dataset, [], TOLERANCE_PCT)
    checks.append((f"pass {p} probe points", "points", oracles.points(inputs, points)))
    checks.append((f"pass {p} probe stage1", "stage1", oracles.stage1(inputs, stage1)))
    return {"points": len(points),
            "repeated_groups": sum(1 for runs in loaded.dataset.groups().values() if len(runs) >= 2)}


def layer_metrics(inputs, tracer, results, probes, library_wall, untraced_library_wall) -> dict:
    import oracles

    def seconds(span_name):
        values = tracer.per_pass_seconds(span_name)
        return {"value": statistics.median(values) if values else 0.0, "unit": "s"}

    def value(v, unit):
        return {"value": v, "unit": unit}

    with open(inputs.runs_csv, encoding="utf-8") as fh:
        runs_columns = len(fh.readline().split(","))
    with open(inputs.compounds_csv, encoding="utf-8") as fh:
        compound_columns = len(fh.readline().split(","))
    n_runs, n_compounds = inputs.counts.shape[0], inputs.compound_counts.shape[0]
    report = results["additivity"][0]
    nonneg = results["fit_nonneg"]
    detections = results["conserve_nonneg"][1].detections
    scanned = feasible = fills = 0
    for n in inputs.slices_n:
        for interpolate in (False, True):
            _, _, s, f, i = oracles.partition_truth(inputs, n, interpolate)
            scanned, feasible, fills = scanned + s, feasible + f, fills + i

    metrics = {
        "core.load_runs_s": seconds("core.load_runs"),
        "core.load_compounds_s": seconds("core.load_compounds"),
        "core.points_s": seconds("core.points"),
        "core.rows": value(n_runs + n_compounds, "count"),
        "core.cells": value(n_runs * runs_columns + n_compounds * compound_columns, "count"),
        "core.bytes_in": value(inputs.bytes_in["runs.csv"] + inputs.bytes_in["compounds.csv"],
                               "bytes"),
        "additivity.stage1_s": seconds("additivity.stage1"),
        "additivity.test_s": seconds("additivity.test"),
        "additivity.repeated_groups": value(probes[0]["repeated_groups"], "count"),
        "additivity.compounds": value(n_compounds, "count"),
        "additivity.additive_ratio": value(len(report.additive_names()) / len(report.per_pmc),
                                           "ratio"),
        "fitting.fit_nonneg_s": seconds("fitting.fit_nonneg"),
        "fitting.fit_unconstrained_s": seconds("fitting.fit_unconstrained"),
        "fitting.predict_s": seconds("fitting.predict"),
        "fitting.evaluate_s": seconds("fitting.evaluate"),
        "fitting.correlation_s": seconds("fitting.correlation"),
        "fitting.nnls_clamped": value(sum(1 for c in nonneg.coefficients if c == 0.0), "count"),
        "conservation.check_s": seconds("conservation.check"),
        "conservation.composability_s": seconds("conservation.composability"),
        "conservation.detected_ratio": value(
            sum(1 for d in detections if d.detected) / max(1, len(detections)), "ratio"),
        "partitioning.load_s": seconds("partitioning.load"),
        "partitioning.exact_s": seconds("partitioning.exact"),
        "partitioning.interp_s": seconds("partitioning.interp"),
        "partitioning.m_scanned": value(scanned, "count"),
        "partitioning.interp_fills": value(fills, "count"),
        "partitioning.feasible_ratio": value(feasible / scanned, "ratio"),
    }
    for command in ("additivity", "fit", "conserve", "evaluate", "predict", "correlate",
                    "partition"):
        metrics[f"cli.{command}_s"] = seconds(f"cli.{command}")
    metrics["trace.overhead_s"] = value(
        statistics.median(library_wall) - statistics.median(untraced_library_wall), "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
