"""Command-line interface.

Every subcommand is a thin adapter over one library operation: parse flags,
load inputs, call, serialize. Exit codes: 0 success, 1 usage or input error,
2 the analysis itself found violations. Identical arguments over identical
input files produce byte-identical output. For ``additivity``, ``predict``,
``evaluate``, ``conserve`` (the composability probe included), ``correlate``,
``partition``, ``loss`` and ``stats`` that holds on every machine; ``fit``
goes through BLAS, whose summation order depends on the CPU, so its output
holds per machine and BLAS build.

Each handler imports the library modules it runs, so a process pays only for
its own subcommand: ``partition``, ``loss`` and ``stats`` never import numpy.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict

from ._common import DataFormatError, ModelKind, _csv_table, _finite_or_none

__all__ = ["main", "run_cli", "UsageError"]


class UsageError(Exception):
    """Bad invocation: unknown flag, missing argument, malformed flag value."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Values like "-1e12" and "-1.5,-2" too, not just "-1"; no flag starts "-<digit>".
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        # argparse would exit(2); the exit-code contract reserves 2 for
        # analysis findings, so usage problems must surface as code 1.
        raise UsageError(f"{self.format_usage().rstrip()}\nerror: {message}")


def _split_names(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in _split_names(text)]
    except ValueError:
        raise UsageError(f"error: {flag} expects comma-separated numbers, got {text!r}") from None
    if not values:
        raise UsageError(f"error: {flag} is empty")
    return values


def _parse_counts(text: str):
    """The ``--counts`` flag as a :class:`~emodel.core.PmcVector`."""
    from .core import PmcVector

    pairs = {}
    for part in _split_names(text):
        name, eq, value = part.partition("=")
        if not eq or not name:
            raise UsageError(
                f"error: --counts expects name=value pairs, got {part!r}"
            )
        if name in pairs:
            raise UsageError(f"error: --counts names PMC {name!r} twice")
        try:
            pairs[name] = float(value)
        except ValueError:
            raise UsageError(f"error: --counts value for {name!r} is not numeric") from None
    if not pairs:
        raise UsageError("error: --counts is empty")
    return PmcVector.from_dict(pairs)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    """The payload as indented JSON; JSON has no infinity or NaN, so a
    non-finite float is written as null."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        return json.dumps(_finite_or_null(payload), indent=2) + "\n"


def _finite_or_null(value):
    """``value`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, float):
        return _finite_or_none(value)
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _one_row(payload: dict, fmt: str) -> str:
    """A one-row report: the payload as JSON, or its keys as a CSV header over
    one row of its values."""
    if fmt == "json":
        return _json_text(payload)
    return _csv_table(payload, [payload.values()])


def _add_format(parser, default: str = "json") -> None:
    parser.add_argument(
        "--format", choices=("csv", "json"), default=default,
        help=f"report format (default: {default})",
    )


def _add_out(parser) -> None:
    parser.add_argument("--out", metavar="PATH", help="write the report to PATH instead of stdout")


def _cmd_additivity(args) -> int:
    from .additivity import (
        report_to_csv, report_to_json_dict, run_additivity_test, tolerance_sweep,
    )
    from .core import _load_run_columns, load_compounds

    dataset = _load_run_columns(args.runs)
    compounds = load_compounds(args.compounds, dataset) if args.compounds else []
    report = run_additivity_test(
        dataset, compounds, args.tolerance, reproducibility_cov=args.cov
    )
    sweep = tolerance_sweep(report, _parse_floats(args.sweep, "--sweep")) if args.sweep else None

    if args.format == "csv":
        text = report_to_csv(report)
        if sweep is not None:
            text += "\n" + _csv_table(("tolerance_pct", "additive_count"), sweep)
    else:
        payload = report_to_json_dict(report)
        if sweep is not None:
            payload["sweep"] = [
                {"tolerance_pct": t, "additive_count": c} for t, c in sweep
            ]
        text = _json_text(payload)
    _emit(text, args.out)
    return 0


def _cmd_correlate(args) -> int:
    from .core import _load_run_columns
    from .fitting import correlation_matrix

    dataset = _load_run_columns(args.runs)
    pmcs = _split_names(args.pmcs) if args.pmcs else None
    matrix = correlation_matrix(dataset, pmcs)
    text = matrix.to_csv() if args.format == "csv" else _json_text(matrix.to_json_dict())
    _emit(text, args.out)
    return 0


def _cmd_fit(args) -> int:
    from .core import _load_run_columns, model_to_dict
    from .fitting import fit

    dataset = _load_run_columns(args.runs)
    pmcs = _split_names(args.pmcs) if args.pmcs else None
    model = fit(dataset, pmcs, ModelKind(args.kind))
    _emit(_json_text(model_to_dict(model)), args.out)
    return 0


def _cmd_predict(args) -> int:
    from .core import _load_run_columns, load_model
    from .fitting import _positions, _predict_rows, predict

    model = load_model(args.model)
    if args.counts:
        value = predict(model, _parse_counts(args.counts))
        _emit(_one_row({"prediction_j": value}, args.format), args.out)
        return 0

    dataset = _load_run_columns(args.runs)
    values = []
    if dataset.app_id:  # a file without rows has no PMC to look up
        counts = dataset.counts[:, list(_positions(model.pmc_names, dataset.pmc_names))]
        values = _predict_rows(model.intercept, model.coefficients, counts).tolist()
    fields = ("app_id", "run_id", "cores", "problem_size", "prediction_j")
    rows = list(zip(dataset.app_id, dataset.run_id, dataset.cores, dataset.problem_size, values))
    if args.format == "csv":
        text = _csv_table(fields, rows)
    else:
        text = _json_text({"predictions": [dict(zip(fields, row)) for row in rows]})
    _emit(text, args.out)
    return 0


def _cmd_evaluate(args) -> int:
    from .core import _load_run_columns, load_compounds, load_model
    from .fitting import _evaluate_rows, evaluate

    model = load_model(args.model)
    dataset = _load_run_columns(args.runs)
    if args.compounds:
        compounds = load_compounds(args.compounds, dataset)
        summary = evaluate(model, [(c.pmc, c.dynamic_energy_j) for c in compounds])
    else:
        summary = _evaluate_rows(model, dataset.pmc_names, dataset.counts, dataset.dynamic_energy_j)
    _emit(_one_row(summary.to_json_dict(), args.format), args.out)
    return 0


def _cmd_conserve(args) -> int:
    from .conservation import check_conservation, strong_composability_check
    from .core import load_model

    if args.seed < 0:
        raise UsageError(f"error: --seed must be a non-negative integer, got {args.seed}")
    if args.composability_trials is not None and args.composability_trials < 1:
        raise UsageError(
            f"error: --composability-trials must be >= 1, got {args.composability_trials}")
    model = load_model(args.model)
    report = check_conservation(model)
    code = 0 if report.clean else 2

    if args.composability_trials:
        if args.format == "csv":
            raise UsageError("error: --composability-trials reports are JSON only")
        composability = strong_composability_check(
            model, args.composability_trials, args.seed, delta=args.delta
        )
        payload = report.to_json_dict()
        payload["composability"] = composability.to_json_dict()
        if not composability.passed:
            code = 2
        _emit(_json_text(payload), args.out)
        return code

    if args.format == "csv":
        text = _csv_table(("kind", "pmc_name", "value", "predicted_j"), [
            (v.kind.value, v.pmc_name, v.value, v.predicted_j) for v in report.violations
        ])
    else:
        text = _json_text(report.to_json_dict())
    _emit(text, args.out)
    return code


def _cmd_partition(args) -> int:
    from .partitioning import load_energy_function, partition

    func1 = load_energy_function(args.func1, granularity=args.granularity)
    func2 = load_energy_function(args.func2, granularity=args.granularity)
    result = partition(func1, func2, args.n, interpolate=args.interpolate)
    _emit(_one_row(result.to_json_dict(), args.format), args.out)
    return 0


def _cmd_loss(args) -> int:
    from .partitioning import energy_loss

    _emit(_one_row({"loss_pct": energy_loss(args.alt, args.ref)}, args.format), args.out)
    return 0


def _cmd_stats(args) -> int:
    from .stats import sample_mean_ci

    if args.values:
        samples = _parse_floats(args.values, "--values")
    else:
        try:
            with open(args.values_file, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{args.values_file}: not UTF-8 text ({exc.reason})") from None
        samples = _parse_floats(",".join(text.split()), "--values-file")
    estimate = sample_mean_ci(samples, confidence=args.confidence, precision=args.precision)
    _emit(_one_row(asdict(estimate), args.format), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="emodel",
        description="PMC additivity testing, linear energy models, and "
        "energy-aware two-processor partitioning.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("additivity", help="run the two-stage PMC additivity test")
    p.add_argument("--runs", required=True, help="base-application runs CSV")
    p.add_argument("--compounds", help="compound-application runs CSV")
    p.add_argument("--tolerance", type=float, default=5.0,
                   help="additivity tolerance in percent (default: 5.0)")
    p.add_argument("--cov", type=float, default=0.025,
                   help="stage-1 reproducibility bound on the coefficient of "
                   "variation (default: 0.025)")
    p.add_argument("--sweep", metavar="T1,T2,...",
                   help="also count additive PMCs at these ascending tolerances")
    _add_format(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_additivity)

    p = sub.add_parser("correlate", help="correlate PMCs with dynamic energy")
    p.add_argument("--runs", required=True)
    p.add_argument("--pmcs", metavar="NAME,NAME,...", help="subset of PMCs (default: all)")
    _add_format(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_correlate)

    p = sub.add_parser("fit", help="fit a linear dynamic-energy model")
    p.add_argument("--runs", required=True)
    p.add_argument("--kind", required=True, choices=[k.value for k in ModelKind])
    p.add_argument("--pmcs", metavar="NAME,NAME,...", help="subset of PMCs (default: all)")
    p.add_argument("--out", metavar="PATH", help="write the model file here instead of stdout")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("predict", help="predict dynamic energy from PMC counts")
    p.add_argument("--model", required=True, help="model file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--counts", metavar="NAME=V,NAME=V,...",
                        help="one inline PMC vector")
    source.add_argument("--runs", help="predict every row of a runs CSV")
    _add_format(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("evaluate", help="prediction-error summary on measured data")
    p.add_argument("--model", required=True)
    p.add_argument("--runs", required=True,
                   help="runs CSV; the evaluation cases unless --compounds is given")
    p.add_argument("--compounds", help="evaluate on these compounds instead of the runs")
    _add_format(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("conserve", help="energy-conservation checks on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--composability-trials", type=int, metavar="N",
                   help="also run the randomized composability check with N trials")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument("--delta", type=float, default=1.0,
                   help="offset for the shifted-sum operator (default: 1.0)")
    _add_format(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_conserve)

    p = sub.add_parser("partition", help="minimum-energy two-processor split")
    p.add_argument("--func1", required=True, help="energy-function CSV for processor one")
    p.add_argument("--func2", required=True, help="energy-function CSV for processor two")
    p.add_argument("--n", type=int, required=True, help="total rows to split")
    p.add_argument("--granularity", type=int,
                   help="grid granularity (default: inferred from the files)")
    p.add_argument("--interpolate", action="store_true",
                   help="fill missing grid samples by linear interpolation along x")
    _add_format(p, default="csv")
    _add_out(p)
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("loss", help="signed percentage energy change vs a reference")
    p.add_argument("--alt", type=float, required=True, help="alternative energy in joules")
    p.add_argument("--ref", type=float, required=True, help="reference energy in joules")
    _add_format(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_loss)

    p = sub.add_parser("stats", help="confidence-interval sample mean")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--values", metavar="V,V,...", help="inline samples")
    source.add_argument("--values-file", metavar="PATH", help="whitespace-separated samples")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--precision", type=float, default=0.025)
    _add_format(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_stats)

    return parser


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except KeyError as exc:
        message = exc.args[0] if exc.args else exc
        print(f"emodel: error: {message}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError, OverflowError, ValueError, RuntimeError) as exc:
        print(f"emodel: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
