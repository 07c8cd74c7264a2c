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
its own subcommand: ``partition``, ``loss``, ``stats``, ``predict --counts`` and
``conserve`` without its probe never import numpy; ``predict --runs`` and
``evaluate`` import it only when the parse cache misses and their files are
parsed and checked; and a report imports :mod:`json` only when it is written as
JSON. :func:`main`, unlike :func:`run_cli`, turns the cyclic garbage collector
off (a one-shot process frees nothing in a cycle), flushes stdout and stderr,
and ends in :func:`os._exit`: an ``emodel`` process runs no :mod:`atexit`
handlers. A report it cannot write is an ``emodel: error:`` line, exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import re
import sys
from itertools import islice
from typing import Iterable, Iterator

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
    """The ``--counts`` flag as a :class:`~emodel.model.PmcVector`."""
    from .model import PmcVector

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


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write a report, given whole or as its pieces in order, to ``out`` or stdout."""
    pieces = [text] if isinstance(text, str) else text
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    elif sys.stdout is None:
        raise OSError("stdout is closed")
    else:
        sys.stdout.writelines(pieces)


def _json_text(payload) -> str:
    """The payload as indented JSON; JSON has no infinity or NaN, so a
    non-finite float is written as null."""
    import json

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


#: One record of the ``predict --runs`` JSON report, laid out as
#: ``json.dumps(..., indent=2)`` lays out the record's dict.
_PREDICTION = ('    {\n      "app_id": %s,\n      "run_id": %s,\n      "cores": %d,\n'
               '      "problem_size": %s,\n      "prediction_j": %s\n    }')
#: Records per piece of the ``predict --runs`` JSON report.
_BLOCK = 512


def _predictions_json(rows) -> Iterator[str]:
    """The ``predict --runs`` JSON report on ``(app_id, run_id, cores,
    problem_size, prediction_j)`` rows, :data:`_BLOCK` records per piece: the
    bytes of :func:`_json_text` on ``{"predictions": [...]}`` with a dict per row,
    without the dicts. Strings go through the json module's ASCII escaper,
    numbers are their repr, and None or a non-finite prediction is null."""
    from json.encoder import encode_basestring_ascii as quote

    records = (_PREDICTION % (
        quote(app_id), "null" if run_id is None else quote(run_id), cores, quote(size),
        repr(value) if math.isfinite(value) else "null")
        for app_id, run_id, cores, size, value in rows)
    yield '{\n  "predictions": ['
    separator = "\n"
    while block := ",\n".join(islice(records, _BLOCK)):
        yield separator + block
        separator = ",\n"
    yield "]\n}\n" if separator == "\n" else "\n  ]\n}\n"


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
    from .core import _load_compound_columns, _load_run_columns

    dataset = _load_run_columns(args.runs)
    compounds = _load_compound_columns(args.compounds, dataset) if args.compounds else []
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
    from .model import _predict_each, load_model, predict

    model = load_model(args.model)
    if args.counts:
        value = predict(model, _parse_counts(args.counts))
        _emit(_one_row({"prediction_j": value}, args.format), args.out)
        return 0

    from .core import _load_run_columns
    dataset = _load_run_columns(args.runs)
    counts, _, _ = dataset._python_columns()
    rows = zip(dataset.app_id, dataset.run_id, dataset.cores, dataset.problem_size,
               _predict_each(model, dataset.pmc_names, counts))
    if args.format == "csv":
        text = _csv_table(("app_id", "run_id", "cores", "problem_size", "prediction_j"), rows)
    else:
        text = _predictions_json(rows)
    _emit(text, args.out)
    return 0


def _cmd_evaluate(args) -> int:
    from .core import _load_compound_columns, _load_run_columns
    from .model import _error_summary, _predict_each, load_model

    model = load_model(args.model)
    dataset = _load_run_columns(args.runs)
    if args.compounds:
        counts, energies = _load_compound_columns(args.compounds, dataset)._python_columns()
    else:
        counts, _, energies = dataset._python_columns()
    summary = _error_summary(zip(_predict_each(model, dataset.pmc_names, counts), energies))
    _emit(_one_row(summary.to_json_dict(), args.format), args.out)
    return 0


def _cmd_conserve(args) -> int:
    from .conservation import check_conservation, strong_composability_check
    from .model import load_model

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
    if args.granularity is not None and args.granularity < 1:
        raise UsageError(f"error: --granularity must be >= 1, got {args.granularity}")
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
    _emit(_one_row(estimate._asdict(), args.format), args.out)
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
    """``emodel``: :func:`run_cli` on ``sys.argv``, then flush and :func:`os._exit`."""
    gc.disable()
    code = 1
    try:
        code = run_cli(sys.argv[1:])
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:  # no room for the report, or for run_cli's error message
        if code != 1:  # code 1: run_cli has reported an error, or stderr failed
            code = 1
            with contextlib.suppress(OSError):
                print(f"emodel: error: {exc}", file=sys.stderr)
    with contextlib.suppress(AttributeError, OSError):  # stderr is closed or full
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
