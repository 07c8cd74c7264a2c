"""Shared fixture builders and independent oracles used across the test suite.

The oracles here are deliberately written differently from the library code
they check: exhaustive enumeration instead of active sets, candidate-list
scans instead of streaming argmins, row-by-row CSV loading instead of
column-by-column (energy functions included), a plain dict of row lists
instead of group codes, per-name lookups in separate trial loops with scalar draws instead of one
composability check over blocks of rows,
``math.fsum`` per group instead of TwoSum layers, per-pair centring instead of
one centring per column, and one ``predict`` call per evaluated case.
"""

import csv
import math
import statistics
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np

from emodel import (
    MAX,
    SUM,
    ApplicationRun,
    ComposabilityReport,
    CompositionCounterexample,
    CompoundRun,
    DataFormatError,
    Dataset,
    EnergyFunction,
    MeasurementFaultWarning,
    OperatorDetection,
    PmcVector,
    RunConfig,
    RunRef,
    dynamic_energy,
    percent_error,
    predict,
    sum_plus_delta,
)


def make_run(app, names, counts, energy, *, cores=2, size="1024", time_s=10.0, run_id=None):
    return ApplicationRun(
        app_id=app,
        config=RunConfig(cores, size),
        pmc=PmcVector(tuple(names), tuple(float(c) for c in counts)),
        exec_time_s=time_s,
        dynamic_energy_j=float(energy),
        run_id=run_id,
    )


def make_compound(cid, base_a, base_b, names, counts, energy, *, cores=2, size="1024"):
    return CompoundRun(
        compound_id=cid,
        base_a=RunRef(base_a, RunConfig(cores, size)),
        base_b=RunRef(base_b, RunConfig(cores, size)),
        pmc=PmcVector(tuple(names), tuple(float(c) for c in counts)),
        dynamic_energy_j=float(energy),
    )


def make_dataset(names, runs, compounds=()):
    return Dataset(tuple(names), tuple(runs), tuple(compounds))


def dataset_from_matrix(x, y, names=None):
    """One single-sample run per matrix row; energies must be non-negative."""
    x = np.asarray(x, dtype=float)
    names = tuple(names) if names else tuple(f"P{j + 1}" for j in range(x.shape[1]))
    runs = [
        make_run(f"r{i}", names, row, energy, cores=1, size="", time_s=1.0)
        for i, (row, energy) in enumerate(zip(x, np.asarray(y, dtype=float)))
    ]
    return make_dataset(names, runs)


def groups_by_dict(runs):
    """Row positions of each run group, in a plain dict keyed by
    ``(app_id, config)`` in first-seen order."""
    groups = {}
    for row, run in enumerate(runs):
        if (run.app_id, run.config) not in groups:
            groups[(run.app_id, run.config)] = []
        groups[(run.app_id, run.config)].append(row)
    return groups


def resolve_by_scan(groups, text):
    """The ``(app_id, config)`` key that a base reference names in
    :func:`groups_by_dict`'s result, or the error message it must raise."""
    if "@" not in text:
        keys = [key for key in groups if key[0] == text]
        if len(keys) == 1:
            return keys[0]
        if not keys:
            return f"unknown base reference {text!r}"
        labels = [f"{app}@{config.cores}:{config.problem_size}" for app, config in keys]
        return f"ambiguous base reference {text!r}: matches {', '.join(labels)}"
    app_id, config_text = text.split("@", 1)
    cores, _, size = config_text.partition(":")
    for key in groups:
        if key[0] == app_id and str(key[1].cores) == cores and key[1].problem_size == size:
            return key
    return f"unknown base reference {text!r}"


def group_means_by_fsum(runs, values):
    """Each run group's mean of each column of ``values`` (one row per run,
    or one value per run when 1-D): ``math.fsum`` of the group's samples in
    row order, over their count. An overflowing sum raises OverflowError."""
    values = np.asarray(values, dtype=float)
    columns = values[:, None] if values.ndim == 1 else values
    groups = groups_by_dict(runs)
    means = []
    for rows in groups.values():
        means.append([math.fsum(columns[rows, j].tolist()) / len(rows)
                      for j in range(columns.shape[1])])
    means = np.array(means, dtype=float).reshape(len(groups), columns.shape[1])
    return means[:, 0] if values.ndim == 1 else means


def correlation_by_pairs(dataset, names):
    """Pearson matrix rows over dynamic energy and the named PMCs, one pair
    at a time: every pair centres both of its columns again. Dot products are
    pairwise sums of the products (``np.add.reduce``), as in the library."""
    def pearson(u, v):
        du = u - u.mean()
        dv = v - v.mean()
        nu = float(np.sqrt(np.add.reduce(du * du)))
        nv = float(np.sqrt(np.add.reduce(dv * dv)))
        if nu == 0.0 or nv == 0.0:
            return math.nan
        return max(-1.0, min(1.0, float(np.add.reduce(du * dv) / (nu * nv))))

    columns = [np.array([run.dynamic_energy_j for run in dataset.runs], dtype=float)]
    columns += [np.array([run.pmc.get(name) for run in dataset.runs]) for name in names]
    k = len(columns)
    values = [[math.nan] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            if i == j:
                r = math.nan if float(np.ptp(columns[i])) == 0.0 else 1.0
            else:
                r = pearson(columns[i], columns[j])
            values[i][j] = values[j][i] = r
    return values


def evaluate_by_cases(model, cases):
    """(min, avg, max, n) of ``percent_error(predict(model, pmc), measured)``
    taken case by case, with the mean by ``math.fsum`` clamped to [min, max].
    Once every case has passed those two calls, the first case whose
    prediction is not finite raises ValueError."""
    predictions, errors = [], []
    for pmc, measured in cases:
        predictions.append(predict(model, pmc))
        errors.append(percent_error(predictions[-1], measured))
    for case, predicted in enumerate(predictions, start=1):
        if not math.isfinite(predicted):
            raise ValueError(f"prediction for case {case} is not finite: {predicted!r}")
    low, high = min(errors), max(errors)
    avg = math.fsum(errors) / len(errors)
    return low, min(max(avg, low), high), high, len(errors)


def headline_workload(seed, groups=40, repetitions=3, compounds=60):
    """A seeded (dataset, serial compounds) pair with planted PMC roles:

    - E1 and E2 carry the energy (1 J per 1e9 and per 5e7 events);
    - U is additive but unrelated to the energy;
    - N tracks each base run's measured energy within 2%, but a compound's N
      is the larger of its bases' N, not their sum: it is not additive;
    - R sums in compounds but varies by up to 30% between repetitions, so
      stage 1 (reproducibility) rejects it.

    Repetitions and compounds carry 0.5% Gaussian noise on every count and on
    the energy. A compound runs two distinct base applications one after the
    other, so its energy and its additive counts are the bases' sums. R is
    drawn from a second stream, so the other columns do not depend on it.
    """
    rng = np.random.default_rng(seed)
    spread = np.random.default_rng([seed, 1])
    names = ("E1", "E2", "U", "N", "R")
    noise = 0.005
    e1 = 10.0 ** rng.uniform(8.0, 10.0, groups)
    e2 = 10.0 ** rng.uniform(7.0, 9.0, groups)
    u = 10.0 ** rng.uniform(6.0, 8.0, groups)
    energy = e1 / 1e9 + e2 / 5e7
    tracking = 1e6 * (1.0 + rng.uniform(-0.02, 0.02, groups))
    irreproducible = 10.0 ** spread.uniform(6.0, 8.0, groups)
    runs, means = [], []
    for g in range(groups):
        rows = []
        for r in range(repetitions):
            jitter = 1.0 + noise * rng.standard_normal(4)
            measured = energy[g] * jitter[3]
            rows.append((e1[g] * jitter[0], e2[g] * jitter[1], u[g] * jitter[2],
                         tracking[g] * measured,
                         irreproducible[g] * (1.0 + spread.uniform(-0.3, 0.3))))
            runs.append(make_run(f"a{g:02d}", names, rows[-1], measured, run_id=f"r{r}"))
        means.append(np.mean(rows, axis=0))
    serial = []
    for c in range(compounds):
        a, b = rng.choice(groups, size=2, replace=False)
        jitter = 1.0 + noise * rng.standard_normal(4)
        ma, mb = means[a], means[b]
        counts = ((ma[0] + mb[0]) * jitter[0], (ma[1] + mb[1]) * jitter[1],
                  (ma[2] + mb[2]) * jitter[2], max(ma[3], mb[3]), ma[4] + mb[4])
        serial.append(make_compound(f"c{c:02d}", f"a{a:02d}", f"a{b:02d}", names, counts,
                                    (energy[a] + energy[b]) * jitter[3]))
    return make_dataset(names, runs, serial), serial


def additivity_by_brute_force(dataset, compounds, reproducibility_cov):
    """Per-PMC (name, stage1_pass, max_error_pct), one group and one compound
    at a time: statistics.stdev per group, fsum repetition means, and a
    running max of the percent errors."""
    groups = {}
    for run in dataset.runs:
        groups.setdefault((run.app_id, run.config), []).append(run)
    out = []
    for i, name in enumerate(dataset.pmc_names):
        stage1 = True
        means = {}
        for key, runs in groups.items():
            values = [run.pmc.counts[i] for run in runs]
            means[key] = math.fsum(values) / len(values)
            if len(values) >= 2:
                cov = 0.0 if means[key] == 0 else statistics.stdev(values) / means[key]
                stage1 = stage1 and cov <= reproducibility_cov
        max_error = 0.0
        for comp in compounds:
            base = means[tuple(comp.base_a)] + means[tuple(comp.base_b)]
            count = comp.pmc.counts[i]
            if base == 0:
                error = 0.0 if count == 0 else math.inf
            else:
                error = abs(count - base) / base * 100.0
            max_error = max(max_error, error)
        out.append((name, stage1, max_error))
    return out


def nnls_by_enumeration(x, y):
    """Global NNLS optimum by trying every support set; feasible for few columns.

    Returns (beta, residual_norm). A support is feasible when its plain
    least-squares solution is non-negative; the all-zero solution is always a
    candidate.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = x.shape
    best_beta = np.zeros(n)
    best_residual = float(np.linalg.norm(y))
    for size in range(1, n + 1):
        for chosen in combinations(range(n), size):
            support = list(chosen)
            solution, *_ = np.linalg.lstsq(x[:, support], y, rcond=None)
            if np.any(solution < 0):
                continue
            beta = np.zeros(n)
            beta[support] = solution
            residual = float(np.linalg.norm(y - x @ beta))
            if residual < best_residual:
                best_residual = residual
                best_beta = beta
    return best_beta, best_residual


def partition_by_enumeration(func1, func2, n):
    """Feasible-split scan: gather every candidate, then take the argmin with
    ties to the smallest m. Returns (m, k, e1, e2, total) or None. Reads the
    samples directly, sharing no lookup structure with the partitioner."""
    g = func1.granularity_g
    table1 = {(x, y): e for x, y, e in func1.samples}
    table2 = {(x, y): e for x, y, e in func2.samples}
    candidates = []
    for m in range(g, n - g + 1, g):
        e1 = table1.get((m, n))
        e2 = table2.get((n - m, n))
        if e1 is not None and e2 is not None:
            candidates.append((m, n - m, e1, e2, e1 + e2))
    if not candidates:
        return None
    best_total = min(c[4] for c in candidates)
    winners = [c for c in candidates if c[4] == best_total]
    return min(winners, key=lambda c: c[0])


def random_energy_function(seed, processor_id, n, g=512, drop_probability=0.0,
                           integer_energies=False):
    """A fully (or partially) populated slice at y = n with seeded energies."""
    rng = np.random.default_rng(seed)
    samples = []
    for x in range(g, n, g):
        if drop_probability and rng.random() < drop_probability:
            continue
        if integer_energies:
            energy = float(rng.integers(1, 6))
        else:
            energy = float(rng.uniform(1.0, 100.0))
        samples.append((x, n, energy))
    if not samples:
        samples.append((g, n, 1.0))
    return EnergyFunction(processor_id, tuple(samples), g)


# Row-by-row reference loaders: each row is parsed and checked on its own,
# with every object built through its public constructor.

RESERVED_COLUMNS = (
    "app_id",
    "run_id",
    "cores",
    "problem_size",
    "exec_time_s",
    "dynamic_energy_j",
    "total_energy_j",
    "static_power_w",
)


def _read_csv_by_rows(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The stripped header and the non-blank data rows, each with its row
    number in the file as ``csv.reader`` counts records (the header is row 1,
    and blank rows count)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(enumerate(csv.reader(fh), start=1))
    if not rows or not any(cell.strip() for cell in rows[0][1]):
        raise DataFormatError(f"{path}: no header")
    header = [cell.strip() for cell in rows[0][1]]
    dupes = sorted({c for c in header if header.count(c) > 1})
    if dupes:
        raise DataFormatError(f"{path}: duplicate header columns: {', '.join(dupes)}")
    body = [(row_no, row) for row_no, row in rows[1:] if any(cell.strip() for cell in row)]
    return header, body


def _cell_float_by_rows(path, row_no: int, column: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataFormatError(
            f"{path}: row {row_no}, column {column!r}: non-numeric cell {text!r}"
        ) from None
    if not math.isfinite(value):
        raise DataFormatError(
            f"{path}: row {row_no}, column {column!r}: non-finite value {text!r}"
        )
    return value


def load_runs_by_rows(path) -> Dataset:
    """Load a runs CSV into a :class:`Dataset`.

    Header: ``app_id,cores,problem_size,exec_time_s,dynamic_energy_j`` plus one
    column per PMC, in model variable order. ``run_id`` is optional and marks
    repetition samples. ``total_energy_j`` together with ``static_power_w``
    may replace ``dynamic_energy_j``, in which case dynamic energy is computed
    at load time.
    """
    header, body = _read_csv_by_rows(path)
    columns = {name: i for i, name in enumerate(header)}

    missing = [c for c in ("app_id", "cores", "problem_size", "exec_time_s") if c not in columns]
    if missing:
        raise DataFormatError(f"{path}: missing header columns: {', '.join(missing)}")

    has_dynamic = "dynamic_energy_j" in columns
    has_total = "total_energy_j" in columns
    has_static = "static_power_w" in columns
    if has_dynamic and (has_total or has_static):
        raise DataFormatError(
            f"{path}: give either dynamic_energy_j or total_energy_j+static_power_w, not both"
        )
    if not has_dynamic:
        if not (has_total and has_static):
            raise DataFormatError(
                f"{path}: missing energy columns: need dynamic_energy_j or "
                f"total_energy_j together with static_power_w"
            )

    pmc_names = tuple(c for c in header if c not in RESERVED_COLUMNS)
    if not pmc_names:
        raise DataFormatError(f"{path}: no PMC columns after the reserved columns")

    runs: list[ApplicationRun] = []
    seen: dict[tuple[str, RunConfig, str | None], int] = {}
    for row_no, row in body:
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}: row {row_no}: expected {len(header)} cells, got {len(row)}"
            )
        cell = lambda name: row[columns[name]].strip()

        app_id = cell("app_id")
        if not app_id:
            raise DataFormatError(f"{path}: row {row_no}: empty app_id")
        cores_text = cell("cores")
        try:
            cores = int(cores_text)
        except ValueError:
            raise DataFormatError(
                f"{path}: row {row_no}, column 'cores': non-integer cell {cores_text!r}"
            ) from None
        if cores < 1:
            raise DataFormatError(
                f"{path}: row {row_no}, column 'cores': must be >= 1, got {cores}"
            )
        config = RunConfig(cores, cell("problem_size"))
        run_id = cell("run_id") or None if "run_id" in columns else None

        exec_time_s = _cell_float_by_rows(path, row_no, "exec_time_s", cell("exec_time_s"))
        if exec_time_s <= 0:
            raise DataFormatError(
                f"{path}: row {row_no}, column 'exec_time_s': must be > 0, got {exec_time_s!r}"
            )

        if has_dynamic:
            energy = _cell_float_by_rows(path, row_no, "dynamic_energy_j", cell("dynamic_energy_j"))
        else:
            total = _cell_float_by_rows(path, row_no, "total_energy_j", cell("total_energy_j"))
            static = _cell_float_by_rows(path, row_no, "static_power_w", cell("static_power_w"))
            if static < 0:
                raise DataFormatError(
                    f"{path}: row {row_no}, column 'static_power_w': must be >= 0, got {static!r}"
                )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", MeasurementFaultWarning)
                energy = dynamic_energy(total, static, exec_time_s)
        if energy < 0:
            raise DataFormatError(
                f"{path}: row {row_no}: dynamic energy {energy!r} J is negative "
                f"(measurement fault: total below static baseline)"
            )

        counts = []
        for name in pmc_names:
            value = _cell_float_by_rows(path, row_no, name, cell(name))
            if value < 0:
                raise DataFormatError(
                    f"{path}: row {row_no}, column {name!r}: negative count {value!r}"
                )
            counts.append(value)

        key = (app_id, config, run_id)
        if key in seen:
            raise DataFormatError(
                f"{path}: row {row_no}: duplicate run ({app_id!r}, {config.label()}, "
                f"run_id={run_id!r}), first seen at row {seen[key]}"
            )
        seen[key] = row_no
        runs.append(
            ApplicationRun(
                app_id=app_id,
                config=config,
                pmc=PmcVector(pmc_names, tuple(counts)),
                exec_time_s=exec_time_s,
                dynamic_energy_j=energy,
                run_id=run_id,
            )
        )

    return Dataset(pmc_names, tuple(runs))


def load_compounds_by_rows(path, dataset: Dataset) -> list[CompoundRun]:
    """Load a compounds CSV, resolving base references against ``dataset``.

    Header: ``compound_id,base_a,base_b,dynamic_energy_j`` followed by the
    dataset's PMC columns in the same order. Base references use the
    ``app_id@cores:problem_size`` form (bare ``app_id`` when unambiguous).
    A file with a valid header and zero data rows is an empty test set, not
    an error.
    """
    header, body = _read_csv_by_rows(path)
    required = ("compound_id", "base_a", "base_b", "dynamic_energy_j")
    missing = [c for c in required if c not in header]
    if missing:
        raise DataFormatError(f"{path}: missing header columns: {', '.join(missing)}")
    pmc_columns = tuple(c for c in header if c not in required)
    if pmc_columns != dataset.pmc_names:
        raise DataFormatError(
            f"{path}: PMC columns {list(pmc_columns)} do not match dataset PMC "
            f"names {list(dataset.pmc_names)}"
        )
    columns = {name: i for i, name in enumerate(header)}

    compounds: list[CompoundRun] = []
    for row_no, row in body:
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}: row {row_no}: expected {len(header)} cells, got {len(row)}"
            )
        cell = lambda name: row[columns[name]].strip()
        compound_id = cell("compound_id")
        if not compound_id:
            raise DataFormatError(f"{path}: row {row_no}: empty compound_id")
        try:
            base_a = dataset.resolve(cell("base_a"))
            base_b = dataset.resolve(cell("base_b"))
        except DataFormatError as exc:
            raise DataFormatError(f"{path}: row {row_no}: {exc}") from None
        energy = _cell_float_by_rows(path, row_no, "dynamic_energy_j", cell("dynamic_energy_j"))
        if energy < 0:
            raise DataFormatError(
                f"{path}: row {row_no}, column 'dynamic_energy_j': must be >= 0, got {energy!r}"
            )
        counts = []
        for name in dataset.pmc_names:
            value = _cell_float_by_rows(path, row_no, name, cell(name))
            if value < 0:
                raise DataFormatError(
                    f"{path}: row {row_no}, column {name!r}: negative count {value!r}"
                )
            counts.append(value)
        compounds.append(
            CompoundRun(
                compound_id=compound_id,
                base_a=base_a,
                base_b=base_b,
                pmc=PmcVector(dataset.pmc_names, tuple(counts)),
                dynamic_energy_j=energy,
            )
        )
    return compounds


def load_energy_function_by_rows(path, processor_id=None, granularity=None):
    """Load an energy function as the loader and the ``EnergyFunction``
    constructor once did, one row and then one sample at a time: the file is
    read whole by ``csv.reader``, each row is stripped, parsed and checked on
    its own, the granularity is the running GCD, and the samples are checked
    in file order, sorted by a lambda key and put into their slices one by
    one. Gives ``(processor_id, samples, granularity_g, slices)``, with
    ``slices`` as ``(y, [(x, energy), ...])`` pairs in order."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            records = list(reader)
        except csv.Error as exc:
            raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not records or not any(cell.strip() for cell in records[0]):
        raise DataFormatError(f"{path}: no header")
    header = [cell.strip() for cell in records[0]]
    if header != ["x", "y", "energy_j"]:
        raise DataFormatError(f"{path}: expected header 'x,y,energy_j', got {','.join(header)!r}")
    samples = []
    for row_no, row in enumerate(records[1:], 2):
        if not any(cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise DataFormatError(f"{path}: row {row_no}: expected 3 cells, got {len(row)}")
        x_text, y_text, energy_text = (cell.strip() for cell in row)
        try:
            x, y = int(x_text), int(y_text)
        except ValueError:
            raise DataFormatError(
                f"{path}: row {row_no}: x and y must be integers, got {x_text!r}, {y_text!r}"
            ) from None
        try:
            energy = float(energy_text)
        except ValueError:
            raise DataFormatError(
                f"{path}: row {row_no}, column 'energy_j': non-numeric cell {energy_text!r}"
            ) from None
        if x < 1 or y < 1:
            raise DataFormatError(f"{path}: row {row_no}: x and y must be >= 1")
        if not math.isfinite(energy) or energy < 0:
            raise DataFormatError(
                f"{path}: row {row_no}, column 'energy_j': must be >= 0, got {energy_text!r}"
            )
        samples.append((x, y, energy))
    if not samples:
        raise DataFormatError(f"{path}: no samples")
    if granularity is None:
        granularity = 0
        for x, y, _ in samples:
            granularity = math.gcd(granularity, x, y)
    if processor_id is None:
        processor_id = Path(path).stem
    if granularity < 1:
        raise DataFormatError(f"{path}: granularity must be >= 1, got {granularity}")
    for x, y, _ in samples:
        if x % granularity or y % granularity:
            raise DataFormatError(
                f"{path}: sample ({x}, {y}) is not a positive multiple of granularity {granularity}"
            )
    ordered = sorted(samples, key=lambda s: (s[1], s[0]))
    slices = {}
    for x, y, energy in ordered:
        curve = slices.setdefault(y, {})
        if x in curve:
            raise DataFormatError(f"{path}: duplicate sample at (x={x}, y={y})")
        curve[x] = energy
    return (processor_id, tuple(ordered), granularity,
            [(y, list(curve.items())) for y, curve in slices.items()])


# Reference composability harness: the per-name lookups and the three separate
# compose -> compare -> counterexample loops the library once had, rebuilt
# from the public report types, to pin the library's reports byte for byte.

REFERENCE_COUNT_RANGE = (1.0, 2.0**37)


def predict_by_names(model, vector):
    """Intercept plus each coefficient times its count, looked up by name,
    summed left to right in model order."""
    total = model.intercept
    for name, coefficient in zip(model.pmc_names, model.coefficients):
        total += coefficient * vector.get(name)
    return total


def compose_by_names(run_a, run_b, default, overrides):
    """Componentwise composition; ``overrides`` maps 1-based positions to
    operators, every other position uses ``default``."""
    vec_a = run_a.pmc if isinstance(run_a, ApplicationRun) else run_a
    vec_b = run_b.pmc if isinstance(run_b, ApplicationRun) else run_b
    if set(vec_a.names) != set(vec_b.names):
        raise ValueError(
            f"PMC name sets differ: {sorted(vec_a.names)} vs {sorted(vec_b.names)}"
        )
    vec_b = PmcVector(vec_a.names, tuple(vec_b.get(name) for name in vec_a.names))
    for index in overrides:
        if index > len(vec_a):
            raise ValueError(
                f"operator override index {index} exceeds the {len(vec_a)}-component "
                f"PMC vector"
            )
    counts = tuple(
        overrides.get(k + 1, default).apply(a, b)
        for k, (a, b) in enumerate(zip(vec_a.counts, vec_b.counts))
    )
    return PmcVector(vec_a.names, counts)


def conservation_gap_by_names(model, vec_a, vec_b, composed):
    """(lhs, rhs, scale): predicted energy of the composition, sum of parts,
    and the cancellation-aware magnitude both sides are built from."""
    lhs = predict_by_names(model, composed)
    rhs = predict_by_names(model, vec_a) + predict_by_names(model, vec_b)
    scale = 0.0
    for name, coefficient in zip(model.pmc_names, model.coefficients):
        scale += abs(coefficient) * (
            abs(composed.get(name)) + vec_a.get(name) + vec_b.get(name)
        )
    return lhs, rhs, scale


def breaks_conservation_by_names(model, vec_a, vec_b, composed, tol):
    """Whether the predicted energies differ by more than ``tol`` times the
    scale. When lhs, rhs or scale overflowed, the three vectors are compared
    again with every count times 2**-s, for the least s >= 0 with
    bit_length(3n) + max over PMCs of (exponent of |c| + exponent of the
    largest of its three counts) - s <= 1023."""
    lhs, rhs, scale = conservation_gap_by_names(model, vec_a, vec_b, composed)
    if not (math.isfinite(lhs) and math.isfinite(rhs) and math.isfinite(scale)):
        top = 0
        for name, coefficient in zip(model.pmc_names, model.coefficients):
            largest = max(abs(vector.get(name)) for vector in (vec_a, vec_b, composed))
            top = max(top, math.frexp(coefficient)[1] + math.frexp(largest)[1])
        shift = max(top + (3 * len(model.pmc_names)).bit_length() - 1023, 0)
        scaled = [
            PmcVector(v.names, tuple(math.ldexp(c, -shift) for c in v.counts))
            for v in (vec_a, vec_b, composed)
        ]
        lhs, rhs, scale = conservation_gap_by_names(model, *scaled)
    return abs(lhs - rhs) > tol * scale


def _require_zero_intercept_by_loops(model, what):
    if model.intercept != 0.0:
        raise ValueError(
            f"{what} is defined for zero-intercept models; this model has "
            f"intercept {model.intercept!r}"
        )


def weak_composability_by_loops(model, pairs, default, overrides, tol=1e-12):
    """(ok, counterexamples) over explicit pairs, one pair at a time."""
    _require_zero_intercept_by_loops(model, "weak composability")
    counterexamples = []
    for run_a, run_b in pairs:
        vec_a = run_a.pmc if isinstance(run_a, ApplicationRun) else run_a
        vec_b = run_b.pmc if isinstance(run_b, ApplicationRun) else run_b
        composed = compose_by_names(run_a, run_b, default, overrides)
        if breaks_conservation_by_names(model, vec_a, vec_b, composed, tol):
            lhs, rhs, _ = conservation_gap_by_names(model, vec_a, vec_b, composed)
            counterexamples.append(CompositionCounterexample(vec_a, vec_b, composed, lhs, rhs))
    return not counterexamples, counterexamples


def draw_counts_by_formula(rng, count):
    """The stream's next ``count`` counts, one scalar draw at a time: each is
    ldexp(1 + u1, floor(u2 * octaves)) of its next two values, for the 37
    octaves of REFERENCE_COUNT_RANGE."""
    octaves = int(math.log2(REFERENCE_COUNT_RANGE[1]))
    return [math.ldexp(1.0 + rng.random(), math.floor(rng.random() * octaves))
            for _ in range(count)]


def draw_pair_by_formula(names, rng):
    """The next trial of a clause stream: the first run's counts, then the second's."""
    counts = draw_counts_by_formula(rng, 2 * len(names))
    return PmcVector(names, tuple(counts[:len(names)])), PmcVector(names, tuple(counts[len(names):]))


def strong_composability_by_loops(model, trials=100, seed=0, *, delta=1.0, tol=1e-12):
    """The strong check with its additive clause and each planted operator
    in a loop of their own."""
    _require_zero_intercept_by_loops(model, "strong composability")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if delta == 0.0 or not math.isfinite(delta):
        raise ValueError(f"delta must be finite and nonzero, got {delta!r}")

    names = model.pmc_names
    additive_counterexamples = []
    rng = np.random.default_rng([seed, 0, 0])
    for trial in range(trials):
        vec_a, vec_b = draw_pair_by_formula(names, rng)
        composed = compose_by_names(vec_a, vec_b, SUM, {})
        if breaks_conservation_by_names(model, vec_a, vec_b, composed, tol):
            lhs, rhs, _ = conservation_gap_by_names(model, vec_a, vec_b, composed)
            additive_counterexamples.append(
                CompositionCounterexample(vec_a, vec_b, composed, lhs, rhs)
            )

    detections = []
    for op_ordinal, operator in ((1, MAX), (2, sum_plus_delta(delta))):
        for k, coefficient in enumerate(model.coefficients, start=1):
            if coefficient == 0.0:
                continue
            witness = None
            used = trials
            rng = np.random.default_rng([seed, op_ordinal, k])
            for trial in range(trials):
                vec_a, vec_b = draw_pair_by_formula(names, rng)
                composed = compose_by_names(vec_a, vec_b, SUM, {k: operator})
                if breaks_conservation_by_names(model, vec_a, vec_b, composed, tol):
                    lhs, rhs, _ = conservation_gap_by_names(model, vec_a, vec_b, composed)
                    witness = CompositionCounterexample(vec_a, vec_b, composed, lhs, rhs)
                    used = trial + 1
                    break
            detections.append(
                OperatorDetection(
                    operator=operator,
                    pmc_index=k,
                    pmc_name=names[k - 1],
                    detected=witness is not None,
                    trials_used=used,
                    witness=witness,
                )
            )

    return ComposabilityReport(
        trials=trials,
        seed=seed,
        delta=delta,
        applicable=any(c != 0.0 for c in model.coefficients),
        additive_ok=not additive_counterexamples,
        additive_counterexamples=tuple(additive_counterexamples),
        detections=tuple(detections),
    )


def generate_cases_by_formula(model, n_cases, seed=0, noise_sigma=0.0):
    """Synthetic (pmc, measured) cases: every case's counts from the stream
    [seed], case by case, then every case's noise from the same stream."""
    rng = np.random.default_rng(seed)
    vectors = [
        PmcVector(model.pmc_names, tuple(draw_counts_by_formula(rng, len(model.pmc_names))))
        for _ in range(n_cases)
    ]
    cases = []
    for vec in vectors:
        measured = predict_by_names(model, vec)
        if noise_sigma > 0:
            measured += float(rng.normal(0.0, noise_sigma))
        cases.append((vec, measured))
    return cases
