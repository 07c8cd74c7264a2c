"""Seeded input generator for the benchmark workloads, with planted truth.

Every workload has the same three parts: a runs CSV, a compounds CSV and a
pair of energy-function CSVs. The sizes decide which layer a workload
stresses; the part a workload does not stress is kept small, so that every
layer runs (and every per-layer metric is measured) on every workload.

The generator knows the answer it planted: which PMCs fail stage 1
(irreproducible across repetitions), which fail stage 2 (compound sums off
by a planted maximum error), and which grid samples of the energy functions
were dropped. Only the "energy" PMCs carry energy; the additive "unrelated"
ones and every PMC that fails a stage have a zero coefficient.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

GRANULARITY = 64
TOLERANCE_PCT = 5.0
SWEEP = (5.0, 10.0, 20.0)
DROP_SHARE = 0.3
# Planted maximum stage-2 errors fall in these bands (percent), away from
# the tolerance and every sweep level, so the verdicts have a wide margin.
NONADDITIVE_BANDS = ((6.0, 9.0), (11.0, 18.0), (25.0, 50.0))


@dataclass(frozen=True)
class RunsSpec:
    groups: int
    reps: int
    energy: int        # additive PMCs that carry energy
    unrelated: int     # additive PMCs with zero energy
    irreproducible: int
    nonadditive: int
    compounds: int
    total_energy: bool  # write total_energy_j + static_power_w

    @property
    def pmcs(self) -> int:
        return self.energy + self.unrelated + self.irreproducible + self.nonadditive


@dataclass(frozen=True)
class Workload:
    name: str
    runs: RunsSpec
    slices: tuple[int, ...]  # y slices of the energy functions, in granules


SMALL_RUNS = RunsSpec(groups=20, reps=3, energy=3, unrelated=2, irreproducible=1,
                      nonadditive=2, compounds=20, total_energy=False)
SMALL_SLICES = (100,)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "repeats",
            RunsSpec(groups=400, reps=5, energy=16, unrelated=16, irreproducible=12,
                     nonadditive=20, compounds=1600, total_energy=False),
            SMALL_SLICES,
        ),
        Workload(
            "tall",
            RunsSpec(groups=10000, reps=1, energy=8, unrelated=6, irreproducible=0,
                     nonadditive=10, compounds=200, total_energy=True),
            SMALL_SLICES,
        ),
        Workload(
            "partition",
            SMALL_RUNS,
            (500, 1000, 1500, 2000),
        ),
    )
}


@dataclass
class Inputs:
    """Paths of the generated files plus the truth planted in them."""

    runs_csv: str
    compounds_csv: str
    func_csvs: tuple[str, str]
    slices_n: tuple[int, ...]         # partition sizes n, in rows
    pmc_names: tuple[str, ...]
    stage1_fail: frozenset[str]
    nonadditive_max_pct: dict[str, float]
    counts: np.ndarray                # runs x PMCs, exactly as written
    energy: np.ndarray                # dynamic energy per run, as the loader computes it
    compound_counts: np.ndarray
    compound_energy: np.ndarray
    tables: tuple[dict, dict]         # kept samples {(x, y): energy}; the rest was dropped
    bytes_in: dict[str, int] = field(default_factory=dict)

    def expected_additive(self) -> tuple[str, ...]:
        return tuple(
            n for n in self.pmc_names
            if n not in self.stage1_fail and n not in self.nonadditive_max_pct
        )

    def expected_sweep(self) -> list[tuple[float, int]]:
        base = len(self.expected_additive())
        return [
            (t, base + sum(1 for n, e in self.nonadditive_max_pct.items()
                           if n not in self.stage1_fail and e <= t))
            for t in SWEEP
        ]


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _cells(values) -> list[str]:
    return [repr(float(v)) for v in values]


def _runs(spec: RunsSpec, rng: np.random.Generator, workdir: str):
    p = spec.pmcs
    names = tuple(f"P{j:02d}" for j in range(p))
    kinds = np.array(
        ["energy"] * spec.energy + ["unrelated"] * spec.unrelated
        + ["irreproducible"] * spec.irreproducible + ["nonadditive"] * spec.nonadditive
    )[rng.permutation(p)]
    stage1_fail = frozenset(n for n, k in zip(names, kinds) if k == "irreproducible")
    bands = [NONADDITIVE_BANDS[i % len(NONADDITIVE_BANDS)] for i in range(spec.nonadditive)]
    nonadditive = {
        n: float(rng.uniform(*bands.pop()))
        for n, k in zip(names, kinds) if k == "nonadditive"
    }
    coef = np.where(kinds == "energy", 10.0 ** rng.uniform(-8, -6, p), 0.0)

    # Counts stay within [1e3, 1e7]: with an intercept column the QR diagonal
    # ratio must stay far above the library's rank threshold.
    g, r = spec.groups, spec.reps
    base = 10.0 ** rng.uniform(3, 7, (g, p))
    spread = np.where(kinds == "irreproducible", 0.3, 0.005)
    counts = base[:, None, :] * (1 + rng.uniform(-1, 1, (g, r, p)) * spread)
    counts = counts.reshape(g * r, p)
    times = np.repeat(10.0 ** rng.uniform(-1, 2, g), r) * (1 + rng.uniform(-0.005, 0.005, g * r))
    dynamic = (counts @ coef) * (1 + rng.uniform(-0.01, 0.01, g * r))
    cores = rng.choice([1, 2, 4, 8, 16], g)
    sizes = rng.integers(1, 1 << 20, g)
    apps = [f"app{i:05d}" for i in range(g)]
    refs = [f"{apps[i]}@{cores[i]}:n{sizes[i]}" for i in range(g)]

    header = ["app_id", "run_id", "cores", "problem_size", "exec_time_s"]
    if spec.total_energy:
        static = np.repeat(rng.uniform(20, 60, g), r)
        total = dynamic + static * times
        energy = total - static * times  # what the loader computes
        header += ["total_energy_j", "static_power_w"]
        energy_cells = [[repr(float(a)), repr(float(b))] for a, b in zip(total, static)]
    else:
        energy = dynamic
        header += ["dynamic_energy_j"]
        energy_cells = [[repr(float(e))] for e in energy]
    rows = []
    for i in range(g * r):
        grp = i // r
        rows.append(
            [apps[grp], f"r{i % r + 1}", str(cores[grp]), f"n{sizes[grp]}", repr(float(times[i]))]
            + energy_cells[i] + _cells(counts[i])
        )
    runs_csv = os.path.join(workdir, "runs.csv")
    _write_csv(runs_csv, header + list(names), rows)

    means = counts.reshape(g, r, p).mean(axis=1)
    mean_energy = energy.reshape(g, r).mean(axis=1)
    pairs = rng.integers(0, g, (spec.compounds, 2))
    same = pairs[:, 0] == pairs[:, 1]
    pairs[same, 1] = (pairs[same, 1] + 1) % g
    base_sum = means[pairs[:, 0]] + means[pairs[:, 1]]
    error = rng.uniform(-0.01, 0.01, (spec.compounds, p))
    for j, name in enumerate(names):
        if name in nonadditive:
            top = nonadditive[name] / 100.0
            error[:, j] = rng.uniform(-0.9, 0.9, spec.compounds) * top
            error[rng.integers(spec.compounds), j] = top
    compound_counts = base_sum * (1 + error)
    compound_energy = (mean_energy[pairs[:, 0]] + mean_energy[pairs[:, 1]]) * (
        1 + rng.uniform(-0.01, 0.01, spec.compounds))
    compounds_csv = os.path.join(workdir, "compounds.csv")
    _write_csv(
        compounds_csv,
        ["compound_id", "base_a", "base_b", "dynamic_energy_j"] + list(names),
        (
            [f"c{i:05d}", refs[a], refs[b], repr(float(compound_energy[i]))]
            + _cells(compound_counts[i])
            for i, (a, b) in enumerate(pairs)
        ),
    )
    return dict(
        runs_csv=runs_csv, compounds_csv=compounds_csv, pmc_names=names,
        stage1_fail=stage1_fail, nonadditive_max_pct=nonadditive,
        counts=counts, energy=np.asarray(energy, dtype=float),
        compound_counts=compound_counts, compound_energy=compound_energy,
    )


def _functions(slices: tuple[int, ...], rng: np.random.Generator, workdir: str):
    g = GRANULARITY
    paths, tables = [], []
    for proc, (alpha, beta) in enumerate(((1.0, 0.8), (0.6, 2.5)), start=1):
        table, rows = {}, []
        for s in slices:
            y = s * g
            xs = np.arange(g, y, g)
            energies = alpha * xs * (1 + beta * (xs / y) ** 2) * (1 + rng.uniform(-0.02, 0.02, xs.size))
            keep = rng.random(xs.size) >= DROP_SHARE
            for x, e, k in zip(xs.tolist(), energies.tolist(), keep.tolist()):
                if k:
                    table[(x, y)] = e
                    rows.append([str(x), str(y), repr(e)])
        path = os.path.join(workdir, f"proc{proc}.csv")
        _write_csv(path, ["x", "y", "energy_j"], rows)
        paths.append(path)
        tables.append(table)
    grid_gcd = 0
    for table in tables:
        for x, y in table:
            grid_gcd = math.gcd(grid_gcd, x, y)
    if grid_gcd != g:
        raise RuntimeError(f"generated grid has granularity {grid_gcd}, expected {g}")
    return tuple(paths), tuple(tables)


def generate(workload: Workload, seed: int, workdir: str) -> Inputs:
    """Write the workload's input files under ``workdir`` and return them with the truth."""
    os.makedirs(workdir, exist_ok=True)
    index = list(WORKLOADS).index(workload.name)
    rng = np.random.default_rng([seed, index])
    runs = _runs(workload.runs, rng, workdir)
    func_csvs, tables = _functions(workload.slices, rng, workdir)
    inputs = Inputs(
        func_csvs=func_csvs,
        slices_n=tuple(s * GRANULARITY for s in workload.slices),
        tables=tables,
        **runs,
    )
    inputs.bytes_in = {
        os.path.basename(p): os.path.getsize(p)
        for p in (inputs.runs_csv, inputs.compounds_csv) + func_csvs
    }
    return inputs
