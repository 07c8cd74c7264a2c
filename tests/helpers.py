"""Shared fixture builders and independent oracles used across the test suite.

The oracles here are deliberately written differently from the library code
they check: exhaustive enumeration instead of active sets, candidate-list
scans instead of streaming argmins.
"""

import math
import statistics
from itertools import combinations

import numpy as np

from emodel import (
    ApplicationRun,
    CompoundRun,
    Dataset,
    EnergyFunction,
    PmcVector,
    RunConfig,
    RunRef,
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
    ties to the smallest m. Returns (m, k, e1, e2, total) or None."""
    g = func1.granularity_g
    candidates = []
    for m in range(g, n - g + 1, g):
        e1 = func1.lookup(m, n)
        e2 = func2.lookup(n - m, n)
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
