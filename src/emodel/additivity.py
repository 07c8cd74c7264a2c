"""Two-stage additivity testing of PMCs over compound applications.

A PMC is *additive* when (1) its readings are reproducible across repeated
runs of every base application and (2) its value for each compound
application matches the sum of the two base applications' mean values within
a percentage tolerance. Stage 1 guards stage 2: an irreproducible counter is
non-additive no matter how its sums come out.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from ._common import _csv_table, _Record
from .core import CompoundRun, Compounds, Dataset

__all__ = [
    "INFINITE",
    "Classification",
    "PmcAdditivity",
    "AdditivityReport",
    "additivity_error",
    "run_additivity_test",
    "tolerance_sweep",
    "core_config_analysis",
    "report_to_csv",
    "report_to_json_dict",
]

#: Sentinel error for a zero base sum with a nonzero compound count: the
#: relative deviation has no finite value.
INFINITE = math.inf

#: Default stage-1 reproducibility bound: coefficient of variation across
#: repetition samples, matching the measurement methodology's 2.5% precision.
DEFAULT_REPRODUCIBILITY_COV = 0.025

#: PMCs per block of the additivity test: no runs x PMCs temporary is held.
BLOCK_COLUMNS = 8

class Classification(str, Enum):
    ADDITIVE = "additive"
    NON_ADDITIVE = "non_additive"


class PmcAdditivity(_Record):
    """Test outcome for one PMC."""

    __slots__ = _FIELDS = ("pmc", "stage1_pass", "max_error_pct", "classification")

    def __init__(self, pmc: str, stage1_pass: bool, max_error_pct: float,
                 classification: Classification) -> None:
        self._set(pmc, stage1_pass, max_error_pct, classification)
        if self.max_error_pct < 0:
            raise ValueError(f"max_error_pct must be >= 0, got {self.max_error_pct!r}")


class AdditivityReport(_Record):
    """Per-PMC verdicts at one tolerance, plus an error ranking.

    ``ranking`` lists every PMC ordered by max_error_pct ascending, ties
    broken by name; infinite errors sort last.
    """

    __slots__ = _FIELDS = ("tolerance_pct", "per_pmc", "ranking")

    def __init__(self, tolerance_pct: float, per_pmc: Sequence[PmcAdditivity],
                 ranking: Sequence[str]) -> None:
        self._set(tolerance_pct, tuple(per_pmc), tuple(ranking))
        if sorted(self.ranking) != sorted(e.pmc for e in self.per_pmc):
            raise ValueError("ranking is not a permutation of the tested PMC names")

    def entry(self, pmc: str) -> PmcAdditivity:
        for e in self.per_pmc:
            if e.pmc == pmc:
                return e
        raise KeyError(f"PMC {pmc!r} not in report")

    def additive_names(self) -> tuple[str, ...]:
        return tuple(e.pmc for e in self.per_pmc if e.classification is Classification.ADDITIVE)


def additivity_error(base_sum: float, compound: float) -> float:
    """Percent deviation of a compound count from the sum of its base counts.

    Returns :data:`INFINITE` when the base sum is zero but the compound count
    is not; 0.0 when both are zero.
    """
    if base_sum < 0 or compound < 0:
        raise ValueError(
            f"counts must be non-negative, got base_sum={base_sum!r}, compound={compound!r}"
        )
    if base_sum == 0:
        return 0.0 if compound == 0 else INFINITE
    return abs(compound - base_sum) / base_sum * 100.0


def _classify(stage1_pass: bool, max_error_pct: float, tolerance_pct: float) -> Classification:
    if stage1_pass and max_error_pct <= tolerance_pct:
        return Classification.ADDITIVE
    return Classification.NON_ADDITIVE


def _group_cov(values: Sequence[float]) -> float:
    """Coefficient of variation of one PMC across one group's repetitions.

    Counts are non-negative, so a zero mean forces all-zero samples; that is
    perfect reproducibility, not an undefined ratio. Only the cells near the
    stage-1 bound come here, so :mod:`statistics` (which imports
    :mod:`decimal` and :mod:`fractions`) is imported only then.
    """
    import statistics

    mean = math.fsum(values) / len(values)
    if mean == 0:
        return 0.0
    return statistics.stdev(values) / mean


def _stage1(dataset: Dataset, columns: slice, means: np.ndarray, bound: float) -> np.ndarray:
    """Whether each PMC of a block of columns (group means ``means``) has every
    repetition group's CoV within ``bound``.

    A two-pass CoV over all groups and the block's columns at once decides a
    cell unless it lies within 1e-9 of the bound (absolute below 1, where a
    rounded mean puts a zero spread near 1e-16) or the group mean is
    subnormal, so rounded by more than an ulp of itself; those cells get the
    exact :func:`_group_cov`. ``reduceat`` sums a block row by row, where one
    column alone may be summed pairwise: a CoV may move in its last bits, far
    inside that band, and the verdicts are the per-PMC, per-group ones.
    """
    index = dataset.group_index
    repeated = np.flatnonzero(index.sizes >= 2)
    if not repeated.size:
        return np.ones(means.shape[1], dtype=bool)
    # In place: each block's temporaries are runs x BLOCK_COLUMNS.
    scaled = dataset.counts[index.order, columns]
    spread = np.repeat(means, index.sizes, axis=0)
    scaled -= spread
    spread[spread == 0] = 1.0
    scaled /= spread
    scaled *= scaled
    cov = np.add.reduceat(scaled, index.starts, axis=0)[repeated]
    cov /= (index.sizes[repeated] - 1)[:, None]
    np.sqrt(cov, out=cov)
    near = np.abs(cov - bound) <= 1e-9 * np.maximum(np.maximum(cov, bound), 1.0)
    near |= (means[repeated] > 0) & (means[repeated] < np.finfo(float).tiny)
    for i, k in zip(*np.nonzero(near)):
        start, size = index.starts[repeated[i]], index.sizes[repeated[i]]
        rows = index.order[start:start + size]
        cov[i, k] = _group_cov(dataset.counts[rows, columns.start + k].tolist())
    return (cov <= bound).all(axis=0)


def run_additivity_test(
    dataset: Dataset,
    compounds: Sequence[CompoundRun] | None = None,
    tolerance_pct: float = 5.0,
    *,
    reproducibility_cov: float = DEFAULT_REPRODUCIBILITY_COV,
) -> AdditivityReport:
    """Run both test stages for every PMC of the dataset.

    Stage 1 passes a PMC when its coefficient of variation is at most
    ``reproducibility_cov`` in every run group with >= 2 repetition samples.
    Stage 2 compares each compound count against the sum of the two base
    groups' repetition means; ``max_error_pct`` is the maximum over all
    compounds (0.0 when there are none). A PMC is additive iff it passes
    stage 1 and its maximum error does not exceed ``tolerance_pct``.
    Both stages run on blocks of ``BLOCK_COLUMNS`` PMCs, with bit-identical
    stage-2 errors and the per-PMC stage-1 verdicts (see :func:`_stage1`).
    Stage 2 reads a :class:`~emodel.core.Compounds` record resolved against
    ``dataset`` as it is, and checks other compounds with ``check_compounds``.
    """
    if not (tolerance_pct > 0):
        raise ValueError(f"tolerance_pct must be > 0, got {tolerance_pct!r}")
    if not (reproducibility_cov >= 0):
        raise ValueError(f"reproducibility_cov must be >= 0, got {reproducibility_cov!r}")
    compounds = dataset.compounds if compounds is None else compounds
    rows, width = len(compounds), len(dataset.pmc_names)
    if isinstance(compounds, Compounds) and compounds.dataset is dataset:
        groups, counts = (compounds.base_a, compounds.base_b), np.frombuffer(compounds.floats)
    else:
        groups = dataset.check_compounds(compounds)
        counts = np.array([comp.pmc.counts for comp in compounds], dtype=float)
    base_a, base_b = (np.array(group, dtype=np.intp) for group in groups)
    compound_counts = counts.reshape(-1)[:rows * width].reshape(rows, width)
    means = dataset.group_means(dataset.counts)

    per_pmc = []
    for first in range(0, len(dataset.pmc_names), BLOCK_COLUMNS):
        block = slice(first, first + BLOCK_COLUMNS)
        stage1 = _stage1(dataset, block, means[:, block], reproducibility_cov).tolist()
        base_sums, compound = means[base_a, block] + means[base_b, block], compound_counts[:, block]
        with np.errstate(all="ignore"):
            errors = np.subtract(compound, base_sums)
            np.abs(errors, out=errors)
            errors /= base_sums
            errors *= 100.0
        zero = base_sums == 0
        errors[zero] = np.where(compound[zero] == 0, 0.0, INFINITE)
        # fmax skips the NaN of an infinite base sum, as a running Python max does.
        max_errors = np.fmax.reduce(errors, axis=0, initial=0.0).tolist()
        per_pmc += [PmcAdditivity(name, passed, error, _classify(passed, error, tolerance_pct))
                    for name, passed, error in zip(dataset.pmc_names[block], stage1, max_errors)]

    ranking = tuple(e.pmc for e in sorted(per_pmc, key=lambda e: (e.max_error_pct, e.pmc)))
    return AdditivityReport(tolerance_pct=tolerance_pct, per_pmc=tuple(per_pmc), ranking=ranking)


def tolerance_sweep(
    report: AdditivityReport, tolerances: Sequence[float]
) -> list[tuple[float, int]]:
    """Count additive PMCs at each tolerance, reusing the report's raw errors.

    Tolerances must be positive and ascending; the counts are then
    monotonically non-decreasing.
    """
    if not tolerances:
        raise ValueError("tolerances must be non-empty")
    previous = 0.0
    for t in tolerances:
        if not (t > 0):
            raise ValueError(f"tolerances must be positive, got {t!r}")
        if t < previous:
            raise ValueError(f"tolerances must be ascending, got {list(tolerances)}")
        previous = t
    return [
        (
            t,
            sum(
                1
                for e in report.per_pmc
                if _classify(e.stage1_pass, e.max_error_pct, t) is Classification.ADDITIVE
            ),
        )
        for t in tolerances
    ]


def core_config_analysis(
    datasets: Sequence[tuple[int, Dataset]], tolerance_pct: float = 5.0
) -> list[tuple[int, int]]:
    """Count non-additive PMCs per core configuration.

    Each entry pairs a core count with a dataset (compounds included) measured
    at that configuration; all datasets must cover the same PMC name set.
    Returns (cores, non_additive_count) in input order, ready for CSV export.
    """
    if not datasets:
        raise ValueError("need at least one (cores, dataset) configuration")
    reference = set(datasets[0][1].pmc_names)
    for cores, ds in datasets:
        if set(ds.pmc_names) != reference:
            raise ValueError(
                f"configuration with cores={cores} has a different PMC name set"
            )
    out = []
    for cores, ds in datasets:
        report = run_additivity_test(ds, ds.compounds, tolerance_pct)
        non_additive = sum(
            1 for e in report.per_pmc if e.classification is Classification.NON_ADDITIVE
        )
        out.append((cores, non_additive))
    return out


def report_to_csv(report: AdditivityReport) -> str:
    """Serialize a report as ``pmc,stage1,max_error_pct,classification`` rows."""
    return _csv_table(("pmc", "stage1", "max_error_pct", "classification"), [
        (e.pmc, e.stage1_pass, e.max_error_pct, e.classification.value) for e in report.per_pmc
    ])


def report_to_json_dict(report: AdditivityReport) -> dict:
    """JSON-ready form of a report; infinite errors become the string "inf"."""
    return {
        "tolerance_pct": report.tolerance_pct,
        "per_pmc": [
            {
                "pmc": e.pmc,
                "stage1": e.stage1_pass,
                "max_error_pct": "inf" if math.isinf(e.max_error_pct) else e.max_error_pct,
                "classification": e.classification.value,
            }
            for e in report.per_pmc
        ],
        "ranking": list(report.ranking),
    }
