"""Dynamic-energy arithmetic, confidence-interval sample means, and error metrics.

All energies are joules, powers are watts, times are seconds. Every function
here is pure; the only side effect anywhere is a warning on a negative
dynamic-energy result, which signals a measurement fault rather than a usage
error.
"""

from __future__ import annotations

import math
import warnings

from ._common import _Record


class MeasurementFaultWarning(UserWarning):
    """A measured quantity is physically implausible (e.g. total energy below
    the static baseline). The value is still returned so the evidence is not
    destroyed."""


def dynamic_energy(total_energy_j: float, static_power_w: float, exec_time_s: float) -> float:
    """Dynamic energy of a run: total energy minus the static baseline.

    Returns ``total_energy_j - static_power_w * exec_time_s``. A negative
    result is returned as-is but flagged with :class:`MeasurementFaultWarning`:
    a real run cannot consume less than the idle platform, so a negative value
    means the measurement itself is suspect.
    """
    for name, value in (("total_energy_j", total_energy_j),
                        ("static_power_w", static_power_w),
                        ("exec_time_s", exec_time_s)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if static_power_w < 0:
        raise ValueError(f"static_power_w must be >= 0, got {static_power_w!r}")
    if exec_time_s <= 0:
        raise ValueError(f"exec_time_s must be > 0, got {exec_time_s!r}")
    result = total_energy_j - static_power_w * exec_time_s
    if result < 0:
        warnings.warn(
            f"dynamic energy {result!r} J is negative: measured total "
            f"{total_energy_j!r} J is below the static baseline "
            f"{static_power_w * exec_time_s!r} J",
            MeasurementFaultWarning,
            stacklevel=2,
        )
    return result


class MeanEstimate(_Record):
    """Sample mean with a two-sided Student-t confidence half-width.

    ``converged`` is true when the half-width is within ``precision * |mean|``.
    ``relative_undefined`` marks the degenerate case of a zero mean with
    non-zero spread, where relative precision has no meaning.
    """

    __slots__ = _FIELDS = (
        "mean", "half_width", "n", "converged", "relative_undefined")

    def __init__(self, mean: float, half_width: float, n: int, converged: bool,
                 relative_undefined: bool = False) -> None:
        self._set(mean, half_width, n, converged, relative_undefined)
        if not half_width >= 0:
            raise ValueError(f"half_width must be >= 0, got {half_width!r}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n!r}")


def sample_mean_ci(samples, confidence: float = 0.95, precision: float = 0.025) -> MeanEstimate:
    """Mean of repeated observations with a Student-t confidence interval.

    ``half_width = t(1 - (1-confidence)/2, n-1) * s / sqrt(n)`` with s the
    sample standard deviation. The estimate converges when the half-width is
    at most ``precision`` times the magnitude of the mean (defaults: 95%
    confidence, 2.5% precision). A sample that is not finite is rejected.
    """
    xs = [float(x) for x in samples]
    n = len(xs)
    if n < 2:
        raise ValueError(f"need at least 2 samples for a variance estimate, got {n}")
    for position, x in enumerate(xs, 1):
        if not math.isfinite(x):
            raise ValueError(f"sample {position} is not finite: {x!r}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    if not precision > 0:
        raise ValueError(f"precision must be > 0, got {precision!r}")

    mean = math.fsum(xs) / n
    ss = math.fsum((x - mean) ** 2 for x in xs)
    std = math.sqrt(ss / (n - 1))
    quantile = student_t_quantile(1.0 - (1.0 - confidence) / 2.0, n - 1)
    half_width = quantile * std / math.sqrt(n)

    if half_width == 0.0:
        return MeanEstimate(mean, 0.0, n, converged=True)
    if mean == 0.0:
        return MeanEstimate(mean, half_width, n, converged=False, relative_undefined=True)
    return MeanEstimate(mean, half_width, n, converged=half_width <= precision * abs(mean))


def percent_error(predicted: float, measured: float) -> float:
    """Absolute prediction error as a percentage of the measured value."""
    if measured <= 0:
        raise ValueError(f"measured must be > 0, got {measured!r}")
    return abs(predicted - measured) / measured * 100.0


def dynamic_error_from_total(total_pred: float, total_meas: float, static_j: float) -> float:
    """Prediction error on dynamic energy, given totals and the static share.

    Subtracting the static energy from both sides converts a total-energy
    error into the (larger) error on the dynamic component alone.
    """
    if static_j < 0:
        raise ValueError(f"static_j must be >= 0, got {static_j!r}")
    if total_meas <= static_j:
        raise ValueError(
            f"measured dynamic energy must be > 0: total {total_meas!r} J "
            f"does not exceed static share {static_j!r} J"
        )
    return percent_error(total_pred - static_j, total_meas - static_j)


def student_t_quantile(p: float, df: float) -> float:
    """Inverse CDF of Student's t distribution.

    Computed by bisection on the CDF, which is evaluated through the
    regularized incomplete beta function; accurate to well over 10
    significant digits for any df >= 1.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p!r}")
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df!r}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -student_t_quantile(1.0 - p, df)

    target = p
    lo, hi = 0.0, 1.0
    while _student_t_cdf(hi, df) < target:
        hi *= 2.0
        if hi > 1e300:
            raise ArithmeticError("t quantile bracket expansion failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _student_t_cdf(mid, df) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _student_t_cdf(t: float, df: float) -> float:
    if t < 0:
        return 1.0 - _student_t_cdf(-t, df)
    x = df / (df + t * t)
    return 1.0 - 0.5 * _regularized_incomplete_beta(0.5 * df, 0.5, x)


def _regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) via the continued-fraction expansion (modified Lentz)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    # The continued fraction converges fast only for x below the mean; use
    # the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the far side.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    eps = 1e-16

    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")
