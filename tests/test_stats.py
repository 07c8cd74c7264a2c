import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from emodel import (
    MeanEstimate,
    MeasurementFaultWarning,
    dynamic_energy,
    dynamic_error_from_total,
    percent_error,
    sample_mean_ci,
    student_t_quantile,
)


def test_dynamic_energy_arithmetic():
    assert dynamic_energy(5800, 58, 100) == 0
    assert dynamic_energy(18000, 90, 100) == 9000


def test_dynamic_energy_negative_is_returned_and_flagged():
    with pytest.warns(MeasurementFaultWarning):
        assert dynamic_energy(100, 58, 2) == -16


def test_dynamic_energy_input_validation():
    with pytest.raises(ValueError):
        dynamic_energy(math.nan, 1.0, 1.0)
    with pytest.raises(ValueError):
        dynamic_energy(10.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        dynamic_energy(10.0, 1.0, 0.0)


@given(
    total=st.integers(0, 10**9),
    power=st.integers(0, 10**4),
    time_s=st.integers(1, 10**4),
)
def test_dynamic_energy_round_trip_is_exact_on_integers(total, power, time_s):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MeasurementFaultWarning)
        assert dynamic_energy(total, power, time_s) + power * time_s == total


def test_constant_samples_converge_with_zero_half_width():
    estimate = sample_mean_ci([5.0, 5.0, 5.0])
    assert estimate.mean == 5.0
    assert estimate.half_width == 0.0
    assert estimate.converged
    assert not estimate.relative_undefined


def test_two_sample_half_width_equals_t_quantile():
    # s = sqrt(2), so the half-width collapses to t(0.975, 1) itself
    estimate = sample_mean_ci([10.0, 12.0])
    assert estimate.mean == 11.0
    assert estimate.half_width == pytest.approx(12.7062, abs=5e-5)
    assert not estimate.converged


def test_zero_mean_with_spread_is_not_converged():
    estimate = sample_mean_ci([-1.0, 1.0])
    assert estimate.mean == 0.0
    assert estimate.relative_undefined
    assert not estimate.converged


def test_single_sample_rejected():
    with pytest.raises(ValueError):
        sample_mean_ci([3.0])


def test_parameter_validation():
    with pytest.raises(ValueError):
        sample_mean_ci([1.0, 2.0], confidence=1.0)
    with pytest.raises(ValueError):
        sample_mean_ci([1.0, 2.0], precision=0.0)
    with pytest.raises(ValueError, match="precision must be > 0, got nan"):
        sample_mean_ci([1.0, 2.0], precision=math.nan)
    with pytest.raises(ValueError, match="sample 1 is not finite: nan"):
        sample_mean_ci([math.nan, 1.0, 2.0])
    with pytest.raises(ValueError, match="sample 3 is not finite: -inf"):
        sample_mean_ci([1.0, 2.0, -math.inf])
    with pytest.raises(ValueError, match="half_width must be >= 0, got nan"):
        MeanEstimate(math.nan, math.nan, 3, True)


@dataclasses.dataclass(frozen=True)
class FrozenMeanEstimate:
    """The frozen dataclass that MeanEstimate once was: its oracle for ==,
    hash, repr, the field dict and assignment."""

    mean: float
    half_width: float
    n: int
    converged: bool
    relative_undefined: bool = False


def test_mean_estimate_behaves_as_a_frozen_dataclass():
    for args, kwargs in [((1.0, 0.5, 3, False), {}), ((0.0, 0.5, 3, False),
                                                      {"relative_undefined": True})]:
        estimate, frozen = MeanEstimate(*args, **kwargs), FrozenMeanEstimate(*args, **kwargs)
        assert repr(estimate) == repr(frozen).replace("FrozenMeanEstimate", "MeanEstimate")
        assert hash(estimate) == hash(frozen)
        assert estimate._asdict() == dataclasses.asdict(frozen)
        assert estimate == MeanEstimate(*args, **kwargs) != frozen
        assert pickle.loads(pickle.dumps(estimate)) == estimate
        for record in (estimate, frozen):
            with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
                record.n = 4
    assert MeanEstimate(1.0, 0.5, 3, False) != MeanEstimate(1.0, 0.5, 3, True)


def test_tight_stream_converges_at_default_precision():
    rng = np.random.default_rng(42)
    samples = 100.0 + rng.normal(0.0, 1.0, size=30)
    assert sample_mean_ci(samples).converged


def test_half_width_non_increasing_in_n_at_fixed_variance():
    samples = [100.0, 102.0] * 20
    widths = [sample_mean_ci(samples[:n]).half_width for n in range(2, 41, 2)]
    assert all(a >= b for a, b in zip(widths, widths[1:]))


def test_percent_error_values():
    assert percent_error(16500, 18000) == pytest.approx(8.3333, abs=5e-3)
    assert percent_error(7500, 9000) == pytest.approx(16.6667, abs=5e-3)
    assert percent_error(42.0, 42.0) == 0.0


def test_percent_error_rejects_nonpositive_measured():
    with pytest.raises(ValueError):
        percent_error(1.0, 0.0)
    with pytest.raises(ValueError):
        percent_error(1.0, -5.0)


@given(
    predicted=st.floats(-1e6, 1e6),
    measured=st.floats(0.001, 1e6),
    k=st.floats(0.001, 1e6),
)
def test_percent_error_scale_invariance(predicted, measured, k):
    baseline = percent_error(predicted, measured)
    scaled = percent_error(k * predicted, k * measured)
    assert scaled == pytest.approx(baseline, rel=1e-9, abs=1e-9)


def test_dynamic_error_from_total_examples():
    assert dynamic_error_from_total(16500, 18000, 9000) == pytest.approx(16.6667, abs=5e-3)
    assert dynamic_error_from_total(9500, 10000, 7000) == pytest.approx(16.6667, abs=5e-3)
    assert dynamic_error_from_total(9500, 10000, 4000) == pytest.approx(8.3333, abs=5e-3)


def test_dynamic_error_with_zero_static_is_percent_error():
    assert dynamic_error_from_total(123.0, 456.0, 0.0) == percent_error(123.0, 456.0)


def test_dynamic_error_validation():
    with pytest.raises(ValueError):
        dynamic_error_from_total(100.0, 90.0, 90.0)
    with pytest.raises(ValueError):
        dynamic_error_from_total(100.0, 90.0, -1.0)


@pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 29, 100, 500])
@pytest.mark.parametrize("p", [0.55, 0.6, 0.75, 0.9, 0.95, 0.975, 0.995, 0.9999])
def test_t_quantile_matches_scipy(p, df):
    ours = student_t_quantile(p, df)
    reference = scipy_stats.t.ppf(p, df)
    assert ours == pytest.approx(reference, rel=1e-9, abs=1e-12)


def test_t_quantile_symmetry_and_median():
    assert student_t_quantile(0.5, 7) == 0.0
    assert student_t_quantile(0.025, 7) == pytest.approx(-student_t_quantile(0.975, 7), rel=1e-12)


def test_t_quantile_domain():
    with pytest.raises(ValueError):
        student_t_quantile(0.0, 3)
    with pytest.raises(ValueError):
        student_t_quantile(1.0, 3)
    with pytest.raises(ValueError):
        student_t_quantile(0.9, 0)


@settings(max_examples=30)
@given(
    df=st.integers(1, 60),
    p_low=st.floats(0.51, 0.98),
    bump=st.floats(0.001, 0.019),
)
def test_t_quantile_monotone_in_p(df, p_low, bump):
    assert student_t_quantile(p_low + bump, df) > student_t_quantile(p_low, df)
