import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emodel import (
    DataFormatError,
    EnergyFunction,
    PartitionResult,
    energy_loss,
    load_energy_function,
    partition,
    slice_at_n,
)
from helpers import partition_by_enumeration, random_energy_function

G = 512


def grid_function(proc, n, energy_of, g=G, skip=()):
    samples = [
        (x, n, float(energy_of(x)))
        for x in range(g, n, g)
        if x not in skip
    ]
    return EnergyFunction(proc, tuple(samples), g)


# --- the function table ----------------------------------------------------


def test_samples_are_normalized_sorted():
    func = EnergyFunction(
        "p1", ((1024, 2048, 5.0), (512, 1024, 1.0), (512, 2048, 4.0)), 512
    )
    assert func.samples == (
        (512, 1024, 1.0),
        (512, 2048, 4.0),
        (1024, 2048, 5.0),
    )
    assert func.lookup(512, 2048) == 4.0
    assert func.lookup(512, 512) is None


def test_function_validation():
    with pytest.raises(ValueError, match="duplicate"):
        EnergyFunction("p1", ((512, 512, 1.0), (512, 512, 2.0)), 512)
    with pytest.raises(ValueError, match="multiple"):
        EnergyFunction("p1", ((500, 512, 1.0),), 512)
    with pytest.raises(ValueError, match="multiple"):
        EnergyFunction("p1", ((0, 512, 1.0),), 512)
    with pytest.raises(ValueError, match=">= 0"):
        EnergyFunction("p1", ((512, 512, -1.0),), 512)
    with pytest.raises(ValueError, match="granularity"):
        EnergyFunction("p1", ((512, 512, 1.0),), 0)


def test_slice_at_n():
    func = grid_function("p1", 2048, lambda x: x / 512)
    curve = slice_at_n(func, 2048)
    assert curve == ((512, 1.0), (1024, 2.0), (1536, 3.0))
    with pytest.raises(ValueError, match="multiple"):
        slice_at_n(func, 1000)
    with pytest.raises(ValueError, match="no samples"):
        slice_at_n(func, 1024)


# --- partitioning ----------------------------------------------------------


def test_partition_symmetric_quadratic():
    n = 4096
    func1 = grid_function("p1", n, lambda x: (x / 512) ** 2)
    func2 = grid_function("p2", n, lambda x: (x / 512) ** 2)
    result = partition(func1, func2, n)
    assert (result.m, result.k) == (2048, 2048)
    assert result.e1_j == result.e2_j == 16.0
    assert result.total_j == 32.0


def test_partition_prefers_cheap_processor():
    n = 4096
    func1 = grid_function("fast", n, lambda x: x / 512)        # linear cost
    func2 = grid_function("slow", n, lambda x: 10.0 * x / 512)
    result = partition(func1, func2, n)
    # pushing work onto the linear-cost processor wins
    assert result.m == n - 512
    assert result.k == 512
    assert result.total_j == 7.0 + 10.0


def test_partition_tie_breaks_to_smallest_m():
    n = 2048
    func1 = grid_function("p1", n, lambda x: 5.0)
    func2 = grid_function("p2", n, lambda x: 5.0)
    result = partition(func1, func2, n)
    assert result.m == 512
    assert result.total_j == 10.0


def test_partition_skips_missing_samples():
    n = 2048
    # the would-be optimum m=512 is missing on processor one
    func1 = grid_function("p1", n, lambda x: (x / 512) ** 3, skip={512})
    func2 = grid_function("p2", n, lambda x: 0.0)
    result = partition(func1, func2, n)
    assert result.m == 1024
    with_all = partition(grid_function("p1", n, lambda x: (x / 512) ** 3), func2, n)
    assert with_all.m == 512


def test_partition_no_feasible_split():
    n = 2048
    func1 = grid_function("p1", n, lambda x: 1.0, skip={512, 1024, 1536})
    func2 = grid_function("p2", n, lambda x: 1.0)
    with pytest.raises(ValueError, match="no feasible"):
        partition(func1, func2, n)


def test_partition_argument_validation():
    func1 = grid_function("p1", 2048, lambda x: 1.0)
    func2 = grid_function("p2", 2048, lambda x: 1.0, g=256)
    with pytest.raises(ValueError, match="granularities differ"):
        partition(func1, func2, 2048)
    same = grid_function("p2", 2048, lambda x: 1.0)
    with pytest.raises(ValueError):
        partition(func1, same, 2047)
    with pytest.raises(ValueError):
        partition(func1, same, 512)


def test_partition_interpolates_holes():
    n = 2560
    # processor one is linear in x with an interior hole at x=1024;
    # processor two is cheap only at k=1536, which pairs with that hole
    func1 = grid_function("p1", n, lambda x: x / 512, skip={1024})
    func2 = grid_function("p2", n, lambda x: 1.0 if x == 1536 else 50.0)
    result = partition(func1, func2, n, interpolate=True)
    assert result.m == 1024
    assert result.e1_j == pytest.approx(2.0)  # exact: the curve is linear
    assert result.total_j == pytest.approx(3.0)
    # without interpolation the hole forces a worse split
    assert partition(func1, func2, n).m == 512


def test_interpolation_cannot_extrapolate():
    n = 3072
    # x=512 has no left neighbor on the slice: interpolation cannot reach it
    func1 = grid_function("p1", n, lambda x: x / 512, skip={512})
    func2 = grid_function("p2", n, lambda x: 1.0)
    result = partition(func1, func2, n, interpolate=True)
    assert result.m == 1024  # hole at the boundary stays infeasible


@pytest.mark.parametrize("seed", range(5))
def test_interpolated_partition_matches_numpy_interp(seed):
    n = 16384
    func1 = random_energy_function(seed, "p1", n, drop_probability=0.3)
    func2 = random_energy_function(seed + 500, "p2", n, drop_probability=0.3)
    xs1, es1 = zip(*slice_at_n(func1, n))
    xs2, es2 = zip(*slice_at_n(func2, n))
    # Feasible splits lie inside both hulls; numpy.interp fills the holes.
    candidates = [
        (float(np.interp(m, xs1, es1) + np.interp(n - m, xs2, es2)), m)
        for m in range(G, n - G + 1, G)
        if xs1[0] <= m <= xs1[-1] and xs2[0] <= n - m <= xs2[-1]
    ]
    total, m = min(candidates)
    result = partition(func1, func2, n, interpolate=True)
    assert result.m == m
    assert result.total_j == pytest.approx(total, rel=1e-12)


def test_interpolation_outside_both_hulls_has_no_split():
    n = 8 * G
    # Both slices cover only x in [G, 2G]: every split needs k >= 6G on one side.
    func1 = grid_function("p1", n, lambda x: 1.0, skip=range(3 * G, n, G))
    func2 = grid_function("p2", n, lambda x: 1.0, skip=range(3 * G, n, G))
    with pytest.raises(ValueError, match="no feasible split"):
        partition(func1, func2, n, interpolate=True)


@pytest.mark.parametrize("seed", range(10))
def test_partition_matches_enumeration(seed):
    n = 8192
    func1 = random_energy_function(seed, "p1", n, drop_probability=0.2)
    func2 = random_energy_function(seed + 1000, "p2", n, drop_probability=0.2)
    expected = partition_by_enumeration(func1, func2, n)
    if expected is None:
        with pytest.raises(ValueError):
            partition(func1, func2, n)
        return
    result = partition(func1, func2, n)
    assert (result.m, result.k) == expected[:2]
    assert result.e1_j == expected[2]
    assert result.e2_j == expected[3]
    assert result.total_j == expected[4]


@given(seed=st.integers(0, 10_000))
def test_interpolation_agrees_on_complete_tables(seed):
    n = 4096
    func1 = random_energy_function(seed, "p1", n)
    func2 = random_energy_function(seed + 1, "p2", n)
    assert partition(func1, func2, n) == partition(func1, func2, n, interpolate=True)


def test_result_validation():
    with pytest.raises(ValueError):
        PartitionResult(m=0, k=5, e1_j=0.0, e2_j=1.0, total_j=1.0)
    with pytest.raises(ValueError, match="total"):
        PartitionResult(m=1, k=1, e1_j=1.0, e2_j=1.0, total_j=3.0)
    payload = PartitionResult(1, 2, 1.5, 2.5, 4.0).to_json_dict()
    assert payload == {"m": 1, "k": 2, "e1_j": 1.5, "e2_j": 2.5, "total_j": 4.0}


# --- energy loss -----------------------------------------------------------


def test_energy_loss_signed():
    assert energy_loss(110.0, 100.0) == pytest.approx(10.0)
    assert energy_loss(90.0, 100.0) == pytest.approx(-10.0)
    assert energy_loss(100.0, 100.0) == 0.0
    assert energy_loss(0.0, 50.0) == -100.0


def test_energy_loss_validation():
    with pytest.raises(ValueError):
        energy_loss(10.0, 0.0)
    with pytest.raises(ValueError):
        energy_loss(10.0, -5.0)
    with pytest.raises(ValueError):
        energy_loss(-1.0, 10.0)


# --- CSV loading -----------------------------------------------------------


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_energy_function(tmp_path):
    path = write(
        tmp_path / "cpu.csv",
        "x,y,energy_j\n512,1024,2.5\n1024,1024,4.0\n",
    )
    func = load_energy_function(path)
    assert func.processor_id == "cpu"
    assert func.granularity_g == 512
    assert func.samples == ((512, 1024, 2.5), (1024, 1024, 4.0))


def test_load_infers_gcd_granularity(tmp_path):
    path = write(
        tmp_path / "f.csv",
        "x,y,energy_j\n512,1280,1.0\n768,1280,2.0\n",
    )
    assert load_energy_function(path).granularity_g == 256


def test_load_explicit_granularity_enforced(tmp_path):
    path = write(tmp_path / "f.csv", "x,y,energy_j\n512,1024,1.0\n")
    func = load_energy_function(path, processor_id="gpu", granularity=256)
    assert func.processor_id == "gpu"
    assert func.granularity_g == 256
    with pytest.raises(DataFormatError, match="multiple"):
        load_energy_function(path, granularity=300)


def test_load_rejects_bad_files(tmp_path):
    cases = [
        ("head.csv", "a,b,c\n1,2,3\n", "expected header"),
        ("intx.csv", "x,y,energy_j\n1.5,512,1.0\n", "must be integers"),
        ("neg.csv", "x,y,energy_j\n512,512,-1.0\n", ">= 0"),
        ("zero.csv", "x,y,energy_j\n0,512,1.0\n", ">= 1"),
        ("cells.csv", "x,y,energy_j\n512,512\n", "expected 3 cells"),
        ("empty.csv", "x,y,energy_j\n", "no samples"),
        ("bad_e.csv", "x,y,energy_j\n512,512,watts\n", "non-numeric"),
    ]
    for name, text, message in cases:
        path = write(tmp_path / name, text)
        with pytest.raises(DataFormatError, match=message):
            load_energy_function(path)


def test_load_reports_row_numbers(tmp_path):
    path = write(
        tmp_path / "f.csv",
        "x,y,energy_j\n512,512,1.0\n512,1024,oops\n",
    )
    with pytest.raises(DataFormatError, match="row 3"):
        load_energy_function(path)


def test_load_skips_blank_lines(tmp_path):
    path = write(
        tmp_path / "f.csv",
        "x,y,energy_j\n\n512,512,1.0\n\n",
    )
    assert len(load_energy_function(path).samples) == 1


def test_load_duplicate_sample_rejected(tmp_path):
    path = write(
        tmp_path / "f.csv",
        "x,y,energy_j\n512,512,1.0\n512,512,2.0\n",
    )
    with pytest.raises(DataFormatError, match="duplicate"):
        load_energy_function(path)


def test_load_names_the_expected_header_before_duplicate_columns(tmp_path):
    path = write(tmp_path / "f.csv", "x,x,energy_j\n512,512,1.0\n")
    with pytest.raises(DataFormatError,
                       match=r"expected header 'x,y,energy_j', got 'x,x,energy_j'$"):
        load_energy_function(path)


def test_load_row_numbers_count_blank_rows(tmp_path):
    path = write(tmp_path / "f.csv", "x,y,energy_j\n\n512,512,1.0\n\n512,1024,oops\n")
    with pytest.raises(DataFormatError, match=r"row 5, column 'energy_j': non-numeric cell 'oops'$"):
        load_energy_function(path)
