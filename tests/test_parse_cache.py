"""The parse cache under the runs, compounds and energy-function loaders.

A load that finds its file's checked columns in the cache must give what
parsing and checking the file gives, bit for bit. A file with a fault is never
kept, so every load of it gives the same fault text. Everything that keeps the
cache from working must leave the load to parse the file: a missing, short or
garbage entry, a cache directory that cannot be made, a file that is not a
regular file, and a file whose bytes changed. A cache directory that another
user could write to is neither read nor written.
"""

import hashlib
import json
import os
import random
import stat
import struct
import subprocess
import sys
import threading
import zlib

import numpy as np
import pytest

from emodel import DataFormatError, load_compounds, load_energy_function, load_runs
import emodel
from emodel import partitioning
from emodel.cli import run_cli
from emodel._cache import _HEADER, _MAGIC, MAX_ENTRIES, VERSION
from emodel.core import _load_run_columns
from helpers import load_compounds_by_rows, load_runs_by_rows

PMCS = ("X1", "X2", "X3", "X4")


def runs_text(rows=600, seed=3, total=False, line="\n"):
    """A runs file with repetitions, a blank row, full-precision numbers and
    the line ending ``line``."""
    rng = random.Random(seed)
    energy = "total_energy_j,static_power_w" if total else "dynamic_energy_j"
    lines = [f"app_id,run_id,cores,problem_size,exec_time_s,{energy}," + ",".join(PMCS)]
    for i in range(rows):
        energies = (f"{rng.uniform(500, 900)!r},{rng.uniform(0, 2)!r}" if total
                    else repr(rng.uniform(10, 400)))
        lines.append(f"app{i // 3},r{i % 3},{1 + i % 2},n{i % 5},{rng.uniform(1, 9)!r},"
                     f"{energies}," + ",".join(repr(rng.uniform(0, 1e9)) for _ in PMCS))
    lines.insert(rows // 2, "")
    return line.join(lines) + line


def compounds_text(seed=4):
    """Compounds of the runs that ``runs_text`` writes as rows i and i + 4."""
    rng = random.Random(seed)
    base = lambda i: f"app{i // 3}@{1 + i % 2}:n{i % 5}"
    lines = ["compound_id,base_a,base_b,dynamic_energy_j," + ",".join(PMCS)]
    for i in range(30):
        lines.append(f"c{i},{base(i)},{base(i + 4)},{rng.uniform(10, 400)!r},"
                     + ",".join(repr(rng.uniform(0, 1e9)) for _ in PMCS))
    return "\n".join(lines) + "\n"


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A new, empty cache home; gives the directory the entries go to."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "emodel"


def entries(directory):
    return sorted(os.listdir(directory)) if directory.exists() else []


def write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


def columns(dataset):
    """Everything a loaded dataset holds, floats by their bits."""
    return (dataset.pmc_names, dataset.counts.view(np.int64).tolist(),
            dataset.exec_time_s.view(np.int64).tolist(),
            dataset.dynamic_energy_j.view(np.int64).tolist(),
            dataset.app_id, dataset.run_id, dataset.cores, dataset.problem_size)


def compound_fields(compounds):
    return [(c.compound_id, c.base_a, c.base_b, c.pmc.names, [x.hex() for x in c.pmc.counts],
             c.dynamic_energy_j.hex()) for c in compounds]


def outcome(load):
    try:
        return load()
    except DataFormatError as exc:
        return str(exc)


@pytest.mark.parametrize("text", [
    pytest.param(runs_text(), id="lf"),
    pytest.param(runs_text(total=True), id="total-energy"),
    pytest.param(runs_text(line="\r\n"), id="crlf"),
    pytest.param(runs_text().replace("app30,", '"app,30",'), id="quoted"),  # read by csv.reader
])
def test_a_warm_load_gives_the_cold_load_bit_for_bit(cache, tmp_path, text):
    runs = write(tmp_path / "runs.csv", text)
    compounds = write(tmp_path / "compounds.csv", compounds_text())
    cold = load_runs(runs)
    cold_compounds = load_compounds(compounds, cold)
    # The file is many read buffers long: digesting it first must not move the parse.
    assert columns(cold) == columns(load_runs_by_rows(runs))
    assert compound_fields(cold_compounds) == compound_fields(load_compounds_by_rows(compounds, cold))
    assert len(entries(cache)) == 2
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    for warm in (load_runs(runs), _load_run_columns(runs)):
        assert columns(warm) == columns(cold)
        assert compound_fields(load_compounds(compounds, warm)) == compound_fields(cold_compounds)
    assert len(entries(cache)) == 2


HEADER = "app_id,run_id,cores,problem_size,exec_time_s,dynamic_energy_j,X1,X2\n"
GOOD = "dgemm,r1,2,1024,10.0,100.0,1000,500\nfft,r1,2,1024,8.0,80.0,800,400\n"
TOTAL = "app_id,cores,problem_size,exec_time_s,total_energy_j,static_power_w,X1\n"

#: Faulty runs files from the loader tests, each with the fault text it gives.
FAULTY_RUNS = [
    (HEADER + GOOD.replace("800,400", "oops,400"), "row 3, column 'X1': non-numeric cell 'oops'"),
    (HEADER + GOOD.replace("800,400", "inf,400"), "row 3, column 'X1': non-finite value 'inf'"),
    (HEADER + GOOD.replace("800,400", "-1,400"), "row 3, column 'X1': negative count -1.0"),
    (HEADER + GOOD + "dgemm,r1,2,1024,10.0,100.0,1000,500\n", "row 4: duplicate run"),
    (HEADER + "\na,r1,2,s,1,1,1,1\n\nb,r1,2,s,1,1,oops,1\n", "row 5, column 'X1'"),
    (HEADER + GOOD.replace("fft,r1,2", "fft,r1,0"), "row 3, column 'cores': must be >= 1"),
    (HEADER + GOOD.replace("fft,r1,", ",r1,"), "row 3: empty app_id"),
    (HEADER + GOOD.replace(",400\n", "\n"), "row 3: expected 8 cells, got 7"),
    (TOTAL + "app,2,n,100.0,500,90,7\n", "row 2: dynamic energy -8500.0 J is negative"),
    (TOTAL + "app,2,n,10.0,5.0,1e308,7\n", "row 2: dynamic energy -inf J is negative"),
    (HEADER.replace(",X2", ",X1") + GOOD, "duplicate header columns: X1"),
]


@pytest.mark.parametrize("text, fault", FAULTY_RUNS)
def test_a_warm_load_gives_the_cold_load_fault(cache, tmp_path, text, fault):
    path = write(tmp_path / "runs.csv", text)
    cold = outcome(lambda: load_runs(path))
    assert isinstance(cold, str) and fault in cold
    assert outcome(lambda: load_runs(path)) == cold
    assert outcome(lambda: _load_run_columns(path)) == cold


def test_a_fault_found_by_a_check_is_found_again_on_the_kept_parse(cache, tmp_path):
    path = write(tmp_path / "runs.csv", FAULTY_RUNS[0][0])
    cold = outcome(lambda: load_runs(path))
    assert len(entries(cache)) == 0
    assert outcome(lambda: load_runs(path)) == cold


@pytest.mark.parametrize("text, fault", [
    ("compound_id,base_a,base_b,dynamic_energy_j,X1,X2\nc1,mystery,fft,180.0,1801,899\n",
     "row 2: unknown base reference 'mystery'"),
    ("compound_id,base_a,base_b,dynamic_energy_j,X1,X2\n\n\nc,dgemm,fft,2,2,2\n\nd,dgemm,zz,2,2,2\n",
     "row 6: unknown base reference 'zz'"),
    ("compound_id,base_a,base_b,dynamic_energy_j,X1,X2\nc1,dgemm,fft,-1.0,1801,899\n",
     "row 2, column 'dynamic_energy_j': must be >= 0, got -1.0"),
    ("compound_id,base_a,base_b,dynamic_energy_j,X1,X2\nc1,dgemm,fft,1.0,x,899\n",
     "row 2, column 'X1': non-numeric cell 'x'"),
])
def test_a_warm_compounds_load_gives_the_cold_load_fault(cache, tmp_path, text, fault):
    dataset = load_runs(write(tmp_path / "runs.csv", HEADER + GOOD))
    path = write(tmp_path / "compounds.csv", text)
    cold = outcome(lambda: load_compounds(path, dataset))
    assert isinstance(cold, str) and cold.endswith(fault)
    assert len(entries(cache)) == 1
    assert outcome(lambda: load_compounds(path, dataset)) == cold


FAULTY_COMPOUNDS = [
    "compound_id,base_a,base_b,dynamic_energy_j,X1,X2\nc1,mystery,fft,180.0,1801,899\n",
    "compound_id,base_a,base_b,dynamic_energy_j,X1,X2\nc1,dgemm,fft,1.0,-2,899\n",
    "compound_id,base_a,base_b,dynamic_energy_j,X2,X1\nc1,dgemm,fft,1.0,2,899\n",
    "compound_id,base_a,base_b,dynamic_energy_j,X1,X2\nc1,dgemm,fft,1.0,2\n",
]


@pytest.mark.parametrize("runs, compounds", [
    *((text, None) for text, _ in FAULTY_RUNS),
    *((HEADER + GOOD, text) for text in FAULTY_COMPOUNDS),
])
def test_a_faulty_file_leaves_no_entry_and_every_load_gives_its_fault(
        cache, tmp_path, runs, compounds):
    """Only a load that passed every check is kept: a faulty runs file
    leaves no entry, a faulty compounds file none beside its runs' entry,
    and the file is parsed and its fault found on every load."""
    runs = write(tmp_path / "runs.csv", runs)
    if compounds is None:
        load = lambda: load_runs(runs)
    else:
        path = write(tmp_path / "compounds.csv", compounds)
        load = lambda: load_compounds(path, load_runs(runs))
    faults = [outcome(load) for _ in range(3)]
    assert isinstance(faults[0], str) and faults == faults[:1] * 3
    assert len(entries(cache)) == (compounds is not None)


def test_compounds_are_kept_per_runs_file(cache, tmp_path):
    """Bases resolve against the dataset, so one compounds file loaded
    against two runs files keeps two entries: a bare ``fft`` names one
    group in the first and two in the second."""
    one = write(tmp_path / "one.csv", HEADER + GOOD)
    two = write(tmp_path / "two.csv", HEADER + GOOD + "fft,r1,4,1024,8.0,80.0,800,400\n")
    path = write(tmp_path / "compounds.csv",
                 "compound_id,base_a,base_b,dynamic_energy_j,X1,X2\nc1,dgemm,fft,180.0,1801,899\n")
    expected = compound_fields(load_compounds_by_rows(path, load_runs_by_rows(one)))
    ambiguous = "row 2: ambiguous base reference 'fft': matches fft@2:1024, fft@4:1024"
    for _ in range(2):  # cold, then warm
        assert compound_fields(load_compounds(path, load_runs(one))) == expected
        fault = outcome(lambda: load_compounds(path, load_runs(two)))
        assert isinstance(fault, str) and fault.endswith(ambiguous)
        assert compound_fields(load_compounds(path, _load_run_columns(one))) == expected
    assert len(entries(cache)) == 3  # both runs files and the compounds against the first


@pytest.mark.parametrize("damage", ["truncated", "garbage", "huge row count", "empty"])
def test_a_damaged_entry_is_ignored_and_rewritten(cache, tmp_path, damage):
    path = write(tmp_path / "runs.csv", runs_text())
    expected = columns(load_runs(path))
    (name,) = entries(cache)
    entry = cache / name
    whole = entry.read_bytes()
    entry.write_bytes({
        "truncated": whole[:len(whole) // 2],
        "garbage": random.Random(5).randbytes(len(whole)),
        "huge row count": whole[:_HEADER - 8] + (2 ** 62).to_bytes(8, "little") + whole[_HEADER:],
        "empty": b"",
    }[damage])
    assert columns(load_runs(path)) == expected
    assert entry.read_bytes() == whole


def test_an_entry_with_any_bit_flipped_misses(cache, tmp_path):
    """A flipped bit in the header, in the float body or in the JSON gives
    the cold load, not a dataset built from the damaged bytes, and the entry
    is written again. Every bit after the magic is tried in the header, and
    a spread of bits in the body."""
    path = write(tmp_path / "runs.csv", runs_text(rows=40))
    expected = columns(load_runs(path))
    (name,) = entries(cache)
    entry = cache / name
    whole = entry.read_bytes()
    floats_end = _HEADER + 8 * 40 * 6  # 40 rows x 4 PMCs, exec_time_s and the energy
    assert whole[floats_end:floats_end + 2] == b"[["  # the JSON starts here
    bits = [*range(8 * len(_MAGIC), 8 * _HEADER), *range(8 * _HEADER, 8 * floats_end, 61),
            *range(8 * floats_end, 8 * len(whole), 29)]
    for bit in bits:
        damaged = bytearray(whole)
        damaged[bit // 8] ^= 1 << bit % 8
        entry.write_bytes(damaged)
        assert columns(load_runs(path)) == expected, bit
        assert entry.read_bytes() == whole, bit


def test_a_cache_directory_that_cannot_be_made_leaves_the_load_to_parse(tmp_path, monkeypatch):
    blocker = write(tmp_path / "not-a-directory", "")
    path = write(tmp_path / "runs.csv", runs_text())
    expected = columns(load_runs(path))
    for home in (blocker, blocker / "below"):
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        assert columns(load_runs(path)) == expected
        assert columns(load_runs(path)) == expected
    assert blocker.read_bytes() == b""


@pytest.mark.parametrize("mode, other_owner", [
    pytest.param(0o777, False, id="world-writable"),
    pytest.param(0o770, False, id="group-writable"),
    pytest.param(0o700, True, id="another-owner"),
])
def test_a_directory_others_may_write_is_neither_read_nor_written(
        cache, tmp_path, monkeypatch, mode, other_owner):
    """An entry planted where another user could have put it, here one whose
    first count is doubled under a recomputed CRC-32, reaches the load only
    from a private directory. Anywhere else the file is parsed, and no entry
    is written."""
    path = write(tmp_path / "runs.csv", runs_text(rows=40))
    expected = columns(load_runs(path))
    (name,) = entries(cache)
    entry = cache / name
    planted = bytearray(entry.read_bytes())
    struct.pack_into("<d", planted, _HEADER, 2 * struct.unpack_from("<d", planted, _HEADER)[0])
    crc = len(_MAGIC)
    planted[crc:crc + 4] = zlib.crc32(planted[crc + 4:]).to_bytes(4, "little")
    entry.write_bytes(planted)
    assert columns(load_runs(path)) != expected  # a private directory is trusted
    os.chmod(cache, mode)
    if other_owner:
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    assert columns(load_runs(path)) == expected
    assert columns(_load_run_columns(path)) == expected
    load_runs(write(tmp_path / "other.csv", runs_text(rows=40, seed=9)))
    assert entries(cache) == [name] and entry.read_bytes() == planted


def test_a_same_size_edit_misses(cache, tmp_path):
    path = write(tmp_path / "runs.csv", HEADER + GOOD)
    times = os.stat(path).st_atime_ns, os.stat(path).st_mtime_ns
    before = load_runs(path)
    write(path, HEADER + GOOD.replace("1000,500", "1009,500"))
    os.utime(path, ns=times)  # the same size and mtime: only the bytes tell
    after = load_runs(path)
    assert before.counts[0, 0] == 1000.0 and after.counts[0, 0] == 1009.0
    assert len(entries(cache)) == 2


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_fifo_is_parsed_and_not_kept(cache, tmp_path):
    text = runs_text()
    expected = columns(load_runs(write(tmp_path / "runs.csv", text)))
    fifo = tmp_path / "runs.fifo"
    os.mkfifo(fifo)
    keep = entries(cache)

    def feed():
        with open(fifo, "w", encoding="utf-8") as fh:
            fh.write(text)

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    try:
        assert columns(load_runs(fifo)) == expected
    finally:
        feeder.join(timeout=10)
    assert not feeder.is_alive()
    assert entries(cache) == keep


def test_the_cache_keeps_at_most_its_entry_count(cache, tmp_path):
    paths = [write(tmp_path / f"runs{i}.csv", runs_text(rows=6, seed=i))
             for i in range(MAX_ENTRIES + 3)]
    by_age = []
    for i, path in enumerate(paths[:MAX_ENTRIES]):
        before = set(entries(cache))
        load_runs(path)
        (name,) = set(entries(cache)) - before
        os.utime(cache / name, ns=(i * 10 ** 9, i * 10 ** 9))  # oldest first, in load order
        by_age.append(name)
    for path in paths[MAX_ENTRIES:]:
        load_runs(path)
        assert len(entries(cache)) == MAX_ENTRIES
    assert set(by_age) - set(entries(cache)) == set(by_age[:3])


def test_a_loading_process_does_not_import_hashlib(cache, tmp_path):
    """hashlib loads OpenSSL, which would raise every loading child's memory."""
    path = write(tmp_path / "runs.csv", runs_text())
    code = ("import sys\nfrom emodel.core import _load_run_columns\n"
            f"_load_run_columns({str(path)!r})\nprint('_hashlib' in sys.modules)\n")
    for _ in range(2):  # a miss that writes the entry, then a hit
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True)
        assert result.stdout == "False\n", result.stderr
        assert len(entries(cache)) == 1


MODEL = ('{"kind": "zero_intercept", "pmc_names": ["X1", "X2", "X3", "X4"], "intercept": 0.0, '
         '"coefficients": [2.5e-7, 1e-7, 3e-8, 0.0]}\n')
#: Every command that loads a runs file (and a compounds file) through the cache.
RUNS_COMMANDS = [
    ["predict", "--model", "model.json", "--runs", "runs.csv"],
    ["predict", "--model", "model.json", "--runs", "runs.csv", "--format", "csv"],
    ["evaluate", "--model", "model.json", "--runs", "runs.csv"],
    ["evaluate", "--model", "model.json", "--runs", "runs.csv", "--compounds", "compounds.csv"],
    ["additivity", "--runs", "runs.csv", "--compounds", "compounds.csv"],
    ["fit", "--runs", "runs.csv", "--kind", "zero_intercept_nonneg"],
    ["correlate", "--runs", "runs.csv"],
]
#: Run through run_cli in a child process in which every import of numpy fails.
WARM_WITHOUT_NUMPY = """\
import contextlib, io, json, sys
sys.modules["numpy"] = None
from emodel.cli import run_cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_runs_commands_are_the_same_with_the_cache_off_cold_and_warm(tmp_path, monkeypatch,
                                                                      capsys):
    """Each command that loads runs, on two runs files and one compounds file
    resolved against both, prints the same bytes and exits alike with the
    cache off, cold and warm; and warm without numpy, in a child process."""
    files = {"model.json": MODEL, "compounds.csv": compounds_text(),
             "dynamic.csv": runs_text(rows=60), "total.csv": runs_text(rows=60, seed=5, total=True)}
    for name, text in files.items():
        write(tmp_path / name, text)
    argvs = [[str(tmp_path / {"runs.csv": runs}.get(arg, arg)) if arg.endswith((".csv", ".json"))
              else arg for arg in argv] for runs in ("dynamic.csv", "total.csv")
             for argv in RUNS_COMMANDS]

    def outcomes():
        results = []
        for argv in argvs:
            code = run_cli(argv)
            results.append([code, *capsys.readouterr()])
        return results

    off = tmp_path / "off"
    (off / "emodel").mkdir(parents=True)
    os.chmod(off / "emodel", 0o777)
    monkeypatch.setenv("XDG_CACHE_HOME", str(off))
    expected = outcomes()
    assert entries(off / "emodel") == []
    assert [(code, err) for code, _, err in expected] == [(0, "")] * len(argvs)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert outcomes() == expected  # cold
    # Two runs entries, and the compounds resolved against each runs file.
    assert len(entries(tmp_path / "xdg" / "emodel")) == 4
    assert outcomes() == expected  # warm
    assert len(entries(tmp_path / "xdg" / "emodel")) == 4
    numpy_free = [i for i, argv in enumerate(argvs) if argv[0] in ("predict", "evaluate")]
    child = subprocess.run(
        [sys.executable, "-c", WARM_WITHOUT_NUMPY, json.dumps([argvs[i] for i in numpy_free])],
        capture_output=True, text=True)
    assert (child.returncode, child.stderr) == (0, "")
    assert json.loads(child.stdout) == [expected[i] for i in numpy_free]


def energy_text(samples, line="\n"):
    return line.join(["x,y,energy_j", *(f"{x},{y},{e}" for x, y, e in samples)]) + line


QUADRATIC = [(x, 4096, repr((x / 512 - 3) ** 2)) for x in range(512, 4096, 512)]
#: Energy-function files for ``partition``, each with the number of entries a
#: cold run of every argument list keeps.
PARTITION_CASES = {
    # The fault is found on every load: no entry, and func2 is never read.
    "faulty": ({"f1.csv": energy_text([(512, 4096, "1.0"), (1024, 4096, "oops")]),
                "f2.csv": energy_text(QUADRATIC)}, [[]], 0),
    # A float64 holds 2**53, but not every integer past it: such a file is never kept.
    "x-at-2**53": ({"f1.csv": energy_text([(x, 8, "1.5") for x in range(1, 8, 2)]
                                          + [(2 ** 53, 8, "2.0")]),
                    "f2.csv": energy_text([(x, 8, repr(x / 3)) for x in range(1, 8)])}, [[]], 1),
    "negative-zero": ({"f1.csv": energy_text([(512, 4096, "-0.0"), (1536, 4096, "-0"),
                                              (3584, 4096, "0.0")], "\r\n"),
                       "f2.csv": energy_text([(x, 4096, "-0.0") for x in range(512, 4096, 512)])},
                      [[]], 2),
    # One entry per granularity asked for: the file is f1 and f2 both.
    "two-granularities": ({"f1.csv": energy_text(QUADRATIC[::2])},
                          [["--granularity", "512"], ["--granularity", "256"]], 2),
}


@pytest.mark.parametrize("case", PARTITION_CASES)
def test_partition_is_the_same_with_the_cache_off_cold_and_warm(tmp_path, monkeypatch, capsys,
                                                               case):
    files, granularities, kept = PARTITION_CASES[case]
    for name, text in files.items():
        write(tmp_path / name, text)
    f1 = str(tmp_path / "f1.csv")
    f2 = str(tmp_path / ("f2.csv" if "f2.csv" in files else "f1.csv"))
    n = "8" if case == "x-at-2**53" else "4096"
    argvs = [["partition", "--func1", f1, "--func2", f2, "--n", n, *flags, *more]
             for flags in ([], ["--interpolate"]) for more in granularities]

    def outcomes():
        results = []
        for argv in argvs:
            code = run_cli(argv)
            results.append((code, *capsys.readouterr()))
        return results

    off = tmp_path / "off"
    (off / "emodel").mkdir(parents=True)
    os.chmod(off / "emodel", 0o777)
    monkeypatch.setenv("XDG_CACHE_HOME", str(off))
    expected = outcomes()
    assert entries(off / "emodel") == []
    assert {code for code, _, _ in expected} == ({1} if case == "faulty" else {0})
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert outcomes() == expected  # cold
    assert len(entries(tmp_path / "xdg" / "emodel")) == kept
    assert outcomes() == expected  # warm
    assert len(entries(tmp_path / "xdg" / "emodel")) == kept


@pytest.mark.parametrize("granularity", [None, 1])
def test_an_energy_function_is_kept_only_below_2_to_the_53(cache, tmp_path, granularity):
    """A warm load gives the cold load's function, slices and all; a file with
    an x or y of 2**53 or more is parsed on every load."""
    big = 2 ** 53
    for samples, keeps in [([(big - 1, 3, "1.0"), (2, 3, "-0.0"), (1, big - 1, "2.5")], True),
                           ([(big, 3, "1.0"), (2, 3, "0.0")], False),
                           ([(1, big, "1.0"), (2, 3, "0.0")], False)]:
        path = write(tmp_path / "func.csv", energy_text(samples))
        before = entries(cache)
        cold = load_energy_function(path, granularity=granularity)
        assert len(entries(cache)) == len(before) + keeps
        warm = load_energy_function(path, granularity=granularity)
        assert repr(warm) == repr(cold) and repr(warm._slices) == repr(cold._slices)


@pytest.mark.parametrize("off", ["world-writable", "no-home", "fifo"])
def test_an_energy_function_load_builds_its_entry_only_for_a_cache(tmp_path, monkeypatch, off):
    """With no cache to keep it in, a load does not build the entry: it gives
    the function a cold load with a cache gives, which keeps its entry."""
    if off == "fifo" and not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes")
    text = energy_text(QUADRATIC + [(512, 8192, "-0.0"), (1024, 8192, "2.5")])
    path = write(tmp_path / "func.csv", text)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    cold = load_energy_function(path, "p")
    assert len(entries(tmp_path / "xdg" / "emodel")) == 1
    expected = repr(cold), repr(cold._slices)

    def unused(func):
        raise AssertionError("an entry built with no cache to keep it in")

    monkeypatch.setattr(partitioning, "_entry", unused)
    if off == "world-writable":
        (tmp_path / "off" / "emodel").mkdir(parents=True)
        os.chmod(tmp_path / "off" / "emodel", 0o777)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "off"))
    elif off == "no-home":  # "~" stays as it is: no absolute place for a cache
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setattr(os.path, "expanduser", lambda path: path)
    else:
        path = tmp_path / "func.fifo"
        os.mkfifo(path)
        feeder = threading.Thread(target=write, args=(path, text), daemon=True)
        feeder.start()
    func = load_energy_function(path, "p")
    assert (repr(func), repr(func._slices)) == expected
    if off == "fifo":
        feeder.join(timeout=10)
        assert not feeder.is_alive()
    assert entries(tmp_path / "off" / "emodel") == []
    assert len(entries(tmp_path / "xdg" / "emodel")) == 1


#: The parse cache's VERSION, with the SHA-256 of the sources of the loads that
#: fill and read its entries, taken together in this order. A warm load runs no
#: check and takes the entry's computed values as they are, so an edit to these
#: sources that left VERSION alone would give the old answer on every warm run
#: and the new one on every cold run. Any edit to them fails this pin until
#: VERSION is bumped and the new digest pinned with it.
LOADER_SOURCES = ("_cache.py", "_common.py", "core.py", "partitioning.py")
LOADER_PIN = (7, "f206e1bc05c302f744a11832eedecda393463df79c901b9b0d0c2684c169103c")


def test_an_edit_to_the_loaders_bumps_the_cache_version():
    digest = hashlib.sha256()
    for name in LOADER_SOURCES:
        with open(os.path.join(os.path.dirname(emodel.__file__), name), "rb") as fh:
            digest.update(fh.read())
    assert (VERSION, digest.hexdigest()) == LOADER_PIN, (
        "the loaders' sources changed: bump emodel._cache.VERSION, then pin it with the new digest")
