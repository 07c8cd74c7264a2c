"""The portable reports, pinned by the sha256 of their bytes.

The ``emodel`` reports other than ``fit`` promise the same bytes on every
machine, Python and supported numpy. Each command here runs on small fixed
inputs written by this file (the model file too, never ``fit`` output), and
its stdout must hash to the digest committed below. A command that reads a
runs file runs twice on a new parse cache, parsing the file and then reading
the kept parse, and both runs must give the digest. One machine can only
check that the digests hold for itself; the CI matrix of Python and numpy
versions and runner CPUs checks the promise.

A failure lists each changed report with its new digest, which is what to
commit after an intended report change.
"""

import hashlib
import json

from emodel.cli import run_cli

PMCS = ("P1", "P2", "P3", "P4", "P5")


def _base_counts(app: int, cores: int) -> list[float]:
    return [1000.0 + 137.5 * app + 11.0 * cores, 40.0 + 3.25 * app * cores,
            7.0 + app / 3.0, 250.0 + (app * 7919 % 97) * 1.5, 90.0 + 0.5 * app]


def _runs_csv() -> str:
    """8 apps at 2 and 4 cores, 3 repetitions each. P5 varies by 20% between
    repetitions; the other PMCs by at most 0.3%."""
    lines = ["app_id,run_id,cores,problem_size,exec_time_s,dynamic_energy_j," + ",".join(PMCS)]
    for app in range(8):
        for cores in (2, 4):
            for rep in range(3):
                counts = _base_counts(app, cores)
                counts = [c * (1.0 + (rep - 1) * 0.001 * (j + 1)) for j, c in enumerate(counts)]
                counts[4] *= 1.0 + (rep - 1) * 0.2
                energy = 0.02 * counts[0] + 0.5 * counts[1] + 0.01 * counts[3] + rep / 7.0
                lines.append(f"a{app},r{rep},{cores},s,{1.5 + app / 4.0!r},{energy!r},"
                             + ",".join(map(repr, counts)))
    return "\n".join(lines) + "\n"


def _compounds_csv() -> str:
    """Each app at 2 cores with the next one at 4 cores; P3 and P4 of the
    compound deviate from the base sums by up to 6% and 9%."""
    lines = ["compound_id,base_a,base_b,dynamic_energy_j," + ",".join(PMCS)]
    for app in range(7):
        a, b = _base_counts(app, 2), _base_counts(app + 1, 4)
        counts = [x + y for x, y in zip(a, b)]
        counts[2] *= 1.0 + 0.01 * app
        counts[3] *= 1.0 - 0.015 * app
        energy = 0.02 * counts[0] + 0.5 * counts[1] + 0.01 * counts[3] + 1.0 / (app + 3)
        lines.append(f"c{app},a{app}@2:s,a{app + 1}@4:s,{energy!r},"
                     + ",".join(map(repr, counts)))
    return "\n".join(lines) + "\n"


def _energy_function_csv(linear: float, quadratic: float, missing: int) -> str:
    """Samples at y = 4096 on a grid of 64, every ``missing``-th x left out."""
    lines = ["x,y,energy_j"]
    for k in range(1, 64):
        if k % missing:
            lines.append(f"{64 * k},4096,{linear * k + quadratic * k * k + 1.0 / 3.0!r}")
    return "\n".join(lines) + "\n"


MODEL = {"kind": "zero_intercept", "pmc_names": list(PMCS), "intercept": 0.0,
         "coefficients": [0.0201, 0.4987, -0.00125, 0.0102, 3e-05]}

COMMANDS = {
    "additivity": ["additivity", "--runs", "@runs.csv", "--compounds", "@compounds.csv",
                   "--sweep", "1,5,10"],
    "predict --runs": ["predict", "--model", "@model.json", "--runs", "@runs.csv"],
    "evaluate --runs": ["evaluate", "--model", "@model.json", "--runs", "@runs.csv"],
    "evaluate --compounds": ["evaluate", "--model", "@model.json", "--runs", "@runs.csv",
                             "--compounds", "@compounds.csv"],
    "conserve --composability-trials": ["conserve", "--model", "@model.json",
                                        "--composability-trials", "50", "--seed", "7"],
    "correlate": ["correlate", "--runs", "@runs.csv"],
    "partition": ["partition", "--func1", "@f1.csv", "--func2", "@f2.csv", "--n", "4096"],
    "partition --interpolate": ["partition", "--func1", "@f1.csv", "--func2", "@f2.csv",
                                "--n", "4096", "--interpolate"],
    "loss": ["loss", "--alt", "97.3", "--ref", "101.9"],
    "stats": ["stats", "--values", "10.1,12.3,11.7,10.9,11.2,10.4,12.0"],
    "additivity csv": ["additivity", "--runs", "@runs.csv", "--compounds", "@compounds.csv",
                       "--sweep", "1,5,10", "--format", "csv"],
    "predict --runs csv": ["predict", "--model", "@model.json", "--runs", "@runs.csv",
                           "--format", "csv"],
    "evaluate --runs csv": ["evaluate", "--model", "@model.json", "--runs", "@runs.csv",
                            "--format", "csv"],
    "evaluate --compounds csv": ["evaluate", "--model", "@model.json", "--runs", "@runs.csv",
                                 "--compounds", "@compounds.csv", "--format", "csv"],
    "conserve csv": ["conserve", "--model", "@model.json", "--format", "csv"],
    "correlate csv": ["correlate", "--runs", "@runs.csv", "--format", "csv"],
    "partition json": ["partition", "--func1", "@f1.csv", "--func2", "@f2.csv", "--n", "4096",
                       "--format", "json"],
    "loss csv": ["loss", "--alt", "97.3", "--ref", "101.9", "--format", "csv"],
    "stats csv": ["stats", "--values", "10.1,12.3,11.7,10.9,11.2,10.4,12.0", "--format", "csv"],
}

DIGESTS = {
    'additivity': '98d12d5fe1a1982680e3682230189535e528482d254bd10f3831ca7b4a59fe9f',
    'predict --runs': '8689fffde001e7dec80dc681a826d19cc6aa784d342629e74bc02be29c7ab856',
    'evaluate --runs': '19b3ca4604d9b471e5cd69911c29e80d7f311ddb575db76acd649bda8accb61e',
    'evaluate --compounds': 'c89ea4cfffae1cdf8ffcf74ee400e5626f9d7459ee4310a7231ef49b6820e0e6',
    'conserve --composability-trials': '89ed3f3de1a98c32ffa3f6038d62d4406c0c7f66f444ea4e44d4de6501087fdc',
    'correlate': 'bd7900176ba22673fdd580481847652ef1e39d49e9032a913e6a87012318bda2',
    'partition': '5e7aa6842ba8d51b80ce1ea6186f15cef97b037b27eb4d7cd200875d2afbaf8b',
    'partition --interpolate': '3768ff548c549391e6aa8167a8c87faff86235718b79cb06ad99aa91127ede13',
    'loss': '9d155ba32c5538866ab335478adcd67000bd4464e20f12f13a626d402779ba38',
    'stats': '39d85de3174c1e807f2f83e8c215708dc924150abe3f95799368ae2e8ee144a1',
    'additivity csv': 'be3e494f6fd35873e8a971a8bea46b383f6084ec2f19e4cd8d460ebb6c1717ba',
    'predict --runs csv': '238a5eb0ef58c6ce5269f34c90cd1624a38a0096ab3a356c706dd6b392830ba9',
    'evaluate --runs csv': '8f40f896c595447bcacb71cc7c7bdff179c5efc782000f18a41faee57fed357b',
    'evaluate --compounds csv': '45131f78575f37dd6b3667deebd438f091d4ac090d0eee2e48c4d36dc5b84b3f',
    'conserve csv': '13f61c816d40cfdc1046b2a7121916f5ffa4c6d5edcef897da6671058c3c505f',
    'correlate csv': 'cce954cec0c14db56f308a1d1ed306409316c7f3b8bb301c6f6189e0b66bcd15',
    'partition json': 'ad8999611d7db538e433c2a5a27050f53464d1fba27f5cabbef0b7b7ef55abca',
    'loss csv': '8edcd17c14c5c76779d988d1d5f087c1f6fa686ee6715f0275f5641c3a759f62',
    'stats csv': '0e788d175441020d3c9984fe94817ec078661bef9bf4e903ab4cdebca0df9e56',
}


def _report_digests(directory, capsys, monkeypatch) -> dict[str, str]:
    """Each report's digest. A command that reads a runs file runs twice on
    a new parse cache, cold and then warm; the warm digest is listed as
    ``"<name> (warm)"``."""
    for name, text in [("runs.csv", _runs_csv()), ("compounds.csv", _compounds_csv()),
                       ("f1.csv", _energy_function_csv(0.75, 0.0125, 5)),
                       ("f2.csv", _energy_function_csv(1.5, 0.002, 3)),
                       ("model.json", json.dumps(MODEL))]:
        (directory / name).write_text(text, encoding="utf-8")
    digests = {}
    for number, (name, argv) in enumerate(COMMANDS.items()):
        cache = directory / f"cache{number}"
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        for run in ([name, f"{name} (warm)"] if "--runs" in argv else [name]):
            code = run_cli([str(directory / arg[1:]) if arg.startswith("@") else arg
                            for arg in argv])
            captured = capsys.readouterr()
            assert code in (0, 2) and captured.err == "", (run, code, captured.err)
            digests[run] = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
        if "--runs" in argv:  # the warm run read what the cold run kept
            assert (cache / "emodel").is_dir() and any((cache / "emodel").iterdir()), name
    return digests


def test_portable_reports_match_their_committed_digests(tmp_path, capsys, monkeypatch):
    digests = _report_digests(tmp_path, capsys, monkeypatch)
    assert len(digests) == len(DIGESTS) + 10
    changed = {name: digest for name, digest in digests.items()
               if DIGESTS.get(name.removesuffix(" (warm)")) != digest}
    assert not changed, f"reports that changed on this machine, with their digests: {changed}"
