import pytest

# (criterion number, description, passed, detail) gathered by the acceptance
# suite; printed as one line per criterion after the run.
_ACCEPTANCE_RESULTS = []


@pytest.fixture(scope="session", autouse=True)
def parse_cache_home(tmp_path_factory):
    """The parse cache of every load in the suite, child processes included,
    lives in a directory of this session, never under the user's home."""
    with pytest.MonkeyPatch.context() as patch:
        home = tmp_path_factory.mktemp("xdg-cache")
        patch.setenv("XDG_CACHE_HOME", str(home))
        yield home


@pytest.fixture
def acceptance():
    def record(criterion: int, description: str, passed: bool, detail: str = ""):
        _ACCEPTANCE_RESULTS.append((criterion, description, bool(passed), detail))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, description, passed, detail in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {criterion}: {status} - {description}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)
