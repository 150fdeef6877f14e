"""Test-session setup: hypothesis storage, a call-counting fixture, and a pass/fail line per acceptance criterion."""

import sys
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

_acceptance_results = {}

# hypothesis caches the constants of the code under test in its home
# directory, by default .hypothesis/ in the working directory; keep it in a
# temporary directory that is removed at exit
_hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(functions) -> {name: calls}, counted through every phaseatlas module that binds each."""

    def install(functions):
        counts = dict.fromkeys([func.__name__ for func in functions], 0)
        for func in functions:

            def wrapper(*args, _name=func.__name__, _inner=func, **kwargs):
                counts[_name] += 1
                return _inner(*args, **kwargs)

            for modname, module in list(sys.modules.items()):
                if modname.startswith("phaseatlas") and getattr(module, func.__name__, None) is func:
                    monkeypatch.setattr(module, func.__name__, wrapper)
        return counts

    return install


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance.py" in report.nodeid and "criterion" in report.nodeid:
        _acceptance_results[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance_results, key=_criterion_key):
        outcome = _acceptance_results[name]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")


def _criterion_key(name):
    import re

    m = re.search(r"criterion_(\d+)", name)
    return (int(m.group(1)) if m else 99, name)
