"""Test-session setup: hypothesis storage, and a pass/fail line per acceptance criterion."""

import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_acceptance_results = {}

# hypothesis caches the constants of the code under test in its home
# directory, by default .hypothesis/ in the working directory; keep it in a
# temporary directory that is removed at exit
_hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)


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
