"""Shared test plumbing.

Registers the ``criterion`` marker used by the acceptance suite and prints
one PASS/FAIL line per criterion at the end of the run, with the call
phase's duration, so each run records how near a timed criterion is to
its bound.  Also pins a deterministic hypothesis profile so property
tests are reproducible.
"""

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

_ACCEPTANCE: dict[int, tuple[str, bool, float | None]] = {}


def pytest_configure(config):
    config.addinivalue_line("markers", "criterion(number, label): acceptance criterion metadata")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    number, label = marker.args
    if report.when == "call":
        _ACCEPTANCE[number] = (label, report.passed, report.duration)
    elif report.when == "setup" and report.failed:
        _ACCEPTANCE[number] = (label, False, None)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        label, passed, duration = _ACCEPTANCE[number]
        verdict = "PASS" if passed else "FAIL"
        timing = "" if duration is None else f" ({duration:.1f} s)"
        terminalreporter.write_line(f"criterion {number:2d} [{verdict}] {label}{timing}")
