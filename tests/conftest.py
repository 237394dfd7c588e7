"""Shared pytest plumbing for the acceptance gate.

The acceptance tests register one human-readable line per criterion;
printing happens in the terminal-summary phase because pytest's default
capture mode would swallow output written during the tests themselves.

Property tests run under a derandomised hypothesis profile, so every run
draws the same examples and no example database is written.
"""

from hypothesis import settings

settings.register_profile("jwkit", derandomize=True, deadline=None, database=None)
settings.load_profile("jwkit")

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
