"""Shared pytest wiring: surface acceptance-criterion results in the
terminal summary regardless of output capture."""

from acceptance_log import ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
