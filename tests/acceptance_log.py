"""Acceptance-criterion result lines gathered during a test session.

``tests/conftest.py`` prints them in the terminal summary regardless of
output capture.  They live in a module of their own, not in ``conftest``,
because another directory collected in the same session (``perfbench/tests``)
has a ``conftest`` module too, and ``from conftest import ...`` would reach
whichever was imported first.
"""

ACCEPTANCE_LINES = []


def record_acceptance_line(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
