#!/usr/bin/env python3
"""Fail CI when a tier-1 test runs longer than a fixed time budget.

Reads the report ``pytest --durations=0`` prints from a file, sums each
test's setup, call and teardown phases and exits non-zero when any test
exceeds ``BUDGET_S``.  A test that only passes by waiting out a
wall-clock timeout shows up here instead of silently stretching the
suite.

Feed it the default run: ``pyproject.toml`` deselects the ``chaos``
tests, which are slow by design and run in their own job.

Usage::

    python -m pytest -x -q --durations=0 | tee pytest.log
    python scripts/check_test_durations.py pytest.log
"""

from __future__ import annotations

import re
import sys
from collections import defaultdict

#: Seconds one test (all phases) may take.  Set from a measurement: the
#: slowest tier-1 test took 2.7 s on a 2-vCPU host, and the budget
#: leaves room for slower CI hosts.
BUDGET_S = 10.0

_LINE = re.compile(r"^\s*(\d+(?:\.\d+)?)s\s+(setup|call|teardown)\s+(\S.*?)\s*$")


def durations_by_test(lines) -> dict[str, float]:
    """Total seconds per test id over every phase listed."""
    totals: dict[str, float] = defaultdict(float)
    for line in lines:
        match = _LINE.match(line)
        if match:
            totals[match.group(3)] += float(match.group(1))
    return dict(totals)


def over_budget(totals: dict[str, float]) -> list[tuple[str, float]]:
    """Tests slower than the budget, slowest first."""
    slow = [(test, seconds) for test, seconds in totals.items() if seconds > BUDGET_S]
    return sorted(slow, key=lambda item: -item[1])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: check_test_durations.py PYTEST_DURATIONS_REPORT")
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        totals = durations_by_test(handle)
    if not totals:
        print("no test durations found; run pytest with --durations=0")
        return 2
    slow = over_budget(totals)
    if slow:
        print(f"{len(slow)} test(s) over the {BUDGET_S:g} s budget:")
        for test, seconds in slow:
            print(f"  {seconds:7.2f}s  {test}")
        return 1
    slowest = max(totals.items(), key=lambda item: item[1])
    print(
        f"{len(totals)} test(s) within the {BUDGET_S:g} s budget "
        f"(slowest {slowest[1]:.2f}s: {slowest[0]})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
