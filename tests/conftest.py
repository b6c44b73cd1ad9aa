"""Hypothesis profile and shared fixtures."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings

from linforms.engine import clear_search_memo

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture(autouse=True)
def cold_search_memo() -> None:
    """Each test starts with compute_nf's result store empty."""
    clear_search_memo()


_CRITERIA = {
    1: "binary exact families (1,1) and (1,2) with progression witnesses",
    2: "complete forms: exact value formula and unique progression minimizer",
    3: "least-minimum formula over strictly increasing forms",
    4: "general binary forms: 3-set value 8 and certified floors",
    5: "ternary pair table exhaustive through coefficient 16",
    6: "maximum image sizes: power, binomial, random sandwich",
    7: "pruned search equals naive enumeration on the small grid",
    8: "property suite: invariance, monotonicity, symmetry, determinism",
    9: "open-problem scans clean, snapshot-stable, and repeatable",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, str] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            name = getattr(report, "nodeid", "")
            marker = "test_criterion_"
            pos = name.find(marker)
            if pos < 0:
                continue
            digits = name[pos + len(marker) :].split("_", 1)[0]
            if digits.isdigit():
                verdict = "PASS" if status == "passed" else "FAIL"
                outcomes[int(digits)] = verdict
    if not outcomes:
        return
    writer = terminalreporter
    writer.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        verdict = outcomes.get(number)
        if verdict is None:
            continue
        writer.write_line(f"ACCEPTANCE {number} {verdict} — {_CRITERIA[number]}")
