"""Acceptance battery: the nine self-check criteria under hard time budgets.

Each test prints one pass/fail line straight to the terminal (bypassing
capture) so a scan of the run log shows the verdicts at a glance. Criteria
2..7 share one workspace and criterion 8 takes seed 0, mirroring how
run_battery executes them; criterion 9
replays the entire battery twice and must stay within twice the single-run
cost, so it reuses the timings collected here when available.
"""

import re
import time

import pytest

from limitlearn import Workspace, run_suite
from limitlearn.suite import (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    run_battery,
)

_TIMINGS: dict[int, float] = {}


@pytest.fixture(scope="module")
def ws():
    return Workspace()


def _run(number: int, fn, args: tuple, budget: float, capsys) -> None:
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    _TIMINGS[number] = elapsed
    ok = result["status"] == "PASS" and elapsed < budget
    with capsys.disabled():
        print(
            f"criterion {number} {result['name']}: {'PASS' if ok else 'FAIL'}"
            f" ({elapsed:.2f}s, budget {budget:.0f}s)"
        )
    assert result["status"] == "PASS", result["details"]
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s"


def test_criterion_1_codecs(capsys):
    _run(1, criterion_1, (), 1.0, capsys)


def test_criterion_2_monotone_enumeration(ws, capsys):
    _run(2, criterion_2, (ws,), 10.0, capsys)


def test_criterion_3_chain_and_reverify(ws, capsys):
    _run(3, criterion_3, (ws,), 60.0, capsys)


def test_criterion_4_convergence_and_growing_gap(ws, capsys):
    _run(4, criterion_4, (ws,), 120.0, capsys)


def test_criterion_5_forced_vacillation(ws, capsys):
    _run(5, criterion_5, (ws,), 30.0, capsys)


def test_criterion_6_family_learnability(ws, capsys):
    _run(6, criterion_6, (ws,), 120.0, capsys)


def test_criterion_7_confirmation_vs_subtraction(ws, capsys):
    _run(7, criterion_7, (ws,), 30.0, capsys)


def test_criterion_8_strict_implies_loose(capsys):
    _run(8, criterion_8, (0,), 30.0, capsys)


def test_criterion_9_deterministic_replay(capsys):
    start = time.perf_counter()
    report, all_pass = run_suite(0)
    elapsed = time.perf_counter() - start
    criteria = report["results"]["criteria"]
    replay = criteria[-1]
    ok = all_pass and replay["details"]["identical"]
    single = sum(_TIMINGS.values())
    if single:
        # two battery runs plus comparison: allow 2x plus generous slack
        budget = 2.0 * single + 0.5 * single + 10.0
    else:
        budget = 240.0  # criterion run in isolation, no baseline to compare
    ok = ok and elapsed < budget
    with capsys.disabled():
        print(
            f"criterion 9 {replay['name']}: {'PASS' if ok else 'FAIL'}"
            f" ({elapsed:.2f}s, budget {budget:.0f}s)"
        )
    assert all_pass, [c for c in criteria if c["status"] != "PASS"]
    assert replay["details"]["identical"] is True
    assert elapsed < budget, f"replay took {elapsed:.2f}s, budget {budget:.2f}s"


@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_run_suite_refuses_a_seed_that_is_no_natural_number(seed):
    message = f"seed must be a natural number, got {seed!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_suite(seed)


@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_run_battery_refuses_a_seed_that_is_no_natural_number(seed):
    # the battery checks its seed before any criterion runs
    message = f"seed must be a natural number, got {seed!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_battery(seed)
