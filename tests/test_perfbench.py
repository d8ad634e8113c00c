"""The benchmark's own checks against this tree, each in a fresh
interpreter: ``perfbench/selftest.py``, and one short ``mc-draws``,
``exact-verify``, ``exact-bounds`` and ``recurrences`` run each, whose
outputs must all pass ``perfbench/checks.py``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("scipy")

ROOT = Path(__file__).resolve().parents[1]


def _run(*argv):
    return subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=600)


def test_selftest():
    proc = _run("perfbench/selftest.py")
    assert proc.returncode == 0, proc.stderr


def _smoke(workload):
    proc = _run("perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0


def test_mc_draws_outputs_pass_the_checks():
    _smoke("mc-draws")


def test_exact_verify_outputs_pass_the_checks():
    # several verify calls in one process, all through the one parser
    _smoke("exact-verify")


def test_exact_bounds_outputs_pass_the_checks():
    # the prefix-set program, the recurrences and the 9e12-entry fault
    _smoke("exact-bounds")


def test_recurrences_outputs_pass_the_checks():
    # dist at the caps and rate tables: the recurrences, with no S_n sweep
    _smoke("recurrences")
