"""A smoke run of tools/ab_compare.py: this checkout timed against itself.

The tool loads bench/workloads.py, which checks answers with mpmath, so
the test is skipped without it.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_a_tree_against_itself_is_bit_identical():
    pytest.importorskip("mpmath")
    done = subprocess.run(
        [sys.executable, "tools/ab_compare.py", ".", ".",
         "--workload", "tails", "--seed", "1", "--passes", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert ("roots identical 1500/1500, evaluations identical 1500/1500, "
            "traces identical 1500/1500") in done.stdout, done.stdout
