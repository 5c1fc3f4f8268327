"""tools/ab_compare.py: a smoke run of this checkout timed against itself,
and its report of the roots that moved.

The smoke run loads bench/workloads.py, which checks answers with mpmath,
so it is skipped without it.
"""

import importlib.util
import math
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
    assert "roots moved: gamma 0/500, beta 0/500, elliptic 0/500" in done.stdout, done.stdout


class _Query:
    def __init__(self, solver, label):
        self.solver, self.label = solver, label

    def within(self, root):
        return root < 1.0


def _outcome(root):
    return (root.hex(), 1, "low", ())


def test_the_roots_moved_line_names_the_largest_move(capsys):
    spec = importlib.util.spec_from_file_location("ab_compare", ROOT / "tools" / "ab_compare.py")
    tool = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    try:
        spec.loader.exec_module(tool)
    finally:
        sys.dont_write_bytecode = saved
    x = 0.5
    queries = [_Query("gamma", "gamma a=1.0 p=0.5")] + [
        _Query("elliptic", f"elliptic m={m} p={p}") for m, p in ((0.1, 0.2), (0.9, 0.4), (0.5, 0.5))]
    base = [_outcome(x)] * 4
    head = [_outcome(x), _outcome(math.nextafter(x, 1.0)), _outcome(x + 3 * math.ulp(x)),
            _outcome(x)]
    tool.report_moved_roots(queries, [base, head], ("gamma", "elliptic"))
    assert capsys.readouterr().out == (
        "  roots moved: gamma 0/1, elliptic 2/3 (median 2 ulps, "
        "max 3 at elliptic m=0.9 p=0.4; within 2 | 2)\n")
