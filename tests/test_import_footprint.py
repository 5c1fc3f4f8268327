"""Import footprint: ``import snm`` and a first call to each solver, in a
fresh interpreter, load none of the slow standard-library modules.

``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``,
and ``statistics`` is a ~5 ms import of its own; together they were about
two thirds of the library's set-up time.  The check is on module names,
not on time, so it gives the same answer on any machine.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SLOW_MODULES = {"dataclasses", "inspect", "statistics"}

# bench/run.py's set-up code, printing the modules it added.
FIRST_CALLS = """\
import sys
before = set(sys.modules)
sys.path.insert(0, {src!r})
import snm
snm.invert_gamma(snm.GammaQuantileQuery(2.5, 0.3))
snm.invert_beta(snm.BetaQuantileQuery(2.0, 3.0, 0.3))
snm.invert_ellip_e(snm.EllipticQuery(0.5, 0.4))
snm.solve(snm.tan_problem(), 1.0)
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_and_first_solves_load_no_slow_module():
    out = subprocess.run([sys.executable, "-I", "-c", FIRST_CALLS.format(src=str(SRC))],
                         capture_output=True, text=True, check=True, timeout=60)
    added = set(out.stdout.split())
    assert {"snm", "snm.core", "snm.special"} <= added
    assert not added & SLOW_MODULES, sorted(added & SLOW_MODULES)
