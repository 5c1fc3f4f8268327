"""Run the test suite as the CI ``tier1`` job sees it: pytest and nothing else.

Usage, from anywhere (the arguments go to pytest as they are):

    python3 tools/tier1_stdlib.py
    python3 tools/tier1_stdlib.py tests/test_elliptic.py -k contract

The optional test oracles (mpmath, numpy, scipy, hypothesis, sympy) may be
installed here, but the ``tier1`` job has none of them, so the tests behind
``pytest.importorskip`` must skip.  This writes one stub module per oracle
to a temporary directory, each raising ``ModuleNotFoundError`` on import,
puts that directory first on ``PYTHONPATH`` with this checkout's ``src``
after it, and runs ``python -m pytest -q -p no:hypothesispytest`` (the
hypothesis plugin would import the real package) from the checkout root.
It exits with pytest's status.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OPTIONAL = ("mpmath", "numpy", "scipy", "hypothesis", "sympy")


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory(prefix="tier1-stubs-") as stubs:
        for name in OPTIONAL:
            Path(stubs, f"{name}.py").write_text(
                f"raise ModuleNotFoundError(\"No module named '{name}'\", name={name!r})\n")
        path = [stubs, str(ROOT / "src")]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:hypothesispytest", *argv]
        return subprocess.call(command, cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
