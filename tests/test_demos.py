"""Each demo under ``demos/`` runs as a script and prints its walk-through.

The demos use only the public API and the standard library, so a change
of that API that would break one fails here.
"""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("0*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(capsys, path):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
