"""The demos run as scripts against the public API, so a rename that breaks
one fails here. ``06`` only re-runs registry experiments that
``test_experiments.py`` already runs, and is left out."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0[1-5]_*.py"))


def test_the_five_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
