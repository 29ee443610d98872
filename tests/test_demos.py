"""Smoke test: every script in ``demos/`` runs to the end without raising."""

from __future__ import annotations

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert [path.name for path in DEMOS] == [
        "check_and_oracle.py",
        "family_of_integrable_tensors.py",
        "killing_equation_pointwise.py",
        "young_projectors.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()
