"""Every demo script runs to completion as a program and prints its walkthrough."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
