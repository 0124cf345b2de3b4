"""Smoke tests: the scripts in scripts/ run to completion and exit 0."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("theorem_sweep", (["--trials", "20"],)),
    ("euler_cross_check", ()),
])
def test_script_exits_0(capsys, name, argv):
    assert load(name).main(*argv) == 0
    assert capsys.readouterr().out
