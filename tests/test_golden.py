"""Golden CLI outputs: stdout and exit code must stay byte-identical.

The expected outputs and their input scenes live in tests/golden/ and are
written by tests/golden/generate.py.  Keys are the scene name followed by
the argv; fixture keys run ``windex fixture NAME`` instead.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from windex import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
OUTPUTS = json.loads((GOLDEN / "outputs.json").read_text(encoding="utf-8"))


def test_scenes_regenerate_byte_for_byte():
    """The seeded samplers still draw the committed input scenes, so a
    change in how windex.sampling consumes its rng shows up here."""
    spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    texts = {name: text.encode("utf-8") for name, text in generate.scene_texts().items()}
    assert texts == {p.stem: p.read_bytes() for p in (GOLDEN / "scenes").glob("*.json")}


@pytest.mark.parametrize("key", sorted(OUTPUTS))
def test_cli_output_unchanged(capsys, key):
    name, *argv = key.split(" ")
    if name != "fixture":
        argv.append(str(GOLDEN / "scenes" / f"{name}.json"))
    code = cli.main([name] + argv if name == "fixture" else argv)
    want = OUTPUTS[key]
    assert capsys.readouterr().out == want["stdout"]
    assert code == want["code"]
