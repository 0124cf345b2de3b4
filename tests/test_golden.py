"""Golden CLI outputs: stdout and exit code must stay byte-identical, and
so must stderr on the rejected (invalid) scenes.

The expected outputs and their input scenes live in tests/golden/ and are
written by tests/golden/generate.py.  Keys are the scene name followed by
the argv; fixture keys run ``windex fixture NAME`` instead.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from windex import cli
from windex.complex import OrientedFace
from windex.scene import parse_scene_text

GOLDEN = Path(__file__).resolve().parent / "golden"
OUTPUTS = json.loads((GOLDEN / "outputs.json").read_text(encoding="utf-8"))


def test_scenes_regenerate_byte_for_byte():
    """The seeded samplers still draw the committed input scenes, so a
    change in how tests/sampling.py consumes its rng shows up here."""
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


@pytest.mark.parametrize("path", sorted((GOLDEN / "scenes").glob("*.json")),
                         ids=lambda path: path.stem)
def test_faces_are_read_off_the_half_edge_tables(path):
    """Face f of a golden scene is its three tails from 3f, from its least
    vertex, and its key."""
    surface = parse_scene_text(path.read_text(encoding="utf-8")).surface
    labels, tails = surface.vertices, surface.tails
    assert surface.faces == tuple(
        OrientedFace((labels[tails[3 * f]], labels[tails[3 * f + 1]], labels[tails[3 * f + 2]]),
                     key)
        for f, key in enumerate(surface.keys)
    )
    for face in surface.faces:
        assert face.vertices[0] == min(face.vertices) and face.key == ",".join(face.vertices)


REJECTED = json.loads((GOLDEN / "rejected.json").read_text(encoding="utf-8"))


def _generate_module():
    spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rejected_scenes_regenerate_byte_for_byte():
    texts = {name: text.encode("utf-8") for name, text in _generate_module().rejected_texts().items()}
    assert texts == {p.stem: p.read_bytes() for p in (GOLDEN / "rejected").glob("*.json")}


@pytest.mark.parametrize("key", sorted(REJECTED))
def test_rejected_scene_output_unchanged(capsys, key):
    """Invalid scenes: stdout, stderr (the full violation report, in
    order) and the exit code stay byte-identical."""
    name, *argv = key.split(" ")
    code = cli.main(argv + [str(GOLDEN / "rejected" / f"{name}.json")])
    got = capsys.readouterr()
    want = REJECTED[key]
    assert (got.out, got.err, code) == (want["stdout"], want["stderr"], want["code"])


def test_calls_in_turn_share_one_parser(capsys):
    """``cli.main`` builds its parser once per process: a flag given on one
    call reaches none after it, and a usage error leaves the parser as it
    was.  Each pair's outputs differ, so a leaked flag would show."""
    scene = str(GOLDEN / "scenes" / "octa-link-a.json")
    keys = ["octa-link-a index --json --basepoint b,o,y=y", "octa-link-a index --json",
            "octa-link-a check --canonical-flatness", "octa-link-a check"]
    assert OUTPUTS[keys[0]] != OUTPUTS[keys[1]] and OUTPUTS[keys[2]] != OUTPUTS[keys[3]]
    for key in keys:
        code = cli.main(key.split(" ")[1:] + [scene])
        want = OUTPUTS[key]
        assert (capsys.readouterr().out, code) == (want["stdout"], want["code"]), key
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["check", "--bogus", scene])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    code, want = cli.main(["check", scene]), OUTPUTS[keys[3]]
    assert (capsys.readouterr().out, code) == (want["stdout"], want["code"])
    assert cli.build_parser() is cli.build_parser()
