"""Golden CLI outputs: stdout and exit code must stay byte-identical, and
so must stderr on the rejected (invalid) scenes.

The expected outputs and their input scenes live in tests/golden/ and are
written by tests/golden/generate.py.  Keys are the scene name followed by
the argv; fixture keys run ``windex fixture NAME`` instead (``argv``).
"""

from collections import Counter

import pytest

from windex import cli
from windex.complex import OrientedFace
from windex.scene import parse_scene_text

import processes
from golden import generate
from processes import GOLDEN, argv, load

OUTPUTS, REJECTED = load("outputs"), load("rejected")


def test_scenes_regenerate_byte_for_byte():
    """The seeded samplers still draw the committed input scenes, so a
    change in how tests/sampling.py consumes its rng shows up here."""
    texts = {name: text.encode("utf-8") for name, text in generate.scene_texts().items()}
    assert texts == {p.stem: p.read_bytes() for p in (GOLDEN / "scenes").glob("*.json")}


@pytest.mark.parametrize("key", sorted(OUTPUTS))
def test_cli_output_unchanged(capsys, key):
    code = cli.main(argv(key))
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


def test_rejected_scenes_regenerate_byte_for_byte():
    texts = {name: text.encode("utf-8") for name, text in generate.rejected_texts().items()}
    assert texts == {p.stem: p.read_bytes() for p in (GOLDEN / "rejected").glob("*.json")}


@pytest.mark.parametrize("key", sorted(REJECTED))
def test_rejected_scene_output_unchanged(capsys, key):
    """Invalid scenes: stdout, stderr (the full violation report, in
    order) and the exit code stay byte-identical."""
    code = cli.main(argv(key, "rejected"))
    got = capsys.readouterr()
    want = REJECTED[key]
    assert (got.out, got.err, code) == (want["stdout"], want["stderr"], want["code"])


def test_calls_in_turn_share_one_parser(capsys):
    """``cli.main`` builds its parser once per process: a flag given on one
    call reaches none after it, and a usage error leaves the parser as it
    was.  Each pair's outputs differ, so a leaked flag would show."""
    keys = ["octa-link-a index --json --basepoint b,o,y=y", "octa-link-a index --json",
            "octa-link-a check --canonical-flatness", "octa-link-a check"]
    assert OUTPUTS[keys[0]] != OUTPUTS[keys[1]] and OUTPUTS[keys[2]] != OUTPUTS[keys[3]]
    for key in keys:
        code = cli.main(argv(key))
        want = OUTPUTS[key]
        assert (capsys.readouterr().out, code) == (want["stdout"], want["code"]), key
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["check", "--bogus", argv(keys[3])[-1]])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    code, want = cli.main(argv(keys[3])), OUTPUTS[keys[3]]
    assert (capsys.readouterr().out, code) == (want["stdout"], want["code"])
    assert cli.build_parser() is cli.build_parser()


def test_the_process_plan_runs_every_key():
    """``processes.plan()``, which starts no process, makes each run once:
    a golden key that the runner skips fails here, not silently in CI."""
    runs = processes.plan()

    def keys(streams, stdin=type(None)):
        return Counter(run.key for run in runs
                       if run.streams == streams and isinstance(run.stdin, stdin))

    fixtures = Counter(f"scenes/fixture-{name}.json" for name in generate.FIXTURES)
    commands = ("validate", "links", "curvature", "index", "check", "export")
    scene_commands = Counter(f"{path.stem} {command}" for path in GOLDEN.glob("scenes/*.json")
                             for command in commands)
    rejected = Counter(f"{path.stem} validate" for path in GOLDEN.glob("rejected/*.json"))
    sweeps = {
        "golden": (keys(""), Counter(iter(OUTPUTS)) + fixtures),
        "fixture pipes": (keys("", list), fixtures + Counter(["scenes/fixture-octahedron.json"])),
        "rejected pipes": (keys("", bytes), rejected),
        "reader-less stdout": (keys("|x"), scene_commands + Counter(
            f"fixture {name}" for name in generate.FIXTURES) + Counter(
            f"{path.stem} {report}" for path in GOLDEN.glob("scenes/*.json")
            for report in processes.ROW_REPORTS)),
        # no scene reaches a closed stdin: one run per command, stdin "-"
        "closed stdin": (keys("<&-"), Counter(f"- {command}" for command in commands)),
        "closed stderr": (keys("2>&-"), rejected + Counter(
            key for key in OUTPUTS if key.split(" ")[1] == "check")),
    }
    assert {name: got for name, (got, want) in sweeps.items() if got != want} == {}
    assert sum(got.total() for got, _ in sweeps.values()) == len(runs)
