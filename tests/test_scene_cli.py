"""Scene round-trips and CLI behavior, including exit codes."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

from windex import cli
from windex.fixtures import octahedron, octahedron_connection, octahedron_spin_field
from windex.sampling import random_connection, random_field, random_lifts
from windex.scene import SceneFile, SceneParseError, parse_scene_text, serialize_scene

from oracles import scene_to_obj

MINIMAL = {
    "surface": {
        "vertices": ["0", "1", "2", "3"],
        "faces": [["0", "1", "2"], ["0", "2", "3"], ["0", "3", "1"], ["1", "3", "2"]],
    }
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture_scene(capsys, name):
    code, out, err = run(capsys, "fixture", name)
    assert code == 0, err
    return out


class TestScene:
    @pytest.mark.parametrize("name", ["octahedron", "icosahedron", "tetrahedron", "torus"])
    def test_round_trip_is_identity(self, capsys, name):
        text = fixture_scene(capsys, name)
        scene = parse_scene_text(text)
        again = parse_scene_text(serialize_scene(scene))
        assert again.surface == scene.surface
        assert again.connection == scene.connection
        assert again.field == scene.field
        assert serialize_scene(again) == serialize_scene(scene)

    def test_minimal_surface_only(self):
        scene = parse_scene_text(json.dumps(MINIMAL))
        assert scene.connection is None and scene.field is None
        assert len(scene.surface.faces) == 4

    def test_flatness_round_trip(self, capsys):
        obj = json.loads(fixture_scene(capsys, "octahedron"))
        scene = parse_scene_text(json.dumps(obj))
        obj["flatness"] = {f.key: 5 for f in scene.surface.faces}
        lifted = parse_scene_text(json.dumps(obj))
        again = parse_scene_text(serialize_scene(lifted))
        assert again.flatness == lifted.flatness
        assert again.flatness.lifts == [5] * len(again.surface.faces)

    def test_unknown_keys_rejected(self):
        bad = dict(MINIMAL, color="blue")
        with pytest.raises(SceneParseError):
            parse_scene_text(json.dumps(bad))

    def test_nested_unknown_keys_rejected(self):
        bad = {"surface": dict(MINIMAL["surface"], smooth=True)}
        with pytest.raises(SceneParseError):
            parse_scene_text(json.dumps(bad))

    def test_flatness_requires_connection(self):
        bad = dict(MINIMAL, flatness={"0,1,2": 0})
        with pytest.raises(SceneParseError):
            parse_scene_text(json.dumps(bad))

    def test_rational_positions(self):
        obj = dict(MINIMAL)
        obj["surface"] = dict(MINIMAL["surface"], positions={
            "0": ["1/3", 0, 0], "1": [1, 0, 0], "2": [0, 1, 0], "3": [0, 0, 1],
        })
        scene = parse_scene_text(json.dumps(obj))
        from fractions import Fraction

        assert scene.surface.positions["0"][0] == Fraction(1, 3)

    def test_bad_json_is_parse_error(self):
        with pytest.raises(SceneParseError):
            parse_scene_text("{not json")

    def test_map_form_transports(self, capsys):
        obj = json.loads(fixture_scene(capsys, "octahedron"))
        anchored = parse_scene_text(json.dumps(obj))
        for entry in obj["connection"]["transports"]:
            edge = tuple(entry.pop("edge"))
            entry.pop("anchor")
            entry["edge"] = list(edge)
            entry["map"] = anchored.connection.transport(*edge).mapping()
        mapped = parse_scene_text(json.dumps(obj))
        assert mapped.connection == anchored.connection

    def test_anchor_and_map_are_exclusive(self, capsys):
        obj = json.loads(fixture_scene(capsys, "octahedron"))
        entry = obj["connection"]["transports"][0]
        entry["map"] = {"a": "b"}
        with pytest.raises(SceneParseError):
            parse_scene_text(json.dumps(obj))

    @pytest.mark.parametrize("where", ["connection.transports", "field.steps"])
    @pytest.mark.parametrize("repeat, broken", [(2, 4), (4, 2), (2, 2)])
    def test_the_first_fault_in_the_file_is_reported(self, capsys, where, repeat, broken):
        """An entry repeating an earlier edge and a malformed entry: the
        error names whichever comes first; in one entry, the repeat."""
        obj = json.loads(fixture_scene(capsys, "octahedron"))
        section, key = where.split(".")
        value, why = {"connection": ("anchor", "a pair of fiber labels"),
                      "field": ("steps", "an integer")}[section]
        entries = obj[section][key]
        entries[repeat] = dict(entries[0])
        entries[broken] = dict(entries[broken], **{value: "x"})
        edge = tuple(entries[0]["edge"])
        want = (f"{where}[{repeat}]: duplicate entry for edge {edge}" if repeat <= broken
                else f"{where}[{broken}].{value}: expected {why}")
        with pytest.raises(SceneParseError, match=f"^{re.escape(want)}$"):
            parse_scene_text(json.dumps(obj))


class TestCli:
    def test_check_passes_on_octahedron(self, capsys, tmp_path):
        scene = tmp_path / "octa.json"
        scene.write_text(fixture_scene(capsys, "octahedron"), encoding="utf-8")
        code, out, _ = run(capsys, "check", str(scene))
        assert code == 0
        assert "total index 2 == total flatness winding 2: PASS" in out

    def test_check_json_output(self, capsys, tmp_path):
        scene = tmp_path / "octa.json"
        scene.write_text(fixture_scene(capsys, "octahedron"), encoding="utf-8")
        code, out, _ = run(capsys, "check", "--json", str(scene))
        payload = json.loads(out)
        assert code == 0
        assert payload["total_index"] == 2
        assert payload["total_flatness_winding"] == 2
        assert payload["verdict"] == "PASS"

    def test_curvature_report(self, capsys, tmp_path):
        scene = tmp_path / "octa.json"
        scene.write_text(fixture_scene(capsys, "octahedron"), encoding="utf-8")
        code, out, _ = run(capsys, "curvature", "--json", str(scene))
        payload = json.loads(out)
        assert code == 0
        assert payload["conventions"] == "v1"
        assert len(payload["faces"]) == 8
        assert all(row["curvature"] == "1/4" for row in payload["faces"])
        assert payload["net_holonomy"] == "0"
        assert payload["total_flatness_winding"] == 2

    def test_index_with_basepoint_override(self, capsys, tmp_path):
        scene = tmp_path / "octa.json"
        scene.write_text(fixture_scene(capsys, "octahedron"), encoding="utf-8")
        code, out, _ = run(
            capsys, "index", "--json", "--basepoint", "g,w,r=w", str(scene)
        )
        payload = json.loads(out)
        row = next(r for r in payload["faces"] if r["face"] == "g,w,r")
        assert code == 0
        assert row["basepoint"] == "w"
        assert payload["total_index"] == 2
        assert payload["theorem_holds"] is True

    def test_bad_basepoint_is_validation_error(self, capsys, tmp_path):
        scene = tmp_path / "octa.json"
        scene.write_text(fixture_scene(capsys, "octahedron"), encoding="utf-8")
        code, _, err = run(capsys, "index", "--basepoint", "g,w,r=y", str(scene))
        assert code == 2
        assert "not a vertex" in err

    def test_canonical_flatness_flag(self, capsys, tmp_path):
        text = fixture_scene(capsys, "octahedron")
        obj = json.loads(text)
        scene = parse_scene_text(text)
        obj["flatness"] = {f.key: 5 for f in scene.surface.faces}  # 1 + one turn
        file = tmp_path / "octa.json"
        file.write_text(json.dumps(obj), encoding="utf-8")
        code, out, _ = run(capsys, "curvature", "--json", str(file))
        assert code == 0
        assert json.loads(out)["total_flatness_winding"] == 10
        code, out, _ = run(capsys, "curvature", "--json", "--canonical-flatness", str(file))
        assert code == 0
        assert json.loads(out)["total_flatness_winding"] == 2

    def test_links_subcommand(self, capsys, tmp_path):
        scene = tmp_path / "octa.json"
        scene.write_text(fixture_scene(capsys, "octahedron"), encoding="utf-8")
        code, out, _ = run(capsys, "links", "--json", str(scene))
        assert code == 0
        assert json.loads(out)["links"]["w"] == ["b", "r", "g", "o"]

    def test_validate_ok(self, capsys, tmp_path):
        scene = tmp_path / "octa.json"
        scene.write_text(fixture_scene(capsys, "octahedron"), encoding="utf-8")
        code, out, _ = run(capsys, "validate", str(scene))
        assert code == 0
        for section in ("surface", "connection", "field"):
            assert f"{section}: ok" in out

    def test_parse_error_exit_1(self, capsys, tmp_path):
        scene = tmp_path / "bad.json"
        scene.write_text('{"surface": {"vertices": []}}', encoding="utf-8")
        code, _, err = run(capsys, "validate", str(scene))
        assert code == 1
        assert "parse error" in err

    def test_boundary_edge_exit_2(self, capsys, tmp_path):
        scene = tmp_path / "open.json"
        scene.write_text(json.dumps(
            {"surface": {"vertices": ["a", "b", "c"], "faces": [["a", "b", "c"]]}}
        ), encoding="utf-8")
        code, _, err = run(capsys, "validate", str(scene))
        assert code == 2
        assert "BoundaryEdge" in err

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 1

    def test_check_needs_field(self, capsys, tmp_path):
        scene = tmp_path / "ico.json"
        scene.write_text(fixture_scene(capsys, "icosahedron"), encoding="utf-8")
        code, _, err = run(capsys, "check", str(scene))
        assert code == 2
        assert "field" in err

    def test_failing_verdict_exits_3(self, capsys, tmp_path, monkeypatch):
        # valid inputs cannot produce a failing verdict, so fake the totals
        scene = tmp_path / "octa.json"
        scene.write_text(fixture_scene(capsys, "octahedron"), encoding="utf-8")
        real = cli.totals

        def lying_totals(*args, **kwargs):
            report = real(*args, **kwargs)
            object.__setattr__(report, "total_index", report.total_index + 1)
            return report

        monkeypatch.setattr(cli, "totals", lying_totals)
        code, out, _ = run(capsys, "check", str(scene))
        assert code == 3
        assert "FAIL" in out

    def test_export_off(self, capsys, tmp_path):
        scene = tmp_path / "tet.json"
        scene.write_text(fixture_scene(capsys, "tetrahedron"), encoding="utf-8")
        code, out, _ = run(capsys, "export", "--format", "off", str(scene))
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "OFF"
        assert lines[1] == "4 4 6"
        assert lines[2:6] == ["1 1 1", "1 -1 -1", "-1 1 -1", "-1 -1 1"]
        assert len(lines) == 10
        assert all(line.startswith("3 ") for line in lines[6:])

    def test_export_needs_positions(self, capsys, tmp_path):
        scene = tmp_path / "torus.json"
        scene.write_text(fixture_scene(capsys, "torus"), encoding="utf-8")
        code, _, err = run(capsys, "export", str(scene))
        assert code == 2
        assert "positions" in err

    def test_stdin_pipe(self, capsys, monkeypatch, tmp_path):
        import io

        text = fixture_scene(capsys, "octahedron")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "check")
        assert code == 0
        assert "PASS" in out

    # a valid scene once vertex "0" is renamed to the byte 0xff
    NOT_UTF8 = json.dumps(MINIMAL).encode().replace(b'"0"', b'"\xff"')

    def test_non_utf8_file_is_parse_error(self, capsys, tmp_path):
        scene = tmp_path / "latin1.json"
        scene.write_bytes(self.NOT_UTF8)
        code, _, err = run(capsys, "validate", str(scene))
        assert code == 1
        assert err.startswith("parse error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    def test_non_utf8_stdin_is_parse_error(self, capsys, monkeypatch, errors):
        import io

        stdin = io.TextIOWrapper(io.BytesIO(self.NOT_UTF8), encoding="utf-8", errors=errors)
        monkeypatch.setattr("sys.stdin", stdin)
        code, _, err = run(capsys, "validate")
        assert code == 1
        assert err.startswith("parse error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "[" * 100000 + "]" * 100000,
        '{"surface": ' + "1" * 5000 + "}",  # past Python's int_max_str_digits
    ], ids=["deep-nesting", "long-integer"])
    def test_json_decoder_limits_are_parse_errors(self, capsys, tmp_path, text):
        scene = tmp_path / "hostile.json"
        scene.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "check", str(scene))
        assert code == 1
        assert err.startswith("parse error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("coordinate", ["1e10000000", "1e-10000000", "1e5000"])
    def test_oversized_coordinates_are_parse_errors(self, capsys, tmp_path, coordinate):
        obj = dict(MINIMAL)
        obj["surface"] = dict(MINIMAL["surface"], positions={
            "0": [coordinate, 0, 0], "1": [1, 0, 0], "2": [0, 1, 0], "3": [0, 0, 1],
        })
        scene = tmp_path / "far.json"
        scene.write_text(json.dumps(obj), encoding="utf-8")
        start = time.perf_counter()
        code, _, err = run(capsys, "export", str(scene))
        assert time.perf_counter() - start < 0.5
        assert code == 1
        assert err.startswith("parse error:")
        assert "Traceback" not in err

    def test_coordinate_outside_float_range_is_validation_error(self, capsys, tmp_path):
        # an exact rational the parser keeps, but no float holds
        obj = dict(MINIMAL)
        obj["surface"] = dict(MINIMAL["surface"], positions={
            "0": [0, 0, 0], "1": [1, 0, 0], "2": ["1" + "0" * 400 + ".5", 1, 0], "3": [0, 0, 1],
        })
        scene = tmp_path / "far.json"
        scene.write_text(json.dumps(obj), encoding="utf-8")
        code, _, err = run(capsys, "export", str(scene))
        assert code == 2
        assert err.startswith("validation error:") and "'2'" in err

    def test_json_keys_sorted(self, capsys, tmp_path):
        scene = tmp_path / "octa.json"
        scene.write_text(fixture_scene(capsys, "octahedron"), encoding="utf-8")
        _, out, _ = run(capsys, "index", "--json", str(scene))
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


# labels the encoder escapes: non-ASCII, a quote, a backslash and a lone
# surrogate (the scene file spells it as the JSON escape \ud800)
ODD_LABELS = {"w": "é", "b": '"', "r": "\\", "g": "\ud800"}


def _relabel(node, labels=ODD_LABELS):
    if isinstance(node, str):
        return labels.get(node, node)
    if isinstance(node, list):
        return [_relabel(item, labels) for item in node]
    if isinstance(node, dict):
        return {_relabel(key, labels): _relabel(value, labels) for key, value in node.items()}
    return node


@pytest.mark.parametrize("command", ["index", "curvature"])
@pytest.mark.parametrize("canonical", [False, True], ids=["scene-lifts", "canonical"])
@pytest.mark.parametrize("override", [False, True], ids=["least-basepoints", "basepoint-override"])
def test_per_face_json_is_the_encoders_text(capsys, tmp_path, command, canonical, override):
    """The per-face rows are written without json.dumps, byte for byte as
    json.dumps(sort_keys=True, indent=2) writes the same report."""
    obj = _relabel(json.loads(fixture_scene(capsys, "octahedron")))
    faces = parse_scene_text(json.dumps(obj)).surface.faces
    obj["flatness"] = {f.key: 5 for f in faces}  # 1 + one turn: not the canonical lifts
    scene = tmp_path / "odd.json"
    scene.write_text(json.dumps(obj), encoding="utf-8")
    assert "\\ud800" in scene.read_text(encoding="utf-8")
    argv = [command, "--json", str(scene)]
    if canonical:
        argv.append("--canonical-flatness")
    if override:  # the greatest label, never a face's default (least) basepoint
        face = next(f for f in faces if "\ud800" in f.vertices)
        argv += ["--basepoint", f"{face.key}=\ud800"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    payload = json.loads(out)
    assert {row["face"] for row in payload["faces"]} == {f.key for f in faces}
    assert payload["total_flatness_winding"] == (2 if canonical else 10)
    if override:
        assert next(r for r in payload["faces"] if r["face"] == face.key)["basepoint"] == "\ud800"


@pytest.mark.parametrize("command", ["index", "curvature"])
def test_per_face_json_of_the_empty_surface(capsys, tmp_path, command):
    # the empty surface validates, and its rows are the encoder's "[]"
    scene = tmp_path / "empty.json"
    scene.write_text(json.dumps({
        "surface": {"vertices": [], "faces": []},
        "connection": {"fiber_mode": "link", "transports": []},
        "field": {"at": {}, "steps": []},
    }), encoding="utf-8")
    code, out, err = run(capsys, command, "--json", str(scene))
    assert code == 0, err
    assert json.loads(out)["faces"] == []
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def _octahedron_obj(sections=("connection", "flatness", "field"), relabel=False) -> dict:
    """The octahedron fixture's scene object, its labels made ``ODD_LABELS``
    if ``relabel``, with the given sections: lifts of 5 (1 + one turn) on
    every face when a flatness section is asked."""
    conn = octahedron_connection()
    obj = scene_to_obj(SceneFile(conn.surface, conn, None, octahedron_spin_field(conn)))
    if relabel:
        obj = _relabel(obj)
    faces = parse_scene_text(json.dumps(obj)).surface.keys
    obj["flatness"] = {key: 5 for key in faces}
    return {key: value for key, value in obj.items() if key == "surface" or key in sections}


def _refined_obj() -> dict:
    rng = Random(8)
    conn = random_connection(octahedron(), 8, rng)
    return scene_to_obj(SceneFile(conn.surface, conn, random_lifts(conn, rng),
                                  random_field(conn, rng)))


def _positioned_obj() -> dict:
    obj = _octahedron_obj(relabel=True)
    obj["surface"]["positions"] = {
        "é": ["-1/2", -3, 0.25], '"': ["7/3", "-0.125", 0], "\ud800": [-1, "1e-2", "-2"],
    }
    return obj


SCENE_OBJS = {
    "escaped-labels": lambda: _octahedron_obj(relabel=True),
    "escaped-positions": _positioned_obj,
    "refined": _refined_obj,
    "empty-surface": lambda: {"surface": {"vertices": [], "faces": []}},
    "empty-sections": lambda: {
        "surface": {"vertices": [], "faces": []},
        "connection": {"fiber_mode": "link", "transports": []},
        "flatness": {},
        "field": {"at": {}, "steps": []},
    },
    "surface-only": lambda: _octahedron_obj(()),
    "with-connection": lambda: _octahedron_obj(("connection",)),
    "with-flatness": lambda: _octahedron_obj(("connection", "flatness")),
    "with-field-no-flatness": lambda: _octahedron_obj(("connection", "field")),
}


@pytest.mark.parametrize("name", sorted(SCENE_OBJS))
def test_serialize_scene_is_the_encoders_text(name):
    """``serialize_scene`` writes its tables from templates, byte for byte
    as json.dumps(sort_keys=True, indent=2) writes the scene's object."""
    obj = SCENE_OBJS[name]()
    scene = parse_scene_text(json.dumps(obj))
    text = serialize_scene(scene)
    assert text == json.dumps(scene_to_obj(scene), sort_keys=True, indent=2) + "\n"
    assert json.loads(text).keys() == obj.keys()
    if name.startswith("empty"):
        assert '\n    "faces": [],\n' in text and '\n    "vertices": []\n' in text
    if name == "escaped-positions":
        assert "\\ud800" in text and '"-1/2"' in text and '"1/100"' in text


WINDEX = [sys.executable, "-m", "windex.cli"]


def _process_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_windex_as_processes_in_a_pipe():
    """``windex fixture octahedron | windex check -`` as two real processes."""
    env = _process_env()
    with subprocess.Popen(WINDEX + ["fixture", "octahedron"], stdout=subprocess.PIPE,
                          env=env) as fixture:
        check = subprocess.run(WINDEX + ["check", "-"], stdin=fixture.stdout, capture_output=True,
                               encoding="utf-8", env=env, timeout=60)
        fixture.stdout.close()
        assert fixture.wait(timeout=60) == 0
    assert check.returncode == 0, check.stderr
    assert check.stdout.endswith(": PASS\n")


SCENE_ARGVS = [[command, *form] for command in ("validate", "links", "curvature", "index", "check")
               for form in ([], ["--json"])] + [["export"]]


@pytest.mark.parametrize("argv", SCENE_ARGVS, ids=" ".join)
def test_a_lone_surrogate_label_through_a_strict_utf8_stdout(capsys, tmp_path, argv):
    """The octahedron fixture with vertex w named "\\ud800", which no UTF-8
    stream can encode: every subcommand, as a real process whose stdout is
    strict UTF-8, exits 0 and prints the label as its JSON escape."""
    obj = _relabel(json.loads(fixture_scene(capsys, "octahedron")), {"w": "\ud800"})
    scene = tmp_path / "surrogate.json"
    scene.write_text(json.dumps(obj), encoding="utf-8")
    env = dict(_process_env(), PYTHONIOENCODING="utf-8")
    proc = subprocess.run(WINDEX + argv + [str(scene)], capture_output=True, env=env, timeout=60)
    err = proc.stderr.decode("utf-8")
    assert (proc.returncode, err) == (0, ""), err  # no traceback
    out = proc.stdout.decode("utf-8")
    if argv[0] in ("links", "curvature", "index"):
        assert "\\ud800" in out
