"""Scene round-trips and CLI behavior, including exit codes."""

import contextlib
import dataclasses
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from windex import cli, scene as scene_module
from windex.bundle import attach_flatness, canonical_flatness, tangent_connection
from windex.errors import ValidationFailed, WindexError
from windex.field import gauge_transform_field
from windex.fixtures import (
    boundary_delta3,
    icosahedron,
    octahedron,
    octahedron_connection,
    octahedron_spin_field,
)
from windex.scene import (
    JsonText,
    SceneFile,
    SceneParseError,
    json_text,
    parse_scene_text,
    serialize_scene,
)

from oracles import scene_to_obj, transport
from processes import BROKEN_PIPE, CLOSED_STDIN, ENV, GOLDEN, ROW_REPORTS, windex
from sampling import grid_scene, random_connection, random_field, random_lifts
from surfaces import genus2

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

    @pytest.mark.parametrize("limit", [None, 1000], ids=["default-limit", "lowered-limit"])
    def test_coordinates_at_the_digit_limit(self, limit):
        """A string coordinate's numerator and denominator stay below
        10**limit, the int_max_str_digits cap, also after it changes."""
        saved = sys.get_int_max_str_digits()
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        try:
            cap = limit or sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
            for inside in (f"9.99e{cap - 1}", f"-9.99e{cap - 1}", f"1e-{cap - 1}"):
                assert scene_module._coordinate(inside, "x") == Fraction(inside)
            for outside in (f"1e{cap}", f"-1e{cap}", f"1e-{cap}"):
                with pytest.raises(SceneParseError, match="cannot read"):
                    scene_module._coordinate(outside, "x")
        finally:
            sys.set_int_max_str_digits(saved)

    def test_the_coordinate_bound_is_made_once(self):
        """Every string coordinate of a scene is checked against one bound,
        made once for the limit in force."""
        surface = icosahedron()
        obj = scene_to_obj(SceneFile(surface))
        obj["surface"]["positions"] = {v: [f"{i}/7", "-1e-3", "2.5"]
                                       for i, v in enumerate(surface.vertices)}
        scene_module._power_of_ten.cache_clear()
        scene = parse_scene_text(json.dumps(obj))
        assert scene.surface.positions[surface.vertices[3]] == (
            Fraction(3, 7), Fraction(-1, 1000), Fraction(5, 2))
        info = scene_module._power_of_ten.cache_info()
        assert (info.misses, info.hits) == (1, 3 * len(surface.vertices) - 1)

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
            entry["map"] = transport(anchored.connection, *edge).mapping()
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

    def test_coordinate_below_float_range_is_validation_error(self, capsys, tmp_path):
        # nonzero, but its float is 0.0: writing that would move the vertex
        obj = dict(MINIMAL)
        obj["surface"] = dict(MINIMAL["surface"], positions={
            "0": ["0." + "0" * 400 + "1", 0, 0], "1": [1, 0, 0], "2": [0, 1, 0], "3": [0, 0, 1],
        })
        scene = tmp_path / "near.json"
        scene.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = run(capsys, "export", str(scene))
        assert (code, out) == (2, "")
        assert err.startswith("validation error:") and "'0'" in err

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


def _refined_obj(surface, refined: int) -> dict:
    rng = Random(8)
    conn = random_connection(surface, refined, rng)
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
    "refined": lambda: _refined_obj(octahedron(), 8),
    # degrees 6 and 8: arcs 8 and 6 on one surface
    "refined-genus2": lambda: _refined_obj(genus2(), 48),
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
    if name == "refined-genus2":  # x~7 needs an arc of 8, x~5 one of 6 or 8
        assert '~7"' in text and '~5"' in text


# text the writers must escape: quotes, backslashes, control and non-ASCII
# characters, lone surrogates
_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from('"\\/\n\x00é\ud800\udfff'))
_LEAVES = st.none() | st.booleans() | st.integers(-2**80, 2**80) | _TEXT
_MARK = JsonText('{"written": [1, 2]}')
_PLACEHOLDER = "\udead placeholder"


def _json_values(leaves):
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(_TEXT, inner, max_size=4), max_leaves=24)


def _placed(value):
    """``value`` with every JsonText replaced by a placeholder string."""
    if type(value) is JsonText:
        return _PLACEHOLDER
    if type(value) is list:
        return list(map(_placed, value))
    if type(value) is dict:
        return {k: _placed(v) for k, v in value.items()}
    return value


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(_json_values(_LEAVES))
def test_json_text_is_the_encoders_text(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_json_values(_LEAVES | st.just(_MARK)))
def test_json_text_writes_json_text_as_it_is(value):
    """A JsonText at any depth is written verbatim in its place."""
    want = json.dumps(_placed(value), sort_keys=True, indent=2)
    assert json_text(value) == want.replace(json.dumps(_PLACEHOLDER), _MARK)


@pytest.mark.parametrize("value", [1.5, Fraction(1, 3), [0, 0.5], {"a": {"b": Fraction(2)}}],
                         ids=["float", "fraction", "float-in-list", "fraction-in-object"])
def test_json_text_refuses_other_types(value):
    with pytest.raises(TypeError):
        json_text(value)


# scenes whose sections disagree, each as (surface, connection, flatness, field)
DISAGREEING_SCENES = {
    "connection-on-another-surface": lambda conn, field: (
        icosahedron(), conn, None, None),
    "flatness-on-another-surface": lambda conn, field: (
        conn.surface, conn, canonical_flatness(tangent_connection(icosahedron(), 10)), None),
    "field-on-another-connection": lambda conn, field: (
        conn.surface, conn, None,
        gauge_transform_field(field, {conn.surface.vertices[0]: 1})),
    "flatness-without-connection": lambda conn, field: (
        conn.surface, None, canonical_flatness(conn), None),
    "field-without-connection": lambda conn, field: (
        conn.surface, None, None, field),
}


@pytest.mark.parametrize("name", DISAGREEING_SCENES)
def test_serialize_scene_refuses_sections_that_disagree(name):
    """Such a scene has no file: ``serialize_scene`` raises WindexError
    instead of an IndexError or a file the reader rejects."""
    conn = octahedron_connection()
    scene = SceneFile(*DISAGREEING_SCENES[name](conn, octahedron_spin_field(conn)))
    with pytest.raises(WindexError):
        serialize_scene(scene)


@pytest.mark.parametrize("digits", [3001, 5001])
def test_serialize_scene_refuses_lifts_the_reader_refuses(digits):
    """A fiber size of 3 * 10**3000 gives canonical lifts of 3,001 digits,
    which the reader refuses, and 3 * 10**5000 lifts that no ``%d`` can
    write at all: the writer refuses both as TooManyDigits, face by face."""
    conn = tangent_connection(boundary_delta3(), 3 * 10 ** (digits - 1))
    with pytest.raises(ValidationFailed) as excinfo:
        serialize_scene(SceneFile(conn.surface, conn, canonical_flatness(conn)))
    violations = excinfo.value.report.violations
    assert [(v.rule, v.element) for v in violations] == [
        ("TooManyDigits", key) for key in conn.surface.keys]


def test_serialize_scene_refuses_fiber_sizes_the_reader_refuses():
    """A refined fiber size with more digits than the int_max_str_digits
    limit is no JSON integer the reader takes, and no ``%d`` writes it: a
    surface and connection with such a size are refused as TooManyDigits
    on the fiber mode.  A size with exactly the limit's digits is written
    and read back."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    conn = tangent_connection(boundary_delta3(), 3 * 10**limit)
    with pytest.raises(ValidationFailed) as excinfo:
        serialize_scene(SceneFile(conn.surface, conn))
    assert [(v.rule, v.element, v.message) for v in excinfo.value.report.violations] == [
        ("TooManyDigits", "fiber_mode", f"fiber size has more than {limit} digits")]
    assert str(excinfo.value).startswith("invalid fiber mode: ")
    conn = tangent_connection(boundary_delta3(), 3 * 10 ** (limit - 1))
    text = serialize_scene(SceneFile(conn.surface, conn))
    assert parse_scene_text(text).connection == conn


@pytest.mark.parametrize("section", ["flatness", "field"])
def test_serialize_scene_at_the_digit_limit(section):
    """A lift or step count with as many digits as the reader takes is
    written as the encoder writes it and read back; one fiber size more,
    and the writer refuses it as the reader does."""
    digits = (sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits) // 2
    conn = octahedron_connection()
    obj = scene_to_obj(SceneFile(conn.surface, conn, canonical_flatness(conn),
                                 octahedron_spin_field(conn)))
    entry, field = (obj["flatness"], "b,o,y") if section == "flatness" else (
        obj["field"]["steps"][0], "steps")
    entry[field] += 4 * ((10**digits - 1 - entry[field]) // 4)  # fiber size 4
    assert len(str(entry[field])) == digits
    scene = parse_scene_text(json.dumps(obj))
    text = serialize_scene(scene)
    assert text == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert serialize_scene(parse_scene_text(text)) == text
    if section == "flatness":
        lifts = dict(zip(conn.surface.keys, scene.flatness.lifts), **{field: entry[field] + 4})
        scene = dataclasses.replace(scene, flatness=attach_flatness(scene.connection, lifts))
        fault = "[b,o,y]: lift"
    else:
        h = conn.surface.half_edge(*entry["edge"])
        steps = list(scene.field.steps)
        steps[h] += 4
        steps[conn.surface.twin[h]] -= 4
        scene = dataclasses.replace(scene, field=dataclasses.replace(scene.field, steps=steps))
        fault = "[({},{})]: step count".format(*entry["edge"])
    with pytest.raises(ValidationFailed) as excinfo:
        serialize_scene(scene)
    assert str(excinfo.value).endswith(f"TooManyDigits {fault} has more than {digits} digits")


def test_serialize_scene_takes_equal_sections():
    """Sections on an equal surface and connection, not the same objects,
    are written as if they were the same."""
    conn = octahedron_connection()
    field, flatness = octahedron_spin_field(conn), canonical_flatness(conn)
    again = octahedron_connection()
    assert again is not conn and again.surface is not conn.surface and again == conn
    text = serialize_scene(SceneFile(conn.surface, conn, flatness, field))
    assert serialize_scene(SceneFile(octahedron(), again, flatness, field)) == text


def test_windex_as_processes_in_a_pipe():
    """``windex fixture octahedron | windex check -`` as two real processes."""
    check = windex(["check", "-"], stdin=["fixture", "octahedron"])
    assert check.returncode == 0, check.stderr
    assert check.stdout.endswith(b": PASS\n")


POSIX = pytest.mark.skipif(os.name != "posix", reason="closes standard streams the POSIX way")
GOLDEN_SCENE = str(GOLDEN / "scenes" / "ico-link-a.json")


def _stdio_env(buffered: bool) -> dict:
    """The process environment, with Python's stdout block-buffered or not:
    a buffered write to a closed pipe fails at the flush, not the write."""
    env = dict(ENV)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


ROW_ARGVS = [report.split(" ") for report in ROW_REPORTS]


@POSIX
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["validate", GOLDEN_SCENE], ["check", "--json", GOLDEN_SCENE],
                                  ["fixture", "octahedron"]]
                         + [[*report, GOLDEN_SCENE] for report in ROW_ARGVS],
                         ids=["validate", "check --json", "fixture octahedron", "index --json",
                              "curvature --json"])
def test_a_stdout_pipe_closed_before_the_write_is_an_output_failure(argv, buffered):
    """A stdout pipe whose read end is closed before windex starts fails its
    first write: exit 1, reported as an output failure, and nothing more is
    written to the pipe, so nothing fails again at exit."""
    proc = windex(argv, streams="|x", env=_stdio_env(buffered))
    assert (proc.returncode, proc.stderr.decode("utf-8")) == (1, BROKEN_PIPE)


@POSIX
@pytest.mark.parametrize("report", ROW_ARGVS, ids=" ".join)
def test_rows_past_the_pipe_buffer_into_a_closed_pipe(capsys, tmp_path, report):
    """A --json report whose rows are more than a pipe holds, 64 KiB, into
    an unbuffered stdout pipe whose reader is gone: the first of its three
    writes fails, and the run exits 1 with one output failure line."""
    path = tmp_path / "grid32.json"
    path.write_text(serialize_scene(grid_scene(32)), encoding="utf-8")
    assert cli.main([*report, str(path)]) == 0
    assert len(capsys.readouterr().out) > 2**16
    proc = windex([*report, str(path)], streams="|x", env=_stdio_env(buffered=False))
    assert (proc.returncode, proc.stderr.decode("utf-8")) == (1, BROKEN_PIPE)


@POSIX
def test_a_closed_stdin_is_a_read_failure():
    proc = windex(["validate", "-"], streams="<&-")
    assert (proc.returncode, proc.stderr.decode("utf-8")) == (1, CLOSED_STDIN)


@POSIX
@pytest.mark.parametrize("argv", [["validate"], ["validate", "--json"], *ROW_ARGVS],
                         ids=["text", "json", *ROW_REPORTS])
def test_a_closed_stdout_is_an_output_failure(argv):
    proc = windex([*argv, GOLDEN_SCENE], streams=">&-")
    want = b"cannot write output: standard output is closed\n"
    assert (proc.returncode, proc.stderr) == (1, want)


def test_a_run_keeps_no_copy_of_the_scene_text(capsys, tmp_path):
    """``parse_scene`` hands the text it reads to the reader in a list that
    the reader empties, so the text is freed once decoded: the tracemalloc
    peak of ``windex validate`` on a sampled 32x32 grid exceeds that of
    ``parse_scene_text`` on the same text, which its caller holds
    throughout, by less than half the text."""
    text = serialize_scene(grid_scene(32))
    path = tmp_path / "grid32.json"
    path.write_text(text, encoding="utf-8")
    cli.build_parser()
    peaks = []
    for read in (lambda: parse_scene_text(text), lambda: cli.main(["validate", str(path)])):
        gc.collect()
        tracemalloc.start()
        try:
            read()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert capsys.readouterr().out.endswith("field: ok\n")
    assert peaks[1] - peaks[0] < len(text) / 2, (peaks, len(text))


# a scene the builders reject, exit 2, and one that is no JSON, exit 1
FAILING_SCENES = [
    pytest.param((GOLDEN / "rejected" / "boundary-edge.json").read_text(encoding="utf-8"), 2,
                 id="rejected"),
    pytest.param('{"surface": ', 1, id="unparsable"),
]


@POSIX
@pytest.mark.parametrize("text, code", FAILING_SCENES)
def test_a_closed_stderr_keeps_the_documented_exit_code(tmp_path, text, code):
    """With stderr closed the message is dropped, and the exit code is
    still the documented one."""
    path = tmp_path / "scene.json"
    path.write_text(text, encoding="utf-8")
    proc = windex(["validate", str(path)], streams="2>&-")
    assert (proc.returncode, proc.stderr) == (code, b"")


@pytest.mark.parametrize("text, code", FAILING_SCENES)
def test_a_missing_stderr_is_no_exception(monkeypatch, capsys, tmp_path, text, code):
    """``main`` returns the documented code when ``sys.stderr`` is None, as
    Python leaves it when the process starts with stderr closed: no
    exception escapes, so no traceback is due."""
    path = tmp_path / "scene.json"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(sys, "stderr", None)
    assert cli.main(["validate", str(path)]) == code
    assert capsys.readouterr().out == ""


PRODUCT_ONLY = """
import sys
import windex, windex.cli, windex.fixtures
loaded = sorted({"polygon", "windex.polygon"} & sys.modules.keys())
assert not loaded, loaded
removed = sorted({"Polygon", "PolyIso", "PolyPath", "Turns", "boundary"} & set(windex.__all__))
assert not removed, removed
sys.exit(windex.cli.main(["fixture", "octahedron"]))
"""


def test_the_package_never_loads_the_reference_algebra(tmp_path):
    """With only ``src`` on the path, importing every windex module loads
    no polygon module and exports none of its names, and the octahedron
    fixture still prints its golden bytes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", PRODUCT_ONLY], capture_output=True,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr.decode("utf-8", "replace")
    assert proc.stdout == (GOLDEN / "scenes" / "fixture-octahedron.json").read_bytes()


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
    proc = windex([*argv, str(scene)])
    err = proc.stderr.decode("utf-8")
    assert (proc.returncode, err) == (0, ""), err  # no traceback
    out = proc.stdout.decode("utf-8")
    if argv[0] in ("links", "curvature", "index"):
        assert "\\ud800" in out



READ_TEXTS = {
    **{f"scenes/{p.stem}": p for p in sorted(GOLDEN.glob("scenes/*.json"))},
    **{f"rejected/{p.stem}": p for p in sorted(GOLDEN.glob("rejected/*.json"))},
    "not-json": '{"surface": ',
    "deep-nesting": "[" * 200000 + "]" * 200000,
    "long-integer": '{"surface": ' + "1" * 5000 + "}",
    "bom": "\ufeff" + json.dumps(MINIMAL),
    "empty": "",
}
# what parse_scene_text raises on each, or None
PAUSE_CASES = {"scenes/ico-link-a": None, "not-json": SceneParseError,
               "deep-nesting": SceneParseError, "long-integer": SceneParseError,
               "rejected/antisymmetry-violation": ValidationFailed}


def _read_text(name: str) -> str:
    text = READ_TEXTS[name]
    return text.read_text(encoding="utf-8") if isinstance(text, Path) else text


@pytest.mark.parametrize("name", ["not-json", "deep-nesting", "long-integer"])
def test_a_decode_error_keeps_no_context(name):
    """A scene that is not JSON is refused with no exception context: the
    decode error, whose ``.doc`` is the whole text, is not kept alive by
    the SceneParseError a caller holds."""
    with pytest.raises(SceneParseError, match="^not valid JSON: ") as excinfo:
        parse_scene_text(_read_text(name))
    assert excinfo.value.__context__ is None and excinfo.value.__cause__ is None


@pytest.fixture
def restore_collector():
    collecting = gc.isenabled()
    yield
    (gc.enable if collecting else gc.disable)()


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("name", PAUSE_CASES)
def test_the_reader_pauses_the_collector_and_restores_it(
        restore_collector, monkeypatch, collecting, name):
    """The collector is off while the JSON is decoded, and after a read, a
    scene or an error, it is on exactly when it was on before."""
    text, error = _read_text(name), PAUSE_CASES[name]
    during = []

    def loads(text):
        during.append(gc.isenabled())
        return json.loads(text)

    monkeypatch.setattr(scene_module, "json", SimpleNamespace(loads=loads))
    (gc.enable if collecting else gc.disable)()
    if error is None:
        assert isinstance(parse_scene_text(text), SceneFile)
    else:
        with pytest.raises(error):
            parse_scene_text(text)
    assert (during, gc.isenabled()) == ([False], collecting)


@pytest.mark.parametrize("name", READ_TEXTS)
def test_a_read_leaves_no_cyclic_garbage(restore_collector, name):
    """What makes the reader's pause free: reading a scene, or failing to,
    leaves nothing for the collector to find, so the collections that its
    allocations would set off free nothing."""
    text = _read_text(name)
    gc.disable()
    gc.collect()
    try:
        parse_scene_text(text)
    except WindexError:
        pass
    assert gc.collect() == 0


@pytest.mark.parametrize("path", sorted((GOLDEN / "scenes").glob("*.json")), ids=lambda p: p.stem)
def test_a_write_leaves_no_cyclic_garbage(restore_collector, path):
    """Writing a scene or a --json report builds no reference cycle, so
    nothing is left for the collector: counted after ``serialize_scene``
    and after each --json subcommand on the scene, an error exit too."""
    scene = parse_scene_text(path.read_text(encoding="utf-8"))
    cli.build_parser()
    gc.disable()
    gc.collect()
    serialize_scene(scene)
    found = {"serialize_scene": gc.collect()}
    for command in ("validate", "links", "curvature", "index", "check"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main([command, "--json", str(path)])
        found[command] = gc.collect()
    assert found == dict.fromkeys(found, 0)
