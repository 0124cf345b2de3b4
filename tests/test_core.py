"""The integer core against its polygon-algebra oracles.

Connections store transports as offsets, face holonomy as a table and
fibers virtually (labels parsed on demand).  These tests check that
arithmetic against the explicit ``Polygon``/``PolyIso`` constructions,
reject every mis-spelled refinement label, and pin memory independent of
the refinement size.
"""

import json
import tracemalloc
from random import Random

import pytest

from windex import cli
from windex.bundle import flat_connection, tangent_connection
from windex.errors import UnknownLabel
from windex.fixtures import boundary_delta3, icosahedron, octahedron
from windex.sampling import random_field
from windex.scene import SceneFile, serialize_scene

from oracles import holonomy_iso
from test_acceptance import _instances


def test_holonomy_table_matches_composed_isomorphisms():
    # the same 300 instances criterion 3 draws
    faces = 0
    for name, trial, conn, _, _, _ in _instances(seed=101):
        for f, face in enumerate(conn.surface.faces):
            for v in face.vertices:
                want = holonomy_iso(conn, face, v).rotation_steps()
                assert conn.holonomy[f] == want, (name, trial, face.key, v)
            faces += 1
    assert faces == 100 * (8 + 20 + 14)


@pytest.mark.parametrize("make, size", [(icosahedron, 10), (boundary_delta3, 6), (boundary_delta3, 36)])
def test_virtual_fibers_match_subdivided_polygons(make, size):
    conn = tangent_connection(make(), size)
    for v in conn.surface.vertices:
        link = conn.surface.link(v)
        poly, _ = link.subdivide(size // link.n)
        assert conn.fiber(v) == poly
        assert conn.size(v) == poly.n == size
        for p, label in enumerate(poly.labels):
            assert conn.position(v, label) == poly.position(label) == p
            assert conn.label_at(v, p) == label
            assert conn.label_at(v, p - size) == label


BAD_LABELS = ["w~0", "w~01", "w~²", "w~١", "w~2", "~1", "q~1", "w~", "w~1~1"]


@pytest.fixture(scope="module")
def refined_octahedron():
    # size 8 on degree-4 links: arc 2, so w~1 is the only refinement of w
    conn = flat_connection(octahedron(), 8)
    return conn, random_field(conn, Random(1))


@pytest.mark.parametrize("label", BAD_LABELS)
def test_misspelled_refinement_labels_are_unknown(refined_octahedron, label):
    conn, _ = refined_octahedron
    assert conn.position("r", "w~1") == conn.position("r", "w") + 1
    with pytest.raises(UnknownLabel):
        conn.position("r", label)


@pytest.mark.parametrize("label", BAD_LABELS)
@pytest.mark.parametrize("where", ["field", "anchor"])
def test_misspelled_labels_exit_2(capsys, tmp_path, refined_octahedron, label, where):
    conn, vf = refined_octahedron
    obj = json.loads(serialize_scene(SceneFile(conn.surface, conn, None, vf)))
    if where == "field":
        obj["field"]["at"]["r"] = label
    else:
        entry = next(e for e in obj["connection"]["transports"] if e["edge"][1] == "r")
        entry["anchor"][1] = label
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(obj), encoding="utf-8")
    assert cli.main(["validate", str(scene)]) == 2
    assert "UnknownLabel" in capsys.readouterr().err


def tetrahedron_scene(size: int) -> dict:
    """Transports anchored at link labels and field values at link labels.

    Links: 0 -> (1 2 3), 1 -> (0 3 2), 2 -> (0 1 3), 3 -> (0 2 1).  In
    units of arc = size / 3 the anchors give offsets 2, 2, 1, 2, 1, 2 down
    the edge list, so the holonomies are 2, 0, 1, 0 in face order, and the
    steps lie in the forced classes pos_b(X_b) - pos_a(X_a) - offset.
    """
    arc = size // 3
    edges = [
        ("0", "1", ["2", "0"], 3),
        ("0", "2", ["2", "0"], 0),
        ("0", "3", ["3", "0"], -1),
        ("1", "2", ["2", "1"], -2),
        ("1", "3", ["3", "1"], 0),
        ("2", "3", ["3", "2"], -1),
    ]
    return {
        "surface": {
            "vertices": ["0", "1", "2", "3"],
            "faces": [["0", "1", "2"], ["0", "2", "3"], ["0", "3", "1"], ["1", "3", "2"]],
        },
        "connection": {
            "fiber_mode": {"refined": size},
            "transports": [{"edge": [a, b], "anchor": anchor} for a, b, anchor, _ in edges],
        },
        "flatness": {"0,1,2": 2 * arc, "0,2,3": 0, "0,3,1": arc + size, "1,3,2": -size},
        "field": {
            "at": {"0": "1", "1": "2", "2": "3", "3": "0"},
            "steps": [{"edge": [a, b], "steps": k * arc} for a, b, _, k in edges],
        },
    }


def _peak_bytes(capsys, argv):
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, capsys.readouterr().out, peak


@pytest.mark.parametrize("size", [3, 600])  # 3: arc 1, the least refinement
@pytest.mark.parametrize("argv", [["check"], ["curvature", "--json"]])
def test_memory_does_not_grow_with_refinement(capsys, tmp_path, argv, size):
    small, large = tmp_path / "small.json", tmp_path / "large.json"
    small.write_text(json.dumps(tetrahedron_scene(size)), encoding="utf-8")
    large.write_text(json.dumps(tetrahedron_scene(600000)), encoding="utf-8")
    code_s, out_s, peak_s = _peak_bytes(capsys, argv + [str(small)])
    code_l, out_l, peak_l = _peak_bytes(capsys, argv + [str(large)])
    assert code_s == code_l == 0
    if argv == ["check"]:
        assert out_s == out_l
        assert "total index 1 == total flatness winding 1: PASS" in out_l
    assert peak_l < 5 * 2**20
    assert abs(peak_l - peak_s) < 2**20
