"""windex against the benchmark's independent oracle.

``perfbench/scenes.py`` works out links, fiber labels, transport offsets
and every expected report from the scene JSON alone and never imports
windex, so a sign or orientation bug would need two independent mistakes
to pass here.  Seeded scenes on seven surfaces, in link mode where the
degrees allow it and refined to twice the lcm of the degrees, go through
``index --json``, ``curvature --json``, ``check`` and a parse/serialize
round trip (the differential test), and their swirls are decomposed
transport by transport at every basepoint; each ``scenes.CORRUPTIONS``
kind applied to them must be rejected under its named rule (the mutation
test).
"""

import json
import math
import sys
from pathlib import Path
from random import Random

import pytest

from windex import cli
from windex.bundle import DiscreteConnection, gauge_transform, tangent_connection
from windex.complex import build_surface
from windex.errors import ValidationFailed
from windex.field import swirl_path
from windex.sampling import random_connection, random_gauge
from windex.scene import parse_scene_text, serialize_scene

from oracles import holonomy_iso
from surfaces import bipyramid, tet_and_octahedron

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import scenes  # noqa: E402

SEEDS = range(5)


def _labels(surface):
    return list(surface.vertices), [f.vertices for f in surface.faces]


SURFACES = {
    "octahedron": scenes.OCTAHEDRON,
    "icosahedron": scenes.icosahedron(),
    "torus7": scenes.seven_vertex_torus(),
    "grid3": scenes.torus_grid(3),
    "grid5": scenes.torus_grid(5),
    "bipyramid": _labels(bipyramid()),
    "tet+octahedron": _labels(tet_and_octahedron()),
}


def _modes(vertices, faces):
    """Link mode when every edge joins equal degrees, and refined to
    twice the lcm of the degrees."""
    degree = {v: len(cycle) for v, cycle in scenes.links(vertices, faces).items()}
    modes = [{"refined": 2 * math.lcm(*degree.values())}]
    if all(degree[a] == degree[b] for a, b in scenes.edges(faces)):
        modes.insert(0, "link")
    return modes


MODES = [(name, mode) for name, (vertices, faces) in SURFACES.items()
         for mode in _modes(vertices, faces)]
CASES = [
    pytest.param(name, mode, seed, id=f"{name}-{json.dumps(mode)}-{seed}")
    for name, mode in MODES
    for seed in SEEDS
]


@pytest.mark.parametrize("name, mode", [
    pytest.param(name, mode, id=f"{name}-{json.dumps(mode)}") for name, mode in MODES])
def test_constructor_derives_holonomy_from_offsets(name, mode):
    """A connection rebuilt from the offsets of each builder's result has
    the holonomy that composing its explicit transports gives."""
    surface = build_surface(*SURFACES[name])
    fiber_mode = mode if mode == "link" else mode["refined"]
    rng = Random(0)
    conn = random_connection(surface, fiber_mode, rng)
    built = [conn, gauge_transform(conn, random_gauge(conn, rng))]
    if all(n % 2 == 0 for n in conn.sizes):  # antipodes need even fibers
        built.append(tangent_connection(surface, fiber_mode))
    for source in built:
        rebuilt = DiscreteConnection(surface, source.refined, list(source.offsets))
        assert rebuilt.holonomy == [holonomy_iso(rebuilt, face).rotation_steps()
                                    for face in surface.faces]


def _scene(name, mode, seed):
    vertices, faces = SURFACES[name]
    return scenes.random_scene(Random(seed), vertices, faces, mode)


def _run(capsys, argv, path):
    code = cli.main(argv + [str(path)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), (argv, err)
    return out


def test_every_surface_has_a_link_and_a_refined_case():
    assert len(CASES) == 65
    assert {name for name, (verts, faces) in SURFACES.items()
            if "link" not in _modes(verts, faces)} == {"bipyramid"}


@pytest.mark.parametrize("name, mode, seed", CASES)
def test_reports_match_the_oracle(capsys, tmp_path, name, mode, seed):
    scene = _scene(name, mode, seed)
    path = tmp_path / "scene.json"
    text = scenes.dump(scene)
    path.write_text(text, encoding="utf-8")
    assert json.loads(_run(capsys, ["index", "--json"], path)) == scenes.expect_index(scene)
    assert json.loads(_run(capsys, ["curvature", "--json"], path)) == scenes.expect_curvature(scene)
    assert _run(capsys, ["check"], path) == scenes.expect_check(scene)
    assert serialize_scene(parse_scene_text(text)) == scenes.expect_serialized(scene)


@pytest.mark.parametrize("name, mode, seed", CASES)
def test_swirl_path_matches_the_oracle_at_every_basepoint(name, mode, seed):
    """The paper's boundary decomposition, carried through the explicit
    transports into each corner's fiber, counts the oracle's swirl."""
    scene = _scene(name, mode, seed)
    field = parse_scene_text(scenes.dump(scene)).field
    faces = {face.key: face for face in field.conn.surface.faces}
    rows = scenes.face_rows(scene)
    assert sorted(faces) == [row["face"] for row in rows]
    for row in rows:
        face = faces[row["face"]]
        for v in face.vertices:
            assert swirl_path(field, face, v).steps == row["swirl"], (row["face"], v)


@pytest.mark.parametrize("kind", sorted(scenes.CORRUPTIONS))
@pytest.mark.parametrize("name, mode, seed", CASES)
def test_corruptions_are_rejected_under_their_rule(name, mode, seed, kind):
    scene = _scene(name, mode, seed)
    bad = scenes.corrupt(Random(seed), scene, kind)
    with pytest.raises(ValidationFailed) as excinfo:
        parse_scene_text(scenes.dump(bad))
    rules = {v.rule for v in excinfo.value.report.violations}
    assert scenes.CORRUPTIONS[kind] in rules, rules
