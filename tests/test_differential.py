"""windex against the benchmark's independent oracle.

``perfbench/scenes.py`` works out links, fiber labels, transport offsets
and every expected report from the scene JSON alone and never imports
windex, so a sign or orientation bug would need two independent mistakes
to pass here.  Seeded scenes on nine surfaces, of genus 0 to 3, in
link mode where the degrees allow it and refined to twice the lcm of the
degrees, go through ``index --json``, ``curvature --json``, ``check`` and
a parse/serialize round trip (the differential test), and their swirl
paths are checked against the decomposition transport by transport at
every basepoint; each ``scenes.CORRUPTIONS`` kind applied to them must be
rejected under its named rule (the mutation test).
"""

import json
import math
import sys
from pathlib import Path
from random import Random

import pytest

from windex import cli
from windex.bundle import DiscreteConnection, gauge_transform, tangent_connection
from windex.complex import build_surface, euler_characteristic
from windex.errors import ValidationFailed
from windex.field import swirl_path
from windex.scene import parse_scene_text, serialize_scene

from oracles import holonomy_iso, link, reference_path, swirl_path_explicit
from sampling import random_connection, random_gauge
from surfaces import bipyramid, genus2, genus3, tet_and_octahedron

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
    "genus2": _labels(genus2()),
    "genus3": _labels(genus3()),
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


@pytest.mark.parametrize("name", SURFACES)
def test_ring_positions_match_the_oracle_links(name):
    """``ring_pos``, ``degrees``, the adjacency map ``out`` and the lazy
    ``link_labels`` view agree with the link the faces induce at every
    vertex."""
    surface = build_surface(*SURFACES[name])
    assert "link_labels" not in vars(surface)
    rings = {v: link(surface, v).labels for v in surface.vertices}
    assert surface.degrees == [len(rings[v]) for v in surface.vertices]
    assert surface.link_labels == [list(rings[v]) for v in surface.vertices]
    labels, out = surface.vertices, surface.out
    assert list(out) == list(labels)
    assert [len(out[v]) for v in labels] == surface.degrees
    for h, (t, u) in enumerate(zip(surface.tails, surface.heads)):
        assert rings[labels[t]][surface.ring_pos[h]] == labels[u], (labels[t], labels[u])
        assert out[labels[t]][labels[u]] == h, (labels[t], labels[u])


def _scene(name, mode, seed):
    vertices, faces = SURFACES[name]
    return scenes.random_scene(Random(seed), vertices, faces, mode)


def _run(capsys, argv, path):
    code = cli.main(argv + [str(path)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), (argv, err)
    return out


def test_two_tori_summed_have_genus_2():
    surface = genus2()
    assert (len(surface.vertices), len(surface.edge_half), len(surface.keys)) == (14, 48, 32)
    assert euler_characteristic(surface) == -2
    assert sorted(set(surface.degrees)) == [6, 8]


def test_a_torus_summed_with_genus_2_has_genus_3():
    surface = genus3()
    assert (len(surface.vertices), len(surface.edge_half), len(surface.keys)) == (21, 75, 50)
    assert euler_characteristic(surface) == -4
    assert sorted(set(surface.degrees)) == [6, 8, 10]


def test_every_surface_has_a_link_and_a_refined_case():
    assert len(CASES) == 75
    assert {name for name, (verts, faces) in SURFACES.items()
            if "link" not in _modes(verts, faces)} == {"bipyramid", "genus2", "genus3"}


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
    """``swirl_path``, read off the tables, is the paper's boundary
    decomposition carried through the explicit transports into each
    corner's fiber, and counts the scene oracle's swirl."""
    scene = _scene(name, mode, seed)
    field = parse_scene_text(scenes.dump(scene)).field
    faces = {face.key: face for face in field.conn.surface.faces}
    rows = scenes.face_rows(scene)
    assert sorted(faces) == [row["face"] for row in rows]
    for row in rows:
        face = faces[row["face"]]
        for v in face.vertices:
            path = swirl_path(field, face, v)
            assert reference_path(field.conn, path) == swirl_path_explicit(field, face, v), (
                row["face"], v)
            assert path.steps == row["swirl"], (row["face"], v)


@pytest.mark.parametrize("kind", sorted(scenes.CORRUPTIONS))
@pytest.mark.parametrize("name, mode, seed", CASES)
def test_corruptions_are_rejected_under_their_rule(name, mode, seed, kind):
    scene = _scene(name, mode, seed)
    bad = scenes.corrupt(Random(seed), scene, kind)
    with pytest.raises(ValidationFailed) as excinfo:
        parse_scene_text(scenes.dump(bad))
    rules = {v.rule for v in excinfo.value.report.violations}
    assert scenes.CORRUPTIONS[kind] in rules, rules
