"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every equality below is exact (integers and Fractions); there are no
tolerances anywhere.  Each test prints a PASS line on success; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

from fractions import Fraction
from random import Random

from windex.bundle import (
    attach_flatness,
    canonical_flatness,
    face_reports,
    flat_connection,
    gauge_transform,
    net_holonomy,
    tangent_connection,
    total_flatness_winding,
)
from windex.complex import euler_characteristic
from windex.field import gauge_transform_field, swirl_path, totals
from windex.fixtures import (
    boundary_delta3,
    csaszar_torus,
    icosahedron,
    octahedron,
    octahedron_connection,
    octahedron_spin_field,
)

from oracles import collapse_unit_oracle, collapse_walk_oracle, subdivide_walk_oracle
from polygon import Polygon, PolyIso, PolyPath
from sampling import random_connection, random_field, random_gauge, random_lifts

RANDOM_SUITES = [
    ("octahedron link mode", octahedron(), "link"),
    ("icosahedron link mode", icosahedron(), "link"),
    ("7-vertex torus refined(6)", csaszar_torus(), 6),
]

TRIALS = 100


def _instances(seed):
    rng = Random(seed)
    for name, surface, mode in RANDOM_SUITES:
        for trial in range(TRIALS):
            conn = random_connection(surface, mode, rng)
            flat = random_lifts(conn, rng)
            field = random_field(conn, rng)
            yield name, trial, conn, flat, field, rng


def test_criterion_1_octahedron_curvature():
    conn = octahedron_connection()
    keys, _, _, holonomy, _, curvature, _ = face_reports(conn, canonical_flatness(conn))
    for face, key, steps, turns in zip(conn.surface.faces, keys, holonomy, curvature,
                                       strict=True):
        assert key == face.key
        assert steps == 1
        assert conn.fiber(min(face.vertices)).n == 4
        assert Fraction(turns) == Fraction(1, 4)
    assert net_holonomy(conn) == 0
    assert total_flatness_winding(conn, canonical_flatness(conn)) == 2
    print("criterion 1: PASS - octahedron curvature 1/4 per face, net 0, total winding 2")


def test_criterion_2_octahedron_index():
    conn = octahedron_connection()
    spin = octahedron_spin_field(conn)
    flat = canonical_flatness(conn)
    report = totals(spin, flat)
    rows = {r.face: r for r in report.rows}

    north = ["g,w,r", "g,o,w", "b,w,o", "b,r,w"]  # wrgw, wgow, wobw, wbrw
    swirls = [rows[k].swirl for k in north]
    assert swirls == [3, -1, -1, -1]
    indices = [rows[k].index for k in north]
    assert indices == [1, 0, 0, 0]

    south = ["b,y,r", "g,r,y", "g,y,o", "b,o,y"]
    south_indices = sorted(rows[k].index for k in south)
    assert south_indices == [0, 0, 0, 1]

    assert report.total_index == 2
    assert report.total_swirl == 0
    print(
        "criterion 2: PASS - spin-field swirls (+3,-1,-1,-1), indices (1,0,0,0), "
        "south multiset {1,0,0,0}, total index 2, total swirl 0"
    )


def test_criterion_3_total_index_equals_total_flatness():
    checked = 0
    for name, trial, conn, flat, field, _ in _instances(seed=101):
        report = totals(field, flat)
        assert report.total_swirl == 0, (name, trial)
        assert report.total_index == report.total_flatness_winding, (name, trial)
        for row in report.rows:
            assert isinstance(row.index, int)
        checked += 1
    assert checked == TRIALS * len(RANDOM_SUITES)
    print(
        f"criterion 3: PASS - total index == total flatness winding on {checked} "
        "random instances (3 surfaces x 100)"
    )


def test_criterion_4_field_independence():
    for name, trial, conn, flat, field, rng in _instances(seed=202):
        other = random_field(conn, rng)
        assert totals(field, flat).total_index == totals(other, flat).total_index, (
            name,
            trial,
        )
    print("criterion 4: PASS - two independent fields give equal totals on every instance")


def test_criterion_5_gauge_invariance():
    conn = octahedron_connection()
    spin = octahedron_spin_field(conn)
    flat = canonical_flatness(conn)

    def per_face(conn, field):
        keys, _, _, holonomy, _, curvature, _ = face_reports(conn, flat)
        return {key: (steps, Fraction(turns), i.index)
                for key, steps, turns, i in zip(keys, holonomy, curvature,
                                                totals(field, flat).rows, strict=True)}

    baseline = per_face(conn, spin)
    assert len(baseline) == len(conn.surface.faces)
    rng = Random(303)
    for _ in range(100):
        gauge = random_gauge(conn, rng)
        gauged = gauge_transform(conn, gauge)
        carried = gauge_transform_field(spin, gauge)
        assert per_face(gauged, carried) == baseline
    print("criterion 5: PASS - 100 random gauges leave holonomy, curvature, index unchanged")


def test_criterion_6_polygon_oracle_suite():
    for n in range(1, 7):
        poly = Polygon(tuple(f"v{i}" for i in range(n)))
        loops = [
            PolyPath(poly, start, steps)
            for start in poly.labels
            for steps in range(-3 * n, 3 * n + 1, n)
        ]

        # windings survive collapse, against two independent oracles
        if n >= 2:
            for v in poly.labels:
                small, transfer = poly.collapse(v)
                for loop in loops:
                    image = transfer(loop)
                    assert image.winding() == loop.winding()
                    assert image.steps == collapse_unit_oracle(poly, v, loop)
                    if small.n >= 3:
                        assert image.steps == collapse_walk_oracle(poly, v, loop)

        # windings survive subdivision
        for k in (1, 2, 3):
            fine, transfer = poly.subdivide(k)
            for loop in loops:
                image = transfer(loop)
                assert image.winding() == loop.winding()
                if n >= 3:
                    assert image.steps == subdivide_walk_oracle(poly, k, loop)

        # torsor laws for subtraction, exhaustively
        for x in poly.labels:
            for y in poly.labels:
                assert (poly.subtract(x, y) + poly.subtract(y, x)) % 1 == 0
                assert (poly.subtract(x, y) == 0) == (x == y)

        # group laws for the 2n endo-isomorphisms, exhaustively
        endos = [
            PolyIso(poly, poly, (poly.labels[0], lab), orientation)
            for lab in poly.labels
            for orientation in ("preserving", "reversing")
        ]
        identity = PolyIso.identity(poly)
        for f in endos:
            assert f.compose(f.invert()) == identity
            assert f.invert().compose(f) == identity
            for g in endos:
                for h in endos:
                    assert f.compose(g).compose(h) == f.compose(g.compose(h))

        # rotations realize subtraction
        for k in range(n):
            rot = PolyIso.rotation(poly, k)
            assert rot.rotation_steps() == k
            for x in poly.labels:
                assert poly.subtract(x, rot(x)) == Fraction(k, n)

        # concat adds steps exactly, associatively, with refl as unit
        for start in poly.labels:
            for s1 in range(-n, n + 1):
                p = PolyPath(poly, start, s1)
                for s2 in range(-n, n + 1):
                    q = PolyPath(poly, p.end, s2)
                    pq = p.concat(q)
                    assert pq.steps == s1 + s2
                    for s3 in range(-n, n + 1):
                        r = PolyPath(poly, q.end, s3)
                        assert pq.concat(r) == p.concat(q.concat(r))
                refl = PolyPath(poly, p.end, 0)
                assert p.concat(refl) == p

    print("criterion 6: PASS - oracle-checked windings and exhaustive algebra laws, n <= 6")


def test_criterion_7_euler_characteristic_cross_check():
    spheres = [
        ("octahedron", octahedron(), "link"),
        ("icosahedron", icosahedron(), 10),
        ("tetrahedron refined(6)", boundary_delta3(), 6),
    ]
    rng = Random(404)
    for name, surface, mode in spheres:
        conn = tangent_connection(surface, mode)
        flat = canonical_flatness(conn)
        field = random_field(conn, rng)
        chi = euler_characteristic(surface)
        assert chi == 2
        assert total_flatness_winding(conn, flat) == chi, name
        assert totals(field, flat).total_index == chi, name

    torus = csaszar_torus()
    conn = flat_connection(torus, 6)
    assert conn.holonomy == [0] * len(torus.faces)
    flat = attach_flatness(conn, {f.key: 0 for f in torus.faces})
    field = random_field(conn, rng)
    assert euler_characteristic(torus) == 0
    assert totals(field, flat).total_index == 0
    print("criterion 7: PASS - total index == V-E+F on three spheres and the flat torus")


def test_criterion_8_boundary_decomposition():
    faces_checked = 0
    for name, trial, conn, flat, field, _ in _instances(seed=505):
        for face, row in zip(conn.surface.faces, totals(field, flat).rows):
            path = swirl_path(field, face)
            assert path.steps == row.swirl, (name, trial, face.key)
            faces_checked += 1
    assert faces_checked == TRIALS * (8 + 20 + 14)
    print(
        "criterion 8: PASS - transported boundary concatenation equals the step sum "
        f"on {faces_checked} faces"
    )
