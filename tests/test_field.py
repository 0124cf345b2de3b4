"""Vector fields: validation, swirl, index, totals, gauge carrying."""

import dataclasses
from fractions import Fraction
from random import Random

import pytest

from windex import bundle
from windex.bundle import (
    Fiber,
    GaugeTransformation,
    canonical_flatness,
    flat_connection,
    tangent_connection,
)
from windex.complex import OrientedFace
from windex.errors import NonIntegralIndex, NotIncident, ValidationFailed, WindexError
from windex.field import (
    SwirlPath,
    VectorField,
    build_field,
    gauge_transform_field,
    swirl_path,
    totals,
)
from windex.fixtures import (
    OCTAHEDRON_SPIN_AT,
    boundary_delta3,
    csaszar_torus,
    icosahedron,
    OCTAHEDRON_SPIN_PATHS,
    octahedron,
    octahedron_connection,
    octahedron_spin_field,
)

from oracles import (
    fiber,
    holonomy_iso,
    link,
    reference_path,
    swirl_path_explicit,
    totals_by_rows,
    transport,
)
from sampling import random_connection, random_field, random_gauge, random_lifts
from surfaces import bipyramid, tet_and_octahedron, torus_grid

# swirls of the spin field, per face, frozen from the boundary sums
EXPECTED_SWIRLS = {
    "g,w,r": 3, "g,o,w": -1, "b,w,o": -1, "b,r,w": -1,
    "b,y,r": -1, "g,r,y": -1, "g,y,o": -1, "b,o,y": 3,
}

# every library fixture surface, in link mode where its degrees are equal
# and refined to 60, the lcm of the degrees 3 to 6
SURFACE_MODES = [(make, mode) for make in (boundary_delta3, octahedron, icosahedron,
                                           csaszar_torus) for mode in ("link", 60)]
SURFACE_MODES.append((tet_and_octahedron, 60))


def both_ways(vf):
    """The field's step on every directed edge, keyed by label pair: the
    ``steps`` argument of ``build_field``."""
    return {(i, j): vf.step(i, j) for a, b in vf.conn.surface.edges for i, j in ((a, b), (b, a))}


@pytest.fixture(scope="module")
def conn():
    return octahedron_connection()


@pytest.fixture(scope="module")
def spin(conn):
    return octahedron_spin_field(conn)


@pytest.fixture(scope="module")
def flat(conn):
    return canonical_flatness(conn)


class TestBuild:
    def test_spin_tables_are_consistent(self, conn, spin):
        # the tables list both directions of every edge; building checks
        # they cancel, so getting here at all is most of the assertion
        assert spin.value("w") == "r"
        assert spin.step("w", "r") == 1
        assert spin.step("r", "w") == -1

    def test_forward_only_matches_two_sided(self, conn, spin):
        forward = {e: spin.step(*e) for e in conn.surface.edges}
        rebuilt = build_field(conn, OCTAHEDRON_SPIN_AT, forward)
        assert rebuilt.steps == spin.steps

    def test_endpoint_incongruent(self, conn):
        steps = {e: octahedron_spin_field(conn).step(*e) for e in conn.surface.edges}
        steps[("r", "w")] = steps[("r", "w")] + 2  # same endpoints demand d = 1 mod 4
        with pytest.raises(ValidationFailed) as excinfo:
            build_field(conn, OCTAHEDRON_SPIN_AT, steps)
        assert any(
            v.rule == "EndpointIncongruent" for v in excinfo.value.report.violations
        )

    def test_antisymmetry_violation(self, conn, spin):
        steps = both_ways(spin)
        steps[("r", "w")] = steps[("w", "r")]  # both +1: cannot cancel
        with pytest.raises(ValidationFailed) as excinfo:
            build_field(conn, OCTAHEDRON_SPIN_AT, steps)
        assert any(
            v.rule == "AntisymmetryViolation" for v in excinfo.value.report.violations
        )

    def test_fractional_step_rejected(self, conn, spin):
        steps = {e: spin.step(*e) for e in conn.surface.edges}
        steps[("b", "o")] = 1.9  # the step there is 1, which int() would read
        with pytest.raises(ValidationFailed) as excinfo:
            build_field(conn, OCTAHEDRON_SPIN_AT, steps)
        assert [(v.rule, v.element, v.message) for v in excinfo.value.report.violations] == [
            ("NotAnInteger", "(b,o)", "step count 1.9 is not an integer"),
        ]

    @pytest.mark.parametrize("key", [5, ("w", "b", "r"), "wb"])
    def test_a_key_that_is_not_a_label_pair_is_reported(self, conn, spin, key):
        steps = {e: spin.step(*e) for e in conn.surface.edges}
        steps[key] = steps.pop(("b", "w"))
        with pytest.raises(ValidationFailed) as excinfo:
            build_field(conn, OCTAHEDRON_SPIN_AT, steps)
        assert [(v.rule, v.element, v.message) for v in excinfo.value.report.violations] == [
            ("BadEdge", repr(key), "an edge is a pair of vertex labels"),
            ("MissingEdge", "{b,w}", "no step count supplied"),
        ]

    def test_value_off_the_surface(self, spin):
        with pytest.raises(NotIncident, match="'zzz' is not a vertex"):
            spin.value("zzz")

    def test_vertex_id(self, conn):
        surface = conn.surface
        assert [surface.vertex_id(v) for v in surface.vertices] == list(range(6))
        with pytest.raises(NotIncident, match="^'zzz' is not a vertex of this surface$"):
            surface.vertex_id("zzz")

    def test_bool_steps_rejected(self, conn):
        # True would pass as the step 1; steps are exactly int
        steps = {e: True for e in conn.surface.edges}
        with pytest.raises(ValidationFailed) as excinfo:
            build_field(conn, OCTAHEDRON_SPIN_AT, steps)
        assert [(v.rule, v.element, v.message) for v in excinfo.value.report.violations] == [
            ("NotAnInteger", f"({i},{j})", "step count True is not an integer")
            for i, j in conn.surface.edges
        ]

    @pytest.mark.parametrize("lookup", [
        lambda s, c, vf: s.vertex_id(["w"]),
        lambda s, c, vf: s.face_id(["w"]),
        lambda s, c, vf: s.half_edge(["w"], "b"),
        lambda s, c, vf: s.half_edge("w", ["b"]),
        lambda s, c, vf: link(s, ["w"]),
        lambda s, c, vf: c.size(["w"]),
        lambda s, c, vf: c.position(["w"], "b"),
        lambda s, c, vf: c.label_at(["w"], 0),
        lambda s, c, vf: c.fiber(["w"]),
        lambda s, c, vf: transport(c, ["w"], "b"),
        lambda s, c, vf: transport(c, "w", ["b"]),
        lambda s, c, vf: vf.value(["w"]),
        lambda s, c, vf: vf.step(["w"], "b"),
    ], ids=["vertex_id", "face_id", "half_edge-tail", "half_edge-head", "link", "size", "position",
            "label_at", "fiber", "transport-tail", "transport-head", "value", "step"])
    def test_unhashable_label_is_not_incident(self, conn, spin, lookup):
        with pytest.raises(NotIncident, match=r"\['w'\]|\['b'\]"):
            lookup(conn.surface, conn, spin)

    def test_unknown_fiber_point(self, conn, spin):
        at = dict(OCTAHEDRON_SPIN_AT)
        at["w"] = "w"  # w is not in its own link
        with pytest.raises(ValidationFailed) as excinfo:
            build_field(conn, at, both_ways(spin))
        assert any(v.rule == "UnknownLabel" for v in excinfo.value.report.violations)

    def test_fiber_point_for_unknown_vertex(self, conn, spin):
        at = dict(OCTAHEDRON_SPIN_AT)
        del at["w"]
        at["zzz"] = "foo"
        with pytest.raises(ValidationFailed) as excinfo:
            build_field(conn, at, both_ways(spin))
        assert [(v.rule, v.element, v.message) for v in excinfo.value.report.violations] == [
            ("MissingVertex", "zzz", "fiber point given for a vertex not on the surface"),
            ("MissingVertex", "w", "no fiber point supplied"),
        ]

    def test_each_label_parsed_once(self, monkeypatch):
        """A link label is read once, off the half-edge to it in its
        vertex's row of ``surface.out``; an ``x~j`` label misses there and
        is read once more by ``_position`` (its link label x), which sees no
        other label."""
        looked_up = []

        class Row(dict):
            def get(self, key, default=None):
                looked_up.append(key)
                return super().get(key, default)

        plain = csaszar_torus()
        surface = dataclasses.replace(plain, out={v: Row(row) for v, row in plain.out.items()})
        torus = flat_connection(surface, 12)  # arcs of 2: link and x~1 labels
        vf = random_field(torus, Random(5))
        labels = {v: vf.value(v) for v in surface.vertices}
        tilde = sorted(v for v, label in labels.items() if "~" in label)
        assert 0 < len(tilde) < len(labels)
        parsed = []
        position = bundle._position

        def counted(surface, arc, v, label):
            parsed.append(surface.vertices[v])
            return position(surface, arc, v, label)

        monkeypatch.setattr(bundle, "_position", counted)
        looked_up.clear()
        # steps by half-edge id, so that no edge key is looked up in a row
        assert build_field(torus, labels, list(enumerate(vf.steps))) == vf
        assert sorted(parsed) == tilde
        assert sorted(looked_up) == sorted(
            [*labels.values(), *(labels[v].partition("~")[0] for v in tilde)])

    def test_tables_name_the_forced_endpoints(self, conn):
        # each table entry is a path from the transported value to the
        # value at the head vertex
        for (i, j), (src, dst) in OCTAHEDRON_SPIN_PATHS.items():
            assert transport(conn, i, j)(OCTAHEDRON_SPIN_AT[i]) == src
            assert OCTAHEDRON_SPIN_AT[j] == dst


class TestSwirl:
    def test_expected_swirls(self, spin, flat):
        assert {r.face: r.swirl for r in totals(spin, flat).rows} == EXPECTED_SWIRLS

    def test_swirl_path_around_top_face(self, conn, spin):
        face = conn.surface.faces[conn.surface.face_id("g,w,r")]
        path = swirl_path(spin, face, "w")
        assert path == SwirlPath(Fiber("w", 4), "g", 3)
        assert reference_path(conn, path).end == spin.value("w")

    def test_swirl_path_connects_holonomy_image_to_value(self, conn, spin, flat):
        for face, row in zip(conn.surface.faces, totals(spin, flat).rows):
            for v in face.vertices:
                path = swirl_path(spin, face, v)
                assert path.steps == row.swirl
                assert path.start == holonomy_iso(conn, face, v)(spin.value(v))
                assert reference_path(conn, path).end == spin.value(v)

    @pytest.mark.parametrize("surface, mode", SURFACE_MODES,
                             ids=[f"{make.__name__}-{mode}" for make, mode in SURFACE_MODES])
    def test_swirl_path_is_the_explicit_decomposition(self, surface, mode, spin):
        """On every face and corner, the path read off the tables is the one
        the transports and concatenations build."""
        rng = Random(f"{surface.__name__} {mode}")
        fields = [random_field(random_connection(surface(), mode, rng), rng)]
        if surface is octahedron and mode == "link":
            fields.append(spin)
        for vf in fields:
            for face in vf.conn.surface.faces:
                for v in face.vertices:
                    path = reference_path(vf.conn, swirl_path(vf, face, v))
                    assert path == swirl_path_explicit(vf, face, v), (face.key, v)

    def test_swirl_path_needs_a_face_of_the_surface(self, conn, spin):
        face = conn.surface.faces[conn.surface.face_id("g,w,r")]
        # the reversed face's edges are half-edges of the surface, but it
        # bounds no face of it
        with pytest.raises(NotIncident):
            swirl_path(spin, OrientedFace(("g", "r", "w"), "g,r,w"))
        with pytest.raises(NotIncident):
            swirl_path(spin, face, "b")

    def test_all_zero_steps_mean_zero_swirl(self):
        # position-preserving transports admit the constant section with
        # zero steps on every edge
        from windex.bundle import flat_connection
        from windex.fixtures import csaszar_torus

        conn = flat_connection(csaszar_torus(), 6)
        at = {v: conn.label_at(v, 0) for v in conn.surface.vertices}
        vf = build_field(conn, at, {e: 0 for e in conn.surface.edges})
        rows = totals(vf, canonical_flatness(conn)).rows
        assert len(rows) == len(conn.surface.faces)
        assert all(r.swirl == 0 for r in rows)


class TestIndex:
    def test_north_indices(self, spin, flat):
        rows = {r.face: r for r in totals(spin, flat).rows}
        keys = ["g,w,r", "g,o,w", "b,w,o", "b,r,w"]
        values = [rows[k].index for k in keys]
        assert values == [1, 0, 0, 0]

    def test_south_indices_multiset(self, spin, flat):
        rows = {r.face: r for r in totals(spin, flat).rows}
        south = ["b,y,r", "g,r,y", "g,y,o", "b,o,y"]
        values = sorted(rows[k].index for k in south)
        assert values == [0, 0, 0, 1]

    def test_lift_shift_shifts_index(self, conn, spin, flat):
        from windex.bundle import attach_flatness

        lifts = dict(zip(conn.surface.keys, flat.lifts))
        lifts["g,w,r"] += 4
        shifted = attach_flatness(conn, lifts)
        before = {r.face: r.index for r in totals(spin, flat).rows}
        after = {r.face: r.index for r in totals(spin, shifted).rows}
        assert after["g,w,r"] == before["g,w,r"] + 1

    def test_index_basepoint_free(self, conn, spin, flat):
        # recompute (lift + swirl)/n from scratch at every corner
        rows = totals(spin, flat).rows
        for f, face in enumerate(conn.surface.faces):
            lift = flat.lifts[f]
            for v in face.vertices:
                n = conn.fiber(v).n
                s = swirl_path(spin, face, v).steps
                assert (lift + s) // n == rows[f].index
                assert (lift + s) % n == 0

    def test_corrupted_field_rejected_at_index(self, conn, spin, flat):
        broken_steps = list(spin.steps)
        broken_steps[conn.surface.half_edge("w", "r")] += 1
        broken = VectorField(conn, list(spin.at), broken_steps)
        # only face g,w,r runs through (w,r)
        with pytest.raises(NonIntegralIndex, match="^face g,w,r: "):
            totals(broken, flat)


class TestTotals:
    def test_spin_field_totals(self, spin, flat):
        report = totals(spin, flat)
        assert report.total_swirl == 0
        assert report.total_index == 2
        assert report.total_flatness_winding == 2
        assert report.theorem_holds

    @pytest.mark.parametrize("make, size", [(icosahedron, 10), (boundary_delta3, 6)])
    def test_flatness_on_another_surface_is_refused(self, spin, make, size):
        # the icosahedron's 20 lifts were cut to the octahedron's 8 faces and
        # the theorem held; the tetrahedron's 4 failed as NonIntegralIndex
        flat = canonical_flatness(tangent_connection(make(), size))
        with pytest.raises(WindexError, match="^the flatness structure lies on another surface"):
            totals(spin, flat)

    def test_flatness_on_an_equal_surface_is_read(self, spin, flat):
        twin = canonical_flatness(octahedron_connection())
        assert twin.surface is not spin.conn.surface
        assert totals(spin, twin) == totals(spin, flat)

    def test_total_index_field_independent(self, conn, flat):
        rng = Random(17)
        for _ in range(10):
            vf = random_field(conn, rng)
            assert totals(vf, flat).total_index == 2

    def test_rows_reflect_basepoint_overrides(self, spin, flat):
        report = totals(spin, flat, {"g,w,r": "w"})
        row = next(r for r in report.rows if r.face == "g,w,r")
        assert row.basepoint == "w"
        assert row.swirl == 3 and row.index == 1

    @pytest.mark.parametrize("overrides", [
        {"no,such,face": "w"},
        {"g,w,r": "y", "no,such,face": "w"},  # every key before any vertex
    ])
    def test_basepoint_key_of_no_face(self, spin, flat, overrides):
        with pytest.raises(NotIncident, match="^no face with key 'no,such,face'$"):
            totals(spin, flat, overrides)

    def test_totals_turn_arithmetic(self, spin, flat):
        report = totals(spin, flat)
        assert sum(Fraction(r.swirl, r.size) for r in report.rows) == report.total_swirl
        assert sum(r.index for r in report.rows) == report.total_index

    def test_mixed_fiber_sizes(self):
        # a disjoint tetrahedron and octahedron in link mode: fibers of
        # sizes 3 and 4 on one surface
        both = tet_and_octahedron()
        expected = ({f.key: 3 for f in boundary_delta3().faces}
                    | {f.key: 4 for f in octahedron().faces})
        rng = Random(29)
        for _ in range(10):
            conn = random_connection(both, "link", rng)
            report = totals(random_field(conn, rng), random_lifts(conn, rng))
            assert {r.face: r.size for r in report.rows} == expected
            assert report.total_swirl == 0
            assert report.theorem_holds


# every sampling surface: the fixtures as above, the bipyramid, a torus
# grid, and the tetrahedron beside the octahedron in link mode, with fibers
# of sizes 3 and 4
ROW_CASES = [*SURFACE_MODES, (bipyramid, 20), (lambda: torus_grid(4), "link"),
             (tet_and_octahedron, "link")]


@pytest.mark.parametrize("make, mode", ROW_CASES)
def test_columns_match_the_rows_reference(make, mode):
    """``totals`` on columns gives the rows and totals the row-by-row
    reference gives, with and without a basepoint override; a field whose
    faces are no whole number of turns fails naming the same first face."""
    surface = make()
    rng = Random(31)
    for _ in range(5):
        conn = random_connection(surface, mode, rng)
        vf, flat = random_field(conn, rng), random_lifts(conn, rng)
        face = rng.choice(surface.faces)
        for basepoints in (None, {face.key: rng.choice(face.vertices)}):
            report = totals(vf, flat, basepoints)
            assert (report.rows, report.total_swirl, report.total_index,
                    report.total_flatness_winding) == totals_by_rows(vf, flat, basepoints)
        broken = list(vf.steps)
        for h in rng.sample(range(len(broken)), 2):  # +1 or +2 on a face: no whole turn
            broken[h] += 1
        bad = VectorField(conn, list(vf.at), broken)
        with pytest.raises(NonIntegralIndex) as want:
            totals_by_rows(bad, flat)
        with pytest.raises(NonIntegralIndex) as got:
            totals(bad, flat)
        assert str(got.value) == str(want.value)


def test_reports_compare_hash_and_show_their_faces(spin, flat):
    """Two reports of one field are equal and hash alike, though their
    columns are lists; the repr shows the per-face columns."""
    report, again = totals(spin, flat), totals(spin, flat)
    assert report == again and hash(report) == hash(again)
    assert report != totals(spin, flat, {"g,w,r": "w"})
    assert all(key in repr(report) for key in EXPECTED_SWIRLS)


class TestGaugeCarry:
    def test_swirl_and_index_gauge_invariant(self, conn, spin, flat):
        rng = Random(29)
        for _ in range(10):
            gauge = random_gauge(conn, rng)
            carried = gauge_transform_field(spin, gauge)
            assert carried.steps == spin.steps
            assert ([(r.face, r.swirl, r.index) for r in totals(carried, flat).rows]
                    == [(r.face, r.swirl, r.index) for r in totals(spin, flat).rows])

    def test_values_rotate_with_fibers(self, conn, spin):
        gauge = GaugeTransformation({"w": 1})
        carried = gauge_transform_field(spin, gauge)
        poly = fiber(conn, "w")
        assert carried.value("w") == poly.label_at(poly.position(spin.value("w")) + 1)

    @pytest.mark.parametrize("gauge, rule", [
        ({"zz": 1}, "MissingVertex"),
        ({"w": "1"}, "NotAnInteger"),
        ({"w": 1.5}, "NotAnInteger"),
        ({"w": True}, "NotAnInteger"),
    ], ids=["missing-vertex", "str", "float", "bool"])
    def test_bad_gauge_rejected(self, spin, gauge, rule):
        with pytest.raises(ValidationFailed, match="^invalid gauge transformation: ") as excinfo:
            gauge_transform_field(spin, gauge)
        assert [(v.rule, v.element) for v in excinfo.value.report.violations] == [
            (rule, next(iter(gauge))),
        ]
