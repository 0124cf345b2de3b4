"""Connections, holonomy, flatness, gauge transformations, trivialization."""

from fractions import Fraction
from random import Random

import pytest

from windex.bundle import (
    DiscreteConnection,
    attach_flatness,
    basepoint,
    boundary,
    build_connection,
    canonical_flatness,
    curvature_turns,
    default_refinement,
    face_reports,
    flat_connection,
    gauge_transform,
    holonomy_iso,
    holonomy_steps,
    net_holonomy,
    tangent_connection,
    total_flatness_winding,
    trivialize_face,
    GaugeTransformation,
)
from windex.errors import NotIncident, ValidationFailed
from windex.fixtures import (
    OCTAHEDRON_TRANSPORTS,
    csaszar_torus,
    icosahedron,
    octahedron,
)
from windex.polygon import PolyIso
from windex.sampling import random_connection, random_gauge

from surfaces import bipyramid, tet_and_octahedron


@pytest.fixture(scope="module")
def octa():
    return octahedron()


@pytest.fixture(scope="module")
def conn(octa):
    return build_connection(octa, "link", OCTAHEDRON_TRANSPORTS)


def with_octahedron_transports(surface, fiber_mode):
    return build_connection(surface, fiber_mode, OCTAHEDRON_TRANSPORTS)


class TestBuild:
    def test_full_maps_and_anchors_agree(self, octa, conn):
        anchored = {
            edge: conn.transport(*edge).anchor for edge in OCTAHEDRON_TRANSPORTS
        }
        assert build_connection(octa, "link", anchored).offsets == conn.offsets

    def test_transport_tables_reproduced(self, conn):
        iso = conn.transport("w", "r")
        assert iso.mapping() == {"b": "b", "r": "y", "g": "g", "o": "w"}
        assert conn.transport("r", "w") == iso.invert()

    def test_reverse_directions_checked(self, octa):
        transports = dict(OCTAHEDRON_TRANSPORTS)
        transports[("r", "w")] = ("b", "r")  # not the inverse of (w, r)
        with pytest.raises(ValidationFailed) as excinfo:
            build_connection(octa, "link", transports)
        assert any(v.rule == "NotInverse" for v in excinfo.value.report.violations)

    def test_supplying_true_inverse_is_fine(self, octa, conn):
        transports = dict(OCTAHEDRON_TRANSPORTS)
        transports[("r", "w")] = conn.transport("r", "w").mapping()
        rebuilt = build_connection(octa, "link", transports)
        assert rebuilt.offsets == conn.offsets

    def test_missing_edge(self, octa):
        transports = dict(OCTAHEDRON_TRANSPORTS)
        del transports[("w", "r")]
        with pytest.raises(ValidationFailed) as excinfo:
            build_connection(octa, "link", transports)
        assert any(v.rule == "MissingEdge" for v in excinfo.value.report.violations)

    def test_unknown_anchor_label(self, octa):
        transports = dict(OCTAHEDRON_TRANSPORTS)
        transports[("w", "r")] = ("b", "q")
        with pytest.raises(ValidationFailed) as excinfo:
            build_connection(octa, "link", transports)
        assert any(v.rule == "UnknownLabel" for v in excinfo.value.report.violations)

    def test_reversing_map_rejected(self, octa):
        transports = dict(OCTAHEDRON_TRANSPORTS)
        fwd = transports[("w", "r")]
        reflect = {"b": "b", "r": "o", "g": "g", "o": "r"}  # a reflection of link(w)
        transports[("w", "r")] = {x: fwd[reflect[x]] for x in fwd}
        with pytest.raises(ValidationFailed) as excinfo:
            build_connection(octa, "link", transports)
        assert any(
            v.rule == "OrientationReversing" for v in excinfo.value.report.violations
        )

    def test_link_mode_needs_equal_degrees(self):
        surf = bipyramid()
        with pytest.raises(ValidationFailed) as excinfo:
            flat_connection(surf, "link")
        assert any(v.rule == "SizeMismatch" for v in excinfo.value.report.violations)
        # the mixed-degree surface still carries refined connections
        conn = flat_connection(surf, default_refinement(surf))
        assert set(conn.sizes) == {20}

    def test_refined_fibers_embed_links(self, octa):
        fiber = flat_connection(octa, 8).fiber("w")
        assert fiber.n == 8
        link = octa.link("w")
        for k, lab in enumerate(link.labels):
            assert (fiber.position(lab) - fiber.position(link.labels[0])) % 8 == 2 * k

    def test_refined_size_must_divide(self, octa):
        with pytest.raises(ValidationFailed):
            flat_connection(octa, 6)

    @pytest.mark.parametrize("build, make, mode, failing", [
        (flat_connection, octahedron, 6, 6),  # 6 is not a multiple of degree 4
        (tangent_connection, icosahedron, 5, 12),  # odd fibers have no antipodes
    ])
    def test_every_size_mismatch_reported(self, build, make, mode, failing):
        with pytest.raises(ValidationFailed) as excinfo:
            build(make(), mode)
        rules = [v.rule for v in excinfo.value.report.violations]
        assert rules == ["SizeMismatch"] * failing

    @pytest.mark.parametrize("build, mode", [
        (flat_connection, 0),
        (tangent_connection, -8),
        (with_octahedron_transports, 8.7),
        (with_octahedron_transports, None),
        (with_octahedron_transports, "x"),
    ], ids=["flat-0", "tangent-minus8", "build-8.7", "build-None", "build-x"])
    def test_bad_fiber_mode_rejected(self, octa, build, mode):
        with pytest.raises(ValidationFailed) as excinfo:
            build(octa, mode)
        assert [(v.rule, v.element, v.message) for v in excinfo.value.report.violations] == [
            ("BadFiberMode", "fiber_mode",
             f'expected "link" or an integer refinement >= 3, got {mode!r}'),
        ]

    @pytest.mark.parametrize("refined, offsets, want", [
        (0, 24, [("BadFiberMode", "fiber_mode",
                  'expected "link" or an integer refinement >= 3, got 0')]),
        (None, 5, [("SizeMismatch", "offsets", "5 offsets for 24 half-edges, need one each")]),
        (6, 24, [("SizeMismatch", v, "refinement 6 is not divisible by degree 4")
                 for v in "bgorwy"]),
    ], ids=["refined-0", "five-offsets", "refined-6"])
    def test_constructor_checks_its_inputs(self, octa, refined, offsets, want):
        with pytest.raises(ValidationFailed) as excinfo:
            DiscreteConnection(octa, refined, [0] * offsets)
        assert [(v.rule, v.element, v.message) for v in excinfo.value.report.violations] == want

    def test_random_refined_connection_on_icosahedron(self):
        conn = random_connection(icosahedron(), 5, Random(11))
        assert set(conn.sizes) == {5}
        assert net_holonomy(conn) == 0


class TestHolonomy:
    def test_quarter_turn_everywhere(self, octa, conn):
        for face in octa.faces:
            assert holonomy_steps(conn, face) == 1
            assert curvature_turns(conn, face) == Fraction(1, 4)

    def test_basepoint_independent(self, octa, conn):
        for face in octa.faces:
            for v in face.vertices:
                assert holonomy_iso(conn, face, v).rotation_steps() == holonomy_steps(conn, face)

    def test_out_and_back_is_identity(self, conn):
        round_trip = conn.transport("r", "w").compose(conn.transport("w", "r"))
        assert round_trip.rotation_steps() == 0

    def test_reversed_boundary_negates_holonomy(self, octa, conn):
        for face in octa.faces:
            v = basepoint(face)
            backwards = PolyIso.identity(conn.fiber(v))
            for i, j in reversed(boundary(face, v)):
                backwards = conn.transport(j, i).compose(backwards)
            n = conn.fiber(v).n
            assert backwards.rotation_steps() == (-holonomy_steps(conn, face)) % n

    def test_net_holonomy_zero(self, conn):
        assert net_holonomy(conn) == 0

    def test_boundary_and_basepoint(self, octa):
        face = octa.face_by_key("g,w,r")
        assert basepoint(face) == "g"
        assert boundary(face, "w") == [("w", "r"), ("r", "g"), ("g", "w")]
        assert boundary(face, "r") == [("r", "g"), ("g", "w"), ("w", "r")]
        with pytest.raises(NotIncident):
            basepoint(face, "y")

    def test_holonomy_offsets_cancel_mod_size(self):
        # the step-level form of vanishing net holonomy, on > 100 random
        # connections spread over three surfaces
        rng = Random(23)
        cases = [
            (octahedron(), "link"),
            (icosahedron(), "link"),
            (csaszar_torus(), 6),
        ]
        for surface, mode in cases:
            for _ in range(35):
                conn = random_connection(surface, mode, rng)
                n = conn.size(surface.vertices[0])
                assert set(conn.sizes) == {n}
                assert sum(holonomy_steps(conn, f) for f in surface.faces) % n == 0

    def test_net_holonomy_zero_on_mixed_fiber_sizes(self):
        # disjoint union of a tetrahedron and an octahedron: valid complex,
        # mixed degrees, so link-mode fiber sizes differ
        both = tet_and_octahedron()
        transports = {(a, b): (both.link(a).labels[0], both.link(b).labels[0])
                      for a, b in both.edges}
        conn = build_connection(both, "link", transports)
        assert {conn.size(v) for v in both.vertices} == {3, 4}
        assert net_holonomy(conn) == 0


class TestFlatness:
    def test_canonical_lifts(self, octa, conn):
        flat = canonical_flatness(conn)
        assert all(flat.lift(f) == 1 for f in octa.faces)
        assert total_flatness_winding(conn, flat) == 2

    def test_all_plus_one_lifts_attach(self, octa, conn):
        flat = attach_flatness(conn, {f.key: 1 for f in octa.faces})
        assert total_flatness_winding(conn, flat) == 2

    def test_shifted_lift_changes_total_by_one(self, octa, conn):
        lifts = {f.key: 1 for f in octa.faces}
        lifts["b,r,w"] = 5
        assert total_flatness_winding(conn, attach_flatness(conn, lifts)) == 3

    def test_incongruent_lift_rejected(self, octa, conn):
        lifts = {f.key: 1 for f in octa.faces}
        lifts["b,r,w"] = 2
        with pytest.raises(ValidationFailed) as excinfo:
            attach_flatness(conn, lifts)
        assert any(v.rule == "LiftIncongruent" for v in excinfo.value.report.violations)

    def test_fractional_lift_rejected(self, octa, conn):
        lifts = {f.key: 1 for f in octa.faces}
        lifts["b,r,w"] = 1.9  # r_F + 0.9, which int() would read as r_F
        with pytest.raises(ValidationFailed) as excinfo:
            attach_flatness(conn, lifts)
        assert [(v.rule, v.element, v.message) for v in excinfo.value.report.violations] == [
            ("NotAnInteger", "b,r,w", "lift 1.9 is not an integer"),
        ]

    def test_zero_holonomy_zero_lifts(self):
        conn = flat_connection(csaszar_torus(), 6)
        flat = canonical_flatness(conn)
        assert all(flat.lift(f) == 0 for f in conn.surface.faces)
        assert total_flatness_winding(conn, flat) == 0

    def test_face_reports(self, octa, conn):
        rows = face_reports(conn, canonical_flatness(conn), {"b,r,w": "w"})
        by_face = {r.face: r for r in rows}
        assert by_face["b,r,w"].basepoint == "w"
        assert by_face["b,o,y"].basepoint == "b"
        assert all(
            r.curvature == Fraction(1, 4) and r.lift_turns == Fraction(1, 4)
            for r in rows
        )

    @pytest.mark.parametrize("overrides, message", [
        ({"no,such,face": "w"}, "no face with key 'no,such,face'"),
        # every key is looked up before any vertex
        ({"b,r,w": "y", "no,such,face": "w"}, "no face with key 'no,such,face'"),
        ({"b,r,w": ["w"]}, "['w'] is not a vertex of face b,r,w"),
    ])
    def test_face_reports_refuse_a_bad_override(self, conn, overrides, message):
        with pytest.raises(NotIncident) as excinfo:
            face_reports(conn, canonical_flatness(conn), overrides)
        assert str(excinfo.value) == message


class TestGauge:
    def test_zero_gauge_is_identity(self, conn):
        assert gauge_transform(conn, GaugeTransformation({})) == conn

    def test_single_vertex_rotation_preserves_holonomy(self, octa, conn):
        gauged = gauge_transform(conn, GaugeTransformation({"w": 1}))
        for face in octa.faces:
            assert holonomy_steps(gauged, face) == 1

    def test_gauges_compose_additively(self, conn):
        rng = Random(5)
        g1, g2 = random_gauge(conn, rng), random_gauge(conn, rng)
        twice = gauge_transform(gauge_transform(conn, g1), g2)
        summed = GaugeTransformation({v: g1.at(v) + g2.at(v) for v in conn.surface.vertices})
        assert twice == gauge_transform(conn, summed)

    def test_net_holonomy_gauge_invariant(self, conn):
        rng = Random(9)
        for _ in range(25):
            assert net_holonomy(gauge_transform(conn, random_gauge(conn, rng))) == 0


class TestTangentAndTrivialization:
    def test_tangent_connection_matches_tables(self, octa, conn):
        assert tangent_connection(octa, "link").offsets == conn.offsets

    def test_tangent_requires_even_size(self):
        with pytest.raises(ValidationFailed):
            tangent_connection(icosahedron(), "link")
        conn = tangent_connection(icosahedron())  # auto-refines to 10
        assert set(conn.sizes) == {10}

    def test_trivialization_transitions(self, octa, conn):
        flat = canonical_flatness(conn)
        for face in octa.faces:
            v0 = basepoint(face)
            charts = trivialize_face(conn, flat, face)
            assert charts[v0] == PolyIso.identity(conn.fiber(v0))
            edges = boundary(face, v0)
            for k, (i, j) in enumerate(edges):
                transition = (
                    charts[j].compose(conn.transport(i, j)).compose(charts[i].invert())
                )
                expected = 0 if k < 2 else holonomy_steps(conn, face)
                assert transition.rotation_steps() == expected

    def test_flat_connection_trivializes_trivially(self):
        conn = flat_connection(csaszar_torus(), 6)
        flat = canonical_flatness(conn)
        for face in conn.surface.faces:
            v0 = basepoint(face)
            charts = trivialize_face(conn, flat, face)
            for i, j in boundary(face, v0):
                transition = (
                    charts[j].compose(conn.transport(i, j)).compose(charts[i].invert())
                )
                assert transition.rotation_steps() == 0

    def test_random_face_cocycle(self):
        conn = random_connection(icosahedron(), "link", Random(31))
        flat = canonical_flatness(conn)
        face = conn.surface.faces[7]
        v0 = basepoint(face)
        charts = trivialize_face(conn, flat, face)
        composite = PolyIso.identity(conn.fiber(v0))
        for i, j in boundary(face, v0):
            transition = (
                charts[j].compose(conn.transport(i, j)).compose(charts[i].invert())
            )
            composite = transition.compose(composite)
        n = conn.fiber(v0).n
        assert composite.rotation_steps() == flat.lift(face) % n
