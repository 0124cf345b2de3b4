"""Connections, holonomy, flatness, gauge transformations, trivialization."""

from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from windex.bundle import (
    DiscreteConnection,
    attach_flatness,
    build_connection,
    canonical_flatness,
    default_refinement,
    face_reports,
    flat_connection,
    gauge_transform,
    net_holonomy,
    sum_turns,
    tangent_connection,
    total_flatness_winding,
    turns_text,
    GaugeTransformation,
)
from windex.errors import NotIncident, UnknownLabel, ValidationFailed, WindexError
from windex.field import swirl_path
from windex.fixtures import (
    OCTAHEDRON_TRANSPORTS,
    boundary_delta3,
    csaszar_torus,
    icosahedron,
    octahedron,
    octahedron_spin_field,
)
from windex.scene import parse_scene_text

from oracles import (
    basepoint,
    boundary,
    face_reports_by_rows,
    fiber,
    holonomy_iso,
    link,
    sum_by_size,
    transport,
    trivialize_face,
)
from polygon import PolyIso
from sampling import random_connection, random_gauge
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
            edge: transport(conn, *edge).anchor for edge in OCTAHEDRON_TRANSPORTS
        }
        assert build_connection(octa, "link", anchored).offsets == conn.offsets

    def test_transport_tables_reproduced(self, conn):
        iso = transport(conn, "w", "r")
        assert iso.mapping() == {"b": "b", "r": "y", "g": "g", "o": "w"}
        assert transport(conn, "r", "w") == iso.invert()

    def test_reverse_directions_checked(self, octa):
        transports = dict(OCTAHEDRON_TRANSPORTS)
        transports[("r", "w")] = ("b", "r")  # not the inverse of (w, r)
        with pytest.raises(ValidationFailed) as excinfo:
            build_connection(octa, "link", transports)
        assert any(v.rule == "NotInverse" for v in excinfo.value.report.violations)

    def test_supplying_true_inverse_is_fine(self, octa, conn):
        transports = dict(OCTAHEDRON_TRANSPORTS)
        transports[("r", "w")] = transport(conn, "r", "w").mapping()
        rebuilt = build_connection(octa, "link", transports)
        assert rebuilt.offsets == conn.offsets

    def test_missing_edge(self, octa):
        transports = dict(OCTAHEDRON_TRANSPORTS)
        del transports[("w", "r")]
        with pytest.raises(ValidationFailed) as excinfo:
            build_connection(octa, "link", transports)
        assert any(v.rule == "MissingEdge" for v in excinfo.value.report.violations)

    @pytest.mark.parametrize("key", [5, ("w", "b", "r"), "wb"])
    def test_a_key_that_is_not_a_label_pair_is_reported(self, octa, key):
        """A key is read as an edge only if it is a pair: an int or a 3-tuple
        raised a bare TypeError or ValueError, and "wb" was read as (w, b)."""
        transports = dict(OCTAHEDRON_TRANSPORTS)
        transports[key] = transports.pop(("w", "b"))
        with pytest.raises(ValidationFailed) as excinfo:
            build_connection(octa, "link", transports)
        assert [(v.rule, v.element, v.message) for v in excinfo.value.report.violations] == [
            ("BadEdge", repr(key), "an edge is a pair of vertex labels"),
            ("MissingEdge", "{b,w}", "no transport supplied"),
        ]

    def test_a_str_anchor_is_not_a_label_pair(self, octa, conn):
        """A two-character str anchor was unpacked, so "bb" read as (b, b)."""
        anchor = transport(conn, "w", "r").anchor
        transports = dict(OCTAHEDRON_TRANSPORTS)
        transports[("w", "r")] = anchor
        assert build_connection(octa, "link", transports).offsets == conn.offsets
        transports[("w", "r")] = "".join(anchor)
        with pytest.raises(ValidationFailed) as excinfo:
            build_connection(octa, "link", transports)
        assert [(v.rule, v.element, v.message) for v in excinfo.value.report.violations] == [
            ("UnknownLabel", "(w,r)", f"cannot read transport spec {''.join(anchor)!r}"),
        ]

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
        conn = flat_connection(octa, 8)
        assert conn.fiber("w").n == 8
        poly, ring = fiber(conn, "w"), link(octa, "w")
        assert poly.n == 8
        for k, lab in enumerate(ring.labels):
            assert (poly.position(lab) - poly.position(ring.labels[0])) % 8 == 2 * k
            assert (conn.position("w", lab) - conn.position("w", ring.labels[0])) % 8 == 2 * k

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

    @pytest.mark.parametrize("shift, twin_shift", [(4, 0), (-4, 0), (1, 0), (1, 1)],
                             ids=["plus-n", "minus-n", "not-inverse", "both-shifted"])
    def test_constructor_checks_offset_values(self, octa, conn, shift, twin_shift):
        # one NotInverse per bad edge: out of [0, n), or not -o mod n on the twin
        h = octa.half_edge("b", "r")
        offsets = list(conn.offsets)
        offsets[h] += shift
        offsets[octa.twin[h]] = (offsets[octa.twin[h]] + twin_shift) % 4
        with pytest.raises(ValidationFailed) as excinfo:
            DiscreteConnection(octa, None, offsets)
        o, t = offsets[h], offsets[octa.twin[h]]
        assert [(v.rule, v.element, v.message) for v in excinfo.value.report.violations] == [
            ("NotInverse", "{b,r}", f"offsets {o} on (b,r) and {t} on (r,b) are not inverse in [0, 4)"),
        ]

    def test_constructor_refuses_offsets_outside_the_fibers(self, octa):
        with pytest.raises(ValidationFailed) as excinfo:
            DiscreteConnection(octa, None, [7] * 24)
        violations = excinfo.value.report.violations
        assert [v.rule for v in violations] == ["NotInverse"] * 12
        assert str(violations[0]) == (
            "NotInverse [{b,o}]: offsets 7 on (b,o) and 7 on (o,b) are not inverse in [0, 4)")

    @pytest.mark.parametrize("offset", ["0", 0.0], ids=["str", "float"])
    def test_constructor_refuses_offsets_that_are_not_integers(self, octa, offset):
        # one NotAnInteger per edge, never a TypeError or a float holonomy table
        with pytest.raises(ValidationFailed) as excinfo:
            DiscreteConnection(octa, None, [offset] * 24)
        violations = excinfo.value.report.violations
        assert [v.rule for v in violations] == ["NotAnInteger"] * 12
        assert str(violations[0]) == (
            f"NotAnInteger [{{b,o}}]: offsets {offset!r} on (b,o) and {offset!r} on (o,b) "
            "are not both integers")

    def test_constructor_reports_each_edge_once_by_its_first_fault(self, octa, conn):
        offsets = list(conn.offsets)
        offsets[octa.half_edge("r", "b")] = 1.0
        offsets[octa.half_edge("g", "o")] += 4
        with pytest.raises(ValidationFailed) as excinfo:
            DiscreteConnection(octa, None, offsets)
        assert [(v.rule, v.element) for v in excinfo.value.report.violations] == [
            ("NotAnInteger", "{b,r}"), ("NotInverse", "{g,o}")]

    def test_random_refined_connection_on_icosahedron(self):
        conn = random_connection(icosahedron(), 5, Random(11))
        assert set(conn.sizes) == {5}
        assert net_holonomy(conn) == 0

    @pytest.mark.parametrize("read, value, what", [
        ("position", 5, "a label of"),
        ("position", None, "a label of"),
        ("position", ["b"], "a label of"),
        ("position", b"b", "a label of"),
        ("label_at", "1", "a position in"),
        ("label_at", 1.0, "a position in"),
        ("label_at", None, "a position in"),
        ("label_at", True, "a position in"),
    ])
    def test_a_fiber_point_of_the_wrong_type_is_unknown(self, conn, read, value, what):
        # a label is a str and a position an int (not True): anything else
        # is refused by name, never read as a nearby value
        with pytest.raises(UnknownLabel) as excinfo:
            getattr(conn, read)("w", value)
        assert str(excinfo.value) == f"{value!r} is not {what} the fiber at 'w'"

    def test_a_label_too_long_to_print_is_a_windex_error(self):
        """On the tetrahedron with 3 * 10**5000-point fibers, the label
        10**4400 points on from link label 0 is x~j with a j of 4,401
        digits, which ``str`` refuses past the int_max_str_digits limit: a
        WindexError, not a bare ValueError.  A j of 4,001 digits is
        written."""
        conn = tangent_connection(boundary_delta3(), 3 * 10**5000)
        first = conn.label_at("0", 0)
        assert conn.label_at("0", 10**4000) == f"{first}~{10**4000}"
        with pytest.raises(WindexError) as excinfo:
            conn.label_at("0", 10**4400)
        assert type(excinfo.value) is WindexError
        assert str(excinfo.value) == (
            "the label at this position in the fiber at '0' has too many digits to print")


class TestHolonomy:
    def test_quarter_turn_everywhere(self, octa, conn):
        keys, _, _, holonomy, _, curvature, _ = face_reports(conn, canonical_flatness(conn))
        assert keys == [f.key for f in octa.faces]
        for steps, turns in zip(holonomy, curvature):
            assert steps == 1
            assert Fraction(turns) == Fraction(1, 4)

    def test_basepoint_independent(self, octa, conn):
        for f, face in enumerate(octa.faces):
            for v in face.vertices:
                assert holonomy_iso(conn, face, v).rotation_steps() == conn.holonomy[f]

    def test_out_and_back_is_identity(self, conn):
        round_trip = transport(conn, "r", "w").compose(transport(conn, "w", "r"))
        assert round_trip.rotation_steps() == 0

    def test_reversed_boundary_negates_holonomy(self, octa, conn):
        for f, face in enumerate(octa.faces):
            v = basepoint(face)
            backwards = PolyIso.identity(fiber(conn, v))
            for i, j in reversed(boundary(face, v)):
                backwards = transport(conn, j, i).compose(backwards)
            n = conn.fiber(v).n
            assert backwards.rotation_steps() == (-conn.holonomy[f]) % n

    def test_net_holonomy_zero(self, conn):
        assert net_holonomy(conn) == 0

    def test_boundary_and_basepoint(self, octa, conn):
        face = octa.faces[octa.face_id("g,w,r")]
        spin = octahedron_spin_field(conn)
        assert swirl_path(spin, face).fiber.vertex == "g"
        assert boundary(face, "w") == [("w", "r"), ("r", "g"), ("g", "w")]
        assert boundary(face, "r") == [("r", "g"), ("g", "w"), ("w", "r")]
        with pytest.raises(NotIncident, match="^'y' is not a vertex of face g,w,r$"):
            swirl_path(spin, face, "y")

    def test_basepoint_rule(self, octa, conn):
        """``swirl_path`` and ``face_reports`` read one basepoint rule off
        the face tables: the least vertex, or an override on the face, and
        NotIncident for one off it, as the oracles' ``corner_order``."""
        spin, flat = octahedron_spin_field(conn), canonical_flatness(conn)
        assert face_reports(conn, flat)[1] == [min(face.vertices) for face in octa.faces]
        for face in octa.faces:
            assert swirl_path(spin, face).fiber.vertex == basepoint(face) == min(face.vertices)
            for v in octa.vertices:
                if v in face.vertices:
                    assert swirl_path(spin, face, v).fiber.vertex == v
                    bases = face_reports(conn, flat, {face.key: v})[1]
                    assert bases[octa.face_id(face.key)] == v
                else:
                    with pytest.raises(NotIncident) as want:
                        basepoint(face, v)
                    for read in (lambda: swirl_path(spin, face, v),
                                 lambda: face_reports(conn, flat, {face.key: v})):
                        with pytest.raises(NotIncident) as got:
                            read()
                        assert str(got.value) == str(want.value)

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
                assert len(conn.holonomy) == len(surface.faces)
                assert sum(conn.holonomy) % n == 0

    def test_net_holonomy_zero_on_mixed_fiber_sizes(self):
        # disjoint union of a tetrahedron and an octahedron: valid complex,
        # mixed degrees, so link-mode fiber sizes differ
        both = tet_and_octahedron()
        transports = {(a, b): (link(both, a).labels[0], link(both, b).labels[0])
                      for a, b in both.edges}
        conn = build_connection(both, "link", transports)
        assert {conn.size(v) for v in both.vertices} == {3, 4}
        assert net_holonomy(conn) == 0


class TestFlatness:
    def test_canonical_lifts(self, octa, conn):
        flat = canonical_flatness(conn)
        assert flat.lifts == [1] * len(octa.faces)
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

    def test_bool_lifts_rejected(self, octa, conn):
        # True would pass as the holonomy 1 of every face; lifts are exactly int
        with pytest.raises(ValidationFailed) as excinfo:
            attach_flatness(conn, {key: True for key in octa.keys})
        assert [(v.rule, v.element, v.message) for v in excinfo.value.report.violations] == [
            ("NotAnInteger", key, "lift True is not an integer") for key in octa.keys
        ]

    def test_face_object_is_not_a_lift_key(self, octa, conn):
        lifts = dict(zip(octa.faces, conn.holonomy))
        with pytest.raises(ValidationFailed) as excinfo:
            attach_flatness(conn, lifts)
        assert [(v.rule, v.element, v.message) for v in excinfo.value.report.violations] == [
            ("MissingFace", str(face), "lift given for a face not on the surface")
            for face in octa.faces
        ] + [("MissingFace", key, "no lift supplied") for key in octa.keys]

    @pytest.mark.parametrize("other", [
        lambda: tangent_connection(icosahedron(), 10),  # 20 lifts on 8 faces
        lambda: tangent_connection(boundary_delta3(), 6),  # 4 lifts on 8 faces
    ], ids=["icosahedron", "tetrahedron"])
    @pytest.mark.parametrize("read", [face_reports, total_flatness_winding])
    def test_flatness_on_another_surface_is_refused(self, conn, other, read):
        with pytest.raises(WindexError, match="^the flatness structure lies on another surface"):
            read(conn, canonical_flatness(other()))

    def test_flatness_on_an_equal_surface_is_read(self, conn):
        twin = build_connection(octahedron(), "link", OCTAHEDRON_TRANSPORTS)
        assert twin.surface is not conn.surface
        flat = canonical_flatness(twin)
        assert face_reports(conn, flat) == face_reports(conn, canonical_flatness(conn))
        assert total_flatness_winding(conn, flat) == 2

    def test_zero_holonomy_zero_lifts(self):
        conn = flat_connection(csaszar_torus(), 6)
        flat = canonical_flatness(conn)
        assert flat.lifts == [0] * len(conn.surface.faces)
        assert total_flatness_winding(conn, flat) == 0

    def test_face_reports(self, octa, conn):
        keys, bases, *_, curvature, lift_turns = face_reports(
            conn, canonical_flatness(conn), {"b,r,w": "w"})
        by_face = dict(zip(keys, bases))
        assert by_face["b,r,w"] == "w"
        assert by_face["b,o,y"] == "b"
        assert all(
            Fraction(c) == Fraction(1, 4) and Fraction(t) == Fraction(1, 4)
            for c, t in zip(curvature, lift_turns)
        )

    def test_face_reports_share_the_tables(self, conn):
        flat = canonical_flatness(conn)
        keys, _, sizes, holonomy, lifts, _, _ = face_reports(conn, flat)
        assert keys is conn.surface.keys and sizes is conn.face_sizes
        assert holonomy is conn.holonomy and lifts is flat.lifts

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
        assert gauged.holonomy == [1] * len(octa.faces)

    def test_gauges_compose_additively(self, conn):
        rng = Random(5)
        g1, g2 = random_gauge(conn, rng), random_gauge(conn, rng)
        twice = gauge_transform(gauge_transform(conn, g1), g2)
        summed = GaugeTransformation({v: g1.get(v, 0) + g2.get(v, 0) for v in conn.surface.vertices})
        assert twice == gauge_transform(conn, summed)

    def test_net_holonomy_gauge_invariant(self, conn):
        rng = Random(9)
        for _ in range(25):
            assert net_holonomy(gauge_transform(conn, random_gauge(conn, rng))) == 0

    def test_gauge_is_a_dict(self, conn):
        assert GaugeTransformation is dict
        assert type(random_gauge(conn, Random(1))) is dict

    @pytest.mark.parametrize("gauge, want", [
        ({"zz": 1}, ("MissingVertex", "zz", "gauge step given for a vertex not on the surface")),
        ({"w": "1"}, ("NotAnInteger", "w", "gauge step '1' is not an integer")),
        ({"w": 1.5}, ("NotAnInteger", "w", "gauge step 1.5 is not an integer")),
        ({"w": True}, ("NotAnInteger", "w", "gauge step True is not an integer")),
    ], ids=["missing-vertex", "str", "float", "bool"])
    def test_bad_gauge_rejected(self, conn, gauge, want):
        with pytest.raises(ValidationFailed, match="^invalid gauge transformation: ") as excinfo:
            gauge_transform(conn, gauge)
        assert [(v.rule, v.element, v.message) for v in excinfo.value.report.violations] == [want]

    def test_every_bad_gauge_entry_reported(self, conn):
        gauge = {"w": 1.5, "b": 2, "zz": 1, "y": True}
        with pytest.raises(ValidationFailed) as excinfo:
            gauge_transform(conn, gauge)
        assert [(v.rule, v.element) for v in excinfo.value.report.violations] == [
            ("NotAnInteger", "w"), ("MissingVertex", "zz"), ("NotAnInteger", "y"),
        ]


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
        for f, face in enumerate(octa.faces):
            v0 = basepoint(face)
            charts = trivialize_face(conn, flat, face)
            assert charts[v0] == PolyIso.identity(fiber(conn, v0))
            edges = boundary(face, v0)
            for k, (i, j) in enumerate(edges):
                transition = (
                    charts[j].compose(transport(conn, i, j)).compose(charts[i].invert())
                )
                expected = 0 if k < 2 else conn.holonomy[f]
                assert transition.rotation_steps() == expected

    def test_flat_connection_trivializes_trivially(self):
        conn = flat_connection(csaszar_torus(), 6)
        flat = canonical_flatness(conn)
        for face in conn.surface.faces:
            v0 = basepoint(face)
            charts = trivialize_face(conn, flat, face)
            for i, j in boundary(face, v0):
                transition = (
                    charts[j].compose(transport(conn, i, j)).compose(charts[i].invert())
                )
                assert transition.rotation_steps() == 0

    def test_random_face_cocycle(self):
        conn = random_connection(icosahedron(), "link", Random(31))
        flat = canonical_flatness(conn)
        face = conn.surface.faces[7]
        v0 = basepoint(face)
        charts = trivialize_face(conn, flat, face)
        composite = PolyIso.identity(fiber(conn, v0))
        for i, j in boundary(face, v0):
            transition = (
                charts[j].compose(transport(conn, i, j)).compose(charts[i].invert())
            )
            composite = transition.compose(composite)
        n = conn.fiber(v0).n
        assert composite.rotation_steps() == flat.lifts[7] % n


# (fiber size, numerator) pairs over one to five sizes, numerators of either sign
TURN_TERMS = st.lists(st.integers(1, 60), min_size=1, max_size=5, unique=True).flatmap(
    lambda sizes: st.lists(st.tuples(st.sampled_from(sizes), st.integers(-10**12, 10**12)),
                           max_size=40))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(TURN_TERMS)
@example([])
@example([(3, -1), (4, -1), (6, 5)])
def test_sum_turns_is_the_per_size_fraction_sum(terms):
    sizes, numerators = [n for n, _ in terms], [m for _, m in terms]
    assert sum_turns(sizes, numerators) == sum_by_size(terms)


GOLDEN_SCENES = sorted((Path(__file__).resolve().parent / "golden" / "scenes").glob("*.json"))


@pytest.mark.parametrize("path", GOLDEN_SCENES, ids=lambda path: path.stem)
def test_face_reports_match_the_rows_reference(path):
    """On every golden scene, the four fixtures among them, the columns of
    ``face_reports`` are the rows of the ``Fraction`` reference, with the
    scene's lifts and the canonical ones, with and without a basepoint
    override."""
    scene = parse_scene_text(path.read_text(encoding="utf-8"))
    conn = scene.connection
    face = conn.surface.faces[-1]
    for flat in filter(None, (scene.flatness, canonical_flatness(conn))):
        for basepoints in (None, {face.key: face.vertices[2]}):
            want = [(*row[:5], str(row.curvature), str(row.lift_turns))
                    for row in face_reports_by_rows(conn, flat, basepoints)]
            assert list(zip(*face_reports(conn, flat, basepoints))) == want


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 10**6), st.integers(-10**30, 10**30),
       st.one_of(st.just(0), st.integers(-10**6, 10**6)))
@example(4, 0, 0)  # zero
@example(4, -3, 0)  # a negative multiple of n
@example(4, 0, -1)  # a negative numerator
@example(6, 0, 4)  # reduced, 2/3
@example(7, 10**40, 1)  # a large numerator
def test_turns_text_is_the_fraction_text(n, k, rest):
    m = k * n + rest
    assert turns_text(m, n) == str(Fraction(m, n))
