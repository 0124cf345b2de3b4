"""Vector fields: validation, swirl, index, totals, gauge carrying."""

from fractions import Fraction
from random import Random

import pytest

from windex.bundle import (
    DiscreteConnection,
    GaugeTransformation,
    canonical_flatness,
    flat_connection,
    holonomy_iso,
)
from windex.errors import NonIntegralIndex, NotIncident, ValidationFailed
from windex.field import (
    VectorField,
    build_field,
    gauge_transform_field,
    index,
    swirl,
    swirl_path,
    totals,
)
from windex.fixtures import (
    OCTAHEDRON_SPIN_AT,
    boundary_delta3,
    csaszar_torus,
    OCTAHEDRON_SPIN_PATHS,
    octahedron,
    octahedron_connection,
    octahedron_spin_field,
)
from windex.polygon import PolyPath
from windex.sampling import random_connection, random_field, random_gauge, random_lifts

from surfaces import tet_and_octahedron

# swirls of the spin field, per face, frozen from the boundary sums
EXPECTED_SWIRLS = {
    "g,w,r": 3, "g,o,w": -1, "b,w,o": -1, "b,r,w": -1,
    "b,y,r": -1, "g,r,y": -1, "g,y,o": -1, "b,o,y": 3,
}


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

    def test_value_off_the_surface(self, spin):
        with pytest.raises(NotIncident, match="'zzz' is not a vertex"):
            spin.value("zzz")

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
        torus = flat_connection(csaszar_torus(), 6)
        vf = random_field(torus, Random(5))
        labels = {v: vf.value(v) for v in torus.surface.vertices}
        parsed = []
        position = DiscreteConnection.position

        def counted(self, v, label):
            parsed.append(v)
            return position(self, v, label)

        monkeypatch.setattr(DiscreteConnection, "position", counted)
        assert build_field(torus, labels, both_ways(vf)) == vf
        assert sorted(parsed) == sorted(torus.surface.vertices)

    def test_tables_name_the_forced_endpoints(self, conn):
        # each table entry is a path from the transported value to the
        # value at the head vertex
        for (i, j), (src, dst) in OCTAHEDRON_SPIN_PATHS.items():
            assert conn.transport(i, j)(OCTAHEDRON_SPIN_AT[i]) == src
            assert OCTAHEDRON_SPIN_AT[j] == dst


class TestSwirl:
    def test_expected_swirls(self, conn, spin):
        for face in conn.surface.faces:
            assert swirl(spin, face) == EXPECTED_SWIRLS[face.key]

    def test_swirl_path_around_top_face(self, conn, spin):
        face = conn.surface.face_by_key("g,w,r")
        path = swirl_path(spin, face, "w")
        assert path == PolyPath(conn.fiber("w"), "g", 3)
        assert path.end == spin.value("w")

    def test_swirl_path_connects_holonomy_image_to_value(self, conn, spin):
        for face in conn.surface.faces:
            for v in face.vertices:
                path = swirl_path(spin, face, v)
                assert path.steps == swirl(spin, face)
                assert path.start == holonomy_iso(conn, face, v)(spin.value(v))
                assert path.end == spin.value(v)

    def test_all_zero_steps_mean_zero_swirl(self):
        # position-preserving transports admit the constant section with
        # zero steps on every edge
        from windex.bundle import flat_connection
        from windex.fixtures import csaszar_torus

        conn = flat_connection(csaszar_torus(), 6)
        at = {v: conn.fiber(v).labels[0] for v in conn.surface.vertices}
        vf = build_field(conn, at, {e: 0 for e in conn.surface.edges})
        assert all(swirl(vf, face) == 0 for face in conn.surface.faces)


class TestIndex:
    def test_north_indices(self, conn, spin, flat):
        surface = conn.surface
        keys = ["g,w,r", "g,o,w", "b,w,o", "b,r,w"]
        values = [index(spin, flat, surface.face_by_key(k)) for k in keys]
        assert values == [1, 0, 0, 0]

    def test_south_indices_multiset(self, conn, spin, flat):
        south = ["b,y,r", "g,r,y", "g,y,o", "b,o,y"]
        values = sorted(
            index(spin, flat, conn.surface.face_by_key(k)) for k in south
        )
        assert values == [0, 0, 0, 1]

    def test_lift_shift_shifts_index(self, conn, spin, flat):
        from windex.bundle import attach_flatness

        lifts = {f.key: flat.lift(f) for f in conn.surface.faces}
        lifts["g,w,r"] += 4
        shifted = attach_flatness(conn, lifts)
        face = conn.surface.face_by_key("g,w,r")
        assert index(spin, shifted, face) == index(spin, flat, face) + 1

    def test_index_basepoint_free(self, conn, spin, flat):
        # recompute (lift + swirl)/n from scratch at every corner
        for face in conn.surface.faces:
            for v in face.vertices:
                n = conn.fiber(v).n
                s = swirl_path(spin, face, v).steps
                assert (flat.lift(face) + s) // n == index(spin, flat, face)
                assert (flat.lift(face) + s) % n == 0

    def test_corrupted_field_rejected_at_index(self, conn, spin, flat):
        broken_steps = list(spin.steps)
        broken_steps[conn.surface.half_edge("w", "r")] += 1
        broken = VectorField(conn, list(spin.at), broken_steps)
        face = conn.surface.face_by_key("g,w,r")
        with pytest.raises(NonIntegralIndex):
            index(broken, flat, face)


class TestTotals:
    def test_spin_field_totals(self, spin, flat):
        report = totals(spin, flat)
        assert report.total_swirl == 0
        assert report.total_index == 2
        assert report.total_flatness_winding == 2
        assert report.theorem_holds

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


class TestGaugeCarry:
    def test_swirl_and_index_gauge_invariant(self, conn, spin, flat):
        rng = Random(29)
        for _ in range(10):
            gauge = random_gauge(conn, rng)
            carried = gauge_transform_field(spin, gauge)
            assert carried.steps == spin.steps
            for face in conn.surface.faces:
                assert swirl(carried, face) == swirl(spin, face)
                assert index(carried, flat, face) == index(spin, flat, face)

    def test_values_rotate_with_fibers(self, conn, spin):
        gauge = GaugeTransformation({"w": 1})
        carried = gauge_transform_field(spin, gauge)
        fiber = conn.fiber("w")
        assert carried.value("w") == fiber.label_at(fiber.position(spin.value("w")) + 1)
