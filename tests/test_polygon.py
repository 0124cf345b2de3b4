"""The reference polygon, path and isomorphism arithmetic of ``polygon.py``."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from windex.errors import UnknownLabel, WindexError

from oracles import collapse_unit_oracle, collapse_walk_oracle, subdivide_walk_oracle
from polygon import (
    PRESERVING,
    REVERSING,
    BadArity,
    EndpointMismatch,
    NotALoop,
    NotAnEndomorphism,
    OrientationReversing,
    Polygon,
    PolyIso,
    PolyPath,
    SizeMismatch,
    TooSmall,
)

BRGO = Polygon(("b", "r", "g", "o"))
WBYG = Polygon(("w", "b", "y", "g"))


def polygons(max_n=8, min_n=1):
    return st.integers(min_value=min_n, max_value=max_n).map(
        lambda n: Polygon(tuple(f"p{i}" for i in range(n)))
    )


@st.composite
def paths(draw, max_n=8):
    poly = draw(polygons(max_n))
    start = draw(st.sampled_from(poly.labels))
    steps = draw(st.integers(min_value=-3 * poly.n, max_value=3 * poly.n))
    return PolyPath(poly, start, steps)


class TestPolygon:
    def test_equality_up_to_rotation(self):
        assert Polygon(("w", "b", "y", "g")) == Polygon(("b", "y", "g", "w"))
        assert Polygon(("w", "b", "y", "g")) != Polygon(("w", "g", "y", "b"))

    def test_distinct_labels_required(self):
        with pytest.raises(BadArity):
            Polygon(("a", "a", "b"))
        with pytest.raises(TooSmall):
            Polygon(())

    def test_position_unknown_label(self):
        with pytest.raises(UnknownLabel):
            BRGO.position("z")


class TestPaths:
    def test_endpoint_three_forward(self):
        # the spin path around the top face runs g -> o -> b -> r
        assert PolyPath(BRGO, "g", 3).end == "r"

    def test_endpoint_refl(self):
        assert PolyPath(BRGO, "g", 0).end == "g"

    def test_endpoint_one_backward(self):
        assert PolyPath(BRGO, "b", -1).end == "o"

    def test_concat_full_loop(self):
        p = PolyPath(BRGO, "g", 3).concat(PolyPath(BRGO, "r", 1))
        assert (p.start, p.steps) == ("g", 4)
        assert p.winding() == 1

    def test_concat_with_reverse_is_refl(self):
        p = PolyPath(BRGO, "r", 2)
        q = p.concat(p.reverse())
        assert (q.start, q.steps) == ("r", 0)

    def test_unit_steps_traverse_once(self):
        p = PolyPath(BRGO, "b", 1)
        for start in ("r", "g", "o"):
            p = p.concat(PolyPath(BRGO, start, 1))
        assert p.winding() == 1

    def test_concat_endpoint_mismatch(self):
        with pytest.raises(EndpointMismatch):
            PolyPath(BRGO, "b", 1).concat(PolyPath(BRGO, "b", 1))

    def test_winding_values(self):
        assert PolyPath(BRGO, "b", 8).winding() == 2
        assert PolyPath(BRGO, "b", 0).winding() == 0
        five = Polygon(tuple("abcde"))
        assert PolyPath(five, "a", -5).winding() == -1

    def test_winding_needs_loop(self):
        with pytest.raises(NotALoop):
            PolyPath(BRGO, "b", 3).winding()

    @given(paths(), st.integers(-9, 9), st.integers(-9, 9))
    def test_concat_associative_with_unit(self, p, s1, s2):
        q = PolyPath(p.polygon, p.end, s1)
        r = PolyPath(p.polygon, q.end, s2)
        left = p.concat(q).concat(r)
        right = p.concat(q.concat(r))
        assert left == right
        unit = PolyPath(p.polygon, p.start, 0)
        assert unit.concat(p) == p
        assert p.concat(PolyPath(p.polygon, p.end, 0)) == p

    @given(paths())
    def test_turns_add_under_concat(self, p):
        q = PolyPath(p.polygon, p.end, 2)
        assert p.concat(q).to_turns() == p.to_turns() + q.to_turns()


class TestSubtract:
    def test_half_turn(self):
        assert BRGO.subtract("b", "g") == Fraction(1, 2)

    def test_same_label(self):
        assert BRGO.subtract("o", "o") == 0

    def test_quarter_turn(self):
        assert WBYG.subtract("y", "g") == Fraction(1, 4)

    @given(polygons(), st.data())
    def test_antisymmetry_mod_one(self, poly, data):
        x = data.draw(st.sampled_from(poly.labels))
        y = data.draw(st.sampled_from(poly.labels))
        total = (poly.subtract(x, y) + poly.subtract(y, x)) % 1
        assert total == 0
        assert (poly.subtract(x, y) == 0) == (x == y)

    def test_minimal_steps_tie_goes_forward(self):
        assert BRGO.minimal_steps("b", "g") == 2
        assert BRGO.minimal_steps("b", "o") == -1
        assert BRGO.minimal_steps("b", "r") == 1


class TestIsos:
    def test_forced_map_from_anchor(self):
        # anchoring b -> b forces the whole map positionwise
        iso = PolyIso(BRGO, WBYG, ("b", "b"))
        assert iso.mapping() == {"b": "b", "r": "y", "g": "g", "o": "w"}

    def test_identity_apply(self):
        ident = PolyIso.identity(BRGO)
        p = PolyPath(BRGO, "g", 3)
        assert ident.apply(p) == p

    def test_invert_roundtrip(self):
        iso = PolyIso(BRGO, WBYG, ("b", "b"))
        p = PolyPath(BRGO, "b", 2)
        assert iso.invert().apply(iso.apply(p)) == p

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            PolyIso(BRGO, Polygon(tuple("abc")), ("b", "a"))

    def test_rotation_steps(self):
        poly = Polygon(tuple(f"v{i}" for i in range(1, 6)))
        step_up = PolyIso(poly, poly, ("v1", "v2"))
        assert step_up.rotation_steps() == 1
        assert all(step_up(f"v{i}") == f"v{i % 5 + 1}" for i in range(1, 6))
        assert PolyIso.identity(poly).rotation_steps() == 0

    def test_rotation_steps_guards(self):
        with pytest.raises(NotAnEndomorphism):
            PolyIso(BRGO, WBYG, ("b", "b")).rotation_steps()
        with pytest.raises(OrientationReversing):
            PolyIso(BRGO, BRGO, ("b", "b"), REVERSING).rotation_steps()

    def test_reversing_negates_steps(self):
        flip = PolyIso(BRGO, BRGO, ("b", "b"), REVERSING)
        assert flip.apply(PolyPath(BRGO, "r", 2)).steps == -2
        assert flip.compose(flip).rotation_steps() == 0

    def test_reversing_invert_between_different_polygons(self):
        mirror = PolyIso(BRGO, WBYG, ("b", "y"), REVERSING)
        for lab in BRGO.labels:
            assert mirror.invert()(mirror(lab)) == lab
        assert mirror.invert().compose(mirror) == PolyIso.identity(BRGO)
        assert mirror.compose(mirror.invert()) == PolyIso.identity(WBYG)

    @given(polygons(min_n=2), st.data())
    def test_group_laws(self, poly, data):
        def any_endo():
            return PolyIso(
                poly,
                poly,
                (poly.labels[0], data.draw(st.sampled_from(poly.labels))),
                data.draw(st.sampled_from((PRESERVING, REVERSING))),
            )

        f, g, h = any_endo(), any_endo(), any_endo()
        assert f.compose(g).compose(h) == f.compose(g.compose(h))
        assert f.compose(f.invert()) == PolyIso.identity(poly)
        assert f.invert().compose(f) == PolyIso.identity(poly)
        assert f.invert().invert() == f

    @given(polygons(), st.data())
    def test_apply_distributes_over_concat(self, poly, data):
        iso = PolyIso(
            poly,
            poly,
            (poly.labels[0], data.draw(st.sampled_from(poly.labels))),
            data.draw(st.sampled_from((PRESERVING, REVERSING))),
        )
        s1 = data.draw(st.integers(-9, 9))
        s2 = data.draw(st.integers(-9, 9))
        p = PolyPath(poly, poly.labels[0], s1)
        q = PolyPath(poly, p.end, s2)
        assert iso.apply(p.concat(q)) == iso.apply(p).concat(iso.apply(q))
        assert iso.apply(p).reverse() == iso.apply(p.reverse())

    @given(polygons(), st.data())
    def test_subtract_matches_rotation(self, poly, data):
        k = data.draw(st.integers(0, poly.n - 1))
        rot = PolyIso.rotation(poly, k)
        for x in poly.labels:
            assert poly.subtract(x, rot(x)) == Fraction(rot.rotation_steps(), poly.n)


class TestCollapseSubdivide:
    def test_two_gon_collapse(self):
        # shrink the return edge of a 2-gon: the out-and-back loop keeps
        # winding 1, now as a single step on the 1-gon
        two = Polygon(("v1", "v2"))
        one, transfer = two.collapse("v2")
        assert one.labels == ("v1",)
        image = transfer(PolyPath(two, "v1", 2))
        assert image.steps == 1
        assert image.winding() == 1

    def test_collapse_too_small(self):
        with pytest.raises(TooSmall):
            Polygon(("a",)).collapse("a")

    def test_subdivide_identity(self):
        fine, transfer = BRGO.subdivide(1)
        assert fine == BRGO
        p = PolyPath(BRGO, "g", 3)
        assert transfer(p) == p

    def test_four_gon_winding_two_survives_collapse(self):
        loop = PolyPath(BRGO, "b", 8)
        small, transfer = BRGO.collapse("r")
        assert transfer(loop).winding() == 2
        assert collapse_walk_oracle(BRGO, "r", loop) == transfer(loop).steps

    def test_collapse_matches_oracles(self):
        # the label-walk oracle needs unambiguous directions, so it only
        # applies when the collapsed polygon still has >= 3 vertices; the
        # unit-iteration oracle covers every size
        for n in range(2, 7):
            poly = Polygon(tuple(f"v{i}" for i in range(n)))
            for v in poly.labels:
                small, transfer = poly.collapse(v)
                for start in poly.labels:
                    for steps in range(-3 * n, 3 * n + 1):
                        path = PolyPath(poly, start, steps)
                        got = transfer(path).steps
                        assert got == collapse_unit_oracle(poly, v, path)
                        if small.n >= 3:
                            assert got == collapse_walk_oracle(poly, v, path)

    def test_subdivide_matches_oracle(self):
        for n in range(1, 7):
            poly = Polygon(tuple(f"v{i}" for i in range(n)))
            for k in (1, 2, 3):
                fine, transfer = poly.subdivide(k)
                assert fine.n == k * n
                for steps in range(-2 * n, 2 * n + 1):
                    path = PolyPath(poly, poly.labels[0], steps)
                    assert transfer(path).steps == steps * k
                    if n >= 3:
                        assert transfer(path).steps == subdivide_walk_oracle(poly, k, path)

    def test_subdivide_embeds_at_scaled_positions(self):
        fine, _ = BRGO.subdivide(3)
        for lab in BRGO.labels:
            assert fine.position(lab) % 3 == 0
            assert BRGO.subtract("b", lab) == fine.subtract("b", lab)


@pytest.mark.parametrize("expected, call", [
    (BadArity, lambda: Polygon(("a", "a", "b"))),
    (TooSmall, lambda: Polygon(())),
    (UnknownLabel, lambda: BRGO.collapse("r")[1](PolyPath(WBYG, "w", 1))),
    (UnknownLabel, lambda: BRGO.subdivide(2)[1](PolyPath(WBYG, "w", 1))),
    (EndpointMismatch, lambda: PolyIso.identity(BRGO).compose(PolyIso.identity(WBYG))),
], ids=["polygon-repeat", "polygon-empty",
        "collapse-transfer", "subdivide-transfer", "compose"])
def test_library_failures_are_windex_errors(expected, call):
    with pytest.raises(WindexError) as excinfo:
        call()
    assert type(excinfo.value) is expected
