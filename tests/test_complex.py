"""Surface construction, validation, links, and fixtures."""

from dataclasses import fields

import pytest

from windex.complex import OrientedFace, build_surface, euler_characteristic
from windex.errors import NotIncident, ValidationFailed
from windex.fixtures import (
    boundary_delta3,
    csaszar_torus,
    icosahedron,
    octahedron,
)
from oracles import corner_order, cycle_complex, link
from polygon import BadArity, Polygon

OCTA_FACES = [
    ("w", "b", "r"), ("w", "r", "g"), ("w", "g", "o"), ("w", "o", "b"),
    ("y", "r", "b"), ("y", "g", "r"), ("y", "o", "g"), ("y", "b", "o"),
]


def rejection(vertices, faces):
    """The report that ``build_surface`` raises on an invalid surface."""
    with pytest.raises(ValidationFailed) as excinfo:
        build_surface(vertices, faces)
    return excinfo.value.report


def test_octahedron_counts():
    s = octahedron()
    assert (len(s.vertices), len(s.edges), len(s.faces)) == (6, 12, 8)
    assert euler_characteristic(s) == 2


def test_octahedron_links_match_tables():
    s = octahedron()
    expected = {
        "w": ("b", "r", "g", "o"),
        "r": ("w", "b", "y", "g"),
        "y": ("b", "o", "g", "r"),
        "g": ("w", "r", "y", "o"),
        "b": ("w", "o", "y", "r"),
        "o": ("w", "g", "y", "b"),
    }
    for v, cycle in expected.items():
        assert link(s, v) == Polygon(cycle)


def test_link_starts_at_least_label():
    assert link(octahedron(), "r").labels == ("b", "y", "g", "w")


def test_boundary_delta3():
    s = boundary_delta3()
    assert (len(s.vertices), len(s.edges), len(s.faces)) == (4, 6, 4)
    assert euler_characteristic(s) == 2
    assert link(s, "0") == Polygon(("1", "2", "3"))


def test_csaszar_torus():
    s = csaszar_torus()
    assert (len(s.vertices), len(s.edges), len(s.faces)) == (7, 21, 14)
    assert euler_characteristic(s) == 0
    assert s.degrees == [6] * len(s.vertices)


def test_icosahedron():
    s = icosahedron()
    assert (len(s.vertices), len(s.edges), len(s.faces)) == (12, 30, 20)
    assert euler_characteristic(s) == 2
    assert all(link(s, v).n == 5 for v in s.vertices)


def test_two_to_three_face_edge_ratio():
    for s in (octahedron(), boundary_delta3(), icosahedron(), csaszar_torus()):
        assert 3 * len(s.faces) == 2 * len(s.edges)


def test_link_arcs_come_from_faces():
    s = octahedron()
    for v in s.vertices:
        cycle = link(s, v)
        arcs = {
            (cycle.labels[i], cycle.label_at(i + 1))
            for i in range(cycle.n)
        }
        from_faces = {corner_order(f, v)[1:] for f in s.faces if v in f.vertices}
        assert arcs == from_faces


def test_orientation_clash():
    faces = OCTA_FACES[:4] + [("y", "b", "r")] + OCTA_FACES[5:]
    report = rejection("wybrgo", faces)
    assert not report.ok
    assert any(v.rule == "OrientationClash" for v in report.violations)


def test_duplicate_face():
    report = rejection("wybrgo", OCTA_FACES + [("b", "r", "w")])
    assert any(v.rule == "DuplicateFace" for v in report.violations)


def test_two_arc_link_is_a_duplicate_face():
    # a link of two arcs at v needs the faces (v, a, b) and (v, b, a), one
    # vertex set, so DuplicateFace refuses them before any link is traced
    report = rejection("vab", [("v", "a", "b"), ("v", "b", "a")])
    rules = [v.rule for v in report.violations]
    assert "DuplicateFace" in rules
    assert "NonPolygonLink" not in rules


def test_faces_are_records_from_the_least_vertex():
    """A face is two fields, its labels from its least vertex and its key,
    and not a tuple: ``in`` and unpacking raise TypeError."""
    s = octahedron()
    face = s.faces[s.face_id("b,r,w")]
    assert face == OrientedFace(("b", "r", "w"), "b,r,w")
    assert [f.name for f in fields(OrientedFace)] == ["vertices", "key"]
    assert not hasattr(face, "__dict__")
    with pytest.raises(TypeError):
        "b" in face
    with pytest.raises(TypeError):
        _, _ = face


def test_boundary_edge():
    report = rejection("abc", [("a", "b", "c")])
    assert any(v.rule == "BoundaryEdge" for v in report.violations)


@pytest.mark.parametrize("face", [5, None])
def test_non_iterable_face_is_a_bad_face(face):
    # the element is the value as given; a ValidationFailed, not a TypeError
    assert [(v.rule, v.element, v.message) for v in rejection("abc", [face]).violations] == [
        ("BadFace", str(face), "faces are 3 distinct vertices"),
    ]


def test_string_face_is_a_bad_face():
    # a str is one label, not three: the octahedron spelled with str faces
    faces = ["wbr", "wrg", "wgo", "wob", "yrb", "ygr", "yog", "ybo"]
    assert [(v.rule, v.element) for v in rejection(list("wybrgo"), faces).violations] == [
        ("BadFace", face) for face in faces
    ]


def test_face_object_is_a_bad_face():
    # faces are label triples; an OrientedFace is reported as given
    faces = octahedron().faces
    assert [(v.rule, v.element) for v in rejection(list("wybrgo"), faces).violations] == [
        ("BadFace", str(face)) for face in faces
    ]


def test_pinch_point_is_not_a_surface():
    # two tetrahedra sharing only the vertex "0": every edge closes up but
    # the link at "0" splits into two cycles
    faces = [
        ("0", "1", "2"), ("0", "2", "3"), ("0", "3", "1"), ("1", "3", "2"),
        ("0", "4", "5"), ("0", "5", "6"), ("0", "6", "4"), ("4", "6", "5"),
    ]
    report = rejection("0123456", faces)
    assert any(
        v.rule == "NonPolygonLink" and v.element == "0" for v in report.violations
    )
    assert sum(v.rule == "BoundaryEdge" for v in report.violations) == 0


def test_build_raises_with_full_report():
    with pytest.raises(ValidationFailed) as excinfo:
        build_surface("abc", [("a", "b", "c")])
    assert any(v.rule == "BoundaryEdge" for v in excinfo.value.report.violations)


def test_reversed_orientation_reverses_links():
    s = octahedron()
    flipped = build_surface(s.vertices, [f.vertices[::-1] for f in s.faces])
    for v in s.vertices:
        assert link(flipped, v) == Polygon(tuple(reversed(link(s, v).labels)))


def test_deterministic_build():
    a = octahedron()
    b = octahedron()
    assert a == b
    assert all(link(a, v).labels == link(b, v).labels for v in a.vertices)


@pytest.mark.parametrize("bad", [["a,b"], [""], ["a~1"], ["a=b"], ["a b"], ["a\tb"], ["a\nb"],
                                 ["x=", "", "y~"]])
def test_reserved_characters_rejected(bad):
    """An empty label, or one holding a reserved character, is reported
    once each, in input order."""
    report = rejection([*bad, "c", "d", "e"], [(bad[0], "c", "d"), ("c", "d", "e")])
    assert [v.element for v in report.violations if v.rule == "BadLabel"] == bad


def test_cycle_complex():
    poly = cycle_complex(4)
    assert poly == Polygon(("v1", "v2", "v3", "v4"))
    with pytest.raises(BadArity):
        cycle_complex(2)
