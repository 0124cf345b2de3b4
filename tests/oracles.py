"""Reference semantics and brute-force oracles, independent of the
library's closed-form arithmetic.

windex computes every fiber quantity as an integer mod the fiber size.
The paper's own construction, with label objects, lives here and in
``polygon.py``: ``link`` chains the link polygon of a vertex from its
faces, ``fiber`` is the link subdivided by its arc, ``transport`` the
anchored ``PolyIso`` of a directed edge and ``boundary`` the directed
edges of a face.  The bundle and field oracles compose those transports
around a face, where the library adds integer offsets.  The path oracles
expand paths into explicit label walks (one entry per unit step) and
recount steps by looking at adjacency only, so they share no code with
the crossing-count formulas they are used to check.  ``totals_by_rows``
builds the index report row by row, with one ``Fraction`` per fiber size
(``sum_by_size``), for comparing the column-wise ``totals`` and
``sum_turns``, and ``face_reports_by_rows`` the curvature report, with
``Fraction`` turns, for the column-wise ``face_reports``; both read each
face's basepoint off its ``OrientedFace`` record (``basepoint``), whose
cyclic order ``corner_order`` rotates.
``scene_to_obj`` builds the object a scene file encodes, for comparing
``serialize_scene`` with the stdlib encoder.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from windex.bundle import DiscreteConnection, FlatnessStructure, check_flatness_surface
from windex.complex import OrientedFace, OrientedSurface
from windex.errors import NonIntegralIndex, NonIntegralTotal, NotIncident
from windex.field import IndexRow, SwirlPath, VectorField
from windex.scene import SceneFile

from polygon import BadArity, Polygon, PolyIso, PolyPath


def link(surface: OrientedSurface, v: str) -> Polygon:
    """The link of ``v``: its neighbours in the cyclic order the faces
    around it induce (conventions rule 2), chained arc by arc from the
    faces through ``v``, not read from the surface's ring positions."""
    surface.vertex_id(v)
    arcs = {}
    for face in surface.faces:
        if v in face.vertices:
            _, y, z = corner_order(face, v)
            arcs[y] = z
    ring = [min(arcs)]
    while len(ring) < len(arcs):
        ring.append(arcs[ring[-1]])
    return Polygon(tuple(ring))


def fiber(conn: DiscreteConnection, v: str) -> Polygon:
    """The fiber at ``v``: its link, each arc subdivided into
    size / degree steps."""
    poly = link(conn.surface, v)
    arc = conn.size(v) // poly.n
    return poly if arc == 1 else poly.subdivide(arc)[0]


def transport(conn: DiscreteConnection, i: str, j: str) -> PolyIso:
    """The transport along the directed edge (i, j): position 0 of the
    fiber at ``i`` goes to the position its offset names at ``j``."""
    h = conn.surface.half_edge(i, j)
    anchor = (conn.label_at(i, 0), conn.label_at(j, conn.offsets[h]))
    return PolyIso(fiber(conn, i), fiber(conn, j), anchor)


def reference_path(conn: DiscreteConnection, path: SwirlPath) -> PolyPath:
    """The ``PolyPath`` a ``SwirlPath`` records, on the reference fiber."""
    return PolyPath(fiber(conn, path.fiber.vertex), path.start, path.steps)


def corner_order(face: OrientedFace, v: str) -> tuple[str, str, str]:
    """The face's cyclic order rotated to start at ``v``; NotIncident for
    a vertex off the face."""
    verts = face.vertices
    if v not in verts:
        raise NotIncident(f"{v!r} is not a vertex of face {face.key}")
    i = verts.index(v)
    return verts[i:] + verts[:i]


def basepoint(face: OrientedFace, base: str | None = None) -> str:
    """The face's basepoint: its least vertex (conventions rule 3), which
    the face stores first, unless ``base`` names another of its vertices;
    one off the face is NotIncident, from ``corner_order``."""
    return face.vertices[0] if base is None else corner_order(face, base)[0]


def basepoints_by_face(surface: OrientedSurface, overrides=None) -> list[str]:
    """The basepoint of every face by face id, read off its
    ``OrientedFace``, with the override its key has in ``overrides``, if
    any; every key is looked up first (NotIncident)."""
    overrides = overrides or {}
    for key in overrides:
        surface.face_id(key)
    return [basepoint(face, overrides.get(face.key)) for face in surface.faces]


def boundary(face: OrientedFace, start: str) -> list[tuple[str, str]]:
    """The face's three directed edges, in cyclic order from ``start``."""
    a, b, c = corner_order(face, start)
    return [(a, b), (b, c), (c, a)]


def cycle_complex(n: int) -> Polygon:
    """The 1-dimensional complex C(n): vertices v1..vn joined in a cycle."""
    if n < 3:
        raise BadArity(f"cycle complexes need n >= 3, got {n}")
    return Polygon(tuple(f"v{i}" for i in range(1, n + 1)))


def holonomy_iso(conn: DiscreteConnection, face: OrientedFace, base: str | None = None) -> PolyIso:
    """Composite transport around the face boundary, an endomorphism of the
    basepoint fiber.  The explicit form of ``conn.holonomy``."""
    v = basepoint(face, base)
    iso = PolyIso.identity(fiber(conn, v))
    for i, j in boundary(face, v):
        iso = transport(conn, i, j).compose(iso)
    return iso


def swirl_path_explicit(vf: VectorField, face: OrientedFace, base: str | None = None) -> PolyPath:
    """The boundary decomposition done explicitly, transport by transport.

    Each edge contributes its step path in the head fiber; the remaining
    boundary transports carry it into the basepoint fiber, where the three
    pieces concatenate into a path from holonomy(X_v) to X_v.  Its step
    count equals the face's swirl because transports preserve steps.  The
    explicit form of ``field.swirl_path``.
    """
    v0 = basepoint(face, base)
    edges = boundary(face, v0)
    conn = vf.conn
    transports = [transport(conn, i, j) for i, j in edges]

    pieces: list[PolyPath] = []
    for k, (i, j) in enumerate(edges):
        piece = PolyPath(fiber(conn, j), transports[k](vf.value(i)), vf.step(i, j))
        for later in transports[k + 1:]:
            piece = later.apply(piece)
        pieces.append(piece)

    total = pieces[0]
    for piece in pieces[1:]:
        total = total.concat(piece)
    return total


def sum_by_size(terms) -> Fraction:
    """The exact sum of m / n over ``(n, m)`` pairs: the integers summed per
    fiber size, one ``Fraction`` per size, and those added."""
    by_size: dict[int, int] = {}
    for n, m in terms:
        by_size[n] = by_size.get(n, 0) + m
    return sum((Fraction(m, n) for n, m in by_size.items()), Fraction(0))


def _whole_turns(key: str, total: int, n: int) -> int:
    turns, rest = divmod(total, n)
    if rest:
        raise NonIntegralIndex(
            f"face {key}: lift + swirl = {total} is not a whole number of turns of {n} steps"
        )
    return turns


def totals_by_rows(vf: VectorField, flatness: FlatnessStructure,
                   basepoints: dict[str, str] | None = None):
    """The index report built one ``IndexRow`` per face, the first face in
    order that is no whole number of turns raising NonIntegralIndex: (rows,
    total swirl, total index, total flatness winding).  The row-by-row
    form of ``field.totals``."""
    conn, steps = vf.conn, vf.steps
    check_flatness_surface(conn, flatness)
    sizes, bases = conn.face_sizes, basepoints_by_face(conn.surface, basepoints)
    swirls = [steps[h] + steps[h + 1] + steps[h + 2] for h in range(0, len(steps), 3)]
    rows = tuple(IndexRow(key, v, n, r, lift, s, _whole_turns(key, lift + s, n))
                 for key, v, n, r, lift, s in zip(conn.surface.keys, bases, sizes,
                                                  conn.holonomy, flatness.lifts, swirls))
    winding = sum_by_size(zip(sizes, flatness.lifts))
    if winding.denominator != 1:
        raise NonIntegralTotal(f"total flatness {winding} is not an integer")
    return rows, sum_by_size(zip(sizes, swirls)), sum(r.index for r in rows), int(winding)


class FaceRow(NamedTuple):
    """One face of the curvature report, its turns as ``Fraction``s."""

    face: str
    basepoint: str
    size: int
    holonomy_steps: int
    lift: int
    curvature: Fraction
    lift_turns: Fraction


def face_reports_by_rows(conn: DiscreteConnection, flatness: FlatnessStructure,
                         basepoints: dict[str, str] | None = None) -> list[FaceRow]:
    """The curvature report built one ``FaceRow`` per face, the curvature
    r_F / n_F and the lift turns f_F / n_F each a ``Fraction``.  The
    row-by-row form of ``bundle.face_reports``."""
    check_flatness_surface(conn, flatness)
    surface = conn.surface
    return [FaceRow(face.key, v, n, r, f, Fraction(r, n), Fraction(f, n))
            for face, v, n, r, f in zip(surface.faces, basepoints_by_face(surface, basepoints),
                                        conn.face_sizes, conn.holonomy, flatness.lifts)]


def trivialize_face(
    conn: DiscreteConnection,
    flatness: FlatnessStructure,
    face: OrientedFace,
    base: str | None = None,
) -> dict[str, PolyIso]:
    """Chart isomorphisms fiber(v) -> fiber(v_F) for the three face vertices.

    The basepoint chart is the identity and the others pull back along the
    boundary, so the transition functions on the two leading boundary edges
    are trivial and the closing edge carries exactly the holonomy rotation,
    which the lift then cancels.
    """
    v0 = basepoint(face, base)
    (e0, e1, _) = boundary(face, v0)
    charts = {v0: PolyIso.identity(fiber(conn, v0))}
    charts[e0[1]] = transport(conn, *e0).invert()
    charts[e1[1]] = transport(conn, *e1).compose(transport(conn, *e0)).invert()

    # sanity: transitions compose to the lift-determined rotation
    composite = charts[v0]
    for i, j in boundary(face, v0):
        transition = charts[j].compose(transport(conn, i, j)).compose(charts[i].invert())
        composite = transition.compose(composite)
    lift = flatness.lifts[conn.surface.face_id(face.key)]
    if composite.rotation_steps() != lift % conn.size(v0):
        raise AssertionError(f"cocycle of face {face.key} disagrees with its flatness lift")
    return charts


def walk_labels(poly: Polygon, start: str, steps: int) -> list[str]:
    """The explicit vertex sequence of a path, one label per unit step."""
    seq = [start]
    pos = poly.position(start)
    direction = 1 if steps >= 0 else -1
    for _ in range(abs(steps)):
        pos += direction
        seq.append(poly.label_at(pos))
    return seq


def steps_of_walk(poly: Polygon, seq: list[str]) -> int:
    """Signed step count of an explicit walk; consecutive entries must be
    equal (a collapsed arc) or adjacent.  Unusable on 1-gons, where staying
    put and going around are indistinguishable."""
    assert poly.n >= 2
    total = 0
    for a, b in zip(seq, seq[1:]):
        if a == b:
            continue
        if poly.successor(a) == b:
            total += 1
        elif poly.successor(b) == a:
            total -= 1
        else:
            raise AssertionError(f"{a!r} -> {b!r} is not an arc of {poly}")
    return total


def collapse_walk_oracle(poly: Polygon, v: str, path: PolyPath) -> int:
    """Map the explicit walk through the collapse (v goes to its successor)
    and recount steps on the smaller polygon."""
    small = Polygon(tuple(lab for lab in poly.labels if lab != v))
    succ = poly.successor(v)
    mapped = [succ if lab == v else lab for lab in walk_labels(poly, path.start, path.steps)]
    return steps_of_walk(small, mapped)


def collapse_unit_oracle(poly: Polygon, v: str, path: PolyPath) -> int:
    """Iterate the path one unit step at a time, scoring 0 whenever the
    shrunk arc (v to its successor) is crossed.  Works for any target size,
    including 1-gons."""
    pos_v = poly.position(v)
    pos = poly.position(path.start)
    total = 0
    for _ in range(abs(path.steps)):
        if path.steps >= 0:
            if pos % poly.n != pos_v:
                total += 1
            pos += 1
        else:
            pos -= 1
            if pos % poly.n != pos_v:
                total -= 1
    return total


def subdivide_walk_oracle(poly: Polygon, k: int, path: PolyPath) -> int:
    """Expand each unit step into its k-step refinement through the fresh
    labels and recount on the fine polygon."""
    fine, _ = poly.subdivide(k)  # only used for its label set / adjacency
    seq = walk_labels(poly, path.start, path.steps)
    expanded = [seq[0]]
    for a, b in zip(seq, seq[1:]):
        if poly.successor(a) == b:
            expanded.extend(f"{a}~{j}" for j in range(1, k))
            expanded.append(b)
        else:
            expanded.extend(f"{b}~{j}" for j in range(k - 1, 0, -1))
            expanded.append(b)
    return steps_of_walk(fine, expanded)


def scene_to_obj(scene: SceneFile) -> dict:
    """The object whose ``json.dumps(sort_keys=True, indent=2)`` text, plus
    a newline, ``serialize_scene`` writes without the encoder."""
    surface = scene.surface
    labels, tails, heads = surface.vertices, surface.tails, surface.heads
    obj: dict = {
        "surface": {
            "vertices": list(labels),
            "faces": [[labels[tails[h]], labels[tails[h + 1]], labels[tails[h + 2]]]
                      for h in range(0, len(tails), 3)],
        }
    }
    conn = scene.connection
    if conn is not None:
        mode = "link" if conn.refined is None else {"refined": conn.refined}
        entries = []
        for h in surface.edge_half:
            a, b = tails[h], heads[h]
            anchor = [conn._label(a, 0), conn._label(b, conn.offsets[h])]
            entries.append({"edge": [labels[a], labels[b]], "anchor": anchor})
        obj["connection"] = {"fiber_mode": mode, "transports": entries}
    if scene.flatness is not None:
        obj["flatness"] = dict(zip(surface.keys, scene.flatness.lifts))
    field = scene.field
    if field is not None:
        obj["field"] = {
            "at": {v: field.conn._label(i, x) for i, (v, x) in enumerate(zip(labels, field.at))},
            "steps": [
                {"edge": [labels[tails[h]], labels[heads[h]]], "steps": field.steps[h]}
                for h in surface.edge_half
            ],
        }
    return obj
