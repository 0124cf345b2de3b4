"""Discrete circle bundles with connection.

A connection assigns a fiber polygon to every vertex and an
orientation-preserving polygon isomorphism (the transport) to every
directed edge, inverse on the reverse edge.  Fibers come in two modes:

* link mode: the fiber at v is link(v) itself, so transports only exist
  where the two endpoint degrees agree;
* refined(N) mode: every fiber is link(v) subdivided into an N-gon, link
  label k at position k * N/deg(v) and the fresh points ``x~j`` after it;
  N must be divisible by every degree.  Refinement decouples fiber size
  from vertex degree, which is what lets arbitrary surfaces carry
  connections.  Link mode is the same with N = deg(v).

Fibers are virtual: a point is its position mod the fiber size n, read
off its label on demand.  A transport is an offset o_ij with
pos_j(t(x)) = pos_i(x) + o_ij (mod n).  Holonomy around a face is the
composite transport along its boundary, a rotation of the basepoint fiber
by r_F = the sum of the boundary offsets mod n, tabulated when the
connection is built; r_F / n is the curvature of the face, in turns.  A
flatness lift is an integer representative f_F = r_F + k * n of that
rotation, i.e. a choice of homotopy class of paths from the identity to
the holonomy.  The total flatness winding is the sum of f_F / n_F over all
faces, the exact integer the index theorem compares against; like every
total of per-face turns it is summed as integers per fiber size
(``sum_turns``), so components with different fiber sizes add up exactly.
Explicit polygons and isomorphisms (``fiber``, ``transport``,
``holonomy_iso``) are built only on request, for the polygon algebra and
as reference oracles.

Sign conventions are listed in docs/conventions.md (version 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .complex import OrientedFace, OrientedSurface
from .errors import (
    LiftIncongruent,
    NonIntegralTotal,
    NotIncident,
    ReportCollector,
    UnknownLabel,
)
from .polygon import Polygon, PolyIso, Turns

LINK_MODE = "link"


def basepoint(face: OrientedFace, override: str | None = None) -> str:
    """Default basepoint is the least vertex label, which the face stores
    first; any override must lie on the face."""
    if override is None:
        return face.vertices[0]
    if override not in face:
        raise NotIncident(f"{override!r} is not a vertex of face {face.key}")
    return override


def boundary(face: OrientedFace, start: str) -> list[tuple[str, str]]:
    """The face's three directed edges, in cyclic order from ``start``."""
    a, b, c = face.corner_order(start)
    return [(a, b), (b, c), (c, a)]


def default_refinement(surface: OrientedSurface, even: bool = False) -> int:
    """Least common multiple of the vertex degrees (doubled if an even size
    is required and the lcm is odd)."""
    size = math.lcm(*surface.degrees.values())
    if even and size % 2 == 1:
        size *= 2
    return size


def _default_mode(surface: OrientedSurface, even: bool = False):
    """Link mode when every degree equals the default refinement, else that
    refinement."""
    size = default_refinement(surface, even)
    return LINK_MODE if set(surface.degrees.values()) == {size} else size


@dataclass(frozen=True)
class DiscreteConnection:
    """Transport offsets o_ij in [0, n) and the face key -> r_F holonomy
    table, validated; immutable afterwards.  ``sizes`` maps each vertex to
    its fiber size: the surface's ``degrees`` table in link mode."""

    surface: OrientedSurface
    refined: int | None  # None means link mode
    offsets: dict[tuple[str, str], int] = field(repr=False)
    holonomy: dict[str, int] = field(repr=False, compare=False)
    sizes: dict[str, int] = field(init=False, repr=False, compare=False)
    _fibers: dict[str, Polygon] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        sizes = self.surface.degrees
        if self.refined is not None:
            sizes = dict.fromkeys(sizes, self.refined)
        object.__setattr__(self, "sizes", sizes)

    def size(self, v: str) -> int:
        try:
            return self.sizes[v]
        except KeyError:
            raise NotIncident(f"{v!r} is not a vertex of this surface") from None

    def position(self, v: str, label: str) -> int:
        """Link label k of v sits at k * arc and ``x~j`` at x's position + j,
        arc = size / degree: the positions of ``Polygon.subdivide(arc)``."""
        table = self.surface.link(v)._pos
        arc = self.sizes[v] // len(table)
        if label in table:
            return table[label] * arc
        base, _, j = label.partition("~")
        # only the spelling subdivide produces: ASCII digits, no leading 0
        if base in table and j.isascii() and j.isdigit() and j[0] != "0" and int(j) < arc:
            return table[base] * arc + int(j)
        raise UnknownLabel(f"{label!r} is not a label of the fiber at {v!r}")

    def label_at(self, v: str, position: int) -> str:
        link = self.surface.link(v)
        n = self.sizes[v]
        k, j = divmod(position % n, n // link.n)
        return link.labels[k] if j == 0 else f"{link.labels[k]}~{j}"

    def fiber(self, v: str) -> Polygon:
        if v not in self._fibers:
            link = self.surface.link(v)
            self._fibers[v] = link.subdivide(self.size(v) // link.n)[0]
        return self._fibers[v]

    def transport(self, i: str, j: str) -> PolyIso:
        try:
            o = self.offsets[(i, j)]
        except KeyError:
            raise NotIncident(f"({i},{j}) is not a directed edge of the surface") from None
        return PolyIso(self.fiber(i), self.fiber(j), (self.label_at(i, 0), self.label_at(j, o)))


def _empty_connection(surface: OrientedSurface, fiber_mode) -> DiscreteConnection:
    """A connection without transports, once the fiber mode fits the surface."""
    collector = ReportCollector()
    degrees = surface.degrees
    if fiber_mode == LINK_MODE:
        for a, b in surface.edges:
            if degrees[a] != degrees[b]:
                collector.add(
                    "SizeMismatch",
                    f"{{{a},{b}}}",
                    f"link-mode transport needs equal degrees, got {degrees[a]} and {degrees[b]}",
                )
        collector.raise_if_failed("invalid connection")
        return DiscreteConnection(surface, None, {}, {})
    size = int(fiber_mode)
    for v in surface.vertices:
        deg = degrees[v]
        if size % deg != 0:
            collector.add("SizeMismatch", v, f"refinement {size} is not divisible by degree {deg}")
    collector.raise_if_failed("invalid fiber refinement")
    return DiscreteConnection(surface, size, {}, {})


def _close(conn: DiscreteConnection) -> DiscreteConnection:
    """Fill the holonomy table from the offsets; a face's three fibers have
    one size, so r_F does not depend on the basepoint."""
    o, sizes, holonomy = conn.offsets, conn.sizes, conn.holonomy
    for face in conn.surface.faces:
        a, b, c = face.vertices
        holonomy[face.key] = (o[(a, b)] + o[(b, c)] + o[(c, a)]) % sizes[a]
    return conn


_ABSENT = object()


def antisymmetric(surface: OrientedSurface, supplied, collector, noun, read, clash, modulus):
    """One integer per directed edge from values supplied on one direction
    of every edge or both: ``read(i, j, value)`` gives the integer (None
    once it has reported a bad value), the reverse is its negation, reduced
    mod ``modulus[a]`` unless ``modulus`` is None, and values supplied both
    ways must cancel, mod that or exactly, else the rule ``clash`` is
    reported."""
    edge_set = surface.edge_set
    for i, j in supplied:
        if ((i, j) if i < j else (j, i)) not in edge_set:
            collector.add("MissingEdge", f"({i},{j})", "not an edge of the surface")

    resolved: dict[tuple[str, str], int] = {}
    for a, b in surface.edges:
        forward, backward = supplied.get((a, b), _ABSENT), supplied.get((b, a), _ABSENT)
        if forward is _ABSENT and backward is _ABSENT:
            collector.add("MissingEdge", f"{{{a},{b}}}", f"no {noun} supplied")
            continue
        d = 0 if forward is _ABSENT else read(a, b, forward)
        e = 0 if backward is _ABSENT else read(b, a, backward)
        if d is None or e is None:
            continue
        n = modulus[a] if modulus else 0
        if forward is _ABSENT:
            d = -e
        elif backward is not _ABSENT and ((d + e) % n if n else d + e):
            collector.add(clash, f"{{{a},{b}}}", f"({a},{b}) gives {d} and "
                          f"({b},{a}) gives {e}, which do not cancel")
            continue
        resolved[(a, b)], resolved[(b, a)] = (d % n, -d % n) if n else (d, -d)
    return resolved


def _read_offset(conn: DiscreteConnection, collector, i: str, j: str, value) -> int | None:
    """The offset of an anchor pair or of a full label map.  Both fibers of
    an edge have size n."""
    n = conn.sizes[j]
    if isinstance(value, dict):
        try:
            pairs = [(conn.position(i, str(x)), conn.position(j, str(y))) for x, y in value.items()]
        except UnknownLabel:
            pairs = []
        if len(pairs) != n or len({q for _, q in pairs}) != n:
            rule, why = "UnknownLabel", "full map must cover the two fibers exactly"
        elif len({(q - p) % n for p, q in pairs}) == 1:
            return (pairs[0][1] - pairs[0][0]) % n
        elif len({(q + p) % n for p, q in pairs}) == 1:
            rule, why = "OrientationReversing", "transports must preserve orientation"
        else:
            rule, why = "UnknownLabel", "map does not respect the cyclic structure"
        collector.add(rule, f"({i},{j})", why)
        return None
    try:
        a, b = value
    except (TypeError, ValueError):
        collector.add("UnknownLabel", f"({i},{j})", f"cannot read transport spec {value!r}")
        return None
    try:
        return (conn.position(j, str(b)) - conn.position(i, str(a))) % n
    except UnknownLabel as exc:
        collector.add("UnknownLabel", f"({i},{j})", str(exc))
        return None


def build_connection(surface: OrientedSurface, fiber_mode, transports) -> DiscreteConnection:
    """Validate and assemble a connection.

    ``transports`` maps directed edges to transport specs (anchor pair or
    full label map).  One direction per undirected edge suffices; if both
    are supplied they must be mutually inverse.
    """
    conn = _empty_connection(surface, fiber_mode)
    collector = ReportCollector()
    read = partial(_read_offset, conn, collector)
    conn.offsets.update(antisymmetric(
        surface, transports, collector, "transport", read, "NotInverse", conn.sizes
    ))
    collector.raise_if_failed("invalid connection")
    return _close(conn)


def holonomy_iso(conn: DiscreteConnection, face: OrientedFace, base: str | None = None) -> PolyIso:
    """Composite transport around the face boundary, an endomorphism of the
    basepoint fiber.  The explicit form of ``holonomy_steps``."""
    v = basepoint(face, base)
    iso = PolyIso.identity(conn.fiber(v))
    for i, j in boundary(face, v):
        iso = conn.transport(i, j).compose(iso)
    return iso


def holonomy_steps(conn: DiscreteConnection, face: OrientedFace) -> int:
    """r_F in [0, n), the same at every basepoint."""
    return conn.holonomy[face.key]


def curvature_turns(conn: DiscreteConnection, face: OrientedFace) -> Turns:
    """r_F / n in turns; the three fibers of a face have one size n."""
    return Fraction(conn.holonomy[face.key], conn.sizes[face.vertices[0]])


def sum_turns(terms) -> Turns:
    """The exact sum of m / n over ``(n, m)`` pairs, one pair per face with
    n its fiber size: the integers are summed per fiber size and each sum
    is divided once."""
    by_size: dict[int, int] = {}
    for n, m in terms:
        by_size[n] = by_size.get(n, 0) + m
    return sum((Fraction(m, n) for n, m in by_size.items()), Fraction(0))


def net_holonomy(conn: DiscreteConnection) -> Turns:
    """Sum of face curvatures, reduced mod 1.  Zero for every valid
    connection: each directed edge appears in exactly one face boundary, so
    the per-edge rotation offsets cancel in pairs."""
    sizes, holonomy = conn.sizes, conn.holonomy
    return sum_turns((sizes[f.vertices[0]], holonomy[f.key]) for f in conn.surface.faces) % 1


@dataclass(frozen=True)
class FlatnessStructure:
    """A chosen integer lift f_F of each face's holonomy rotation, keyed by
    the face key."""

    lifts: dict[str, int] = field(repr=False)

    def lift(self, face: OrientedFace) -> int:
        return self.lifts[face.key]


def attach_flatness(conn: DiscreteConnection, lifts) -> FlatnessStructure:
    """Validate a lift per face, given by face key or by face: each must be
    congruent to the holonomy steps mod the fiber size."""
    collector = ReportCollector()
    surface = conn.surface
    resolved: dict[str, int] = {}
    for key, value in lifts.items():
        if type(key) is not str:
            key = key.key if isinstance(key, OrientedFace) else str(key)
        try:
            surface.face_by_key(key)
        except NotIncident:
            collector.add("MissingFace", key, "lift given for a face not on the surface")
            continue
        resolved[key] = int(value)
    sizes, holonomy = conn.sizes, conn.holonomy
    for face in surface.faces:
        key = face.key
        lift = resolved.get(key)
        if lift is None:
            collector.add("MissingFace", key, "no lift supplied")
            continue
        n = sizes[face.vertices[0]]
        r = holonomy[key]
        if lift % n != r:
            collector.add(
                "LiftIncongruent",
                key,
                f"lift {lift} is not congruent to holonomy {r} mod {n}",
            )
    collector.raise_if_failed("invalid flatness structure")
    return FlatnessStructure(resolved)


def canonical_flatness(conn: DiscreteConnection) -> FlatnessStructure:
    """The least nonnegative lift on every face: f_F = r_F."""
    return FlatnessStructure(dict(conn.holonomy))


def total_flatness_winding(conn: DiscreteConnection, flatness: FlatnessStructure) -> int:
    """Sum of lift turns f_F / n_F over all faces; integral whenever the net
    holonomy vanishes mod 1, which validation guarantees."""
    sizes, lifts = conn.sizes, flatness.lifts
    total = sum_turns((sizes[f.vertices[0]], lifts[f.key]) for f in conn.surface.faces)
    if total.denominator != 1:
        raise NonIntegralTotal(f"total flatness {total} is not an integer")
    return int(total)


@dataclass(frozen=True)
class FaceReport:
    """Per-face quantities at a stated basepoint."""

    face: str
    basepoint: str
    size: int
    holonomy_steps: int
    lift: int
    curvature: Turns
    lift_turns: Turns


def face_reports(
    conn: DiscreteConnection,
    flatness: FlatnessStructure,
    basepoints: dict[str, str] | None = None,
) -> list[FaceReport]:
    overrides = basepoints or {}
    sizes, holonomy, lifts = conn.sizes, conn.holonomy, flatness.lifts
    rows = []
    for face in conn.surface.faces:
        key = face.key
        v = basepoint(face, overrides.get(key))
        n, r, f = sizes[v], holonomy[key], lifts[key]
        rows.append(FaceReport(key, v, n, r, f, Fraction(r, n), Fraction(f, n)))
    return rows


@dataclass(frozen=True)
class GaugeTransformation:
    """A rotation of each vertex fiber, acting on connections by
    conjugation."""

    steps: dict[str, int] = field(repr=False)

    def at(self, v: str) -> int:
        return self.steps.get(v, 0)


def gauge_transform(conn: DiscreteConnection, gauge: GaugeTransformation) -> DiscreteConnection:
    """Conjugate every transport: t'(i,j) = rot_j(g_j) o t(i,j) o rot_i(-g_i),
    i.e. o'_ij = o_ij + g_j - g_i.

    The gauge steps cancel around every face boundary, so every holonomy
    step count is unchanged; the table is recomputed from the new offsets
    all the same.
    """
    sizes = conn.sizes
    offsets = {
        (i, j): (o + gauge.at(j) - gauge.at(i)) % sizes[j]
        for (i, j), o in conn.offsets.items()
    }
    return _close(DiscreteConnection(conn.surface, conn.refined, offsets, {}))


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
    charts = {v0: PolyIso.identity(conn.fiber(v0))}
    charts[e0[1]] = conn.transport(*e0).invert()
    charts[e1[1]] = conn.transport(*e1).compose(conn.transport(*e0)).invert()

    # sanity: transitions compose to the lift-determined rotation
    composite = charts[v0]
    for i, j in boundary(face, v0):
        transition = charts[j].compose(conn.transport(i, j)).compose(charts[i].invert())
        composite = transition.compose(composite)
    if composite.rotation_steps() != flatness.lift(face) % conn.size(v0):
        raise LiftIncongruent(
            f"cocycle of face {face.key} disagrees with its flatness lift"
        )
    return charts


def tangent_connection(surface: OrientedSurface, fiber_mode=None) -> DiscreteConnection:
    """The straightest transport: the direction pointing along a directed
    edge is carried to the continuation of that edge on the far side, i.e.
    the antipode of the direction pointing back.

    Needs an even fiber size, so link mode requires uniform even degree;
    otherwise use a refined mode with even size (the default).
    """
    if fiber_mode is None:
        fiber_mode = _default_mode(surface, even=True)
    conn = _empty_connection(surface, fiber_mode)
    collector = ReportCollector()
    for v in surface.vertices:
        if conn.size(v) % 2 != 0:
            collector.add("SizeMismatch", v, f"fiber size {conn.size(v)} is odd, antipodes undefined")
    collector.raise_if_failed("no straightest transport")
    for a, b in surface.directed_edges():
        n = conn.size(b)
        conn.offsets[(a, b)] = (conn.position(b, a) + n // 2 - conn.position(a, b)) % n
    return _close(conn)


def flat_connection(surface: OrientedSurface, fiber_mode=None) -> DiscreteConnection:
    """Position-preserving transports; every holonomy is the identity."""
    if fiber_mode is None:
        fiber_mode = _default_mode(surface)
    conn = _empty_connection(surface, fiber_mode)
    conn.offsets.update(dict.fromkeys(surface.directed_edges(), 0))
    return _close(conn)
