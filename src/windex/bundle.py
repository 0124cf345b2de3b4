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
off its label on demand through the surface's link position tables.  A
transport is an offset o_ij with pos_j(t(x)) = pos_i(x) + o_ij (mod n),
stored by half-edge id.  Holonomy around a face is the composite transport
along its boundary, a rotation of the basepoint fiber by r_F = the sum of
the boundary offsets mod n, tabulated by face id when the connection is
built; r_F / n is the curvature of the face, in turns.  A flatness lift
is an integer representative f_F = r_F + k * n of that rotation, i.e. a
choice of homotopy class of paths from the identity to the holonomy,
stored by face id.  The total flatness winding is the sum of f_F / n_F
over all faces, the exact integer the index theorem compares against;
like every total of per-face turns it is summed as integers per fiber size
(``sum_turns``), so components with different fiber sizes add up exactly.
Explicit polygons and isomorphisms (``fiber``, ``transport``,
``holonomy_iso``) are built only on request, for the polygon algebra and
as reference oracles; so are the ``FaceReport`` rows' labels and keys.

Sign conventions are listed in docs/conventions.md (version 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

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
    size = math.lcm(*surface.degrees)
    if even and size % 2 == 1:
        size *= 2
    return size


def _default_mode(surface: OrientedSurface, even: bool = False):
    """Link mode when every degree equals the default refinement, else that
    refinement."""
    size = default_refinement(surface, even)
    return LINK_MODE if set(surface.degrees) == {size} else size


@dataclass(frozen=True)
class DiscreteConnection:
    """Transport offsets o_ij in [0, n), one by half-edge id, checked by the
    builders below; ``refined`` and the count are checked on construction,
    which derives the rest, immutable.  By vertex id, ``sizes`` holds the
    fiber size (the degree in link mode) and ``arcs`` size // degree; by face
    id, ``face_sizes`` the one size of its three fibers and ``holonomy`` r_F."""

    surface: OrientedSurface
    refined: int | None  # None means link mode
    offsets: list[int] = field(repr=False)
    sizes: list[int] = field(init=False, repr=False, compare=False)
    arcs: list[int] = field(init=False, repr=False, compare=False)
    face_sizes: list[int] = field(init=False, repr=False, compare=False)
    holonomy: list[int] = field(init=False, repr=False, compare=False)
    _fibers: dict[str, Polygon] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        deg, tails, o = self.surface.degrees, self.surface.tails, self.offsets
        refined = _refinement(self.surface, LINK_MODE if self.refined is None else self.refined)
        if len(o) != len(tails):
            collector = ReportCollector()
            collector.add("SizeMismatch", "offsets",
                          f"{len(o)} offsets for {len(tails)} half-edges, need one each")
            collector.raise_if_failed("invalid connection")
        object.__setattr__(self, "refined", refined)
        n = deg if refined is None else [refined] * len(deg)
        face_n = [n[tails[h]] for h in range(0, len(tails), 3)]
        object.__setattr__(self, "sizes", n)
        object.__setattr__(self, "arcs", [size // d for size, d in zip(n, deg)])
        object.__setattr__(self, "face_sizes", face_n)
        object.__setattr__(self, "holonomy", [(o[h] + o[h + 1] + o[h + 2]) % size
                                              for h, size in zip(range(0, len(o), 3), face_n)])

    def _id(self, v: str) -> int:
        try:
            return self.surface.index[v]
        except KeyError:
            raise NotIncident(f"{v!r} is not a vertex of this surface") from None

    def size(self, v: str) -> int:
        return self.sizes[self._id(v)]

    def position(self, v: str, label: str) -> int:
        """Link label k of v sits at k * arc and ``x~j`` at x's position + j,
        arc = size / degree: the positions of ``Polygon.subdivide(arc)``."""
        i = self._id(v)
        table, arc = self.surface.link_pos[i], self.arcs[i]
        if label in table:
            return table[label] * arc
        base, _, j = label.partition("~")
        # only the spelling subdivide produces: ASCII digits, no leading 0
        if base in table and j.isascii() and j.isdigit() and j[0] != "0" and int(j) < arc:
            return table[base] * arc + int(j)
        raise UnknownLabel(f"{label!r} is not a label of the fiber at {v!r}")

    def _label(self, v: int, position: int) -> str:
        ring = self.surface.link_labels[v]
        k, j = divmod(position % self.sizes[v], self.arcs[v])
        return ring[k] if j == 0 else f"{ring[k]}~{j}"

    def label_at(self, v: str, position: int) -> str:
        return self._label(self._id(v), position)

    def fiber(self, v: str) -> Polygon:
        if v not in self._fibers:
            self._fibers[v] = self.surface.link(v).subdivide(self.arcs[self._id(v)])[0]
        return self._fibers[v]

    def transport(self, i: str, j: str) -> PolyIso:
        surface = self.surface
        h = surface.half_edge(i, j)
        anchor = (self._label(surface.tails[h], 0), self._label(surface.heads[h], self.offsets[h]))
        return PolyIso(self.fiber(i), self.fiber(j), anchor)


def _refinement(surface: OrientedSurface, fiber_mode) -> int | None:
    """``refined`` of a fiber mode that fits the surface: None for link mode
    (equal degrees on every edge), else an integer >= 3 each degree divides."""
    collector = ReportCollector()
    deg, labels = surface.degrees, surface.vertices
    if fiber_mode == LINK_MODE:
        tails, heads = surface.tails, surface.heads
        for h in surface.edge_half:
            a, b = tails[h], heads[h]
            if deg[a] != deg[b]:
                collector.add("SizeMismatch", f"{{{labels[a]},{labels[b]}}}",
                              f"link-mode transport needs equal degrees, got {deg[a]} and {deg[b]}")
        collector.raise_if_failed("invalid connection")
        return None
    if not isinstance(fiber_mode, int) or fiber_mode < 3:
        collector.add("BadFiberMode", "fiber_mode",
                      f'expected "link" or an integer refinement >= 3, got {fiber_mode!r}')
        collector.raise_if_failed("invalid fiber mode")
    for v, d in zip(labels, deg):
        if fiber_mode % d != 0:
            collector.add("SizeMismatch", v,
                          f"refinement {fiber_mode} is not divisible by degree {d}")
    collector.raise_if_failed("invalid fiber refinement")
    return fiber_mode


_ABSENT = object()


def antisymmetric(surface: OrientedSurface, supplied, collector, noun, read, clash, modulus):
    """One integer per half-edge (None where unresolved) from values
    supplied by label pair on one direction of every edge or both:
    ``read(h, value)`` gives the integer (None once it has reported a bad
    value), else the value must be one (rule NotAnInteger).  The reverse
    is its negation, mod ``modulus[v]`` of an end v unless ``modulus`` is
    None, and values supplied both ways must cancel, mod that or exactly,
    else the rule ``clash`` is reported."""
    get, half, V = surface.index.get, surface.half, len(surface.vertices)
    ids = [half.get(get(i, V) * (V + 1) + get(j, V)) for i, j in supplied]
    given = dict(zip(ids, supplied.values()))
    if None in given or not (read or set(map(type, given.values())) <= {int}):
        given.pop(None, None)
        for h, (i, j), value in zip(ids, supplied, supplied.values()):
            if h is None:
                collector.add("MissingEdge", f"({i},{j})", "not an edge of the surface")
            elif not (read or isinstance(value, int)):
                collector.add("NotAnInteger", f"({i},{j})", f"{noun} {value!r} is not an integer")
                given[h] = None

    labels, tails, twin = surface.vertices, surface.tails, surface.twin
    resolved = [None] * len(surface.tails)
    for h in surface.edge_half:
        t = twin[h]
        forward, backward = given.get(h, _ABSENT), given.get(t, _ABSENT)
        if forward is _ABSENT and backward is _ABSENT:
            a, b = labels[tails[h]], labels[tails[t]]
            collector.add("MissingEdge", f"{{{a},{b}}}", f"no {noun} supplied")
            continue
        d = 0 if forward is _ABSENT else read(h, forward) if read else forward
        e = 0 if backward is _ABSENT else read(t, backward) if read else backward
        if d is None or e is None:
            continue
        n = modulus[tails[h]] if modulus else 0
        if forward is _ABSENT:
            d = -e
        elif backward is not _ABSENT and ((d + e) % n if n else d + e):
            a, b = labels[tails[h]], labels[tails[t]]
            collector.add(clash, f"{{{a},{b}}}", f"({a},{b}) gives {d} and "
                          f"({b},{a}) gives {e}, which do not cancel")
            continue
        resolved[h], resolved[t] = (d % n, -d % n) if n else (d, -d)
    return resolved


def _offset_reader(fibers: DiscreteConnection, collector):
    """``read`` for ``antisymmetric``: the offset on half-edge h of an anchor
    pair or of a full label map.  Both fibers of an edge have size n."""
    surface, n_at, arc, position = fibers.surface, fibers.sizes, fibers.arcs, fibers.position
    labels, tails, heads, pos = surface.vertices, surface.tails, surface.heads, surface.link_pos

    def read(h: int, value) -> int | None:
        t, u = tails[h], heads[h]
        i, j, n = labels[t], labels[u], n_at[u]
        if isinstance(value, dict):
            try:
                pairs = [(position(i, str(x)), position(j, str(y))) for x, y in value.items()]
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
            a, b = map(str, value)
        except (TypeError, ValueError):
            collector.add("UnknownLabel", f"({i},{j})", f"cannot read transport spec {value!r}")
            return None
        p, q = pos[t].get(a), pos[u].get(b)
        if p is not None and q is not None:  # two link labels, at k * arc
            return (q * arc[u] - p * arc[t]) % n
        try:
            return (position(j, b) - position(i, a)) % n
        except UnknownLabel as exc:
            collector.add("UnknownLabel", f"({i},{j})", str(exc))
            return None

    return read


def build_connection(surface: OrientedSurface, fiber_mode, transports) -> DiscreteConnection:
    """Validate and assemble a connection.

    ``transports`` maps directed edges to transport specs (anchor pair or
    full label map).  One direction per undirected edge suffices; if both
    are supplied they must be mutually inverse.
    """
    fibers = DiscreteConnection(surface, _refinement(surface, fiber_mode), [0] * len(surface.tails))
    collector = ReportCollector()
    offsets = antisymmetric(surface, transports, collector, "transport",
                            _offset_reader(fibers, collector), "NotInverse", fibers.sizes)
    collector.raise_if_failed("invalid connection")
    return DiscreteConnection(surface, fibers.refined, offsets)


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
    return conn.holonomy[conn.surface.face_id(face.key)]


def curvature_turns(conn: DiscreteConnection, face: OrientedFace) -> Turns:
    """r_F / n in turns; the three fibers of a face have one size n."""
    f = conn.surface.face_id(face.key)
    return Fraction(conn.holonomy[f], conn.face_sizes[f])


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
    return sum_turns(zip(conn.face_sizes, conn.holonomy)) % 1


@dataclass(frozen=True)
class FlatnessStructure:
    """A chosen integer lift f_F of each face's holonomy rotation, by face
    id of ``surface``."""

    surface: OrientedSurface = field(repr=False)
    lifts: list[int] = field(repr=False)

    def lift(self, face: OrientedFace) -> int:
        return self.lifts[self.surface.face_id(face.key)]


def attach_flatness(conn: DiscreteConnection, lifts) -> FlatnessStructure:
    """Validate a lift per face, given by face key or by face: each must be
    congruent to the holonomy steps mod the fiber size."""
    collector = ReportCollector()
    surface = conn.surface
    face_index = surface.face_index
    resolved: list[int | None] = [None] * len(surface.keys)
    for key, value in lifts.items():
        if type(key) is not str:
            key = key.key if isinstance(key, OrientedFace) else str(key)
        f = face_index.get(key)
        if f is None:
            collector.add("MissingFace", key, "lift given for a face not on the surface")
            continue
        resolved[f] = value
    for key, lift, r, n in zip(surface.keys, resolved, conn.holonomy, conn.face_sizes):
        if lift is None:
            collector.add("MissingFace", key, "no lift supplied")
        elif not isinstance(lift, int):
            collector.add("NotAnInteger", key, f"lift {lift!r} is not an integer")
        elif lift % n != r:
            collector.add(
                "LiftIncongruent",
                key,
                f"lift {lift} is not congruent to holonomy {r} mod {n}",
            )
    collector.raise_if_failed("invalid flatness structure")
    return FlatnessStructure(surface, resolved)


def canonical_flatness(conn: DiscreteConnection) -> FlatnessStructure:
    """The least nonnegative lift on every face: f_F = r_F."""
    return FlatnessStructure(conn.surface, list(conn.holonomy))


def total_flatness_winding(conn: DiscreteConnection, flatness: FlatnessStructure) -> int:
    """Sum of lift turns f_F / n_F over all faces; integral whenever the net
    holonomy vanishes mod 1, which validation guarantees."""
    total = sum_turns(zip(conn.face_sizes, flatness.lifts))
    if total.denominator != 1:
        raise NonIntegralTotal(f"total flatness {total} is not an integer")
    return int(total)


def face_basepoints(surface: OrientedSurface, overrides) -> list[str]:
    """The basepoint of every face: its least vertex, unless ``overrides``
    maps its key to another of its vertices.  NotIncident names the first
    key, in the order given, of no face, else the first face in order whose
    override is off it."""
    labels, tails = surface.vertices, surface.tails
    bases = [labels[tails[h]] for h in range(0, len(tails), 3)]
    if overrides:
        chosen = [(surface.face_id(k), v) for k, v in overrides.items()]
        for f, v in sorted(chosen):
            if v not in [labels[t] for t in tails[3 * f:3 * f + 3]]:
                raise NotIncident(f"{v!r} is not a vertex of face {surface.keys[f]}")
            bases[f] = v
    return bases


class FaceReport(NamedTuple):
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
    bases = face_basepoints(conn.surface, basepoints)
    return [FaceReport(key, v, n, r, f, Fraction(r, n), Fraction(f, n))
            for key, v, n, r, f in zip(conn.surface.keys, bases, conn.face_sizes,
                                       conn.holonomy, flatness.lifts)]


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
    surface, n = conn.surface, conn.sizes
    g = [gauge.at(v) for v in surface.vertices]
    offsets = [(o + g[j] - g[i]) % n[j]
               for o, i, j in zip(conn.offsets, surface.tails, surface.heads)]
    return DiscreteConnection(surface, conn.refined, offsets)


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
    fibers = flat_connection(surface, fiber_mode)
    collector = ReportCollector()
    n, arc = fibers.sizes, fibers.arcs
    for v, size in zip(surface.vertices, n):
        if size % 2 != 0:
            collector.add("SizeMismatch", v, f"fiber size {size} is odd, antipodes undefined")
    collector.raise_if_failed("no straightest transport")
    # pos_b(a) + n/2 - pos_a(b); a link label k sits at k * arc
    labels, pos = surface.vertices, surface.link_pos
    offsets = [(pos[b][labels[a]] * arc[b] + n[b] // 2 - pos[a][labels[b]] * arc[a]) % n[b]
               for a, b in zip(surface.tails, surface.heads)]
    return DiscreteConnection(surface, fibers.refined, offsets)


def flat_connection(surface: OrientedSurface, fiber_mode=None) -> DiscreteConnection:
    """Position-preserving transports; every holonomy is the identity."""
    if fiber_mode is None:
        fiber_mode = _default_mode(surface)
    return DiscreteConnection(surface, _refinement(surface, fiber_mode), [0] * len(surface.tails))
