"""Discrete circle bundles with connection.

A connection assigns a fiber, a combinatorial circle of n points, to every
vertex and an orientation-preserving rotation offset (the transport) to
every directed edge, its negation on the reverse edge.  Fibers come in two
modes:

* link mode: the fiber at v is link(v) itself, so transports only exist
  where the two endpoint degrees agree;
* refined(N) mode: every fiber is link(v) subdivided into an N-gon, link
  label k at position k * N/deg(v) and the fresh points ``x~j`` after it;
  N must be divisible by every degree.  Refinement decouples fiber size
  from vertex degree, which is what lets arbitrary surfaces carry
  connections.  Link mode is the same with N = deg(v).

Fibers are virtual: a point is its position mod the fiber size n, read
off its label on demand: a link label through the surface's ring position
of the half-edge from v to it, ``x~j`` j after that.  A
transport is an offset o_ij with pos_j(t(x)) = pos_i(x) + o_ij (mod n),
stored by half-edge id.  Holonomy around a face is the composite transport
along its boundary, a rotation of the basepoint fiber by r_F = the sum of
the boundary offsets mod n, tabulated by face id when the connection is
built; r_F / n is the curvature of the face, in turns.  A flatness lift
is an integer representative f_F = r_F + k * n of that rotation, i.e. a
choice of homotopy class of paths from the identity to the holonomy,
stored by face id.  The total flatness winding is the sum of f_F / n_F
over all faces, the exact integer the index theorem compares against;
like every total of per-face turns it is summed by ``sum_turns`` from two
columns by face id, the fiber sizes and the numerators: each numerator is
brought over the lcm of the sizes and the sum is one exact fraction, so
components with different fiber sizes add up exactly.
Each per-face quantity is read from its table; a per-face report is
columns by face id, led by the five of ``face_columns``.

Sign conventions are listed in docs/conventions.md (version 1).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .complex import NO_EDGES, OrientedSurface
from .errors import NonIntegralTotal, NotIncident, ReportCollector, UnknownLabel, WindexError

LINK_MODE = "link"

# angles, in turns: 1 is one full revolution
Turns = Fraction


class Fiber(NamedTuple):
    """The fiber at ``vertex``: the positions 0 .. n - 1, read as labels by
    ``DiscreteConnection.label_at``."""

    vertex: str
    n: int


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
    """Transport offsets o_ij in [0, n), one by half-edge id with o_ji =
    -o_ij mod n; ``refined``, the count and the values are checked on
    construction, which derives the rest, immutable.  By vertex id, ``sizes``
    holds the fiber size (the degree in link mode) and ``arcs`` size //
    degree; by face id, ``face_sizes`` the one size of its three fibers and
    ``holonomy`` r_F.  No fiber label is stored: ``position`` and
    ``label_at`` convert between a label and its position, and ``fiber``
    is the record of a fiber's size.  The builders pass ``_sizes``, the
    ``_fiber_sizes`` of ``refined`` they have already checked, with offsets
    they have made in range and inverse: neither is checked again."""

    surface: OrientedSurface
    refined: int | None  # None means link mode
    offsets: list[int] = field(repr=False)
    sizes: list[int] = field(init=False, repr=False, compare=False)
    arcs: list[int] = field(init=False, repr=False, compare=False)
    face_sizes: list[int] = field(init=False, repr=False, compare=False)
    holonomy: list[int] = field(init=False, repr=False, compare=False)
    _sizes: InitVar[tuple | None] = field(default=None, kw_only=True)

    def __post_init__(self, _sizes) -> None:
        surface, o = self.surface, self.offsets
        tails = surface.tails
        if _sizes is None:
            _sizes = _fiber_sizes(surface, LINK_MODE if self.refined is None else self.refined)
            _check_offsets(surface, o, _sizes[1])
        refined, n, arcs = _sizes
        object.__setattr__(self, "refined", refined)
        face_n = [n[tails[h]] for h in range(0, len(tails), 3)]
        object.__setattr__(self, "sizes", n)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "face_sizes", face_n)
        object.__setattr__(self, "holonomy", [(o[h] + o[h + 1] + o[h + 2]) % size
                                              for h, size in zip(range(0, len(o), 3), face_n)])

    def size(self, v: str) -> int:
        return self.sizes[self.surface.vertex_id(v)]

    def position(self, v: str, label: str) -> int:
        """Link label k of v sits at k * arc and ``x~j`` at x's position + j,
        arc = size / degree: the points a subdivided link gains after x."""
        i = self.surface.vertex_id(v)
        if type(label) is not str:
            raise UnknownLabel(f"{label!r} is not a label of the fiber at {v!r}")
        return _position(self.surface, self.arcs[i], i, label)

    def _label(self, v: int, position: int) -> str:
        ring = self.surface.link_labels[v]
        k, j = divmod(position % self.sizes[v], self.arcs[v])
        return ring[k] if j == 0 else f"{ring[k]}~{j}"

    def label_at(self, v: str, position: int) -> str:
        """The label at ``position`` in the fiber at ``v``; an ``x~j`` whose
        j has more digits than Python prints is a WindexError."""
        i = self.surface.vertex_id(v)
        if type(position) is not int:
            raise UnknownLabel(f"{position!r} is not a position in the fiber at {v!r}")
        try:
            return self._label(i, position)
        except ValueError:  # str(j) past the int_max_str_digits limit
            raise WindexError(f"the label at this position in the fiber at {v!r} "
                              "has too many digits to print") from None

    def fiber(self, v: str) -> Fiber:
        return Fiber(v, self.sizes[self.surface.vertex_id(v)])


def _check_offsets(surface: OrientedSurface, o, n) -> None:
    """One offset per half-edge, each an int in [0, n) whose twin holds its
    negation mod n, with ``n`` the fiber size by vertex id."""
    tails, twin = surface.tails, surface.twin
    collector = ReportCollector()
    if len(o) != len(tails):
        collector.add("SizeMismatch", "offsets",
                      f"{len(o)} offsets for {len(tails)} half-edges, need one each")
        collector.raise_if_failed("invalid connection")
    # both fibers of an edge have one size s; only int offsets are compared
    for h in [h for h in surface.edge_half
              if type(x := o[h]) is not int or type(y := o[twin[h]]) is not int
              or not 0 <= x < (s := n[tails[h]]) or y != -x % s]:
        a, b = surface.vertices[tails[h]], surface.vertices[tails[twin[h]]]
        ints = type(o[h]) is int and type(o[twin[h]]) is int
        collector.add("NotInverse" if ints else "NotAnInteger", f"{{{a},{b}}}",
                      f"offsets {o[h]!r} on ({a},{b}) and {o[twin[h]]!r} on ({b},{a}) are "
                      + (f"not inverse in [0, {n[tails[h]]})" if ints else "not both integers"))
    collector.raise_if_failed("invalid connection")


def _refinement(surface: OrientedSurface, fiber_mode) -> int | None:
    """``refined`` of a fiber mode that fits the surface: None for link mode
    (equal degrees on every edge), else an integer >= 3 each degree divides."""
    collector = ReportCollector()
    deg, labels = surface.degrees, surface.vertices
    if fiber_mode == LINK_MODE:
        tails, heads = surface.tails, surface.heads
        for h in [h for h in surface.edge_half if deg[tails[h]] != deg[heads[h]]]:
            a, b = tails[h], heads[h]
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


def _fiber_sizes(surface: OrientedSurface, fiber_mode) -> tuple[int | None, list[int], list[int]]:
    """``refined`` of a fiber mode that fits the surface, and by vertex id
    the fiber size and the arc, size // degree."""
    refined, deg = _refinement(surface, fiber_mode), surface.degrees
    n = deg if refined is None else [refined] * len(deg)
    return refined, n, [size // d for size, d in zip(n, deg)]


def _position(surface: OrientedSurface, arc: int, v: int, label: str) -> int:
    """The position of ``label`` in the fiber at vertex id ``v``: a link
    label at its ring position times ``arc``, read off the half-edge from
    v to it in the row of v in ``surface.out``, and ``x~j`` j after x."""
    base, tilde, j = label.partition("~")  # no vertex label holds a "~"
    h = surface.out[surface.vertices[v]].get(base)
    if h is not None and not tilde:
        return surface.ring_pos[h] * arc
    # only the spelling subdivide produces: ASCII digits, no leading 0
    if h is not None and j.isascii() and j.isdigit() and j[0] != "0" and int(j) < arc:
        return surface.ring_pos[h] * arc + int(j)
    raise UnknownLabel(f"{label!r} is not a label of the fiber at {surface.vertices[v]!r}")


def read_positions(conn: DiscreteConnection, at, collector) -> list[int]:
    """The position by vertex id of the label ``at`` gives each vertex, each
    label read once: a link label off the half-edge to it in the row of its
    vertex in ``surface.out``, as ``_position`` reads it, and an ``x~j``
    label, or one of no point, by ``_position``.  A vertex without a label
    is reported as MissingVertex, a label of no point as UnknownLabel."""
    surface = conn.surface
    out, ring_pos = surface.out, surface.ring_pos
    positions: list[int] = []
    for i, (v, arc) in enumerate(zip(surface.vertices, conn.arcs)):
        if v not in at:
            collector.add("MissingVertex", v, "no fiber point supplied")
            continue
        label = str(at[v])
        if (h := out[v].get(label)) is not None:
            positions.append(ring_pos[h] * arc)
            continue
        try:
            positions.append(_position(surface, arc, i, label))
        except UnknownLabel:
            collector.add("UnknownLabel", v, f"{label!r} is not a point of the fiber at {v!r}")
    return positions


_ABSENT = object()


def _edge_keys(surface: OrientedSurface, supplied: dict, collector):
    """(half-edge id, value) for each key of ``supplied`` that is a directed
    edge ``(i, j)``; each other key is reported when it is reached, as
    BadEdge if it is not a pair and MissingEdge if it is no edge."""
    for key, value in supplied.items():
        if not (isinstance(key, tuple) and len(key) == 2):
            collector.add("BadEdge", repr(key), "an edge is a pair of vertex labels")
        elif (h := surface.out.get(key[0], NO_EDGES).get(key[1])) is None:
            collector.add("MissingEdge", f"({key[0]},{key[1]})", "not an edge of the surface")
        else:
            yield h, value


def antisymmetric(surface: OrientedSurface, supplied, collector, noun, clash, modulus,
                  arcs=None):
    """One integer per half-edge (None where unresolved) from values
    supplied on one direction of every edge or both, as a dict keyed by
    label pair or as the scene parser resolves them, (half-edge id, value)
    pairs, each half-edge once.  Without ``arcs`` each value must be an
    integer (rule NotAnInteger).  With ``arcs``, the fiber arc by vertex
    id, each is a transport spec, read into its offset where it is stored:
    an anchor of two link labels from the ring positions of the half-edges
    to them in ``surface.out``, any other spec by ``_read_transport``,
    whose fault is reported when its edge is reached.  The reverse is its
    negation, mod ``modulus[v]`` of an end v unless ``modulus`` is None,
    and values supplied both ways must cancel, mod that or exactly, else
    the rule ``clash`` is reported."""
    labels, tails, heads, twin = surface.vertices, surface.tails, surface.heads, surface.twin
    given = [_ABSENT] * len(tails)
    faults: dict[int, tuple[str, str, str]] = {}
    if isinstance(supplied, dict):
        supplied = _edge_keys(surface, supplied, collector)
    if arcs is None:
        for h, value in supplied:
            if type(value) is not int:
                collector.add("NotAnInteger", f"({labels[tails[h]]},{labels[heads[h]]})",
                              f"{noun} {value!r} is not an integer")
                value = None
            given[h] = value
    else:
        out, ring_pos = surface.out, surface.ring_pos
        for h, spec in supplied:
            t, u = tails[h], heads[h]
            if (type(spec) in (list, tuple) and len(spec) == 2
                    and type(a := spec[0]) is str and type(b := spec[1]) is str
                    and (p := out[labels[t]].get(a)) is not None
                    and (q := out[labels[u]].get(b)) is not None):
                given[h] = (ring_pos[q] * arcs[u] - ring_pos[p] * arcs[t]) % modulus[u]
            elif type(value := _read_transport(surface, modulus, arcs, h, spec)) is tuple:
                faults[h] = value
                given[h] = None
            else:
                given[h] = value

    resolved = [None] * len(tails)
    for h in surface.edge_half:
        t = twin[h]
        forward, backward = given[h], given[t]
        if forward is _ABSENT and backward is _ABSENT:
            a, b = labels[tails[h]], labels[tails[t]]
            collector.add("MissingEdge", f"{{{a},{b}}}", f"no {noun} supplied")
            continue
        if forward is None or backward is None:
            for g in (h, t):
                if g in faults:
                    collector.add(*faults[g])
            continue
        n = modulus[tails[h]] if modulus else 0
        if forward is _ABSENT:
            d = -backward
        else:
            d = forward
            if backward is not _ABSENT and ((d + backward) % n if n else d + backward):
                a, b = labels[tails[h]], labels[tails[t]]
                collector.add(clash, f"{{{a},{b}}}", f"({a},{b}) gives {d} and "
                              f"({b},{a}) gives {backward}, which do not cancel")
                continue
        resolved[h], resolved[t] = (d % n, -d % n) if n else (d, -d)
    return resolved


def _read_transport(surface: OrientedSurface, n_at, arc, h: int, spec):
    """The offset on half-edge h of a transport spec, an anchor pair or a
    full label map, with fiber sizes ``n_at`` and arcs ``arc`` by vertex
    id; or, when it cannot be read, the (rule, element, message) to report.
    Both fibers of an edge have size n."""
    t, u = surface.tails[h], surface.heads[h]
    n, where = n_at[u], f"({surface.vertices[t]},{surface.vertices[u]})"
    if isinstance(spec, dict):
        try:
            pairs = [(_position(surface, arc[t], t, str(x)), _position(surface, arc[u], u, str(y)))
                     for x, y in spec.items()]
        except UnknownLabel:
            pairs = []
        if len(pairs) != n or len({q for _, q in pairs}) != n:
            return "UnknownLabel", where, "full map must cover the two fibers exactly"
        if len({(q - p) % n for p, q in pairs}) == 1:
            return (pairs[0][1] - pairs[0][0]) % n
        if len({(q + p) % n for p, q in pairs}) == 1:
            return "OrientationReversing", where, "transports must preserve orientation"
        return "UnknownLabel", where, "map does not respect the cyclic structure"
    try:
        if type(spec) is str:  # one label, not a pair of them
            raise TypeError
        a, b = spec
    except (TypeError, ValueError):
        return "UnknownLabel", where, f"cannot read transport spec {spec!r}"
    try:
        return (_position(surface, arc[u], u, str(b)) - _position(surface, arc[t], t, str(a))) % n
    except UnknownLabel as exc:
        return "UnknownLabel", where, str(exc)


def build_connection(surface: OrientedSurface, fiber_mode, transports) -> DiscreteConnection:
    """Validate and assemble a connection.

    ``transports`` maps directed edges to transport specs (anchor pair or
    full label map), as a dict keyed by label pair or as (half-edge id,
    spec) pairs (see ``antisymmetric``).  One direction per undirected edge
    suffices; if both are supplied they must be mutually inverse.
    """
    sizes = refined, n, arcs = _fiber_sizes(surface, fiber_mode)
    collector = ReportCollector()
    offsets = antisymmetric(surface, transports, collector, "transport", "NotInverse", n, arcs)
    collector.raise_if_failed("invalid connection")
    return DiscreteConnection(surface, refined, offsets, _sizes=sizes)


def sum_turns(sizes, numerators) -> Turns:
    """The exact sum of m / n over two columns by face id, ``sizes`` (each
    face's fiber size n) and ``numerators`` (its m): each numerator is
    scaled to the lcm L of the sizes and the sum divided once, as
    ``Fraction(sum of m * (L / n), L)``."""
    lcm = math.lcm(*set(sizes))
    return Fraction(sum(map(mul, numerators, map(lcm.__floordiv__, sizes))), lcm)


def net_holonomy(conn: DiscreteConnection) -> Turns:
    """Sum of face curvatures, reduced mod 1.  Zero for every valid
    connection: each directed edge appears in exactly one face boundary, so
    the per-edge rotation offsets cancel in pairs."""
    return sum_turns(conn.face_sizes, conn.holonomy) % 1


@dataclass(frozen=True)
class FlatnessStructure:
    """A chosen integer lift f_F of each face's holonomy rotation, by face
    id of ``surface``."""

    surface: OrientedSurface = field(repr=False)
    lifts: list[int] = field(repr=False)


def check_flatness_surface(conn: DiscreteConnection, flatness: FlatnessStructure) -> None:
    """Lifts are read by face id, so a flatness must lie on the
    connection's surface: the same object or an equal one."""
    if flatness.surface is not conn.surface and flatness.surface != conn.surface:
        raise WindexError("the flatness structure lies on another surface than the connection")


def attach_flatness(conn: DiscreteConnection, lifts) -> FlatnessStructure:
    """Validate a lift per face, given by face key: each must be an ``int``
    congruent to the holonomy steps mod the fiber size."""
    collector = ReportCollector()
    surface = conn.surface
    face_index = surface.face_index
    resolved: list[int | None] = [None] * len(surface.keys)
    for key, value in lifts.items():
        f = face_index.get(key)
        if f is None:
            collector.add("MissingFace", key, "lift given for a face not on the surface")
            continue
        resolved[f] = value
    for key, lift, r, n in zip(surface.keys, resolved, conn.holonomy, conn.face_sizes):
        if lift is None:
            collector.add("MissingFace", key, "no lift supplied")
        elif type(lift) is not int:
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
    check_flatness_surface(conn, flatness)
    total = sum_turns(conn.face_sizes, flatness.lifts)
    if total.denominator != 1:
        raise NonIntegralTotal(f"total flatness {total} is not an integer")
    return int(total)


def face_basepoint(surface: OrientedSurface, f: int, override: str | None = None) -> int:
    """The vertex id of face f's basepoint: its least vertex, where its
    first half-edge starts, or ``override``, which must lie on the face."""
    if override is None:
        return surface.tails[3 * f]
    for v in surface.tails[3 * f:3 * f + 3]:
        if surface.vertices[v] == override:
            return v
    raise NotIncident(f"{override!r} is not a vertex of face {surface.keys[f]}")


def face_columns(conn: DiscreteConnection, flatness: FlatnessStructure, basepoints=None):
    """The five columns by face id that every per-face report leads with:
    face keys, basepoints, fiber sizes, holonomy and lifts, all but the
    basepoints the tables themselves, shared.  Each basepoint is
    ``face_basepoint``'s, with the override ``basepoints`` maps its key
    to: NotIncident names the first key, in the order given, of no face,
    else the first face in order whose override is off it."""
    check_flatness_surface(conn, flatness)
    surface, labels = conn.surface, conn.surface.vertices
    bases = list(map(labels.__getitem__, surface.tails[0::3]))
    if basepoints:
        for f, v in sorted([(surface.face_id(k), v) for k, v in basepoints.items()]):
            bases[f] = labels[face_basepoint(surface, f, v)]
    return surface.keys, bases, conn.face_sizes, conn.holonomy, flatness.lifts


def turns_text(m: int, n: int) -> str:
    """``str(Fraction(m, n))`` for a fiber size n > 0, from one gcd."""
    g = math.gcd(m, n)
    return str(m // g) if g == n else f"{m // g}/{n // g}"


def face_reports(
    conn: DiscreteConnection,
    flatness: FlatnessStructure,
    basepoints: dict[str, str] | None = None,
) -> tuple[list, ...]:
    """``face_columns``, then the curvature r_F / n_F and the lift turns
    f_F / n_F as ``turns_text``."""
    columns = _, _, sizes, holonomy, lifts = face_columns(conn, flatness, basepoints)
    return (*columns, list(map(turns_text, holonomy, sizes)), list(map(turns_text, lifts, sizes)))


# A gauge transformation rotates each vertex fiber: vertex label -> int
# steps, 0 where absent.
GaugeTransformation = dict


def gauge_transform(conn: DiscreteConnection, gauge: GaugeTransformation) -> DiscreteConnection:
    """Conjugate every transport: t'(i,j) = rot_j(g_j) o t(i,j) o rot_i(-g_i),
    i.e. o'_ij = o_ij + g_j - g_i.  Every key must be a vertex and every
    value an ``int`` (MissingVertex, NotAnInteger).

    The gauge steps cancel around every face boundary, so every holonomy
    step count is unchanged; the table is recomputed from the new offsets
    all the same.
    """
    surface, n = conn.surface, conn.sizes
    collector = ReportCollector()
    for v, step in gauge.items():
        if v not in surface.index:
            collector.add("MissingVertex", v, "gauge step given for a vertex not on the surface")
        elif type(step) is not int:
            collector.add("NotAnInteger", v, f"gauge step {step!r} is not an integer")
    collector.raise_if_failed("invalid gauge transformation")
    g = [gauge.get(v, 0) for v in surface.vertices]
    offsets = [(o + g[j] - g[i]) % n[j]
               for o, i, j in zip(conn.offsets, surface.tails, surface.heads)]
    sizes = conn.refined, n, conn.arcs
    return DiscreteConnection(surface, conn.refined, offsets, _sizes=sizes)


def tangent_connection(surface: OrientedSurface, fiber_mode=None) -> DiscreteConnection:
    """The straightest transport: the direction pointing along a directed
    edge is carried to the continuation of that edge on the far side, i.e.
    the antipode of the direction pointing back.

    Needs an even fiber size, so link mode requires uniform even degree;
    otherwise use a refined mode with even size (the default).
    """
    if fiber_mode is None:
        fiber_mode = _default_mode(surface, even=True)
    sizes = refined, n, arc = _fiber_sizes(surface, fiber_mode)
    collector = ReportCollector()
    for v, size in zip(surface.vertices, n):
        if size % 2 != 0:
            collector.add("SizeMismatch", v, f"fiber size {size} is odd, antipodes undefined")
    collector.raise_if_failed("no straightest transport")
    # pos_b(a) + n/2 - pos_a(b), read off the half-edges b -> a and a -> b;
    # a link label k sits at k * arc
    ring_pos, twin = surface.ring_pos, surface.twin
    offsets = [(ring_pos[t] * arc[b] + n[b] // 2 - ring_pos[h] * arc[a]) % n[b]
               for h, t, a, b in zip(range(len(twin)), twin, surface.tails, surface.heads)]
    return DiscreteConnection(surface, refined, offsets, _sizes=sizes)


def flat_connection(surface: OrientedSurface, fiber_mode=None) -> DiscreteConnection:
    """Position-preserving transports; every holonomy is the identity."""
    if fiber_mode is None:
        fiber_mode = _default_mode(surface)
    sizes = _fiber_sizes(surface, fiber_mode)
    return DiscreteConnection(surface, sizes[0], [0] * len(surface.tails), _sizes=sizes)
