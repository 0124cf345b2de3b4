"""Closed oriented combinatorial surfaces, as integer half-edge tables.

A surface is an abstract simplicial complex of dimension 2: labeled
vertices, triangular faces carrying an explicit cyclic vertex order (the
orientation), and edges derived as the 2-subsets of faces.  Building a
surface validates closure, the two-faces-per-edge condition, orientation
consistency (shared edges receive opposite induced orders) and that every
vertex link chains into a single cycle.

Labels are interned once, in sorted order, so vertex id order is label
order.  Faces are id triples from their least id, numbered in face-key
order; face f owns the half-edges 3f, 3f + 1, 3f + 2 of its boundary, each
with a twin running back (Botsch et al., *Polygon Mesh Processing*, 2010,
ch. 2).  Links are position tables.  The tables downstream are lists by
half-edge, face or vertex id; labels and keys are formatted for output and
violations only, and ``OrientedFace``s, link ``Polygon``s and label-pair
edges are built on demand, for the public API and the reference oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import BadArity, NotIncident, ReportCollector
from .polygon import Polygon

# characters reserved by face keys, refinement labels and the CLI
_FORBIDDEN = frozenset(',~= \t\n')


@dataclass(frozen=True)
class OrientedFace:
    """Three distinct vertices with a cyclic order.

    Stored rotated so the least vertex comes first; faces that differ by a
    cyclic permutation compare equal.  ``key``, the canonical comma-joined
    form, is made once here.
    """

    vertices: tuple[str, str, str]
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        verts = tuple(self.vertices)
        if len(verts) != 3 or len(set(verts)) != 3:
            raise BadArity(f"a face needs 3 distinct vertices, got {verts}")
        least = verts.index(min(verts))
        verts = verts[least:] + verts[:least]
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "key", ",".join(verts))

    def __contains__(self, v: str) -> bool:
        return v in self.vertices

    def corner_order(self, v: str) -> tuple[str, str, str]:
        """The cyclic order rotated to start at ``v``."""
        if v not in self.vertices:
            raise NotIncident(f"{v!r} is not a vertex of face {self.key}")
        i = self.vertices.index(v)
        return self.vertices[i:] + self.vertices[:i]

    def reversed(self) -> "OrientedFace":
        a, b, c = self.vertices
        return OrientedFace((a, c, b))

    def __str__(self) -> str:
        return self.key


@dataclass(frozen=True)
class OrientedSurface:
    """A validated closed oriented surface, immutable after construction.

    ``vertices`` holds the labels by id and ``index`` the ids by label.
    Half-edge h runs from ``tails[h]`` to ``heads[h]`` and ``twin[h]`` back;
    ``half`` maps ``tail * (V + 1) + head`` to h, so the id V of a label
    not on the surface finds nothing.  ``keys`` holds the face keys.  The
    link of v is ``link_labels[v]``, from its least label, and its position
    table ``link_pos[v]`` maps each label to its place.  ``edge_half``
    holds the half-edge of each edge from its lesser end, in sorted order.
    ``positions`` is pass-through geometry for export only.  ``faces``,
    ``edges``, ``face_by_key`` and ``link`` are label views for library
    users; windex itself reads the tables.
    """

    vertices: tuple[str, ...]
    tails: tuple[int, ...] = field(repr=False)
    index: dict[str, int] = field(compare=False, repr=False)
    heads: list[int] = field(compare=False, repr=False)
    twin: list[int] = field(compare=False, repr=False)
    half: dict[int, int] = field(compare=False, repr=False)
    keys: list[str] = field(compare=False, repr=False)
    link_labels: list[list[str]] = field(compare=False, repr=False)
    link_pos: list[dict[str, int]] = field(compare=False, repr=False)
    edge_half: list[int] = field(compare=False, repr=False)
    positions: dict[str, tuple] | None = field(default=None, compare=False, repr=False)

    @cached_property
    def degrees(self) -> list[int]:
        """The size of each vertex link, by vertex id."""
        return [len(ring) for ring in self.link_labels]

    @cached_property
    def face_index(self) -> dict[str, int]:
        """Face key -> face id."""
        return dict(zip(self.keys, range(len(self.keys))))

    @cached_property
    def faces(self) -> tuple[OrientedFace, ...]:
        labels, tails = self.vertices, self.tails
        return tuple([OrientedFace((labels[tails[h]], labels[tails[h + 1]], labels[tails[h + 2]]))
                      for h in range(0, len(tails), 3)])

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        labels, tails, heads = self.vertices, self.tails, self.heads
        return tuple([(labels[tails[h]], labels[heads[h]]) for h in self.edge_half])

    def link(self, v: str) -> Polygon:
        try:
            return Polygon(tuple(self.link_labels[self.index[v]]))
        except KeyError:
            raise NotIncident(f"{v!r} is not a vertex of this surface") from None

    def face_id(self, key: str) -> int:
        try:
            return self.face_index[key]
        except KeyError:
            raise NotIncident(f"no face with key {key!r}") from None

    def face_by_key(self, key: str) -> OrientedFace:
        return self.faces[self.face_id(key)]

    def half_edge(self, i: str, j: str) -> int:
        """The half-edge from vertex ``i`` to vertex ``j``."""
        V = len(self.vertices)
        h = self.half.get(self.index.get(i, V) * (V + 1) + self.index.get(j, V))
        if h is None:
            raise NotIncident(f"({i},{j}) is not a directed edge of the surface")
        return h


def euler_characteristic(surface: OrientedSurface) -> int:
    """V - E + F.  Plumbing for cross-checks; nothing downstream depends on it."""
    return len(surface.vertices) - len(surface.edge_half) + len(surface.keys)


def _report_unclosed(labels, triples, collector: ReportCollector) -> None:
    """The BoundaryEdge, OrientationClash and NonPolygonLink report, once
    the half-edge tables have found a fault.  Faces are id triples in input
    order: the edge {x, y}, keyed x * V + y with x < y, gets the tail and
    face of each face through it, and the link of x the arc y -> z."""
    V = len(labels)
    through: dict[int, list[int]] = {}
    succ: list[dict[int, int]] = [{} for _ in labels]
    fork: dict[int, int] = {}  # vertex -> the first y that two of its arcs leave
    for f, (a, b, c) in enumerate(triples):
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            through.setdefault(x * V + y if x < y else y * V + x, []).extend((x, f))
            if y in succ[x]:
                fork.setdefault(x, y)
            succ[x][y] = z
    for edge in sorted(through):
        x, y = divmod(edge, V)
        entry = through[edge]
        if len(entry) != 4:
            collector.add("BoundaryEdge", f"{{{labels[x]},{labels[y]}}}",
                          f"edge lies in {len(entry) // 2} faces, need exactly 2")
        elif entry[0] == entry[2]:
            first, second = (",".join(labels[v] for v in triples[f]) for f in entry[1::2])
            order = (labels[x], labels[y]) if entry[0] == x else (labels[y], labels[x])
            collector.add("OrientationClash", f"{{{labels[x]},{labels[y]}}}",
                          f"faces {first} and {second} induce the same order {order}")
    for v, arcs in enumerate(succ):
        if not arcs:
            why = "vertex lies in no face"
        elif v in fork:
            why = f"two arcs leave {labels[fork[v]]!r} in the link"
        elif arcs.keys() != set(arcs.values()):
            why = "link arcs do not pair up head-to-tail"
        else:
            y = arcs.pop(next(iter(arcs)))
            while y in arcs:  # arcs is a bijection: the walk ends where it began
                y = arcs.pop(y)
            if not arcs:
                continue
            why = "link arcs split into more than one cycle"
        collector.add("NonPolygonLink", labels[v], why)


def build_surface(vertices, faces, positions=None) -> OrientedSurface:
    """Validate and assemble a surface; raises ValidationFailed listing
    every violated rule (DuplicateFace, BoundaryEdge, OrientationClash,
    NonPolygonLink, ...).  The faces close up consistently oriented exactly
    when their half-edge keys are distinct and each has its reverse, and
    every link is one cycle exactly when turning around each vertex
    (h -> twin of the half-edge before h) visits all its half-edges; else
    the report reads the same id triples, in input order."""
    collector = ReportCollector()

    verts = [str(v) for v in vertices]
    if len(set(verts)) != len(verts):
        collector.add("DuplicateVertex", verts, "vertex labels must be unique")
    for v in verts:
        if not v or not _FORBIDDEN.isdisjoint(v):
            collector.add("BadLabel", v, "labels must be nonempty and avoid ',~= ' characters")
    labels = tuple(sorted(set(verts)))
    V = len(labels)
    index = dict(zip(labels, range(V)))

    triples: list[tuple[int, int, int]] = []  # least id first, in input order
    vertex_sets: set[int] = set()
    for raw in faces:
        try:  # the common case: three labels spelled as declared
            a, b, c = map(index.__getitem__, raw)
        except (KeyError, TypeError, ValueError):
            a = b = None
        if a is None or a == b or b == c or c == a:
            face = tuple(map(str, raw.vertices if isinstance(raw, OrientedFace) else raw))
            if len(face) != 3 or len(set(face)) != 3:
                collector.add("BadFace", face, "faces are 3 distinct vertices")
                continue
            a, b, c = map(index.get, face)
            if a is None or b is None or c is None:
                collector.add("BadFace", face, "face mentions undeclared vertices")
                continue
        if b < a and b < c:
            a, b, c = b, c, a
        elif c < a:
            a, b, c = c, a, b
        vertex_set = (a * V + b) * V + c if b < c else (a * V + c) * V + b
        if vertex_set in vertex_sets:
            collector.add("DuplicateFace", f"{labels[a]},{labels[b]},{labels[c]}",
                          "two faces share the same vertex set")
            continue
        vertex_sets.add(vertex_set)
        triples.append((a, b, c))

    collector.raise_if_failed("invalid surface")

    ordered = sorted([(f"{labels[a]},{labels[b]},{labels[c]}", a, b, c) for a, b, c in triples])
    tails = [v for _, a, b, c in ordered for v in (a, b, c)]
    heads = [v for _, a, b, c in ordered for v in (b, c, a)]
    W = V + 1
    pairs = [t * W + h for t, h in zip(tails, heads)]
    half = dict(zip(pairs, range(len(pairs))))
    twin = [half.get(h * W + t, -1) for t, h in zip(tails, heads)]
    link_labels: list[list[str]] = []
    link_pos: list[dict[str, int]] = []
    closed = len(half) == len(pairs) and -1 not in twin
    if closed:
        # the half-edge from each vertex to its least neighbour starts its ring
        first = {key // W: half[key] for key in sorted(half, reverse=True)}
        turn = [t for f in range(0, len(twin), 3)
                for t in (twin[f + 2], twin[f], twin[f + 1])]
        closed = len(first) == V
    if closed:
        for v in range(V):
            start = first[v]
            ring, h = [labels[heads[start]]], turn[start]
            while h != start:
                ring.append(labels[heads[h]])
                h = turn[h]
            link_labels.append(ring)
            link_pos.append(dict(zip(ring, range(len(ring)))))
        closed = sum(map(len, link_labels)) == len(pairs)
    if not closed:
        _report_unclosed(labels, triples, collector)
        collector.raise_if_failed("invalid surface")
        raise AssertionError("the half-edge tables rejected a surface the report accepts")

    pos = None
    if positions is not None:
        pos = {str(v): tuple(p) for v, p in positions.items()}
        for v in pos:
            if v not in index:
                collector.add("BadLabel", v, "position given for undeclared vertex")
        collector.raise_if_failed("invalid surface")

    lesser = sorted([key for key, t, h in zip(pairs, tails, heads) if t < h])
    return OrientedSurface(
        vertices=labels,
        tails=tuple(tails),
        index=index,
        heads=heads,
        twin=twin,
        half=half,
        keys=[key for key, *_ in ordered],
        link_labels=link_labels,
        link_pos=link_pos,
        edge_half=[half[key] for key in lesser],
        positions=pos,
    )
