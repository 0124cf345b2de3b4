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
ch. 2).  Links are ring positions by half-edge: the place of each
half-edge's head in the link of its tail.  The one label-pair lookup is
``out``, the half-edges leaving each vertex by the label of their head.
The tables downstream are lists by half-edge, face or vertex id; labels
and keys are formatted for output and violations only.  Link label lists,
label-pair edges and ``OrientedFace`` records (a face's labels from its
least vertex, read off ``tails``, and its key) are built on demand, for
the public API and the reference oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from .errors import NotIncident, ReportCollector

# characters reserved by face keys, refinement labels and the CLI
_FORBIDDEN = frozenset(',~= \t\n')

# the row of ``OrientedSurface.out`` for a tail that is not a vertex
NO_EDGES: MappingProxyType = MappingProxyType({})


@dataclass(frozen=True, slots=True)
class OrientedFace:
    """A face of a surface as labels from its least vertex, in its cyclic
    order, and its key: the record ``OrientedSurface.faces`` holds.
    ``build_surface`` has checked the face, so this record checks nothing;
    it is not a tuple, so ``in`` and unpacking do not read its fields."""

    vertices: tuple[str, str, str]
    key: str


@dataclass(frozen=True)
class OrientedSurface:
    """A validated closed oriented surface, immutable after construction.

    ``vertices`` holds the labels by id and ``index`` the ids by label.
    Half-edge h runs from ``tails[h]`` to ``heads[h]`` and ``twin[h]`` back;
    ``out[a][b]`` is the half-edge from the vertex labeled ``a`` to the one
    labeled ``b``, and ``out.get(a, NO_EDGES).get(b)`` None where there is
    none.  ``keys`` holds the face keys.  The link of v runs from its least
    neighbour, at 0: ``ring_pos[h]`` is the place of ``heads[h]`` in the
    link of ``tails[h]``, and ``degrees[v]`` the size of the link of v.  ``edge_half`` holds the half-edge of each
    edge from its lesser end, in sorted order.  ``positions`` is
    pass-through geometry for export only.  ``faces``, ``edges`` and
    ``link_labels`` are label views for output and library users; windex
    itself reads the tables.
    """

    vertices: tuple[str, ...]
    tails: tuple[int, ...] = field(repr=False)
    index: dict[str, int] = field(compare=False, repr=False)
    heads: list[int] = field(compare=False, repr=False)
    twin: list[int] = field(compare=False, repr=False)
    out: dict[str, dict[str, int]] = field(compare=False, repr=False)
    keys: list[str] = field(compare=False, repr=False)
    ring_pos: list[int] = field(compare=False, repr=False)
    degrees: list[int] = field(compare=False, repr=False)
    edge_half: list[int] = field(compare=False, repr=False)
    positions: dict[str, tuple] | None = field(default=None, compare=False, repr=False)

    @cached_property
    def link_labels(self) -> list[list[str]]:
        """The link of each vertex, by vertex id, as labels from its least:
        built from ``ring_pos`` for output only."""
        labels, rings = self.vertices, [[""] * d for d in self.degrees]
        for t, h, k in zip(self.tails, self.heads, self.ring_pos):
            rings[t][k] = labels[h]
        return rings

    @cached_property
    def face_index(self) -> dict[str, int]:
        """Face key -> face id."""
        return dict(zip(self.keys, range(len(self.keys))))

    @cached_property
    def faces(self) -> tuple[OrientedFace, ...]:
        corners = map(self.vertices.__getitem__, self.tails)  # zipped with itself: 3 per face
        return tuple(map(OrientedFace, zip(corners, corners, corners), self.keys))

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        labels, tails, heads = self.vertices, self.tails, self.heads
        return tuple([(labels[tails[h]], labels[heads[h]]) for h in self.edge_half])

    def vertex_id(self, v: str) -> int:
        try:
            return self.index[v]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise NotIncident(f"{v!r} is not a vertex of this surface") from None

    def face_id(self, key: str) -> int:
        try:
            return self.face_index[key]
        except (KeyError, TypeError):
            raise NotIncident(f"no face with key {key!r}") from None

    def half_edge(self, i: str, j: str) -> int:
        """The half-edge from vertex ``i`` to vertex ``j``."""
        try:
            return self.out[i][j]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise NotIncident(f"({i},{j}) is not a directed edge of the surface") from None


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


def _next_corners(corners: list) -> list:
    """A list by half-edge read at the next half-edge of each one's face:
    the heads, from the tails."""
    heads = corners[:]
    heads[0::3], heads[1::3], heads[2::3] = corners[1::3], corners[2::3], corners[0::3]
    return heads


def build_surface(vertices, faces, positions=None) -> OrientedSurface:
    """Validate and assemble a surface; raises ValidationFailed listing
    every violated rule (DuplicateFace, BoundaryEdge, OrientationClash,
    NonPolygonLink, ...).  The faces close up consistently oriented exactly
    when no two half-edges join the same ordered pair of vertices and each
    has its reverse, and every link is one cycle exactly when turning
    around each vertex (h -> twin of the half-edge before h) visits all its
    half-edges; else the report reads the same id triples, in input
    order."""
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
    id_of = index.__getitem__
    for raw in faces:
        try:  # the common case: three labels spelled as declared
            a, b, c = raw
            a, b, c = id_of(a), id_of(b), id_of(c)
        except (KeyError, TypeError, ValueError):
            a = b = None
        if a is None or a == b or b == c or c == a or isinstance(raw, str):
            try:  # a str is one label, not three: reported as given
                face = raw if isinstance(raw, str) else tuple(map(str, raw))
            except TypeError:  # not iterable: reported as given
                face = raw
            if type(face) is not tuple or len(face) != 3 or len(set(face)) != 3:
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

    keys = [f"{labels[a]},{labels[b]},{labels[c]}" for a, b, c in triples]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    tails = [v for f in order for v in triples[f]]
    heads = _next_corners(tails)
    tail_labels = list(map(labels.__getitem__, tails))
    H = len(tails)
    rows: list[dict[str, int]] = [{} for _ in labels]  # out, by tail id
    least = [V] * V  # each vertex's least neighbour, where its ring starts
    for t, b, u, h in zip(tails, _next_corners(tail_labels), heads, range(H)):
        rows[t][b] = h
        if u < least[t]:
            least[t] = u
    twin = [rows[u].get(a, -1) for u, a in zip(heads, tail_labels)]
    ring_pos = [0] * H
    degrees: list[int] = []
    closed = sum(map(len, rows)) == H and -1 not in twin and V not in least
    if closed:
        turn = _next_corners(_next_corners(twin))  # the twin of the half-edge before h
        for v, u in enumerate(least):
            start = rows[v][labels[u]]
            h, k = turn[start], 1
            while h != start:
                ring_pos[h] = k
                h, k = turn[h], k + 1
            degrees.append(k)
        closed = sum(degrees) == H
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

    lesser = [h for h, t, u in zip(range(H), tails, heads) if t < u]
    lesser.sort(key=heads.__getitem__)
    lesser.sort(key=tails.__getitem__)  # stable: by tail, then by head
    return OrientedSurface(
        vertices=labels,
        tails=tuple(tails),
        index=index,
        heads=heads,
        twin=twin,
        out=dict(zip(labels, rows)),
        keys=[keys[f] for f in order],
        ring_pos=ring_pos,
        degrees=degrees,
        edge_half=lesser,
        positions=pos,
    )
