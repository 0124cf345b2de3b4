"""Closed oriented combinatorial surfaces.

A surface is an abstract simplicial complex of dimension 2: labeled
vertices, triangular faces carrying an explicit cyclic vertex order (the
orientation), and edges derived as the 2-subsets of faces.  Building a
surface validates closure, the two-faces-per-edge condition, orientation
consistency (shared edges receive opposite induced orders) and that every
vertex link chains into a single cycle.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import BadArity, NotIncident, ReportCollector
from .polygon import Polygon

VertexId = str

# characters reserved by face keys, refinement labels and the CLI
_FORBIDDEN = set(',~= \t\n')


@dataclass(frozen=True)
class OrientedFace:
    """Three distinct vertices with a cyclic order.

    Stored rotated so the least vertex comes first; faces that differ by a
    cyclic permutation compare equal.  ``key``, the canonical comma-joined
    form, is made once here; the holonomy and lift tables are keyed by it.
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
    """A validated closed oriented surface.

    Immutable after construction; ``links`` maps each vertex to its link
    polygon (neighbors in the cyclic order induced by the orientation,
    starting from the least label) and ``degrees`` each vertex to the size
    of that link.  ``edge_set`` holds the sorted pairs of ``edges`` for
    membership tests.  ``positions`` is optional pass-through
    geometry for export and never enters any computation.
    """

    vertices: tuple[str, ...]
    faces: tuple[OrientedFace, ...]
    edges: tuple[tuple[str, str], ...] = field(compare=False)
    links: dict[str, Polygon] = field(compare=False, repr=False)
    positions: dict[str, tuple] | None = field(default=None, compare=False, repr=False)
    edge_set: frozenset[tuple[str, str]] = field(init=False, compare=False, repr=False)
    _by_key: dict[str, OrientedFace] = field(init=False, compare=False, repr=False)
    degrees: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "edge_set", frozenset(self.edges))
        object.__setattr__(self, "_by_key", {f.key: f for f in self.faces})
        object.__setattr__(self, "degrees", {v: len(p.labels) for v, p in self.links.items()})

    def link(self, v: str) -> Polygon:
        try:
            return self.links[v]
        except KeyError:
            raise NotIncident(f"{v!r} is not a vertex of this surface") from None

    def face_by_key(self, key: str) -> OrientedFace:
        try:
            return self._by_key[key]
        except KeyError:
            raise NotIncident(f"no face with key {key!r}") from None

    def directed_edges(self) -> list[tuple[str, str]]:
        return [e for (a, b) in self.edges for e in ((a, b), (b, a))]


def euler_characteristic(surface: OrientedSurface) -> int:
    """V - E + F.  Plumbing for cross-checks; nothing downstream depends on it."""
    return len(surface.vertices) - len(surface.edges) + len(surface.faces)


def _trace_link(v: str, arcs: list[str], collector: ReportCollector) -> Polygon | None:
    """Chain the link arcs at ``v`` into one cycle.  ``arcs`` is flat, two
    labels per arc: a face (v, a, b) contributes the arc a -> b."""
    succ: dict[str, str] = {}
    for a, b in zip(arcs[::2], arcs[1::2]):
        if a in succ:
            collector.add("NonPolygonLink", v, f"two arcs leave {a!r} in the link")
            return None
        succ[a] = b
    if succ.keys() != set(succ.values()):
        collector.add("NonPolygonLink", v, "link arcs do not pair up head-to-tail")
        return None
    # at least three arcs: two would need the faces (v, a, b) and (v, b, a),
    # one vertex set, which the DuplicateFace check has already refused
    start = min(succ)
    cycle = [start]
    cur = succ[start]
    while cur != start:  # succ is a bijection, so this comes back to start
        cycle.append(cur)
        cur = succ[cur]
    if len(cycle) != len(succ):
        collector.add("NonPolygonLink", v, "link arcs split into more than one cycle")
        return None
    return Polygon(tuple(cycle))


def build_surface(vertices, faces, positions=None) -> OrientedSurface:
    """Validate and assemble a surface; raises ValidationFailed listing
    every violated rule (DuplicateFace, BoundaryEdge, OrientationClash,
    NonPolygonLink, ...).  After the per-face checks, one pass over the
    three directed edges (x, y) of every face, at corner x with third
    vertex z, collects everything else: the edge {x, y}, keyed by its
    sorted pair, gets the tail x and the face, and the link of x gets the
    arc y -> z.  Both are flat lists, so a valid edge holds four items and
    no tuple is made per entry."""
    collector = ReportCollector()

    verts = [str(v) for v in vertices]
    if len(set(verts)) != len(verts):
        collector.add("DuplicateVertex", verts, "vertex labels must be unique")
    for v in verts:
        if not v or _FORBIDDEN & set(v):
            collector.add("BadLabel", v, "labels must be nonempty and avoid ',~= ' characters")
    vert_set = set(verts)

    oriented: list[OrientedFace] = []
    seen_sets: dict[frozenset, OrientedFace] = {}
    for raw in faces:
        verts_of_face = tuple(map(str, raw.vertices if isinstance(raw, OrientedFace) else raw))
        try:
            face = OrientedFace(verts_of_face)
        except BadArity:
            collector.add("BadFace", verts_of_face, "faces are 3 distinct vertices")
            continue
        fset = frozenset(verts_of_face)
        if not fset <= vert_set:
            collector.add("BadFace", verts_of_face, "face mentions undeclared vertices")
            continue
        if fset in seen_sets:
            collector.add("DuplicateFace", face.key, "two faces share the same vertex set")
            continue
        seen_sets[fset] = face
        oriented.append(face)

    collector.raise_if_failed("invalid surface")

    # closure: edges are exactly the 2-subsets of faces
    edge_faces: dict[tuple[str, str], list] = defaultdict(list)
    arcs: dict[str, list[str]] = defaultdict(list)
    for face in oriented:
        a, b, c = face.vertices
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            entry = edge_faces[(x, y) if x < y else (y, x)]
            entry.append(x)
            entry.append(face)
            link = arcs[x]
            link.append(y)
            link.append(z)

    edges = tuple(sorted(edge_faces))
    for edge in edges:
        entry = edge_faces[edge]
        if len(entry) != 4:
            collector.add("BoundaryEdge", "{%s,%s}" % edge,
                          f"edge lies in {len(entry) // 2} faces, need exactly 2")
            continue
        tail, first, other_tail, second = entry
        if tail == other_tail:
            order = edge if tail == edge[0] else edge[::-1]
            collector.add(
                "OrientationClash",
                "{%s,%s}" % edge,
                f"faces {first.key} and {second.key} induce the same order {order}",
            )
    del edge_faces

    links: dict[str, Polygon] = {}
    for v in sorted(vert_set):
        if v not in arcs:
            collector.add("NonPolygonLink", v, "vertex lies in no face")
            continue
        cycle = _trace_link(v, arcs.pop(v), collector)
        if cycle is not None:
            links[v] = cycle

    collector.raise_if_failed("invalid surface")

    pos = None
    if positions is not None:
        pos = {str(v): tuple(p) for v, p in positions.items()}
        for v in pos:
            if v not in vert_set:
                collector.add("BadLabel", v, "position given for undeclared vertex")
        collector.raise_if_failed("invalid surface")

    return OrientedSurface(
        vertices=tuple(sorted(vert_set)),
        faces=tuple(sorted(oriented, key=attrgetter("key"))),
        edges=edges,
        links=links,
        positions=pos,
    )
