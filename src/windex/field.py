"""Vector fields on the 1-skeleton and the index theorem data.

A field consists of a fiber point X_v at every vertex and, for every
directed edge (i, j), a signed step count d_ij recording the path in
fiber(j) from the transported value transport(i,j)(X_i) to X_j.  Fiber
points are stored as positions x_v, read from labels once when the field is
built and printed as labels again only on request, so with transport
offsets o_ij two invariants tie the data together:

* endpoint congruence, d_ij = x_j - x_i - o_ij mod n_j;
* reversal antisymmetry, d_ij + d_ji = 0 as exact integers.

The swirl of a face is the sum of d over its boundary.  Because transports
preserve step counts, this equals the step count of the fully transported
boundary concatenation (``swirl_path`` builds that concatenation
explicitly from polygon isomorphisms, as a reference; ``swirl`` just adds
integers).  The index of a face is (lift + swirl) / fiber size, an exact
integer division.  The totals add the per-face indices, and the swirls and
lifts as turns s_F / n_F and f_F / n_F, summed per fiber size, so
components with different fiber sizes are reported together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bundle import (
    DiscreteConnection,
    FlatnessStructure,
    GaugeTransformation,
    antisymmetric,
    basepoint,
    boundary,
    gauge_transform,
    sum_turns,
    total_flatness_winding,
)
from .complex import OrientedFace
from .errors import NonIntegralIndex, NotIncident, ReportCollector, UnknownLabel
from .polygon import PolyPath, Turns


@dataclass(frozen=True)
class VectorField:
    """A section over the 1-skeleton of the connection's surface: ``at``
    holds the position of X_v in its fiber, ``value`` prints it as a label."""

    conn: DiscreteConnection
    at: dict[str, int] = field(repr=False)
    steps: dict[tuple[str, str], int] = field(repr=False)

    def value(self, v: str) -> str:
        return self.conn.label_at(v, self.at[v])

    def step(self, i: str, j: str) -> int:
        try:
            return self.steps[(i, j)]
        except KeyError:
            raise NotIncident(f"({i},{j}) is not a directed edge of the surface") from None


def expected_step_class(conn: DiscreteConnection, at, i: str, j: str) -> int:
    """The congruence class (mod n_j) every valid d_ij must lie in, given
    the fiber positions ``at``."""
    return (at[j] - at[i] - conn.offsets[(i, j)]) % conn.sizes[j]


def build_field(conn: DiscreteConnection, at, steps) -> VectorField:
    """Validate and assemble a field.

    ``at`` maps vertices to fiber labels, each parsed once into a position;
    every key must be a vertex of the surface.
    ``steps`` maps directed edges to integers; one direction per undirected
    edge suffices (the reverse is its negation), and if both are given they
    must cancel exactly.
    """
    collector = ReportCollector()
    surface = conn.surface
    sizes = conn.sizes

    for v in at:
        if v not in sizes:
            collector.add("MissingVertex", v, "fiber point given for a vertex not on the surface")
    positions: dict[str, int] = {}
    for v in surface.vertices:
        if v not in at:
            collector.add("MissingVertex", v, "no fiber point supplied")
            continue
        label = str(at[v])
        try:
            positions[v] = conn.position(v, label)
        except UnknownLabel:
            collector.add("UnknownLabel", v, f"{label!r} is not a point of the fiber at {v!r}")
    collector.raise_if_failed("invalid vector field")

    resolved = antisymmetric(
        surface, steps, collector, "step count", lambda i, j, value: int(value),
        "AntisymmetryViolation", None,
    )
    for (i, j), d_ij in resolved.items():
        n = sizes[j]
        want = expected_step_class(conn, positions, i, j)
        if d_ij % n != want:
            collector.add(
                "EndpointIncongruent",
                f"({i},{j})",
                f"step {d_ij} is not congruent to {want} mod {n}",
            )

    collector.raise_if_failed("invalid vector field")
    return VectorField(conn, positions, resolved)


def swirl(vf: VectorField, face: OrientedFace) -> int:
    """Sum of the edge steps around the face boundary.  Independent of the
    basepoint: a rotation of the boundary permutes the same three terms."""
    a, b, c = face.vertices
    steps = vf.steps
    return steps[(a, b)] + steps[(b, c)] + steps[(c, a)]


def swirl_path(vf: VectorField, face: OrientedFace, base: str | None = None) -> PolyPath:
    """The boundary decomposition done explicitly, transport by transport.

    Each edge contributes its step path in the head fiber; the remaining
    boundary transports carry it into the basepoint fiber, where the three
    pieces concatenate into a path from holonomy(X_v) to X_v.  Its step
    count equals ``swirl`` because transports preserve steps.
    """
    v0 = basepoint(face, base)
    edges = boundary(face, v0)
    conn = vf.conn

    pieces: list[PolyPath] = []
    for k, (i, j) in enumerate(edges):
        moved = conn.transport(i, j)(vf.value(i))
        piece = PolyPath(conn.fiber(j), moved, vf.step(i, j))
        for i2, j2 in edges[k + 1:]:
            piece = conn.transport(i2, j2).apply(piece)
        pieces.append(piece)

    total = pieces[0]
    for piece in pieces[1:]:
        total = total.concat(piece)
    return total


def _whole_turns(face: OrientedFace, total: int, n: int) -> int:
    turns, rest = divmod(total, n)
    if rest:
        raise NonIntegralIndex(
            f"face {face.key}: lift + swirl = {total} is not a whole number of turns of {n} steps"
        )
    return turns


def index(vf: VectorField, flatness: FlatnessStructure, face: OrientedFace) -> int:
    """(lift + swirl) / fiber size, which must divide exactly."""
    n = vf.conn.size(basepoint(face))
    return _whole_turns(face, flatness.lift(face) + swirl(vf, face), n)


@dataclass(frozen=True)
class IndexRow:
    face: str
    basepoint: str
    size: int
    holonomy_steps: int
    lift: int
    swirl: int
    index: int


@dataclass(frozen=True)
class IndexReport:
    """Everything the index theorem talks about, for one (connection,
    flatness, field) triple."""

    rows: tuple[IndexRow, ...]
    total_swirl: Turns
    total_index: int
    total_flatness_winding: int

    @property
    def theorem_holds(self) -> bool:
        return self.total_index == self.total_flatness_winding


def totals(
    vf: VectorField,
    flatness: FlatnessStructure,
    basepoints: dict[str, str] | None = None,
) -> IndexReport:
    """Per-face rows plus the three totals.  For valid inputs the total
    swirl sum s_F / n_F is exactly 0 (each directed edge lies in exactly one
    boundary, and reverse steps cancel in fibers of one size), which forces
    total index = total flatness winding."""
    conn = vf.conn
    overrides = basepoints or {}
    sizes, lifts, holonomy = conn.sizes, flatness.lifts, conn.holonomy
    rows = []
    for face in conn.surface.faces:
        key = face.key
        v = basepoint(face, overrides.get(key))
        n, s, lift = sizes[v], swirl(vf, face), lifts[key]
        rows.append(IndexRow(key, v, n, holonomy[key], lift, s, _whole_turns(face, lift + s, n)))
    return IndexReport(
        rows=tuple(rows),
        total_swirl=sum_turns((r.size, r.swirl) for r in rows),
        total_index=sum(r.index for r in rows),
        total_flatness_winding=total_flatness_winding(conn, flatness),
    )


def gauge_transform_field(vf: VectorField, gauge: GaugeTransformation) -> VectorField:
    """Carry a field along a gauge transformation: fiber points rotate with
    their fibers, edge steps are untouched.  The result is validated again
    by ``build_field``."""
    conn = gauge_transform(vf.conn, gauge)
    at = {v: conn.label_at(v, x + gauge.at(v)) for v, x in vf.at.items()}
    return build_field(conn, at, dict(vf.steps))
