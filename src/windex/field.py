"""Vector fields on the 1-skeleton and the index theorem data.

A field consists of a fiber point X_v at every vertex and, for every
directed edge (i, j), a signed step count d_ij recording the path in
fiber(j) from the transported value transport(i,j)(X_i) to X_j.  Fiber
points are stored as positions x_v by vertex id, read from labels once
when the field is built and printed as labels again only on request, and
steps by half-edge id, so with transport offsets o_ij two invariants tie
the data together:

* endpoint congruence, d_ij = x_j - x_i - o_ij mod n_j;
* reversal antisymmetry, d_ij + d_ji = 0 as exact integers.

The swirl of a face is the sum of d over its boundary, its three
half-edges.  Because transports preserve step counts, this equals the step
count of the fully transported boundary concatenation, a path from the
holonomy image of X_v back to X_v (conventions rule 10); ``swirl_path``
reads that path off the tables, as a start label and a step count, and
``totals`` just adds integers.  The index of a face is (lift + swirl) /
fiber size, an exact integer division.  Both are read from the
``IndexRow`` of the face, and the totals add the per-face indices, and
the swirls and lifts as turns s_F / n_F and f_F / n_F, summed per fiber
size, so components with different fiber sizes are reported together.
Report rows are named tuples whose labels and face keys are read from
the surface's tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .bundle import (
    DiscreteConnection,
    Fiber,
    FlatnessStructure,
    GaugeTransformation,
    Turns,
    antisymmetric,
    basepoint,
    check_flatness_surface,
    face_basepoints,
    gauge_transform,
    sum_turns,
    total_flatness_winding,
)
from .complex import OrientedFace
from .errors import NonIntegralIndex, ReportCollector, UnknownLabel


@dataclass(frozen=True)
class VectorField:
    """A section over the 1-skeleton of the connection's surface: ``at``
    holds the position of X_v in its fiber by vertex id, ``value`` prints
    it as a label; ``steps`` holds d by half-edge id."""

    conn: DiscreteConnection
    at: list[int] = field(repr=False)
    steps: list[int] = field(repr=False)

    def value(self, v: str) -> str:
        i = self.conn.surface.vertex_id(v)
        return self.conn._label(i, self.at[i])

    def step(self, i: str, j: str) -> int:
        return self.steps[self.conn.surface.half_edge(i, j)]


def _check_congruence(conn: DiscreteConnection, at, steps, collector) -> None:
    """Report every resolved step (None is unresolved) outside its forced
    class, edge by edge in sorted order, each direction after the other.
    Steps and offsets are antisymmetric, so a step is off its class exactly
    when its reverse is, and only the lesser direction of an edge is
    scanned."""
    surface = conn.surface
    tails, heads, n, o = surface.tails, surface.heads, conn.sizes, conn.offsets
    bad = [h for h in surface.edge_half if (d := steps[h]) is not None
           and (d - at[heads[h]] + at[tails[h]] + o[h]) % n[heads[h]]]
    if not bad:
        return
    labels, twin = surface.vertices, surface.twin
    for g in [g for h in bad for g in (h, twin[h])]:
        i, j = tails[g], heads[g]
        want = (at[j] - at[i] - o[g]) % n[j]
        collector.add("EndpointIncongruent", f"({labels[i]},{labels[j]})",
                      f"step {steps[g]} is not congruent to {want} mod {n[j]}")


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

    for v in at:
        if v not in surface.index:
            collector.add("MissingVertex", v, "fiber point given for a vertex not on the surface")
    positions: list[int] = []
    for v in surface.vertices:
        if v not in at:
            collector.add("MissingVertex", v, "no fiber point supplied")
            continue
        label = str(at[v])
        try:
            positions.append(conn.position(v, label))
        except UnknownLabel:
            collector.add("UnknownLabel", v, f"{label!r} is not a point of the fiber at {v!r}")
    collector.raise_if_failed("invalid vector field")

    resolved = antisymmetric(surface, steps, collector, "step count", "AntisymmetryViolation",
                             None)
    _check_congruence(conn, positions, resolved, collector)
    collector.raise_if_failed("invalid vector field")
    return VectorField(conn, positions, resolved)


class SwirlPath(NamedTuple):
    """A path in ``fiber``: ``steps`` signed steps from the label ``start``."""

    fiber: Fiber
    start: str
    steps: int


def swirl_path(vf: VectorField, face: OrientedFace, base: str | None = None) -> SwirlPath:
    """The boundary decomposition in the basepoint fiber: the path of s_F
    steps from the holonomy image of X_v back to X_v (conventions rule 10).
    The face must be one of the surface's (NotIncident otherwise); its
    holonomy rotation is the same at every corner."""
    conn, steps = vf.conn, vf.steps
    f = conn.surface.face_id(face.key)
    v0 = basepoint(face, base)
    i = conn.surface.index[v0]
    return SwirlPath(Fiber(v0, conn.sizes[i]), conn._label(i, vf.at[i] + conn.holonomy[f]),
                     steps[3 * f] + steps[3 * f + 1] + steps[3 * f + 2])


def _whole_turns(key: str, total: int, n: int) -> int:
    turns, rest = divmod(total, n)
    if rest:
        raise NonIntegralIndex(
            f"face {key}: lift + swirl = {total} is not a whole number of turns of {n} steps"
        )
    return turns


class IndexRow(NamedTuple):
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
    conn, steps = vf.conn, vf.steps
    check_flatness_surface(conn, flatness)
    sizes, bases = conn.face_sizes, face_basepoints(conn.surface, basepoints)
    swirls = [steps[h] + steps[h + 1] + steps[h + 2] for h in range(0, len(steps), 3)]
    rows = [IndexRow(key, v, n, r, lift, s, _whole_turns(key, lift + s, n))
            for key, v, n, r, lift, s in zip(conn.surface.keys, bases, sizes,
                                             conn.holonomy, flatness.lifts, swirls)]
    return IndexReport(
        rows=tuple(rows),
        total_swirl=sum_turns(zip(sizes, swirls)),
        total_index=sum([r.index for r in rows]),
        total_flatness_winding=total_flatness_winding(conn, flatness),
    )


def gauge_transform_field(vf: VectorField, gauge: GaugeTransformation) -> VectorField:
    """Carry a field along a gauge transformation, checked as
    ``gauge_transform`` checks it: fiber points rotate with their fibers,
    edge steps are untouched.  The result is checked again against the
    congruence of every step."""
    conn = gauge_transform(vf.conn, gauge)
    at = [(x + gauge.get(v, 0)) % n for v, x, n in zip(conn.surface.vertices, vf.at, conn.sizes)]
    collector = ReportCollector()
    _check_congruence(conn, at, vf.steps, collector)
    collector.raise_if_failed("invalid vector field")
    return VectorField(conn, at, list(vf.steps))
