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
fiber size, an exact integer division.  ``totals`` works on columns by
face id, one list per ``IndexRow`` field, the swirls and indices each
worked out in C-level passes, and adds the per-face indices, and the
swirls and lifts as turns s_F / n_F and f_F / n_F, summed per fiber
size, so components with different fiber sizes are reported together.
The report's rows, named tuples of one face each, are built from the
columns only when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import add, floordiv, mod
from typing import NamedTuple

from .bundle import (
    DiscreteConnection,
    Fiber,
    FlatnessStructure,
    GaugeTransformation,
    Turns,
    antisymmetric,
    face_basepoint,
    face_columns,
    gauge_transform,
    read_positions,
    sum_turns,
    total_flatness_winding,
)
from .complex import OrientedFace
from .errors import NonIntegralIndex, ReportCollector


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
    positions = read_positions(conn, at, collector)
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
    holonomy rotation is the same at every corner.  The basepoint is
    ``face_basepoint``'s."""
    conn, steps = vf.conn, vf.steps
    surface = conn.surface
    f = surface.face_id(face.key)
    i, h = face_basepoint(surface, f, base), 3 * f
    return SwirlPath(Fiber(surface.vertices[i], conn.sizes[i]),
                     conn._label(i, vf.at[i] + conn.holonomy[f]),
                     steps[h] + steps[h + 1] + steps[h + 2])


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
    flatness, field) triple.  ``columns`` holds the ``IndexRow`` fields in
    order, each a list by face id; the face keys, sizes, holonomy and lifts
    are the connection's and flatness's own tables, shared, not copied.
    ``rows`` builds one ``IndexRow`` per face from them on its first read.
    Reports compare by columns and totals and hash by the totals alone, as
    lists do not hash."""

    columns: tuple[list, ...] = field(hash=False)
    total_swirl: Turns
    total_index: int
    total_flatness_winding: int

    @cached_property
    def rows(self) -> tuple[IndexRow, ...]:
        return tuple(map(IndexRow, *self.columns))

    @property
    def theorem_holds(self) -> bool:
        return self.total_index == self.total_flatness_winding


def totals(
    vf: VectorField,
    flatness: FlatnessStructure,
    basepoints: dict[str, str] | None = None,
) -> IndexReport:
    """``face_columns``, the swirls and the indices, and the three totals.
    Swirls, lift + swirl and indices are each one ``map`` over the columns;
    a face whose lift + swirl is not a whole number of fiber turns raises
    NonIntegralIndex, naming the first such face.  For valid inputs the
    total swirl sum s_F / n_F is exactly 0 (each directed edge lies in
    exactly one boundary, and reverse steps cancel in fibers of one size),
    which forces total index = total flatness winding."""
    columns = keys, _, sizes, _, lifts = face_columns(vf.conn, flatness, basepoints)
    steps = vf.steps
    swirls = list(map(add, map(add, steps[0::3], steps[1::3]), steps[2::3]))
    turns = list(map(add, lifts, swirls))
    if any(map(mod, turns, sizes)):
        key, total, n = next((k, t, n) for k, t, n in zip(keys, turns, sizes) if t % n)
        raise NonIntegralIndex(
            f"face {key}: lift + swirl = {total} is not a whole number of turns of {n} steps"
        )
    indices = list(map(floordiv, turns, sizes))
    return IndexReport(
        columns=(*columns, swirls, indices),
        total_swirl=sum_turns(sizes, swirls),
        total_index=sum(indices),
        total_flatness_winding=total_flatness_winding(vf.conn, flatness),
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
