"""Seeded random instances for property sweeps.

Random connections draw an arbitrary anchor per undirected edge, random
lifts shift each canonical lift by whole fiber turns, and random fields
pick a fiber point per vertex plus any step count in the forced congruence
class.  Everything a sampler returns passes the corresponding builder's
validation by construction.
"""

from __future__ import annotations

from random import Random

from .bundle import (
    DiscreteConnection,
    FlatnessStructure,
    GaugeTransformation,
    attach_flatness,
    build_connection,
    flat_connection,
    holonomy_steps,
)
from .complex import OrientedSurface
from .field import VectorField, build_field

MAX_TURNS = 2  # random lifts and field steps leave the forced class by at most this many turns


def random_connection(surface: OrientedSurface, fiber_mode, rng: Random) -> DiscreteConnection:
    fibers = flat_connection(surface, fiber_mode)  # read for fiber sizes and labels only
    transports = {}
    for a, b in surface.edges:
        transports[(a, b)] = tuple(
            fibers.label_at(v, rng.randrange(fibers.size(v))) for v in (a, b)
        )
    return build_connection(surface, fiber_mode, transports)


def random_lifts(conn: DiscreteConnection, rng: Random) -> FlatnessStructure:
    lifts = {}
    for face in conn.surface.faces:
        n = conn.size(face.vertices[0])
        lifts[face] = holonomy_steps(conn, face) + n * rng.randint(-MAX_TURNS, MAX_TURNS)
    return attach_flatness(conn, lifts)


def random_field(conn: DiscreteConnection, rng: Random) -> VectorField:
    at = {v: rng.randrange(conn.size(v)) for v in conn.surface.vertices}
    steps = {}
    for a, b in conn.surface.edges:
        # the congruence class every valid step on (a, b) must lie in
        base = (at[b] - at[a] - conn.offsets[conn.surface.half_edge(a, b)]) % conn.size(b)
        steps[(a, b)] = base + conn.size(b) * rng.randint(-MAX_TURNS, MAX_TURNS)
    return build_field(conn, {v: conn.label_at(v, x) for v, x in at.items()}, steps)


def random_gauge(conn: DiscreteConnection, rng: Random) -> GaugeTransformation:
    return GaugeTransformation(
        {v: rng.randrange(conn.size(v)) for v in conn.surface.vertices}
    )
