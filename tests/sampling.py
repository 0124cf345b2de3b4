"""Seeded random instances for property sweeps.

Random connections draw an arbitrary anchor per undirected edge, random
lifts shift each canonical lift by whole fiber turns, and random fields
pick a fiber point per vertex plus any step count in the forced congruence
class.  Everything a sampler returns passes the corresponding builder's
validation by construction.
"""

from __future__ import annotations

from random import Random

from windex.bundle import (
    DiscreteConnection,
    FlatnessStructure,
    attach_flatness,
    build_connection,
    flat_connection,
)
from windex.complex import OrientedSurface
from windex.field import VectorField, build_field
from windex.scene import SceneFile

from surfaces import torus_grid

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
    lifts = {key: r + n * rng.randint(-MAX_TURNS, MAX_TURNS)
             for key, n, r in zip(conn.surface.keys, conn.face_sizes, conn.holonomy)}
    return attach_flatness(conn, lifts)


def random_field(conn: DiscreteConnection, rng: Random) -> VectorField:
    surface, n = conn.surface, conn.sizes
    labels, tails, heads = surface.vertices, surface.tails, surface.heads
    at = [rng.randrange(size) for size in n]
    steps = {}
    for h in surface.edge_half:
        a, b = tails[h], heads[h]
        # the congruence class every valid step on (a, b) must lie in
        base = (at[b] - at[a] - conn.offsets[h]) % n[b]
        steps[labels[a], labels[b]] = base + n[b] * rng.randint(-MAX_TURNS, MAX_TURNS)
    return build_field(conn, {v: conn._label(i, at[i]) for i, v in enumerate(labels)}, steps)


def random_gauge(conn: DiscreteConnection, rng: Random) -> dict[str, int]:
    return {v: rng.randrange(n) for v, n in zip(conn.surface.vertices, conn.sizes)}


def grid_scene(m: int) -> SceneFile:
    """The m x m torus grid in link mode with a random connection, lifts
    and field, drawn from ``Random(m)``."""
    rng = Random(m)
    conn = random_connection(torus_grid(m), "link", rng)
    return SceneFile(conn.surface, conn, random_lifts(conn, rng), random_field(conn, rng))
