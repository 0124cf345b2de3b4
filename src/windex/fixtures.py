"""Canonical instances: surfaces, a hand-built connection, and a field.

The octahedron uses the labels {w, y, b, r, g, o} (the six face colors of a
Rubik's cube, one per vertex of the dual cube).  Its connection and spin
field are given by explicit tables; both extend rigid rotations of the
solid, which is what makes them good smoke tests: every face picks up a
quarter-turn of holonomy, and the spin field has its two defects at the
poles.
"""

from __future__ import annotations

from fractions import Fraction

from .complex import OrientedSurface, build_surface


def octahedron() -> OrientedSurface:
    vertices = ["w", "y", "b", "r", "g", "o"]
    faces = [
        ("w", "b", "r"),
        ("w", "r", "g"),
        ("w", "g", "o"),
        ("w", "o", "b"),
        ("y", "r", "b"),
        ("y", "g", "r"),
        ("y", "o", "g"),
        ("y", "b", "o"),
    ]
    positions = {
        "w": (0, 0, 1),
        "y": (0, 0, -1),
        "b": (-1, 1, 0),
        "r": (1, 1, 0),
        "g": (1, -1, 0),
        "o": (-1, -1, 0),
    }
    return build_surface(vertices, faces, positions)


def boundary_delta3() -> OrientedSurface:
    """The boundary of the full 3-simplex: a tetrahedron."""
    vertices = ["0", "1", "2", "3"]
    faces = [("0", "1", "2"), ("0", "2", "3"), ("0", "3", "1"), ("1", "3", "2")]
    positions = {
        "0": (1, 1, 1),
        "1": (1, -1, -1),
        "2": (-1, 1, -1),
        "3": (-1, -1, 1),
    }
    return build_surface(vertices, faces, positions)


def icosahedron() -> OrientedSurface:
    """Gyroelongated-bipyramid construction: poles n/s, pentagons u0..u4
    and l0..l4, all links 5-gons."""
    u = [f"u{i}" for i in range(5)]
    lo = [f"l{i}" for i in range(5)]
    faces = []
    for i in range(5):
        j = (i + 1) % 5
        faces.append(("n", u[i], u[j]))
        faces.append((u[j], u[i], lo[i]))
        faces.append((u[j], lo[i], lo[j]))
        faces.append(("s", lo[j], lo[i]))
    # rational approximation of a unit embedding, for export only
    ring = [
        (Fraction(1), Fraction(0)),
        (Fraction(309, 1000), Fraction(951, 1000)),
        (Fraction(-809, 1000), Fraction(588, 1000)),
        (Fraction(-809, 1000), Fraction(-588, 1000)),
        (Fraction(309, 1000), Fraction(-951, 1000)),
    ]
    h = Fraction(447, 1000)
    positions = {"n": (0, 0, 1), "s": (0, 0, -1)}
    for i in range(5):
        x, y = ring[i]
        positions[u[i]] = (x, y, h)
        # lower ring is rotated half a step
        xr, yr = ring[(i + 1) % 5]
        positions[lo[i]] = ((x + xr) / 2, (y + yr) / 2, -h)
    return build_surface(["n", "s"] + u + lo, faces, positions)


def csaszar_torus() -> OrientedSurface:
    """The 7-vertex triangulation of the torus (complete graph on 7 vertices):
    faces {i, i+1, i+3} and {i, i+3, i+2} mod 7, every vertex of degree 6."""
    vertices = [str(i) for i in range(7)]
    faces = []
    for i in range(7):
        a, b, c, d = (str((i + k) % 7) for k in (0, 1, 3, 2))
        faces.append((a, b, c))
        faces.append((a, c, d))
    return build_surface(vertices, faces)


# Transport table for the octahedron connection, one entry per directed edge
# away from the poles plus the equator cycle; reverse edges are derived as
# inverses.  Each entry maps the whole source link pointwise; sliding along
# the edge in the embedding tips one link onto the other, fixing the axis
# vertices.  Stored as full maps so tests can cross-check the induced
# anchor/orientation derivation.
OCTAHEDRON_TRANSPORTS: dict[tuple[str, str], dict[str, str]] = {
    ("w", "r"): {"b": "b", "r": "y", "g": "g", "o": "w"},
    ("w", "g"): {"b": "w", "r": "r", "g": "y", "o": "o"},
    ("w", "b"): {"b": "y", "r": "r", "g": "w", "o": "o"},
    ("w", "o"): {"b": "b", "r": "w", "g": "g", "o": "y"},
    ("y", "b"): {"b": "w", "o": "o", "g": "y", "r": "r"},
    ("y", "r"): {"b": "b", "o": "y", "g": "g", "r": "w"},
    ("y", "g"): {"b": "y", "o": "o", "g": "w", "r": "r"},
    ("y", "o"): {"b": "b", "o": "w", "g": "g", "r": "y"},
    ("b", "r"): {"w": "w", "o": "b", "y": "y", "r": "g"},
    ("r", "g"): {"w": "w", "b": "r", "y": "y", "g": "o"},
    ("g", "o"): {"w": "w", "r": "g", "y": "y", "o": "b"},
    ("o", "b"): {"w": "w", "g": "o", "y": "y", "b": "r"},
}

# The spin field: at each vertex a neighbor, and on each directed edge the
# short path (in the head's link) from the transported value to the value
# at the head.  Both directions are listed; the builder checks they cancel.
OCTAHEDRON_SPIN_AT: dict[str, str] = {
    "w": "r", "r": "g", "g": "w", "o": "b", "b": "y", "y": "o",
}

OCTAHEDRON_SPIN_PATHS: dict[tuple[str, str], tuple[str, str]] = {
    # away from w / back toward w
    ("w", "r"): ("y", "g"),
    ("w", "g"): ("r", "w"),
    ("w", "o"): ("w", "b"),
    ("w", "b"): ("r", "y"),
    ("r", "w"): ("g", "r"),
    ("g", "w"): ("b", "r"),
    ("o", "w"): ("b", "r"),
    ("b", "w"): ("b", "r"),
    # away from y / back toward y
    ("y", "r"): ("y", "g"),
    ("y", "g"): ("o", "w"),
    ("y", "o"): ("w", "b"),
    ("y", "b"): ("o", "y"),
    ("r", "y"): ("g", "o"),
    ("g", "y"): ("g", "o"),
    ("o", "y"): ("b", "o"),
    ("b", "y"): ("g", "o"),
    # around the equator, both ways
    ("b", "r"): ("y", "g"),
    ("r", "g"): ("o", "w"),
    ("g", "o"): ("w", "b"),
    ("o", "b"): ("r", "y"),
    ("r", "b"): ("r", "y"),
    ("g", "r"): ("w", "g"),
    ("o", "g"): ("o", "w"),
    ("b", "o"): ("y", "b"),
}


def octahedron_connection():
    """The rotation-induced connection on the octahedron (link mode, all
    fibers 4-gons)."""
    from .bundle import build_connection

    return build_connection(octahedron(), "link", OCTAHEDRON_TRANSPORTS)


def octahedron_spin_field(conn=None):
    """The spin field, edge paths read as minimal-step representatives of
    the table's label pairs, a tie at n/2 going forward (conventions
    rule 9)."""
    from .field import build_field

    if conn is None:
        conn = octahedron_connection()
    steps = {}
    for (i, j), (src, dst) in OCTAHEDRON_SPIN_PATHS.items():
        n = conn.size(j)
        d = (conn.position(j, dst) - conn.position(j, src)) % n
        steps[(i, j)] = d if 2 * d <= n else d - n
    return build_field(conn, OCTAHEDRON_SPIN_AT, steps)
