"""Seeded scene generation and the independent oracle.

Nothing here imports windex.  Surfaces, link polygons, fiber labels,
transport offsets and every expected output are worked out from the
scene JSON alone, following docs/conventions.md (rules 1-6, 8 and 10-12):

* the link of v chains the arcs a -> b of its faces (v, a, b) and starts
  at its least label; a refined(N) fiber lists each link label followed
  by N/deg - 1 labels ``lab~j``;
* a transport with anchor (a, b) on edge (i, j) shifts fiber positions
  by pos_j(b) - pos_i(a); holonomy steps are the shifts summed around
  the boundary, mod n;
* per face, index = (lift + d_ab + d_bc + d_ca) / n from the least
  vertex, holonomy steps = lift mod n, and the totals are
  sum(lift) / n = total index, with total swirl and net holonomy 0.

All randomness comes from the ``random.Random`` passed in, so a seed
fixes every input.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction
from random import Random

CONVENTIONS = "v1"

# --- surfaces ---------------------------------------------------------------

OCTAHEDRON = (
    ["w", "y", "b", "r", "g", "o"],
    [("w", "b", "r"), ("w", "r", "g"), ("w", "g", "o"), ("w", "o", "b"),
     ("y", "r", "b"), ("y", "g", "r"), ("y", "o", "g"), ("y", "b", "o")],
)


def icosahedron():
    """Poles n/s and two staggered pentagons; every vertex has degree 5."""
    u = [f"u{i}" for i in range(5)]
    lo = [f"l{i}" for i in range(5)]
    faces = []
    for i in range(5):
        j = (i + 1) % 5
        faces += [("n", u[i], u[j]), (u[j], u[i], lo[i]), (u[j], lo[i], lo[j]), ("s", lo[j], lo[i])]
    return ["n", "s"] + u + lo, faces


def seven_vertex_torus():
    """The complete graph on 7 vertices embedded in the torus; degree 6."""
    faces = []
    for i in range(7):
        a, b, c, d = (str((i + k) % 7) for k in (0, 1, 3, 2))
        faces += [(a, b, c), (a, c, d)]
    return [str(i) for i in range(7)], faces


def torus_grid(m: int):
    """An m x m torus: each unit square split along its diagonal, so every
    vertex has degree 6 (F = 2 m^2, E = 3 m^2, V = m^2)."""
    name = [[f"p{i:03d}{j:03d}" for j in range(m)] for i in range(m)]
    faces = []
    for i in range(m):
        for j in range(m):
            a, b = name[i][j], name[(i + 1) % m][j]
            c, d = name[(i + 1) % m][(j + 1) % m], name[i][(j + 1) % m]
            faces += [(a, b, c), (a, c, d)]
    return [v for row in name for v in row], faces


# --- combinatorics ----------------------------------------------------------

def canonical_face(face) -> tuple[str, str, str]:
    k = face.index(min(face))
    return tuple(face[k:] + face[:k])


def boundary(face) -> list[tuple[str, str]]:
    """Directed edges from the least vertex (rule 3)."""
    a, b, c = canonical_face(face)
    return [(a, b), (b, c), (c, a)]


def links(vertices, faces) -> dict[str, list[str]]:
    """Link cycle of every vertex, started at its least label (rule 2).
    Raises ValueError when the faces do not form a closed oriented
    surface, so a generator bug cannot reach the program unnoticed."""
    succ: dict[str, dict[str, str]] = {v: {} for v in vertices}
    directed = set()
    for face in faces:
        for k in range(3):
            v, a, b = face[k], face[(k + 1) % 3], face[(k + 2) % 3]
            if a in succ[v]:
                raise ValueError(f"two arcs leave {a} in the link of {v}")
            succ[v][a] = b
            directed.add((v, a))
    if any((b, a) not in directed for a, b in directed) or len(directed) != 3 * len(faces):
        raise ValueError("faces do not close up into an oriented surface")
    cycles = {}
    for v, arcs in succ.items():
        cycle = [min(arcs)]
        while arcs[cycle[-1]] != cycle[0]:
            cycle.append(arcs[cycle[-1]])
        if len(cycle) != len(arcs):
            raise ValueError(f"link of {v} is not one cycle")
        cycles[v] = cycle
    return cycles


def edges(faces) -> list[tuple[str, str]]:
    return sorted({tuple(sorted(e)) for f in faces for e in boundary(f)})


class Fibers:
    """Fiber polygons as position <-> label maps, without listing labels:
    a refined fiber of 240000 points is never materialised here."""

    def __init__(self, vertices, faces, mode):
        self.cycles = links(vertices, faces)
        self.index = {v: {lab: k for k, lab in enumerate(c)} for v, c in self.cycles.items()}
        self.refined = None if mode == "link" else int(mode["refined"])

    def size(self, v: str) -> int:
        return self.refined or len(self.cycles[v])

    def label(self, v: str, pos: int) -> str:
        cycle = self.cycles[v]
        pos %= self.size(v)
        if self.refined is None:
            return cycle[pos]
        arc = self.refined // len(cycle)
        k, j = divmod(pos, arc)
        return cycle[k] if j == 0 else f"{cycle[k]}~{j}"

    def position(self, v: str, label: str) -> int:
        if self.refined is None:
            return self.index[v][label]
        arc = self.refined // len(self.cycles[v])
        base, _, j = label.partition("~")
        return self.index[v][base] * arc + (int(j) if j else 0)


# --- generation -------------------------------------------------------------

def random_scene(rng: Random, vertices, faces, mode, spread: int = 2) -> dict:
    """A valid scene with random anchors, lifts (canonical lift plus up to
    ``spread`` turns) and field (forced step class plus up to ``spread``
    turns).  Faces start at a random corner and come in random order, so
    parsing has canonicalisation work to do."""
    fib = Fibers(vertices, faces, mode)
    edge_list = edges(faces)
    shift = {}
    transports = []
    for a, b in edge_list:
        pa, pb = rng.randrange(fib.size(a)), rng.randrange(fib.size(b))
        shift[(a, b)], shift[(b, a)] = pb - pa, pa - pb
        transports.append({"edge": [a, b], "anchor": [fib.label(a, pa), fib.label(b, pb)]})
    flatness = {}
    for f in faces:
        n = fib.size(min(f))
        r = sum(shift[e] for e in boundary(f)) % n
        flatness[",".join(canonical_face(f))] = r + n * rng.randint(-spread, spread)
    at_pos = {v: rng.randrange(fib.size(v)) for v in vertices}
    steps = []
    for a, b in edge_list:
        n = fib.size(b)
        forced = (at_pos[b] - at_pos[a] - shift[(a, b)]) % n
        steps.append({"edge": [a, b], "steps": forced + n * rng.randint(-spread, spread)})
    shuffled = []
    for f in faces:
        k = rng.randrange(3)
        shuffled.append(list(f[k:] + f[:k]))
    rng.shuffle(shuffled)
    return {
        "surface": {"vertices": list(vertices), "faces": shuffled},
        "connection": {"fiber_mode": mode, "transports": transports},
        "flatness": flatness,
        "field": {"at": {v: fib.label(v, p) for v, p in at_pos.items()}, "steps": steps},
    }


CORRUPTIONS = {
    "lift": "LiftIncongruent",
    "step": "EndpointIncongruent",
    "face": "OrientationClash",
}


def corrupt(rng: Random, scene: dict, kind: str) -> dict:
    """One lift off by 1, one field step off by 1, or one face reversed."""
    bad = copy.deepcopy(scene)
    if kind == "lift":
        key = rng.choice(sorted(bad["flatness"]))
        bad["flatness"][key] += 1
    elif kind == "step":
        rng.choice(bad["field"]["steps"])["steps"] += 1
    else:
        face = rng.choice(bad["surface"]["faces"])
        face[1], face[2] = face[2], face[1]
    return bad


def dump(scene: dict) -> str:
    return json.dumps(scene, indent=1) + "\n"


# --- oracle -----------------------------------------------------------------

def face_rows(scene: dict) -> list[dict]:
    """Per-face quantities in the order reports list faces (by face key)."""
    mode = scene["connection"]["fiber_mode"]
    faces = scene["surface"]["faces"]
    degree: dict[str, int] = {}
    for f in faces:
        for v in f:
            degree[v] = degree.get(v, 0) + 1
    d = {}
    for entry in scene["field"]["steps"]:
        a, b = entry["edge"]
        d[(a, b)], d[(b, a)] = entry["steps"], -entry["steps"]
    rows = []
    for f in faces:
        face = canonical_face(f)
        key = ",".join(face)
        n = degree[face[0]] if mode == "link" else mode["refined"]
        lift = scene["flatness"][key]
        swirl = sum(d[e] for e in boundary(face))
        if (lift + swirl) % n:
            raise ValueError(f"face {key}: lift + swirl is not a multiple of {n}")
        rows.append({"face": key, "basepoint": face[0], "size": n,
                     "holonomy_steps": lift % n, "lift": lift,
                     "swirl": swirl, "index": (lift + swirl) // n})
    rows.sort(key=lambda r: r["face"])
    return rows


def total(rows) -> int:
    winding = sum(Fraction(r["lift"], r["size"]) for r in rows)
    if winding.denominator != 1:
        raise ValueError(f"total flatness winding {winding} is not an integer")
    return int(winding)


def expect_validate(scene: dict) -> str:
    parts = [p for p in ("surface", "connection", "flatness", "field") if p in scene]
    return "".join([f"sign conventions {CONVENTIONS}\n"] + [f"{p}: ok\n" for p in parts])


def expect_check(scene: dict) -> str:
    t = total(face_rows(scene))
    return (f"sign conventions {CONVENTIONS}\n"
            f"total index {t} == total flatness winding {t}: PASS\n")


def expect_index(scene: dict) -> dict:
    rows = face_rows(scene)
    t = total(rows)
    return {"conventions": CONVENTIONS, "faces": rows, "total_swirl": "0",
            "total_index": t, "total_flatness_winding": t, "theorem_holds": True}


def expect_curvature(scene: dict) -> dict:
    rows = face_rows(scene)
    return {
        "conventions": CONVENTIONS,
        "faces": [{"face": r["face"], "basepoint": r["basepoint"], "size": r["size"],
                   "holonomy_steps": r["holonomy_steps"], "lift": r["lift"],
                   "curvature": str(Fraction(r["holonomy_steps"], r["size"])),
                   "lift_turns": str(Fraction(r["lift"], r["size"]))} for r in rows],
        "net_holonomy": "0",
        "total_flatness_winding": total(rows),
    }


def expect_serialized(scene: dict) -> str:
    """The canonical form: sorted vertices, least-rotation faces sorted by
    key, transports anchored at the first label of the tail fiber."""
    surface = scene["surface"]
    mode = scene["connection"]["fiber_mode"]
    fib = Fibers(surface["vertices"], surface["faces"], mode)
    faces = sorted((canonical_face(f) for f in surface["faces"]), key=",".join)
    transports = []
    for entry in sorted(scene["connection"]["transports"], key=lambda e: sorted(e["edge"])):
        (i, j), (x, y) = entry["edge"], entry["anchor"]
        s = fib.position(j, y) - fib.position(i, x)
        a, b = sorted((i, j))
        if (a, b) != (i, j):
            s = -s
        transports.append({"edge": [a, b], "anchor": [fib.label(a, 0), fib.label(b, s)]})
    steps = []
    for entry in sorted(scene["field"]["steps"], key=lambda e: sorted(e["edge"])):
        (i, j), k = entry["edge"], entry["steps"]
        steps.append({"edge": sorted((i, j)), "steps": k if i < j else -k})
    obj = {
        "surface": {"vertices": sorted(surface["vertices"]), "faces": [list(f) for f in faces]},
        "connection": {"fiber_mode": mode, "transports": transports},
        "flatness": {",".join(f): scene["flatness"][",".join(f)] for f in faces},
        "field": {"at": {v: scene["field"]["at"][v] for v in sorted(surface["vertices"])},
                  "steps": steps},
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
