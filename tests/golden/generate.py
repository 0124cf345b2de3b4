#!/usr/bin/env python3
"""Regenerate the golden CLI outputs that tests/test_golden.py compares.

Writes the input scenes that ``scene_texts`` returns to
``tests/golden/scenes/`` (the four bundled fixtures plus seeded random
instances from ``windex.sampling``, in link and refined modes) and, for
every scene, the stdout and exit code of each
scene subcommand with and without ``--json`` to ``tests/golden/outputs.json``.

Outputs are a contract: regenerate only when a change is meant to alter
what the CLI prints, and say so where the change is recorded.

    PYTHONPATH=src python3 tests/golden/generate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from random import Random

from windex import cli
from windex.complex import build_surface
from windex.fixtures import boundary_delta3, csaszar_torus, icosahedron, octahedron
from windex.sampling import random_connection, random_field, random_lifts
from windex.scene import SceneFile, serialize_scene

HERE = Path(__file__).resolve().parent
SCENES = HERE / "scenes"
OUTPUTS = HERE / "outputs.json"
FIXTURES = ("octahedron", "icosahedron", "tetrahedron", "torus")
SEED = 2026


def bipyramid():
    """Poles of degree 5 over an equator of degree 4: mixed degrees, so
    only refined modes apply."""
    c = [f"c{i}" for i in range(5)]
    faces = []
    for i in range(5):
        j = (i + 1) % 5
        faces += [("n", c[i], c[j]), ("s", c[j], c[i])]
    return build_surface(["n", "s"] + c, faces)


def tet_and_octahedron():
    """A disjoint tetrahedron and octahedron: link fibers of sizes 3 and 4."""
    tet, octa = boundary_delta3(), octahedron()
    return build_surface(
        list(tet.vertices) + list(octa.vertices),
        [f.vertices for f in tet.faces] + [f.vertices for f in octa.faces],
    )


# name, surface, fiber mode, sections beyond the connection
SAMPLED = [
    ("octa-link-a", octahedron, "link", "lifts+field"),
    ("octa-link-b", octahedron, "link", "field"),
    ("octa-link-c", octahedron, "link", "lifts"),
    ("octa-r8", octahedron, 8, "lifts+field"),
    ("octa-r12", octahedron, 12, "field"),
    ("ico-link-a", icosahedron, "link", "lifts+field"),
    ("ico-link-b", icosahedron, "link", "field"),
    ("ico-r5", icosahedron, 5, "lifts+field"),
    ("ico-r10", icosahedron, 10, "lifts+field"),
    ("ico-r15", icosahedron, 15, "field"),
    ("tet-link", boundary_delta3, "link", "lifts+field"),
    ("tet-r6", boundary_delta3, 6, "lifts+field"),
    ("tet-r9", boundary_delta3, 9, "field"),
    ("tet-r12", boundary_delta3, 12, ""),
    ("torus-link", csaszar_torus, "link", "lifts+field"),
    ("torus-r6", csaszar_torus, 6, "field"),
    ("torus-r12", csaszar_torus, 12, "lifts+field"),
    ("bipyramid-r20", bipyramid, 20, "lifts+field"),
    ("bipyramid-r40", bipyramid, 40, "field"),
    ("mixed-link", tet_and_octahedron, "link", "lifts+field"),
]


def run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue()}


def invocations(name: str, scene: dict) -> list[list[str]]:
    """Every scene subcommand with and without --json, plus export and
    the flatness and basepoint switches where the scene has the data."""
    runs = []
    for command in ("validate", "links", "curvature", "index", "check"):
        runs += [[command], [command, "--json"]]
    runs.append(["export"])
    if "flatness" in scene:
        runs.append(["curvature", "--json", "--canonical-flatness"])
        runs.append(["check", "--canonical-flatness"])
    if "connection" in scene:
        a, b, c = scene["surface"]["faces"][0]
        runs.append(["curvature", "--basepoint", f"{a},{b},{c}={b}"])
        runs.append(["index", "--json", "--basepoint", f"{a},{b},{c}={c}"])
    return runs


def scene_texts() -> dict[str, str]:
    """Scene name -> the text of its golden input scene."""
    texts = {f"fixture-{name}": run(["fixture", name])["stdout"] for name in FIXTURES}
    rng = Random(SEED)
    for name, make, mode, sections in SAMPLED:
        surface = make()
        conn = random_connection(surface, mode, rng)
        flat = random_lifts(conn, rng) if "lifts" in sections else None
        field = random_field(conn, rng) if "field" in sections else None
        texts[name] = serialize_scene(SceneFile(surface, conn, flat, field))
    return texts


def main() -> int:
    SCENES.mkdir(exist_ok=True)
    outputs = {f"fixture {name}": run(["fixture", name]) for name in FIXTURES}
    texts = scene_texts()
    for name, text in texts.items():
        path = SCENES / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        for argv in invocations(name, json.loads(text)):
            outputs[" ".join([name] + argv)] = run(argv + [str(path)])

    OUTPUTS.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(texts)} scenes, {len(outputs)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
