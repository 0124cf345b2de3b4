#!/usr/bin/env python3
"""Regenerate the golden CLI outputs that tests/test_golden.py compares.

Writes the input scenes that ``scene_texts`` returns to
``tests/golden/scenes/`` (the four bundled fixtures plus seeded random
instances from ``tests/sampling.py``, in link and refined modes) and, for
every scene, the stdout and exit code of each
scene subcommand with and without ``--json`` to ``tests/golden/outputs.json``.

It also writes the invalid scenes that ``rejected_texts`` returns to
``tests/golden/rejected/`` (one per rule and message the builders report,
made by editing the valid scenes above, plus scenes that break several
rules at once) and the stdout, stderr and exit code of ``validate`` and
``validate --json`` on each to ``tests/golden/rejected.json``, so the
violation reports keep their rules, elements, messages and order.

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
from windex.fixtures import boundary_delta3, csaszar_torus, icosahedron, octahedron
from windex.scene import SceneFile, serialize_scene

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # tests/
from sampling import random_connection, random_field, random_lifts  # noqa: E402
from surfaces import bipyramid, genus2, genus3, tet_and_octahedron  # noqa: E402

HERE = Path(__file__).resolve().parent
SCENES = HERE / "scenes"
OUTPUTS = HERE / "outputs.json"
REJECTED = HERE / "rejected"
REJECTED_OUTPUTS = HERE / "rejected.json"
FIXTURES = ("octahedron", "icosahedron", "tetrahedron", "torus")
SEED = 2026


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
    ("genus2-r24", genus2, 24, "lifts+field"),
    ("genus3-r120", genus3, 120, "lifts+field"),
]


def run(argv, stderr: bool = False) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    result = {"code": code, "stdout": out.getvalue()}
    if stderr:
        result["stderr"] = err.getvalue()
    return result


def invocations(name: str, scene: dict) -> list[list[str]]:
    """Every scene subcommand with and without --json, plus the flatness
    and basepoint switches where the scene has the data."""
    runs = []
    for command in ("validate", "links", "curvature", "index", "check"):
        runs += [[command], [command, "--json"]]
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


def _load(name: str) -> dict:
    return json.loads((SCENES / f"{name}.json").read_text(encoding="utf-8"))


def _entry(section: list, a: str, b: str) -> dict:
    return next(e for e in section if e["edge"] == [a, b])


def _surface(vertices, faces) -> dict:
    return {"surface": {"vertices": list(vertices), "faces": [list(f) for f in faces]}}


def _edit(base: str, edit) -> dict:
    scene = _load(base)
    edit(scene)
    return scene


TET = [("0", "1", "2"), ("0", "2", "3"), ("0", "3", "1"), ("1", "3", "2")]
# four faces around the vertex 0 on which the arcs 3 -> 4 and 3 -> 5 both
# leave 3, and 1 -> 2 and 1 -> 4 both leave 1: which is named depends on
# the face order
FORK = [("0", "3", "4"), ("0", "1", "2"), ("0", "3", "5"), ("0", "1", "4")]


def _pinched():
    """Two tetrahedra sharing the vertex v: its link is two triangles."""
    faces = []
    for a, b, c in (("a", "b", "c"), ("d", "e", "f")):
        faces += [("v", a, b), ("v", b, c), ("v", c, a), (a, c, b)]
    return _surface("vabcdef", faces)


def _transports(s):
    return s["connection"]["transports"]


def _map(a: str, b: str, mapping: dict):
    """Replace the anchor of edge (a, b) by a full label map."""
    def edit(s):
        entry = _entry(_transports(s), a, b)
        del entry["anchor"]
        entry["map"] = mapping
    return edit


def rejected_texts() -> dict[str, str]:
    """Scene name -> the text of an invalid scene.  Surface faults are
    written out; connection, flatness and field faults edit the committed
    tet-link, octa-link-a and bipyramid-r20 scenes."""
    scenes = {
        # surface
        "bad-face-repeated": _surface("0123", TET + [("0", "1", "1")]),
        "bad-face-undeclared": _surface("0123", TET + [("0", "1", "9")]),
        "duplicate-face": _surface("0123", TET + [("0", "2", "1")]),
        "boundary-edge": _surface("0123", TET[:3]),
        "orientation-clash": _surface("0123", TET[:3] + [("1", "2", "3")]),
        # the faces of a clash are named in input order
        "orientation-clash-reversed": _surface("0123", [("1", "2", "3")] + TET[:3][::-1]),
        "link-fork": _surface("012345", FORK),
        "link-fork-reversed": _surface("012345", FORK[::-1]),
        # two tetrahedra sharing the edge {0,1}
        "edge-in-four-faces": _surface(
            "012345", TET + [("0", "1", "4"), ("0", "4", "5"), ("0", "5", "1"), ("1", "5", "4")]
        ),
        "link-no-face": _surface("01239", TET),
        "link-two-cycles": _pinched(),
        "several-faces": _surface(
            "0123", [("3", "3", "1")] + TET + [("2", "1", "0"), ("0", "x", "1"), ("1", "0", "2")]
        ),
        # the octahedron with face b,r,w reversed, b,y,r left out and a vertex z in no face
        "several-surface": _surface(
            "bgorwyz",
            [("b", "o", "y"), ("b", "w", "r"), ("b", "w", "o"), ("g", "o", "w"),
             ("g", "r", "y"), ("g", "w", "r"), ("g", "y", "o")],
        ),
        # connection
        "missing-edge-not-an-edge": _edit("octa-link-a", lambda s: _transports(s).insert(
            0, {"edge": ["w", "y"], "anchor": ["b", "b"]})),
        "missing-edge-absent": _edit("tet-link", lambda s: _transports(s).pop(2)),
        "not-inverse": _edit("tet-link", lambda s: _transports(s).append(
            {"edge": ["1", "0"], "anchor": ["2", "2"]})),
        "unknown-label-anchor": _edit("tet-link", lambda s: _entry(
            _transports(s), "1", "2").update(anchor=["0", "q"])),
        # a label of the surface that is not in the tail's link: the tail itself
        "unknown-label-anchor-off-link": _edit("tet-link", lambda s: _entry(
            _transports(s), "1", "2").update(anchor=["1", "0"])),
        # refined to 6 on degree 3: the fresh point after x is x~1 only
        "unknown-label-anchor-tilde-0": _edit("tet-r6", lambda s: _entry(
            _transports(s), "1", "2").update(anchor=["0~0", "0"])),
        "unknown-label-anchor-tilde-arc": _edit("tet-r6", lambda s: _entry(
            _transports(s), "1", "2").update(anchor=["0", "0~2"])),
        "unknown-label-map-cover": _edit("octa-link-a", _map("b", "o", {"o": "b", "y": "w", "r": "g"})),
        "unknown-label-map-cyclic": _edit(
            "octa-link-a", _map("b", "o", {"o": "b", "y": "w", "r": "y", "w": "g"})
        ),
        "orientation-reversing": _edit(
            "octa-link-a", _map("b", "o", {"o": "b", "y": "y", "r": "g", "w": "w"})
        ),
        "size-mismatch-link": _edit("bipyramid-r20", lambda s: s["connection"].update(
            fiber_mode="link")),
        "size-mismatch-refined": _edit("tet-link", lambda s: s["connection"].update(
            fiber_mode={"refined": 8})),
        "several-connection": _edit("octa-link-a", _several_connection),
        # flatness
        "missing-face-not-a-face": _edit("tet-link", lambda s: s["flatness"].update({"0,2,1": 0})),
        "missing-face-absent": _edit("tet-link", lambda s: s["flatness"].pop("0,3,1")),
        "lift-incongruent": _edit("tet-link", lambda s: s["flatness"].update({"0,1,2": 4})),
        "several-flatness": _edit("octa-link-a", _several_flatness),
        # field
        "missing-vertex": _edit("tet-link", lambda s: s["field"]["at"].pop("3")),
        "missing-vertex-not-a-vertex": _edit("octa-link-a", _unknown_vertex),
        "field-unknown-label": _edit("tet-link", lambda s: s["field"]["at"].update({"0": "9"})),
        "field-unknown-label-leading-zero": _edit(
            "tet-r6", lambda s: s["field"]["at"].update({"0": "2~01"})),
        "field-missing-edge": _edit("octa-link-a", lambda s: s["field"]["steps"].pop(4)),
        "antisymmetry-violation": _edit("tet-link", lambda s: s["field"]["steps"].append(
            {"edge": ["1", "0"], "steps": 4})),
        "endpoint-incongruent": _edit("tet-link", lambda s: _entry(
            s["field"]["steps"], "0", "1").update(steps=-4)),
        "several-field": _edit("octa-link-a", _several_field),
        # every lift raised by a multiple of 4 to 4,300 digits, which JSON
        # still reads, so that the total flatness winding has 4,301
        "lift-too-many-digits": _edit("octa-link-a", lambda s: s["flatness"].update(
            {key: lift + 9 * 10**4299 for key, lift in s["flatness"].items()})),
    }
    return {name: json.dumps(scene, indent=2, sort_keys=True) + "\n"
            for name, scene in scenes.items()}


def _unknown_vertex(s):
    """A fiber point for a vertex not on the surface, and none for w."""
    at = s["field"]["at"]
    at["zzz"] = "foo"
    del at["w"]


def _several_connection(s):
    _map("b", "o", {"o": "b", "y": "y", "r": "g", "w": "w"})(s)
    transports = _transports(s)
    _entry(transports, "g", "r")["anchor"] = ["q", "b"]
    transports.remove(_entry(transports, "o", "w"))
    transports.append({"edge": ["y", "w"], "anchor": ["b", "b"]})
    transports.append({"edge": ["r", "b"], "anchor": ["w", "w"]})
    transports.insert(3, {"edge": ["r", "o"], "anchor": ["b", "b"]})


def _several_flatness(s):
    lifts = s["flatness"]
    lifts["g,w,r"] += 1
    lifts["b,o,y"] -= 6
    del lifts["b,w,o"]
    lifts["o,b,y"] = 0
    lifts["b,r,w"] += 2


def _several_field(s):
    steps = s["field"]["steps"]
    _entry(steps, "r", "w")["steps"] += 1
    _entry(steps, "b", "o")["steps"] -= 1
    steps.append({"edge": ["w", "g"], "steps": 5 - _entry(steps, "g", "w")["steps"]})
    steps.append({"edge": ["y", "r"], "steps": -_entry(steps, "r", "y")["steps"]})
    steps.insert(2, {"edge": ["w", "y"], "steps": 0})
    steps.remove(_entry(steps, "o", "y"))


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

    REJECTED.mkdir(exist_ok=True)
    rejected = {}
    for name, text in rejected_texts().items():
        path = REJECTED / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        for argv in (["validate"], ["validate", "--json"]):
            rejected[" ".join([name] + argv)] = run(argv + [str(path)], stderr=True)
    REJECTED_OUTPUTS.write_text(
        json.dumps(rejected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"{len(texts)} scenes, {len(outputs)} outputs; "
          f"{len(rejected) // 2} rejected scenes, {len(rejected)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
