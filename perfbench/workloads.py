"""The three workloads: their seeded inputs, expected outputs and op cycles.

An op is ``(kind, input)``.  CLI kinds run in-process ``windex`` commands
on a scene file; ``instance`` and ``reject`` run the library pipeline on
one line of the sweep file.  Each workload also names the input whose
ops feed the per-layer readout (``main``).

* grid_cli: m x m torus grids at 20 x 20 and 40 x 40, degree 6 everywhere,
  link mode.  The only workload with large V+E+F, so surface validation,
  holonomy and per-face JSON rows carry the load.  The two rungs are
  interleaved so drift in machine speed hits both alike, which keeps the
  scaling exponent honest.
* refined_fibers: the octahedron with 240000-point fibers (1.44 M fiber
  labels).  The surface is tiny, so fiber construction dominates time and
  memory while surface validation does almost nothing.
* sweep_small: a thousand small instances (octahedron and icosahedron in
  link mode, 7-vertex torus refined to 6) through the library API, about
  one in ten corrupted and expected to be rejected.  Per-call object
  overhead dominates; scans over the surface are negligible.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from random import Random

import scenes

NAMES = ("grid_cli", "refined_fibers", "sweep_small")
GRID_RUNGS = {"grid20.json": 20, "grid40.json": 40}
REFINED = 240000
SWEEP_INSTANCES = 1000
CORRUPT_SHARE = 0.1

# the op kind, or stage of an ``instance`` op, behind each gated timing
GATED = {
    "grid_cli": {"op": "check", "read": "validate", "json": "index_json"},
    "refined_fibers": {"op": "check", "read": "validate", "json": "curvature_json"},
    "sweep_small": {"op": "instance", "read": "read", "json": "write"},
}
INSTANCE_STAGES = ("read", "write")


def _cli_expect(scene: dict, kinds) -> dict:
    makers = {"validate": scenes.expect_validate, "check": scenes.expect_check,
              "index_json": scenes.expect_index, "curvature_json": scenes.expect_curvature}
    return {kind: makers[kind](scene) for kind in kinds}


def _grid(rng: Random):
    inputs, expect = {}, {}
    kinds = ("validate", "check", "index_json")
    for name, m in GRID_RUNGS.items():
        scene = scenes.random_scene(rng, *scenes.torus_grid(m), "link")
        inputs[name] = scenes.dump(scene)
        expect[name] = _cli_expect(scene, kinds)
    small, large = GRID_RUNGS
    cycle = [("check", small), ("validate", large), ("check", small),
             ("check", large), ("check", small), ("index_json", large)]
    return inputs, expect, {"warmup": [(kind, small) for kind in kinds], "cycle": cycle,
                            "main": large}


def _refined(rng: Random):
    inputs, expect = {}, {}
    kinds = ("validate", "check", "curvature_json")
    # a hundredth-size twin for warm-up, so warm-up does not dominate set-up
    for name, size in (("refined.json", REFINED), ("warm.json", REFINED // 100)):
        scene = scenes.random_scene(rng, *scenes.OCTAHEDRON, {"refined": size})
        inputs[name] = scenes.dump(scene)
        expect[name] = _cli_expect(scene, kinds)
    return inputs, expect, {"warmup": [(kind, "warm.json") for kind in kinds],
                            "cycle": [(kind, "refined.json") for kind in kinds],
                            "main": "refined.json"}


def _sweep(rng: Random):
    surfaces = []
    for (vertices, faces), mode in ((scenes.OCTAHEDRON, "link"), (scenes.icosahedron(), "link"),
                                    (scenes.seven_vertex_torus(), {"refined": 6})):
        fibers = scenes.Fibers(vertices, faces, mode)
        surfaces.append((vertices, faces, mode, {v: fibers.size(v) for v in vertices}))
    lines, expect, gauges = [], [], {}
    for k in range(SWEEP_INSTANCES):
        vertices, faces, mode, n = rng.choice(surfaces)
        scene = scenes.random_scene(rng, vertices, faces, mode)
        if rng.random() < CORRUPT_SHARE:
            kind = rng.choice(sorted(scenes.CORRUPTIONS))
            lines.append(json.dumps(scenes.corrupt(rng, scene, kind)))
            expect.append({"reject": scenes.CORRUPTIONS[kind]})
            continue
        rows = scenes.face_rows(scene)
        lines.append(json.dumps(scene))
        gauges[k] = {v: rng.randrange(n[v]) for v in sorted(vertices)}
        expect.append({"rows": rows, "total": scenes.total(rows),
                       "serialized": scenes.expect_serialized(scene)})
    # one compact scene per line
    inputs = {"sweep.jsonl": "\n".join(lines) + "\n"}
    ops = [("reject" if "reject" in e else "instance", k) for k, e in enumerate(expect)]
    return inputs, {"sweep.jsonl": expect}, {"warmup": ops[:20], "cycle": ops,
                                             "main": "sweep.jsonl", "gauges": gauges}


GENERATORS = {"grid_cli": _grid, "refined_fibers": _refined, "sweep_small": _sweep}


def build(workload: str, seed: int, workdir: Path) -> dict:
    """Write the inputs, expectations and manifest for one run; returns
    the manifest, which records the sha256 of every input."""
    inputs, expect, ops = GENERATORS[workload](Random(seed))
    (workdir / "inputs").mkdir(parents=True)
    digests = {}
    for name, text in inputs.items():
        data = text.encode("utf-8")
        (workdir / "inputs" / name).write_bytes(data)
        digests[name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    (workdir / "expect.json").write_text(json.dumps(expect), encoding="utf-8")
    roles = GATED[workload]
    json_op = "instance" if roles["json"] in INSTANCE_STAGES else roles["json"]
    manifest = {"workload": workload, "seed": seed, "inputs": digests,
                "headline": roles["op"], "json_op": json_op, **ops}
    (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest
