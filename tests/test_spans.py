"""Every name the benchmark's tracer wraps is still reached through it.

``perfbench/worker.py`` times each layer by replacing, in place, names that
``windex.cli``, ``windex.scene`` and ``windex.field`` import from the layer
below (and ``json`` inside ``windex.scene``).  A refactor that keeps such a
name but calls it some other way silently records no span for that layer.
This runs the CLI and the library entry points under the tracer, in a
fresh interpreter so the patches never leak into other tests, and checks
that each patched name was called and each span name was recorded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENE = ROOT / "tests" / "golden" / "scenes" / "ico-link-a.json"

SCRIPT = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from worker import Tracer, install_spans
import windex.cli, windex.field, windex.scene

tracer = Tracer()
api = install_spans(tracer)
# count the calls of each patched module global, so that two patches
# recording under one span name are still told apart
calls = {}
for module in (windex.cli, windex.scene, windex.field):
    for attr, fn in list(vars(module).items()):
        if getattr(fn, "__qualname__", "") == "Tracer.wrap.<locals>.traced":
            key = module.__name__ + "." + attr
            calls[key] = 0
            def counted(*args, _fn=fn, _key=key, **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)
            setattr(module, attr, counted)

scene = sys.argv[2]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["check", "--canonical-flatness"], ["curvature", "--json"], ["index", "--json"]):
        assert api["main"](argv + [scene]) == 0, argv
with open(scene, encoding="utf-8") as handle:
    sc = api["parse"](handle.read())
api["totals"](sc.field, sc.flatness)
for face in sc.surface.faces:
    api["swirl_path"](sc.field, face)
api["gauge_field"](sc.field, api["Gauge"]({sc.surface.vertices[0]: 1}))
api["serialize"](sc)
print(json.dumps({"calls": calls, "spans": sorted({s[0] for s in tracer.spans})}))
"""

PATCHES = {
    "windex.cli.parse_scene", "windex.cli.totals", "windex.cli.face_reports",
    "windex.cli.net_holonomy", "windex.cli.total_flatness_winding",
    "windex.cli.canonical_flatness", "windex.scene.build_surface",
    "windex.scene.build_connection", "windex.scene.attach_flatness",
    "windex.scene.build_field", "windex.field.gauge_transform",
    "windex.field.total_flatness_winding",
}

SPANS = {
    # the patched names
    "scene.parse_scene", "field.totals", "bundle.face_reports", "bundle.net_holonomy",
    "bundle.total_flatness_winding", "bundle.canonical_flatness",
    "complex.build_surface", "bundle.build_connection", "bundle.attach_flatness",
    "field.build_field", "bundle.gauge_transform",
    # the json proxy in windex.scene: windex writes JSON without the json
    # module, so only its decode is a span
    "scene.decode",
    # the entry points the benchmark calls itself
    "cli.main", "scene.parse_scene_text", "field.swirl_path",
    "field.gauge_transform_field", "scene.serialize_scene",
}


def test_every_wrapped_name_records_a_span():
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(SCENE)],
        capture_output=True, encoding="utf-8", env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])
    assert set(got["calls"]) == PATCHES
    assert [key for key, n in got["calls"].items() if n == 0] == []
    assert SPANS <= set(got["spans"]), sorted(SPANS - set(got["spans"]))
