"""One benchmark worker process: imports windex, runs ops, checks them.

    python3 perfbench/worker.py setup   WORKDIR
    python3 perfbench/worker.py measure WORKDIR SECONDS TRACE
    python3 perfbench/worker.py rss     WORKDIR

Every mode first sets up: ``import windex.cli``, read the input files and
run the manifest's warm-up ops.  ``setup`` stops there.  ``measure`` then
runs the op cycle back to back (one client, closed loop) for SECONDS; with
TRACE=1 it spends the first half untraced and the second half with span
recorders around the public names each windex module imports from the
layer below.  ``rss`` skips warm-up, runs every op of the cycle once and
reports the peak resident set size.  The last stdout line is one JSON
object; windex's own output is captured and checked against the
expectations written at generation time.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

CLI_ARGS = {
    "validate": ["validate"],
    "check": ["check"],
    "index_json": ["index", "--json"],
    "curvature_json": ["curvature", "--json"],
}
REFERENCE_SIZE = 20000  # 5-8 ms on a 2.1 GHz Xeon
REFERENCE_EVERY_S = 0.1
REFERENCE_SHARE = 0.1


class Tracer:
    """Spans in memory: (name, start, end, parent index, op id)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[int, dict[str, int]] = {}
        self.op = 0
        self.malloc_peak = None
        self.malloc_next = False

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(idx)
            malloc = self.malloc_next and name == "bundle.build_connection"
            if malloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
            if malloc:
                self.malloc_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            if count is not None:
                self.counts.setdefault(self.op, {}).update(count(result))
            return result
        return traced


class JsonProxy:
    """Stands in for the ``json`` module inside one windex module so that
    decode and encode calls become spans."""

    def __init__(self, tracer, layer, module):
        self._module = module
        self.loads = tracer.wrap(f"{layer}.decode", module.loads)
        self.dumps = tracer.wrap(f"{layer}.encode", module.dumps)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def install_spans(tracer: Tracer):
    """Wrap, in place, the names each windex module imports from the layer
    below.  Returns the windex entry points the benchmark calls itself."""
    import windex.cli as cli
    import windex.field as field
    import windex.scene as scene

    def surface_counts(s):
        return {"complex.vertices": len(s.vertices), "complex.edges": len(s.edges),
                "complex.faces": len(s.faces)}

    def fiber_counts(conn):
        return {"bundle.fiber_labels": sum(conn.fiber(v).n for v in conn.surface.vertices)}

    patches = [
        (cli, "parse_scene", "scene.parse_scene", None),
        (cli, "totals", "field.totals", None),
        (cli, "face_reports", "bundle.face_reports", None),
        (cli, "net_holonomy", "bundle.net_holonomy", None),
        (cli, "total_flatness_winding", "bundle.total_flatness_winding", None),
        (cli, "canonical_flatness", "bundle.canonical_flatness", None),
        (scene, "build_surface", "complex.build_surface", surface_counts),
        (scene, "build_connection", "bundle.build_connection", fiber_counts),
        (scene, "attach_flatness", "bundle.attach_flatness", None),
        (scene, "build_field", "field.build_field", None),
        (field, "gauge_transform", "bundle.gauge_transform", None),
        (field, "total_flatness_winding", "bundle.total_flatness_winding", None),
    ]
    for module, attr, name, count in patches:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))
    scene.json = JsonProxy(tracer, "scene", json)
    return entry_points(tracer.wrap)


def entry_points(wrap=lambda name, fn: fn):
    import windex.cli as cli
    from windex.bundle import GaugeTransformation
    from windex.errors import ValidationFailed
    from windex.field import gauge_transform_field, swirl_path, totals
    from windex.scene import parse_scene_text, serialize_scene

    return {
        "main": wrap("cli.main", cli.main),
        "parse": wrap("scene.parse_scene_text", parse_scene_text),
        "totals": wrap("field.totals", totals),
        "swirl_path": wrap("field.swirl_path", swirl_path),
        "gauge_field": wrap("field.gauge_transform_field", gauge_transform_field),
        "serialize": wrap("scene.serialize_scene", serialize_scene),
        "Gauge": GaugeTransformation,
        "ValidationFailed": ValidationFailed,
    }


class Ops:
    """Runs one op and returns (seconds, stages, outcome); checking the
    outcome is separate, so it never lands inside a timed region."""

    def __init__(self, workdir: Path, manifest: dict):
        self.dir = workdir / "inputs"
        self.gauges = manifest.get("gauges", {})
        self.texts = {name: (self.dir / name).read_text(encoding="utf-8")
                      for name in manifest["inputs"]}
        sweep = self.texts.get("sweep.jsonl")
        self.lines = sweep.splitlines() if sweep else []
        self.api = entry_points()

    def run(self, kind, target):
        api = self.api
        if kind in CLI_ARGS:
            argv = CLI_ARGS[kind] + [str(self.dir / target)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                code = api["main"](argv)
                end = time.perf_counter()
            text = out.getvalue()
            return end - start, {"bytes": len(text.encode())}, (code, text, err.getvalue())
        text = self.lines[target]
        if kind == "reject":
            start = time.perf_counter()
            try:
                api["parse"](text)
            except api["ValidationFailed"] as exc:
                end = time.perf_counter()
                return end - start, {}, sorted({v.rule for v in exc.report.violations})
            return time.perf_counter() - start, {}, "accepted"
        gauge = api["Gauge"](self.gauges[str(target)])
        t0 = time.perf_counter()
        sc = api["parse"](text)
        t1 = time.perf_counter()
        report = api["totals"](sc.field, sc.flatness)
        paths = {face.key: api["swirl_path"](sc.field, face) for face in sc.surface.faces}
        gauged = api["totals"](api["gauge_field"](sc.field, gauge), sc.flatness)
        t2 = time.perf_counter()
        text_out = api["serialize"](sc)
        t3 = time.perf_counter()
        return t3 - t0, {"read": t1 - t0, "write": t3 - t2}, (report, paths, gauged, text_out)


def _rows(report):
    return [{"face": r.face, "basepoint": r.basepoint, "size": r.size,
             "holonomy_steps": r.holonomy_steps, "lift": r.lift, "swirl": r.swirl,
             "index": r.index} for r in report.rows]


def _report_ok(report, want) -> bool:
    return (_rows(report) == want["rows"] and report.total_index == want["total"]
            and report.total_flatness_winding == want["total"]
            and report.total_swirl == 0 and report.theorem_holds)


def check(kind, target, outcome, expect) -> str | None:
    """None when the outcome matches the oracle, else why not."""
    if kind in CLI_ARGS:
        code, out, err = outcome
        want = expect[target][kind]
        if code != 0 or err:
            return f"{kind} {target}: exit {code}, stderr {err[:200]!r}"
        got = json.loads(out) if kind.endswith("_json") else out
        return None if got == want else f"{kind} {target}: output differs from the oracle"
    want = expect["sweep.jsonl"][target]
    if kind == "reject":
        if outcome == "accepted":
            return f"instance {target}: corrupted scene accepted"
        return None if want["reject"] in outcome else f"instance {target}: rejected as {outcome}"
    report, paths, gauged, text_out = outcome
    swirls = {r["face"]: r["swirl"] for r in want["rows"]}
    if not _report_ok(report, want):
        return f"instance {target}: totals differ from the oracle"
    if {k: p.steps for k, p in paths.items()} != swirls:
        return f"instance {target}: swirl_path differs from the oracle"
    if not _report_ok(gauged, want):
        return f"instance {target}: gauge-transformed totals differ from the oracle"
    if text_out != want["serialized"]:
        return f"instance {target}: serialization differs from the oracle"
    return None


def reference(seconds: float) -> float:
    """Mean seconds of a fixed piece of pure-Python work (dict, tuple and
    str operations, like windex's own) that never touches windex, repeated
    for about ``seconds`` (at least once).

    The host's speed drifts by tens of percent within seconds, so the
    benchmark reports each op's time over the reference timed around it.
    The collector is off so that heap left by windex cannot slow the
    reference.
    """
    times = []
    gc.disable()
    try:
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() < deadline:
            start = time.perf_counter()
            _reference_work()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.fmean(times)


def _reference_work() -> int:
    # builds, reads and (on return) frees its table, so every repetition
    # does the same work
    table = {k: (k, str(k)) for k in range(REFERENCE_SIZE)}
    total = 0
    for k, (a, b) in table.items():
        total += a + len(b)
    return total


def run_loop(ops, cycle, seconds, expect, records, failures, tracer=None, phase=0):
    """Back-to-back ops for ``seconds`` (at least one full cycle).

    A record is [phase, kind, target, seconds, ok, stages, reference
    seconds].  At least every REFERENCE_EVERY_S the loop times the
    reference for REFERENCE_SHARE of the time since the last one; each op
    gets the mean of the reference timed just before and just after it.
    """
    deadline = time.perf_counter() + seconds
    before, pending = reference(0.0), []
    last_ref = time.perf_counter()
    k = 0
    while True:
        kind, target = cycle[k % len(cycle)]
        k += 1
        if tracer is not None:
            tracer.op = len(records) + len(pending)
        try:
            dt, stages, outcome = ops.run(kind, target)
            why = check(kind, target, outcome, expect)
        except Exception as exc:  # an escaping exception is a failed op
            dt, stages, why = 0.0, {}, f"{kind} {target}: {type(exc).__name__}: {exc}"
        if why is not None:
            failures.append(why)
        pending.append([phase, kind, target, dt, why is None, stages])
        done = time.perf_counter() >= deadline and k >= len(cycle)
        since = time.perf_counter() - last_ref
        if done or since >= REFERENCE_EVERY_S:
            after = reference(REFERENCE_SHARE * since)
            last_ref = time.perf_counter()
            records.extend(rec + [(before + after) / 2] for rec in pending)
            before, pending = after, []
        if done:
            return


def layer_readout(tracer: Tracer, records, manifest: dict):
    """Per-layer metrics from the traced ops on the main input, and the
    median self time of each span inside the headline op."""
    span_ops: dict[int, dict[str, float]] = {}
    self_ops: dict[int, dict[str, float]] = {}
    children: dict[int, float] = {}
    for name, start, end, parent, _ in tracer.spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + end - start
    for idx, (name, start, end, parent, op) in enumerate(tracer.spans):
        span_ops.setdefault(op, {})
        span_ops[op][name] = span_ops[op].get(name, 0.0) + end - start
        own = end - start - children.get(idx, 0.0)
        self_ops.setdefault(op, {})
        self_ops[op][name] = self_ops[op].get(name, 0.0) + own
    main_ops = [op for op, rec in enumerate(records)
                if rec[0] == 1 and rec[4] and (rec[2] == manifest["main"] or rec[1] == "instance")]

    def span_median(table, name, kinds=None):
        vals = [table[op][name] for op in main_ops
                if name in table.get(op, {}) and (kinds is None or records[op][1] in kinds)]
        return statistics.median(vals) if vals else 0.0

    def count(key):
        vals = [tracer.counts[op][key] for op in main_ops if key in tracer.counts.get(op, {})]
        return statistics.median(vals) if vals else 0

    faces = count("complex.faces")
    out = {}
    for name in ("complex.build_surface", "bundle.build_connection", "bundle.attach_flatness",
                 "bundle.face_reports", "bundle.net_holonomy", "field.build_field",
                 "field.totals", "field.swirl_path", "field.gauge_transform_field",
                 "scene.decode", "scene.serialize_scene"):
        out[name + "_s"] = span_median(span_ops, name)
    for name in ("complex.build_surface", "bundle.attach_flatness", "field.totals"):
        out[name + "_us_per_face"] = out[name + "_s"] / faces * 1e6 if faces else 0.0
    out["scene.serialize_s"] = out.pop("scene.serialize_scene_s")
    for key in ("complex.vertices", "complex.edges", "complex.faces", "bundle.fiber_labels"):
        out[key] = count(key)
    json_kind = {manifest["json_op"]}
    parse = "scene.parse_scene_text" if json_kind == {"instance"} else "scene.parse_scene"
    out["scene.parse_self_s"] = span_median(self_ops, parse, json_kind)
    out["cli.self_s"] = span_median(self_ops, "cli.main", json_kind)
    out["bundle.build_connection_peak_mb"] = (tracer.malloc_peak or 0) / 2**20

    # median self time of every span inside the headline op
    head = [op for op in main_ops if records[op][1] == manifest["headline"]]
    names = {n for op in head for n in self_ops.get(op, {})}
    return out, {n: statistics.median([self_ops[op].get(n, 0.0) for op in head]) for n in names}


def peak_rss_mb() -> float:
    """High-water RSS of this process image.  Not ru_maxrss, which on Linux
    also counts the parent's memory at fork, before exec."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    mode, workdir = argv[0], Path(argv[1])
    import windex.cli  # noqa: F401  (part of set-up: the import the user pays)

    manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    ops = Ops(workdir, manifest)
    warm = []
    if mode != "rss":
        warm = [(kind, target, ops.run(kind, target)[2]) for kind, target in manifest["warmup"]]
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    cycle = [tuple(op) for op in manifest["cycle"]]
    if mode == "rss":
        # outputs are dropped unchecked: the measuring worker checks the same ops
        for kind, target in cycle:
            ops.run(kind, target)
        print(json.dumps({"peak_rss_mb": peak_rss_mb()}))
        return 0

    expect = json.loads((workdir / "expect.json").read_text(encoding="utf-8"))
    records, failures = [], []
    for kind, target, outcome in warm:
        why = check(kind, target, outcome, expect)
        if why is not None:
            failures.append(f"warm-up {why}")
    seconds, trace = float(argv[2]), argv[3] == "1"
    result = {"ready": ready, "records": records, "failures": failures}
    start = time.perf_counter()
    if not trace:
        run_loop(ops, cycle, seconds, expect, records, failures)
        result["loop_s"] = time.perf_counter() - start
        print(json.dumps(result))
        return 0

    run_loop(ops, cycle, seconds / 2, expect, records, failures)
    tracer = Tracer()
    ops.api = install_spans(tracer)
    run_loop(ops, cycle, seconds / 2, expect, records, failures, tracer, phase=1)
    main_op = next(op for op in cycle if op[1] == manifest["main"] or op[0] == "instance")
    tracer.malloc_next = True
    tracer.op = -1
    ops.run(*main_op)
    readout, head_self = layer_readout(tracer, records, manifest)
    spans_file = workdir / "spans.jsonl"
    with open(spans_file, "w", encoding="utf-8") as handle:
        for name, s, e, parent, op in tracer.spans:
            handle.write(json.dumps({"name": name, "start": s, "end": e,
                                     "parent": parent, "op": op}) + "\n")
    result.update(per_layer=readout, head_self=head_self, spans=len(tracer.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
