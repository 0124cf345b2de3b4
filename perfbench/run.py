#!/usr/bin/env python3
"""windex benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid_cli --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Generates the inputs from ``--seed`` in this process (which
never imports windex), then starts fresh workers one after another:

* five set-up workers (some before, some after the measuring worker)
  and the measuring worker, whose median time from start to ready
  (``import windex.cli``, input reads, warm-up) is ``setup_s``;
* one memory worker that runs every op of the cycle once on the written
  files, without warm-up, for ``peak_rss_mb``;
* the measuring worker, which runs the op cycle back to back for
  ``--seconds`` and checks every output against the oracle.

Prints the input digests, every named metric with its unit and sample
count, and a ``detail`` JSON line, then, as the last line, the result
object (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  Exits non-zero without a result when windex is missing.
See perfbench/README.md for the metric -> layer -> workload map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import GATED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_WORKERS = 5
WORKER_TIMEOUT_S = 150

# the span each workload was chosen to stress
PREDICTED_LARGEST = {"grid_cli": "complex.build_surface", "refined_fibers": "bundle.build_connection"}


def worker(mode: str, workdir: Path, *extra) -> tuple[dict, float]:
    """Run one worker to completion; returns its result and start time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), mode, str(workdir), *map(str, extra)]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def quantile(values, q):
    """The q-quantile by linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples(records, kind, target=None, phase=0, relative=False):
    """Seconds (or seconds / reference seconds) of the passing ops, or
    instance stages, of one kind."""
    out = []
    for ph, k, tgt, dt, ok, stages, ref in records:
        if ph != phase or not ok or (target is not None and tgt != target):
            continue
        value = dt if k == kind else stages.get(kind) if k == "instance" else None
        if value is not None:
            out.append(value / ref if relative else value)
    return out


def named_metrics(workload, manifest, records, loop_s):
    """Every metric by name, with unit and sample count."""
    target = None if workload == "sweep_small" else manifest["main"]
    out = {}

    def put(name, values, unit, q=0.5):
        if values:
            out[name] = {"value": quantile(values, q), "unit": unit, "n": len(values)}

    for gated, kind in GATED[workload].items():
        put(f"{gated}_ref.p50", samples(records, kind, target, relative=True), "ref")
    if workload == "sweep_small":
        inst = samples(records, "instance")
        put("instance_s.p50", inst, "s")
        put("instance_s.p90", inst, "s", 0.9)
        put("reject_s.p50", samples(records, "reject"), "s")
        done = sum(1 for r in records if r[0] == 0)
        out["instances_per_s"] = {"value": done / loop_s, "unit": "1/s", "n": done}
    else:
        for kind in GATED[workload].values():
            put(f"{kind}_s.p50", samples(records, kind, target), "s")
    if workload == "grid_cli":
        small = next(name for name in workloads.GRID_RUNGS if name != target)
        put("check_s.p50.20x20", samples(records, "check", small), "s")
        big = samples(records, "check", target, relative=True)
        little = samples(records, "check", small, relative=True)
        if big and little:
            faces = (workloads.GRID_RUNGS[target] / workloads.GRID_RUNGS[small]) ** 2
            exp = math.log(statistics.median(big) / statistics.median(little)) / math.log(faces)
            out["check_scaling_exp"] = {"value": exp, "unit": "exponent",
                                        "n": min(len(big), len(little))}
    put("reference_s.p50", [r[6] for r in records if r[0] == 0], "s")
    done = sum(1 for r in records if r[0] == 0)
    out["ops_per_s"] = {"value": done / loop_s, "unit": "1/s", "n": done}
    return out


def layer_metrics(workload, workdir, manifest, meas, attempted, failures):
    """The traced run's per-layer readout plus the run-level counters."""
    records, main = meas["records"], manifest["main"]
    kind = GATED[workload]["op"]
    target = None if workload == "sweep_small" else main
    untraced = samples(records, kind, target, phase=0, relative=True)
    traced = samples(records, kind, target, phase=1, relative=True)
    layer = dict(meas["per_layer"])
    reference_s = statistics.median(r[6] for r in records)
    layer["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced)) * reference_s
    layer["trace.spans"] = meas["spans"]
    if workload == "sweep_small":
        lines = (workdir / "inputs" / main).read_bytes().splitlines()
        layer["scene.input_bytes"] = statistics.median(len(line) for line in lines)
    else:
        layer["scene.input_bytes"] = manifest["inputs"][main]["bytes"]
    json_kind = GATED[workload]["json"]
    out_bytes = [r[5]["bytes"] for r in records if r[0] == 1 and r[1] == json_kind and r[2] == main]
    layer["cli.output_bytes"] = statistics.median(out_bytes) if out_bytes else 0
    layer["ops.attempted"] = attempted
    layer["ops.failed"] = len(failures)
    layer["ops.rejected_as_expected"] = sum(1 for r in records if r[1] == "reject" and r[4])
    units = (("_us_per_face", "us"), ("_mb", "MB"), ("_bytes", "bytes"), ("_s", "s"))
    return {name: {"value": value,
                   "unit": next((u for suffix, u in units if name.endswith(suffix)), "count")}
            for name, value in layer.items()}


def print_self_times(workload, head_self):
    """Self time per span and per layer inside the headline op, and whether
    the span predicted to dominate does."""
    op = GATED[workload]["op"]
    ranked = sorted(head_self.items(), key=lambda item: -item[1])
    for name, seconds in ranked:
        print(f"self time in {op}: {name} {seconds:.6f} s")
    layers: dict[str, float] = {}
    for name, seconds in ranked:
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    print("layer self time in " + op + ": "
          + ", ".join(f"{layer} {seconds:.6f} s" for layer, seconds in layers.items()))
    if workload in PREDICTED_LARGEST:
        holds = "holds" if ranked and ranked[0][0] == PREDICTED_LARGEST[workload] else "does not hold"
        print(f"prediction: {PREDICTED_LARGEST[workload]} has the largest self time in {op}: {holds}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "windex" / "cli.py").is_file():
        sys.stderr.write(f"windex sources not found under {ROOT / 'src'}\n")
        return 2
    workdir = HERE / ".work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    manifest = workloads.build(args.workload, args.seed, workdir)

    def setup() -> float:
        res, started = worker("setup", workdir)
        return res["ready"] - started

    # set-up is sampled before and after the measuring worker, so that one
    # slow stretch of the host does not decide the median
    setups = [setup() for _ in range(SETUP_WORKERS // 2)]
    rss, _ = worker("rss", workdir)
    meas, started = worker("measure", workdir, args.seconds, args.trace)
    setups.append(meas["ready"] - started)
    setups += [setup() for _ in range(SETUP_WORKERS - SETUP_WORKERS // 2)]
    records, failures = meas["records"], meas["failures"]
    (workdir / "records.json").write_text(json.dumps(records), encoding="utf-8")
    attempted = len(records) + len(manifest["warmup"])
    for why in failures[:10]:
        sys.stderr.write(f"FAILED {why}\n")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for name, info in manifest["inputs"].items():
        print(f"input {name} sha256 {info['sha256']} bytes {info['bytes']}")
    if args.trace:
        print_self_times(args.workload, meas["head_self"])
        metrics = layer_metrics(args.workload, workdir, manifest, meas, attempted, failures)
    else:
        named = named_metrics(args.workload, manifest, records, meas["loop_s"])
        named["setup_s"] = {"value": statistics.median(setups), "unit": "s", "n": len(setups)}
        named["peak_rss_mb"] = {"value": rss["peak_rss_mb"], "unit": "MB", "n": 1}
        named["fail_ratio"] = {"value": len(failures) / attempted, "unit": "ratio",
                               "n": attempted}
        for name, m in sorted(named.items()):
            print(f"  {name:<22} {m['value']:>12.6g} {m['unit']:<9} n={m['n']}")
        print("detail " + json.dumps({"workload": args.workload, "seed": args.seed,
                                      "inputs": manifest["inputs"], "metrics": named}))
        gated = ["setup_s", "peak_rss_mb"] + [f"{g}_ref.p50" for g in GATED[args.workload]]
        metrics = {name: {"value": named[name]["value"], "unit": named[name]["unit"]}
                   for name in gated}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
