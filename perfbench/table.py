#!/usr/bin/env python3
"""Run every workload once and print one row per workload with every
named end-to-end metric (value, unit, sample count) and the input digests.

    python3 perfbench/table.py --seed 1 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    failed = False
    for workload in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        detail = [line for line in lines if line.startswith("detail ")]
        if proc.returncode != 0 or not detail:
            sys.stderr.write(proc.stderr[-2000:])
            print(f"{workload}: run failed (exit {proc.returncode})")
            failed = True
            continue
        info = json.loads(detail[0][len("detail "):])
        result = json.loads(lines[-1])
        failed |= not result["correct"]
        cells = [f"{name}={m['value']:.6g} {m['unit']} (n={m['n']})"
                 for name, m in sorted(info["metrics"].items())]
        digests = [f"{name}:{d['sha256'][:16]}" for name, d in info["inputs"].items()]
        print(f"{workload} seed={args.seed} correct={result['correct']} "
              + "  ".join(cells) + "  inputs " + " ".join(digests))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
