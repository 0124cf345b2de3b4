#!/usr/bin/env python3
"""Randomized sweep of the index identity.

Draws random (connection, lifts, field) triples over the bundled surfaces
and checks, with exact arithmetic, that the total index equals the total
flatness winding, that the total swirl vanishes, and that the explicit
transported boundary decomposition agrees with the plain step sum on every
face.

    python3 scripts/theorem_sweep.py --trials 250 --seed 7
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from random import Random

from windex.field import swirl_path, totals
from windex.fixtures import csaszar_torus, icosahedron, octahedron
from windex.sampling import random_connection, random_field, random_lifts

SURFACES = {
    "octahedron": (octahedron, "link"),
    "icosahedron": (icosahedron, "link"),
    "torus": (csaszar_torus, 6),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100, help="instances per surface")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--surfaces", nargs="*", default=sorted(SURFACES),
                        choices=sorted(SURFACES))
    args = parser.parse_args(argv)

    rng = Random(args.seed)
    failures = 0
    for name in args.surfaces:
        make, mode = SURFACES[name]
        surface = make()
        winding_counts: Counter[int] = Counter()
        for trial in range(args.trials):
            conn = random_connection(surface, mode, rng)
            flat = random_lifts(conn, rng)
            field = random_field(conn, rng)
            report = totals(field, flat)
            winding_counts[report.total_flatness_winding] += 1
            ok = (
                report.theorem_holds
                and report.total_swirl == 0
                and all(
                    swirl_path(field, face).steps == row.swirl
                    for face, row in zip(surface.faces, report.rows)
                )
            )
            if not ok:
                failures += 1
                print(f"FAIL {name} trial {trial}: index {report.total_index} "
                      f"vs winding {report.total_flatness_winding}, "
                      f"swirl {report.total_swirl}")
        spread = ", ".join(f"{w}x{c}" for w, c in sorted(winding_counts.items()))
        print(f"{name}: {args.trials} instances, total-winding spread {{{spread}}}")

    if failures:
        print(f"{failures} failing instances")
        return 1
    print("all instances satisfy total index == total flatness winding")
    return 0


if __name__ == "__main__":
    sys.exit(main())
