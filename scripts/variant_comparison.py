#!/usr/bin/env python3
"""Compare the two test-function ramps on the same cover family.

Two-sided ramps rise from the whole piece boundary and give the tighter
certificate; one-sided ramps rise from a single designated lift and plateau
almost immediately on the far side.  Both are admissible on each mesh
(disjoint supports), so on each mesh both columns dominate the measured
eigenvalue.  Only the two-sided certificate settles under refinement: at
N = 4 and refine 1, 2, 3 it is 0.220, 0.227, 0.231, against 0.419, 0.498,
0.655 one-sided (ROADMAP item 11), because the one-sided ramp jumps from 1
to 0 at the far lift.
"""

import argparse
import json
import sys
from pathlib import Path

from hypspectra.cli import main

FAMILY = ["--refine", "1", "--n", "2", "--N", "1,2,4"]


def run(out: str) -> int:
    certs = {}
    for variant in ("two-sided", "one-sided"):
        rc = main(["sweep", "--out", f"{out}/{variant}", "--testfn", variant]
                  + FAMILY)
        if rc != 0:
            return rc
        doc = json.loads(Path(out, variant, "sweep.json").read_text())
        certs[variant] = {row["N"]: (row["lambda"][2], row["certificate"])
                          for row in doc["rows"]}

    print(f"{'N':>3} {'lambda_2':>12} {'two-sided':>12} {'one-sided':>12}")
    for N, (lam, two) in sorted(certs["two-sided"].items()):
        one = certs["one-sided"][N][1]
        print(f"{N:>3} {lam:>12.8f} {two:>12.8f} {one:>12.8f}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/variants", help="output directory")
    args = parser.parse_args()
    sys.exit(run(args.out))
