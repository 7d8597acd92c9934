#!/usr/bin/env python3
"""Residual report for the tree operator family over the standard 3x3
parameter grid (moduli 0.3/0.6/0.9 at phases 0, pi/4, pi/2), radius 5."""

import argparse
import json
import os
import sys

# run from a checkout: this repository's src/ comes before any installed mdlab
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from mdlab.cli import main  # noqa: E402


def run(out: str) -> int:
    rc = main(["report", "-R", "5", "--out", out])
    if rc:
        return rc
    with open(f"{out}/family_report.json", "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    for p in payload["points"]:
        print(f"z=({p['z'][0]:+.4f},{p['z'][1]:+.4f})  "
              f"coeff={p['coefficient_residual']:.2e}  "
              f"unitary={p['unitarity_residual']:.2e}  "
              f"bound={p['empirical_bound']:.6f}")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/family")
    sys.exit(run(ap.parse_args().out))
