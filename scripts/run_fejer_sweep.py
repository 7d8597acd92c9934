#!/usr/bin/env python3
"""Kernel-smoothing sweeps on Z: a stalling fixed-radius run next to the
diagonal (r_j, N_j) = (1 - 2^-j, 4^j) run that actually converges."""

import argparse
import os
import sys

# run from a checkout: this repository's src/ comes before any installed mdlab
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from mdlab.cli import main  # noqa: E402


def run(out: str) -> int:
    fixed = ["fejer", "--N-list", "4,8,16,32,64", "--r-list", "0.9",
             "--out", f"{out}/fixed-r"]
    js = range(1, 8)
    diagonal = ["fejer",
                "--N-list", ",".join(str(4 ** j) for j in js),
                "--r-list", ",".join(str(1 - 2.0 ** -j) for j in js),
                "--out", f"{out}/diagonal"]
    rc = main(fixed)
    return rc or main(diagonal)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/fejer")
    sys.exit(run(ap.parse_args().out))
