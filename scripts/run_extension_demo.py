#!/usr/bin/env python3
"""Extension pipeline on SL(2,Z) x| Z^2: spread lattice tents over the
matrix-part cosets and watch the window residual to 1 fall as k grows."""

import argparse
import os
import sys

# run from a checkout: this repository's src/ comes before any installed mdlab
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from mdlab.cli import main  # noqa: E402


def run(out: str) -> int:
    return main(["extension", "--k-list", "2,4,8,16,32,64,128",
                 "--out", out])


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/extension")
    sys.exit(run(ap.parse_args().out))
