#!/usr/bin/env python3
"""Write the reports of a pinned set of `mdlab` commands into one directory.

Every command runs in this process through `mdlab.cli.main`, from OUT as the
working directory, so each report lands in OUT/<name>/ and the printed lines
carry no absolute path.  The input files (group and multiplier JSON, one
matrix CSV) are written into OUT/inputs/ first, and OUT/commands.txt records
each command with its exit code and what it printed.  MDLAB_ variables are
cleared first, so the reports depend on the code alone.

Two checkouts that compute the same brackets give trees that `diff -r`
finds identical:

    python scripts/snapshot_reports.py /tmp/before   # in one checkout
    python scripts/snapshot_reports.py /tmp/after    # in the other
    diff -r /tmp/before /tmp/after

With --manifest PATH the script also writes the sha256 of every file under
OUT to PATH, one "digest  relative/path" line per file in path order.  The
committed tests/snapshot_reports.sha256 is such a manifest, and Tier-1
compares a fresh one with it; a change that moves report bytes rewrites it:

    python scripts/snapshot_reports.py /tmp/snap --manifest tests/snapshot_reports.sha256
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

# run from a checkout: this repository's src/ comes before any installed mdlab
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from mdlab.cli import main  # noqa: E402

ID = [[1, 0], [0, 1]]
T = [[1, 1], [0, 1]]
T_INV = [[1, -1], [0, 1]]
S = [[0, -1], [1, 0]]

GROUPS = {
    "z1": {"kind": "zn", "n": 1},
    "z2": {"kind": "zn", "n": 2},
    "f2": {"kind": "free", "rank": 2},
    "sl2z": {"kind": "sl2z"},
    "semi": {"kind": "sl2z_semidirect"},
}

MULTIPLIERS = {
    "sl2z_finite": {"name": "sl2z-finite", "support": [
        [ID, 1.0, 0.0], [T, 0.5, 0.25], [T_INV, 0.5, -0.25], [S, -0.3, 0.0]]},
    "sl2z_radial": {"name": "sl2z-radial",
                    "radial": {"coeffs_by_length": [1.0, 0.6, 0.36]}},
    "semi_finite": {"name": "semi-finite", "support": [
        [[ID, [0, 0]], 1.0, 0.0], [[ID, [1, 0]], 0.5, 0.0],
        [[ID, [-1, 0]], 0.5, 0.0], [[T, [0, 0]], 0.2, -0.1]]},
    "semi_radial": {"name": "semi-radial",
                    "radial": {"coeffs_by_length": [1.0, 0.5, 0.25]}},
    "ind01": {"name": "ind01", "support": [[[0], 1.0, 0.0], [[1], 1.0, 0.0]]},
    "z2_finite": {"name": "z2-finite", "support": [
        [[0, 0], 1.0, 0.0], [[1, 0], 0.4, 0.0], [[0, 1], 0.0, 0.3],
        [[-1, -1], -0.2, 0.0]]},
    "z_radial": {"name": "z-radial",
                 "radial": {"coeffs_by_length": [1.0, 0.5, 0.25, 0.125]}},
    "f2_radial": {"name": "f2-radial",
                  "radial": {"coeffs_by_length": [1.0, 0.5, 0.25]}},
}

MATRIX = "1,0.5,0\n0.5,-1,0.25\n0,0.25i,1\n"


def commands() -> list:
    """(name, argv) pairs; each argv writes its reports to the directory name."""
    g = lambda k: ["--group", f"inputs/{k}.json"]
    m = lambda k: ["--multiplier", f"inputs/{k}.json"]
    return [
        ("ball-sl2z", ["ball", *g("sl2z"), "-R", "6"]),
        ("ball-semi", ["ball", *g("semi"), "-R", "3"]),
        ("extension-1-2-4", ["extension", "--k-list", "1,2,4"]),
        ("extension-d3", ["extension", "--k-list", "2,4,8,16", "-d", "3"]),
        ("bracket-sl2z-finite", ["bracket", *g("sl2z"), *m("sl2z_finite")]),
        ("bracket-sl2z-radial", ["bracket", *g("sl2z"), *m("sl2z_radial")]),
        ("bracket-semi-finite", ["bracket", *g("semi"), *m("semi_finite"), "-R", "1"]),
        ("bracket-semi-radial", ["bracket", *g("semi"), *m("semi_radial"), "-R", "1"]),
        ("bracket-ind01", ["bracket", *g("z1"), *m("ind01"), "-R", "14"]),
        ("bracket-z2-finite", ["bracket", *g("z2"), *m("z2_finite")]),
        ("bracket-z-radial", ["bracket", *g("z1"), *m("z_radial"), "-R", "6"]),
        ("bracket-f2-radial", ["bracket", *g("f2"), *m("f2_radial")]),
        ("fejer-f2", ["fejer", *g("f2"), "--N-list", "2,4", "--r-list", "0.5"]),
        ("fejer-z", ["fejer", "--N-list", "4,8,16", "--r-list", "0.9"]),
        ("report", ["report"]),
        ("report-R5", ["report", "-R", "5"]),
        ("schur", ["schur", "--matrix", "inputs/matrix.csv"]),
    ]


def write_inputs(directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, obj in {**GROUPS, **MULTIPLIERS}.items():
        with open(os.path.join(directory, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)
            fh.write("\n")
    with open(os.path.join(directory, "matrix.csv"), "w", encoding="utf-8") as fh:
        fh.write(MATRIX)


def run(out: str) -> int:
    """Run every command; the exit code is 1 when any command failed."""
    for key in [k for k in os.environ if k.startswith("MDLAB_")]:
        del os.environ[key]
    os.makedirs(out, exist_ok=True)
    os.chdir(out)
    write_inputs("inputs")
    failed = 0
    with open("commands.txt", "w", encoding="utf-8") as log:
        for name, argv in commands():
            argv = argv + ["--out", name]
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                rc = main(argv)
            failed += rc != 0
            log.write(f"$ mdlab {' '.join(argv)}\nexit {rc}\n{printed.getvalue()}")
            print(f"{name}: exit {rc}")
    return 1 if failed else 0


def write_manifest(out: str, path: str) -> None:
    """sha256 of every file under out (but path itself), by relative path."""
    entries = []
    for root, _, files in os.walk(out):
        for name in files:
            full = os.path.join(root, name)
            if full == path:
                continue
            with open(full, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            entries.append((os.path.relpath(full, out).replace(os.sep, "/"), digest))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{digest}  {rel}\n" for rel, digest in sorted(entries))


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", metavar="OUT", help="directory the reports are written to")
    ap.add_argument("--manifest", metavar="PATH",
                    help="also write the sha256 of every file under OUT to PATH")
    args = ap.parse_args()
    out = os.path.abspath(args.out)
    manifest = args.manifest and os.path.abspath(args.manifest)
    rc = run(out)
    if manifest:
        write_manifest(out, manifest)
    sys.exit(rc)
