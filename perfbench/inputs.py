"""Benchmark inputs, generated from the seed alone (standard library only).

Every draw goes through one ``random.Random`` seeded with the workload name
and the seed, so the same seed gives the same inputs and mdlab receives only
the generated data.  The composition of each pool is fixed and the seed
draws the parameters inside it: which multipliers, radii and coefficient
values appear, and in which order.  Keeping the composition fixed is what
keeps per-op cost and mean bracket width comparable from one seed to the
next (see README.md for the measured spreads).
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("z-window", "tree-family", "group-windows")

# z-window: one segment window of Z, the ball of radius 14 (29 elements).
Z_RADIUS = 14
# Real finite supports on [-3, 3]: sign-changing profiles whose symbols have
# zeros (so the window lower bound does not pinch), jittered per seed.  A
# free draw of all seven values moves the bracket width by ~30% per
# multiplier, which would drown a real regression in seed noise.
Z_PROFILES = (
    (0.0, -0.4, 0.5, 1.0, 0.5, -0.4, 0.0),
    (0.3, -0.2, -0.6, 1.0, 0.2, 0.0, -0.3),
    (-0.5, 0.0, 0.8, 0.0, 0.8, 0.0, -0.5),
)
JITTER = 0.01
FEJER_R_RANGE = (0.5, 0.9)
FEJER_N_RANGE = (4, 12)

# tree-family: TreeFamily(2, 4) (161 elements), fixed kernel degree, radii
# stratified over the range so the pool covers it evenly on every seed.
TREE_RANK = 2
TREE_RADIUS = 4
TREE_N = 2
TREE_R_RANGE = (0.3, 0.8)
TREE_STRATA = 16
TREE_C = 1.0            # the audited constant of `mdlab fejer` (-C default)

# group-windows: (name, group description, ball radius, ball size, PSD by
# theorem).  Sizes are checked against closed forms where one exists
# (2R^2 + 2R + 1 on Z^2, 2 * 3^R - 1 on F2); None means structural checks only.
GROUP_WINDOWS = (
    ("zn2", {"kind": "zn", "n": 2}, 12, 313, True),
    ("free2", {"kind": "free", "rank": 2}, 5, 485, True),
    ("sl2z", {"kind": "sl2z"}, 6, None, False),
    ("sl2z_semidirect", {"kind": "sl2z_semidirect"}, 3, None, False),
    ("sl2f7", None, 8, None, False),      # multiplication table of SL(2, Z/7)
)
# Complex values on the radius-1 ball (identity first, then the sphere of
# at most 8 generators), jittered per seed.
BALL1_PROFILE = (1.0, 0.5, 0.5j, -0.3, 0.3j, 0.2, -0.2j, 0.1, -0.1j)
# Only the Z^2 item has a finite upper in this workload, so its width alone
# is the workload's mean width: jitter it less.
BALL1_JITTER = 0.005
RADIAL_R_RANGE = (0.3, 0.7)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def z_window_inputs(seed: int) -> dict:
    rng = _rng("z-window", seed)
    pool = [{"kind": "finite", "name": "ind01", "support": [[0, 1.0], [1, 1.0]]}]
    lo, hi = FEJER_R_RANGE
    for i in range(3):
        pool.append({"kind": "fejer", "N": rng.randint(*FEJER_N_RANGE),
                     "r": lo + (hi - lo) * (i + rng.random()) / 3})
    for i, profile in enumerate(Z_PROFILES):
        support = [[k - 3, v + rng.uniform(-JITTER, JITTER)]
                   for k, v in enumerate(profile)]
        pool.append({"kind": "finite", "name": f"profile{i}", "support": support})
    rng.shuffle(pool)
    return {"workload": "z-window", "seed": seed, "radius": Z_RADIUS, "pool": pool}


def tree_family_inputs(seed: int) -> dict:
    rng = _rng("tree-family", seed)
    lo, hi = TREE_R_RANGE
    width = (hi - lo) / TREE_STRATA
    pool = [{"r": lo + width * (i + rng.random())} for i in range(TREE_STRATA)]
    rng.shuffle(pool)
    modulus = rng.uniform(0.3, 0.8)
    # the phases the tree-family contract test covers
    phase = rng.choice((1.0, (1 + 1j) / 2 ** 0.5, 1j))
    z = modulus * phase
    return {"workload": "tree-family", "seed": seed, "rank": TREE_RANK,
            "radius": TREE_RADIUS, "N": TREE_N, "C": TREE_C, "pool": pool,
            "contract_z": [z.real, z.imag]}


def group_windows_inputs(seed: int) -> dict:
    rng = _rng("group-windows", seed)
    pool = []
    for name, _, radius, size, psd in GROUP_WINDOWS:
        values = [[v.real + rng.uniform(-BALL1_JITTER, BALL1_JITTER),
                   v.imag + rng.uniform(-BALL1_JITTER, BALL1_JITTER)]
                  for v in map(complex, BALL1_PROFILE)]
        pool.append({"group": name, "radius": radius, "size": size,
                     "psd_theorem": psd, "r": rng.uniform(*RADIAL_R_RANGE),
                     "ball1_values": values})
    rng.shuffle(pool)
    return {"workload": "group-windows", "seed": seed, "pool": pool}


def make_inputs(workload: str, seed: int) -> dict:
    if workload == "z-window":
        return z_window_inputs(seed)
    if workload == "tree-family":
        return tree_family_inputs(seed)
    if workload == "group-windows":
        return group_windows_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def digest(inputs: dict) -> str:
    """Short hash of the canonical JSON form of a workload's inputs."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def sl2_mod_p(p: int = 7):
    """Multiplication table of SL(2, Z/p) with T, T^-1, S, S^-1 as generators."""
    elements = [(a, b, c, d) for a in range(p) for b in range(p)
                for c in range(p) for d in range(p) if (a * d - b * c) % p == 1]
    index = {e: i for i, e in enumerate(elements)}

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % p, (a * f + b * h) % p,
                (c * e + d * g) % p, (c * f + d * h) % p)

    table = [[index[mul(x, y)] for y in elements] for x in elements]
    gens = [index[(1, 1, 0, 1)], index[(1, p - 1, 0, 1)],
            index[(0, p - 1, 1, 0)], index[(0, 1, p - 1, 0)]]
    return table, gens
