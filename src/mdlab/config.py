"""Run configuration.

All tunable defaults live in the one dataclass below.  CLI commands resolve a
``RunConfig`` from three layers (lowest precedence first): these defaults,
``MDLAB_*`` environment variables, command-line flags.  Every report written
by the CLI echoes the resolved configuration into its header so a run can be
reproduced from the artifact alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace

__all__ = ["RunConfig", "DEFAULTS", "resolve_config", "FLOAT_FMT", "fmt"]

# Fixed significant-digit format for every float written to CSV/JSON reports.
# Keeping it in one place is what makes byte-identical reruns possible.
FLOAT_FMT = "%.12g"


def fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


@dataclass(frozen=True)
class RunConfig:
    tol: float = 1e-6              # SDP solver accuracy target
    max_iter: int = 500            # SDP iteration cap
    ball_cap: int = 500_000        # max elements any ball enumeration may hold
    quad_factor: int = 4           # quadrature nodes per unit of degree: Q = quad_factor*(N+1)
    window_radius: int = 1         # ball radius for pointwise-convergence residuals
    success_residual: float = 0.01 # residual under which a convergence run is flagged SUCCESS
    seed: int = 0                  # echoed into report headers

    def header_items(self) -> list[tuple[str, str]]:
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            out.append((f.name, fmt(v) if isinstance(v, float) else str(v)))
        return out

    def header_line(self) -> str:
        return "# config " + " ".join(f"{k}={v}" for k, v in self.header_items())


DEFAULTS = RunConfig()

_ENV_PREFIX = "MDLAB_"


def resolve_config(cli_overrides: dict | None = None, env: dict | None = None) -> RunConfig:
    """Layer environment variables and CLI flags over the defaults.

    Environment variables are named MDLAB_<FIELD> (upper case), e.g.
    MDLAB_TOL=1e-8 or MDLAB_BALL_CAP=100000.  Unknown MDLAB_ variables are
    rejected rather than ignored, so typos fail loudly.
    """
    env = os.environ if env is None else env
    known = {f.name: f for f in fields(RunConfig)}
    updates: dict = {}
    for key, raw in sorted(env.items()):
        if not key.startswith(_ENV_PREFIX):
            continue
        name = key[len(_ENV_PREFIX):].lower()
        if name in ("out", "group"):    # path-like CLI conveniences, handled by the CLI itself
            continue
        if name not in known:
            raise ValueError(f"unknown configuration variable {key}")
        updates[name] = _parse(known[name].type, raw, key)
    if cli_overrides:
        for name, value in cli_overrides.items():
            if value is None:
                continue
            if name not in known:
                raise ValueError(f"unknown configuration field {name}")
            updates[name] = value
    return replace(DEFAULTS, **updates)


def _parse(typename: str, raw: str, key: str):
    try:
        if typename == "int":
            return int(raw)
        if typename == "float":
            return float(raw)
    except ValueError as exc:
        raise ValueError(f"bad value for {key}: {raw!r}") from exc
    return raw
