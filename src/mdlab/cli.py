"""Batch front door: group definitions in, machine-readable reports out.

Subcommands: ball, schur, bracket, fejer, extension, report.  Shared flags
--group FILE --out DIR --tol X --seed N; every tunable can also come from an
MDLAB_ environment variable (see config.resolve_config).  Outputs are written
atomically (temp file + rename) with the resolved configuration echoed into
each header, so identical invocations give byte-identical files.

Exit codes: 0 success, 2 validation error, 3 resource cap, 4 solver
non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile

from mdlab.config import RunConfig, fmt, resolve_config
from mdlab.groups import (
    BallCapError,
    FreeGroup,
    GroupError,
    SL2ZSemidirect,
    ZnGroup,
    build_ball,
    load_group,
)
from mdlab.schur import (
    SolverError,
    read_matrix_binary,
    read_matrix_csv,
    schur_norm,
    write_matrix_csv,
)
from mdlab.multipliers import (
    CertificateError,
    Multiplier,
    MultiplierError,
    circle_quadrature_certificate,
    complex_from_json,
    compute_bracket,
    constant_certificate,
    extension_limit,
    extension_multiplier,
    folner_tent_value,
    name_from_json,
    radial_density_certificate,
    write_brackets_csv,
)
from mdlab.families import (
    TreeFamily,
    convergence_report,
    family_report,
    fejer_bracket,
    fejer_bracket_tree,
    write_convergence_csv,
    write_family_report,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _atomic_write(path: str, render) -> None:
    """Write through a temp file in the target directory, then rename."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            render(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _load_group_arg(args, default: dict | None = None):
    if args.group is not None:
        return load_group(args.group)
    if default is None:
        raise GroupError("this command needs --group FILE (or MDLAB_GROUP)")
    return load_group(default)


def _list_of(kind, label: str):
    """Argument type: a comma-separated list of kind, e.g. "4,8,16"."""
    def parse(text: str) -> list:
        try:
            return [kind(p) for p in text.split(",") if p.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {label} list {text!r}") from exc
    return parse


def _grid(n_list: list[int], r_list: list[float]) -> list[tuple[int, float]]:
    """Pair the kernel-degree and radius lists into one approximant sequence."""
    if len(r_list) == 1:
        return [(N, r_list[0]) for N in n_list]
    if len(n_list) == 1:
        return [(n_list[0], r) for r in r_list]
    if len(n_list) == len(r_list):
        return list(zip(n_list, r_list))
    raise ValueError(
        f"cannot pair {len(n_list)} degrees with {len(r_list)} radii; "
        "give equal-length lists or a single value on one side")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ball(args, cfg: RunConfig) -> int:
    group = _load_group_arg(args)
    ball = build_ball(group, args.radius, cap=cfg.ball_cap)
    path = os.path.join(args.out, "ball.csv")
    _atomic_write(path, lambda fh: ball.write_csv(
        fh, header_lines=[cfg.header_line(),
                          f"# group={group.kind} R={args.radius}"]))
    print(f"wrote {path} ({len(ball)} rows)")
    return 0


def _read_matrix_any(path: str):
    with open(path, "rb") as fh:
        magic = fh.read(5)
    if magic == b"SCHR1":
        with open(path, "rb") as fh:
            return read_matrix_binary(fh)
    with open(path, "r", encoding="utf-8") as fh:
        return read_matrix_csv(fh)


# Largest row or column count `mdlab schur` solves.  Measured on seeded n x n
# Gaussians with 2 vCPUs, one run each including the CSV read: 6.8 s real and
# 12.0 s complex at n = 400.  Symmetric input is solved on a = b, with one
# eigh per trial point while the weights stay near uniform: at n = 400, a
# real A + A^T takes 2.2 s (5 Newton steps) and a complex C + C* 4.3 s (4).
SCHUR_SIZE_CAP = 400


def cmd_schur(args, cfg: RunConfig) -> int:
    A = _read_matrix_any(args.matrix)
    if max(A.shape) > SCHUR_SIZE_CAP:
        raise BallCapError(f"schur: {A.shape[0]} x {A.shape[1]} matrix exceeds "
                           f"the size cap {SCHUR_SIZE_CAP}")
    # the value is printed to 6 decimals; the config default (1e-6) sits at
    # print precision, so tighten unless --tol or MDLAB_TOL set a tolerance
    tol = cfg.tol if args.tol is not None or "MDLAB_TOL" in os.environ else 1e-8
    sol = schur_norm(A, tol=tol, max_iter=cfg.max_iter)
    lines = [cfg.header_line(),
             f"# value={fmt(sol.value)} lower={fmt(sol.lower_bound)} "
             f"upper={fmt(sol.upper_bound)} residual={fmt(sol.witness_residual)}"]
    px = os.path.join(args.out, "witness_x.csv")
    py = os.path.join(args.out, "witness_y.csv")
    _atomic_write(px, lambda fh: write_matrix_csv(fh, sol.x, header_lines=lines))
    _atomic_write(py, lambda fh: write_matrix_csv(fh, sol.y, header_lines=lines))
    print(f"{sol.value:.6f}")
    return 0


def _upper_certificate(group, phi, cfg: RunConfig):
    """Best certificate the data admits; None when no certified route exists."""
    if phi.kind == "finite" and isinstance(group, ZnGroup):
        return circle_quadrature_certificate(group, phi)
    if phi.kind == "radial":
        try:
            return radial_density_certificate(group, phi, quad_factor=cfg.quad_factor)
        except CertificateError:
            return None     # not Z, or no real nonnegative density: no route
    return None


def _load_multiplier(group, path: str, cfg: RunConfig):
    """(multiplier, certificate) from a JSON file.

    On top of the library's finite/radial forms the CLI accepts
    {"constant": value} (value a number or an [re, im] pair), which the
    serializable kinds cannot express; constants carry their exact
    certificate at every order.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError as exc:
            raise MultiplierError("multiplier JSON is nested too deeply") from exc
    if isinstance(obj, dict) and "constant" in obj:
        c = complex_from_json(obj["constant"], "constant")
        phi = Multiplier.from_callable(group, lambda t: c,
                                       name=name_from_json(obj, "const"))
        return phi, constant_certificate(group, c)
    phi = Multiplier.from_json(group, obj)
    return phi, _upper_certificate(group, phi, cfg)


def cmd_bracket(args, cfg: RunConfig) -> int:
    group = _load_group_arg(args)
    phi, cert = _load_multiplier(group, args.multiplier, cfg)
    ball = build_ball(group, args.radius, cap=cfg.ball_cap)
    bracket = compute_bracket(group, phi, args.d, ball, certificate=cert,
                              sdp_tol=cfg.tol, sdp_max_iter=cfg.max_iter)
    path = os.path.join(args.out, "brackets.csv")
    _atomic_write(path, lambda fh: write_brackets_csv(
        fh, [bracket],
        header_lines=[cfg.header_line(),
                      f"# group={group.kind} phi={phi.name}"]))
    print(f"wrote {path}")
    return 0


def _write_convergence(args, cfg: RunConfig, group, rows, labels, C: float,
                       window, filename: str) -> int:
    """Audit the rows (convergence_report) and write the CSV to args.out."""
    report = convergence_report(group, args.d, rows, labels, C=C,
                                window_radius=cfg.window_radius,
                                success_residual=cfg.success_residual,
                                ball=window)
    path = os.path.join(args.out, filename)
    _atomic_write(path, lambda fh: write_convergence_csv(
        fh, report, header_lines=[cfg.header_line(), f"# group={group.kind}"]))
    print(f"wrote {path} ({'SUCCESS' if report.success else 'INCOMPLETE'})")
    return 0


def cmd_fejer(args, cfg: RunConfig) -> int:
    if math.isnan(args.bound) or args.bound == -math.inf:
        raise MultiplierError(f"-C must be a number or inf, got {args.bound}")
    group = _load_group_arg(args, default={"kind": "zn", "n": 1})
    pairs_nr = _grid(args.n_list, args.r_list)
    window = build_ball(group, cfg.window_radius, cap=cfg.ball_cap)
    rows = []
    if isinstance(group, ZnGroup) and group.n == 1:
        for N, r in pairs_nr:
            rows.append(fejer_bracket(group, N, r, args.d, window,
                                      quad_factor=cfg.quad_factor,
                                      sdp_tol=cfg.tol,
                                      sdp_max_iter=cfg.max_iter))
    elif isinstance(group, FreeGroup):
        family = TreeFamily(group.rank, args.family_radius, cap=cfg.ball_cap)
        for N, r in pairs_nr:
            rows.append(fejer_bracket_tree(family, N, r, args.d,
                                           quad_factor=cfg.quad_factor,
                                           sdp_tol=cfg.tol,
                                           sdp_max_iter=cfg.max_iter))
    else:
        raise MultiplierError(
            f"no certified smoothing route on group kind {group.kind!r}; "
            "use Z or a free group")
    return _write_convergence(args, cfg, group, rows, pairs_nr, args.bound, window,
                              "fejer_convergence.csv")


def cmd_extension(args, cfg: RunConfig) -> int:
    if any(k < 0 for k in args.k_list):
        raise MultiplierError("tent parameter k must be >= 0")
    group = _load_group_arg(args, default={"kind": "sl2z_semidirect"})
    if not isinstance(group, SL2ZSemidirect):
        raise GroupError(
            f"group kind {group.kind!r} carries no quotient structure")
    qball = build_ball(group.matrix_part, 2, cap=cfg.ball_cap)
    section = {group.lift(x): 1 for x in qball.elements}

    # the k -> infinity end must be exactly constant on subgroup cosets
    limit = extension_limit(group, section)
    check_ball = build_ball(group, 3, cap=cfg.ball_cap)
    for t in check_ball.elements:
        if limit(t) != limit(group.lift(group.project(t))):
            raise MultiplierError(f"extension limit not coset-constant at {t!r}")

    window = build_ball(group, cfg.window_radius, cap=cfg.ball_cap)
    rows, labels = [], []
    for k in args.k_list:
        phi = extension_multiplier(
            group, section,
            lambda gamma, k=k: folner_tent_value(gamma[1], k),
            name=f"ext-k{k}")
        bracket = compute_bracket(group, phi, args.d, window,
                                  sdp_tol=cfg.tol, sdp_max_iter=cfg.max_iter)
        rows.append((phi, bracket))
        labels.append((k, 1))
    # no uniform constant is certified along this route; residuals are the point
    return _write_convergence(args, cfg, group, rows, labels, math.inf, window,
                              "extension_convergence.csv")


def cmd_report(args, cfg: RunConfig) -> int:
    family = TreeFamily(args.rank, args.radius, cap=cfg.ball_cap)
    points = []
    for z in args.z_list:
        point = family.point(z, check=False)
        points.append(family_report(point))
    payload = {"config": dict(cfg.header_items()), "points": points}
    path = os.path.join(args.out, "family_report.json")
    _atomic_write(path, lambda fh: write_family_report(fh, payload))
    print(f"wrote {path} ({len(points)} points)")
    return 0


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------

_DEFAULT_GRID = "0.3,0.6,0.9," \
    "0.212132034355964+0.212132034355964j,0.424264068711929+0.424264068711929j," \
    "0.636396103067893+0.636396103067893j,0.3j,0.6j,0.9j"


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--group", default=os.environ.get("MDLAB_GROUP"),
                        metavar="FILE", help="group description JSON")
    shared.add_argument("--out", default=os.environ.get("MDLAB_OUT", "out"),
                        metavar="DIR", help="output directory")
    shared.add_argument("--tol", type=float, default=None,
                        help="solver tolerance override")
    shared.add_argument("--seed", type=int, default=None,
                        help="seed echoed into report headers")

    p = argparse.ArgumentParser(prog="mdlab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("ball", parents=[shared], help="enumerate a ball as CSV")
    q.add_argument("-R", "--radius", type=int, required=True)
    q.set_defaults(func=cmd_ball)

    q = sub.add_parser("schur", parents=[shared],
                       help="factorization norm of a matrix file")
    q.add_argument("--matrix", required=True, metavar="FILE",
                   help="CSV or SCHR1 binary matrix")
    q.set_defaults(func=cmd_schur)

    q = sub.add_parser("bracket", parents=[shared],
                       help="norm bracket for a multiplier JSON")
    q.add_argument("--multiplier", required=True, metavar="FILE")
    q.add_argument("-d", type=int, default=2)
    q.add_argument("-R", "--radius", type=int, default=2,
                   help="window ball radius for the lower route")
    q.set_defaults(func=cmd_bracket)

    q = sub.add_parser("fejer", parents=[shared],
                       help="kernel-smoothing convergence sweep")
    q.add_argument("--N-list", dest="n_list", type=_list_of(int, "integer"),
                   required=True)
    q.add_argument("--r-list", dest="r_list", type=_list_of(float, "float"),
                   required=True)
    q.add_argument("-d", type=int, default=2)
    q.add_argument("-C", "--bound", type=float, default=1.0,
                   help="uniform constant the uppers are audited against")
    q.add_argument("--family-radius", type=int, default=3,
                   help="tree ball radius for the free-group route")
    q.set_defaults(func=cmd_fejer)

    q = sub.add_parser("extension", parents=[shared],
                       help="amenable-extension convergence sweep")
    q.add_argument("--k-list", dest="k_list", type=_list_of(int, "integer"),
                   required=True)
    q.add_argument("-d", type=int, default=2)
    q.set_defaults(func=cmd_extension)

    q = sub.add_parser("report", parents=[shared],
                       help="tree-family residual report over a parameter grid")
    q.add_argument("--rank", type=int, default=2)
    q.add_argument("-R", "--radius", type=int, default=4)
    complex_list = _list_of(complex, "complex")
    q.add_argument("--z-list", dest="z_list", type=complex_list,
                   default=complex_list(_DEFAULT_GRID))
    q.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        overrides = {"tol": args.tol, "seed": args.seed}
        cfg = resolve_config(cli_overrides=overrides)
        return args.func(args, cfg)
    except (ValueError, OSError) as exc:  # every mdlab validation error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BallCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
