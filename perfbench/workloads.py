"""Set-up, one op, and the closing report of each workload.

Everything mdlab does here goes through its public functions, looked up as
module attributes at call time (``groups.build_ball``), in the order the CLI
calls them, so that a tracer installed later sees every call.  Each op
returns (bracket, problems): ``problems`` lists every output check that
failed, and an op with problems counts as failed.  ``close`` writes the
run's reports to files named from the given path prefix and checks them.
"""

from __future__ import annotations

import math
import os

import numpy as np

from mdlab import cli, families, groups, multipliers, schur
from mdlab.multipliers import Multiplier, NormBracket

import inputs as bench_inputs

FOUR_OVER_PI = 4.0 / math.pi


def check_bracket(br: NormBracket) -> list[str]:
    problems = []
    if not math.isfinite(br.lower) or br.lower <= 0.0:
        problems.append(f"{br.phi_id}: lower {br.lower!r} is not a positive number")
    if not br.lower <= br.upper + 1e-9:
        problems.append(f"{br.phi_id}: lower {br.lower!r} > upper {br.upper!r}")
    if "bracket-inverted" in br.flags:
        problems.append(f"{br.phi_id}: flagged bracket-inverted")
    return problems


def write_and_reread(path: str, rows, header_lines) -> tuple[list[str], int]:
    """Write the (pool index, bracket) rows through the CLI's writer, read them back."""
    brackets = [row for _, row in rows]
    name = os.path.basename(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        cli.write_brackets_csv(fh, brackets, header_lines=header_lines)
    with open(path, "r", encoding="utf-8") as fh:
        back = multipliers.read_brackets_csv(fh)
    problems = []
    if len(back) != len(brackets):
        problems.append(f"{name}: {len(back)} rows read back, {len(brackets)} written")
    for row, got in zip(brackets, back):
        for want, have in ((row.lower, got.lower), (row.upper, got.upper)):
            if not (want == have or abs(want - have) <= 1e-11 * max(1.0, abs(want))):
                problems.append(f"{name}: {row.phi_id} reads back {have!r}, wrote {want!r}")
    return problems, os.path.getsize(path)


class ZWindow:
    """Certified order-2 brackets of real multipliers on Z over one window.

    Per op: gram_matrix, m2_lower_bound on it, and the certificate built at
    set-up priced at d=2 -- the path of `mdlab bracket -R 14` and of the
    4/pi acceptance criterion.
    """

    def __init__(self, inputs: dict, cfg):
        self.cfg = cfg
        self.radius = inputs["radius"]
        self.group = groups.load_group({"kind": "zn", "n": 1})
        self.window = groups.build_ball(self.group, self.radius).elements
        self.pool = [self._prepare(item) for item in inputs["pool"]]
        # Warm-up solves use an item every seed has, so that set-up cost
        # does not depend on the order the seed shuffled the pool into.
        phi = next(phi for _, phi, _ in self.pool if phi.name == "ind01")
        multipliers.m2_lower_bound(self.group, phi, self.window, tol=cfg.tol,
                                   max_iter=cfg.max_iter)

    def _prepare(self, item):
        Z = self.group
        if item["kind"] == "fejer":
            N, r = item["N"], item["r"]
            phi = families.fejer_multiplier(Z, N, r)
            Q = max(self.cfg.quad_factor * (N + 1), 16)
            cert = multipliers.density_quadrature_certificate(
                Z, families.fejer_poisson_density(N, r), Q=Q)
        else:
            phi = Multiplier.finite(Z, {(k,): v for k, v in item["support"]},
                                    name=item["name"])
            cert = multipliers.circle_quadrature_certificate(Z, phi)
        return item["kind"], phi, cert

    def op(self, i: int):
        kind, phi, cert = self.pool[i]
        cfg = self.cfg
        G = groups.gram_matrix(self.group, phi, self.window)
        lower, info = multipliers.m2_lower_bound(self.group, phi, self.window,
                                                 tol=cfg.tol, max_iter=cfg.max_iter,
                                                 gram=G)
        upper = multipliers.md_upper_from_certificate(cert, 2)
        br = NormBracket(phi_id=phi.name, d=2, window_radius=self.radius,
                         lower=lower, upper=upper,
                         lower_provenance="schur-window-minus-tol",
                         upper_provenance=cert.provenance(2), flags=cert.flags())
        problems = check_bracket(br)
        # Both the dual certificate and the primal witness bound the norm, so
        # the certified dual value sits below each.  (The solver's value t and
        # the witness price are both upper ends with no fixed order.)
        dual, value, witness = info["dual_lower"], info["schur_value"], info["witness_upper"]
        if not (dual <= value + 1e-12 * value and dual <= witness + 1e-9
                and lower <= witness + 1e-9):
            problems.append(f"{phi.name}: dual {dual!r}, value {value!r}, "
                            f"witness {witness!r}, lower {lower!r} out of order")
        if kind == "fejer" and not (abs(lower - 1.0) <= 1e-5 and abs(upper - 1.0) <= 1e-5):
            problems.append(f"{phi.name}: no pinch at 1: [{lower!r}, {upper!r}]")
        if phi.name == "ind01" and not (abs(upper - FOUR_OVER_PI) <= 1e-4
                                        and lower <= upper + 1e-6):
            problems.append(f"ind01: lower {lower!r} against 4/pi target {upper!r}")
        return br, problems

    def close(self, prefix: str, rows):
        return write_and_reread(prefix + "-brackets.csv", rows,
                                [self.cfg.header_line(), f"# group={self.group.kind}"])


class TreeFamilyWorkload:
    """`mdlab fejer` on F2: fejer_bracket_tree over one TreeFamily(2, R)."""

    def __init__(self, inputs: dict, cfg):
        self.cfg = cfg
        self.N = inputs["N"]
        self.C = inputs["C"]
        self.contract_z = complex(*inputs["contract_z"])
        self.family = families.TreeFamily(inputs["rank"], inputs["radius"])
        self.group = self.family.group
        self.window = groups.build_ball(self.group, cfg.window_radius)
        self.pool = [item["r"] for item in inputs["pool"]]
        self.phis: dict = {}
        warm = families.fejer_multiplier(self.group, self.N, min(self.pool))
        multipliers.compute_bracket(self.group, warm, 2, groups.build_ball(self.group, 2),
                                    sdp_tol=cfg.tol, sdp_max_iter=cfg.max_iter)

    def op(self, i: int):
        cfg = self.cfg
        phi, br = families.fejer_bracket_tree(self.family, self.N, self.pool[i], 2,
                                              quad_factor=cfg.quad_factor,
                                              sdp_tol=cfg.tol, sdp_max_iter=cfg.max_iter)
        self.phis[i] = phi
        problems = check_bracket(br)
        # phi(e) = 1, and the averaged family bound starts every point at 1
        if br.lower < 1.0 - 1e-9 or br.upper < 1.0 - 1e-12:
            problems.append(f"{br.phi_id}: [{br.lower!r}, {br.upper!r}] below phi(e) = 1")
        if "empirical" not in br.flags:
            problems.append(f"{br.phi_id}: family upper not flagged empirical")
        return br, problems

    def close(self, prefix: str, rows):
        """Convergence report and CSV over the pool, plus the family contract."""
        cfg = self.cfg
        pairs = [(self.phis[i], row) for i, row in rows]
        labels = [(self.N, self.pool[i]) for i, _ in rows]
        report = families.convergence_report(
            self.group, 2, pairs, labels, C=self.C, window_radius=cfg.window_radius,
            success_residual=cfg.success_residual, ball=self.window)
        path = prefix + "-convergence.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            cli.write_convergence_csv(fh, report, header_lines=[
                cfg.header_line(), f"# group={self.group.kind}"])
        problems = []
        if [(r.lower, r.upper) for r in report.rows] != [(b.lower, b.upper) for _, b in rows]:
            problems.append("convergence report rows differ from the brackets")
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.count("\n") != 8 + len(rows) or "# result=" not in text:
            problems.append(f"convergence CSV malformed ({text.count(chr(10))} lines)")
        try:
            self.family.point(self.contract_z, check=False).run_contract_checks()
        except families.FamilyError as exc:
            problems.append(f"contract at z={self.contract_z}: {exc}")
        return problems, os.path.getsize(path)


class GroupWindows:
    """Window Grams and small complex brackets on five groups, cold caches.

    Per op: a fresh realization from its description, a ball of 150-500
    elements, the Gram of the radial multiplier r^|x| over it (audited PSD
    on Z^2 and F2, where Haagerup's theorem says it is), and a complex
    finite-multiplier bracket on the radius-1 ball, with a circle
    quadrature certificate on Z^2.
    """

    def __init__(self, inputs: dict, cfg):
        self.cfg = cfg
        table, gens = bench_inputs.sl2_mod_p(7)
        self.descs = {name: desc for name, desc, *_ in bench_inputs.GROUP_WINDOWS}
        self.descs["sl2f7"] = {"kind": "finite", "table": table, "generators": gens}
        self.pool = inputs["pool"]
        item = next(item for item in self.pool if item["group"] == "zn2")
        g = groups.load_group(self.descs[item["group"]])
        ball1 = groups.build_ball(g, 1)
        multipliers.compute_bracket(g, self._ball1_multiplier(g, ball1, item), 2, ball1,
                                    sdp_tol=cfg.tol, sdp_max_iter=cfg.max_iter)

    @staticmethod
    def _ball1_multiplier(g, ball1, item):
        values = {x: complex(*v) for x, v in zip(ball1.elements, item["ball1_values"])}
        return Multiplier.finite(g, values, name=f"{item['group']}-ball1")

    def op(self, i: int):
        item = self.pool[i]
        cfg = self.cfg
        g = groups.load_group(self.descs[item["group"]])
        R = item["radius"]
        ball = groups.build_ball(g, R, cap=cfg.ball_cap)
        r = item["r"]
        radial = Multiplier.radial(g, [r ** k for k in range(2 * R + 1)],
                                   name=f"{item['group']}-radial")
        G = groups.gram_matrix(g, radial, ball.elements)
        problems = []
        name = item["group"]
        if item["size"] is not None and len(ball) != item["size"]:
            problems.append(f"{name}: ball of {len(ball)} elements, expected {item['size']}")
        if (len(set(ball.elements)) != len(ball) or sum(ball.sphere_sizes) != len(ball)
                or ball.lengths != sorted(ball.lengths)):
            problems.append(f"{name}: ball enumeration is not a sorted set of spheres")
        if not (np.array_equal(G, G.T) and np.all(np.diagonal(G) == 1.0)):
            problems.append(f"{name}: radial Gram not symmetric with unit diagonal")
        if item["psd_theorem"]:
            ok, lam = schur.psd_check(G)
            if not ok:
                problems.append(f"{name}: Gram of r^|x| has eigenvalue {lam!r}")
        ball1 = groups.build_ball(g, 1)
        phi = self._ball1_multiplier(g, ball1, item)
        cert = (multipliers.circle_quadrature_certificate(g, phi)
                if item["group"] == "zn2" else None)
        br = multipliers.compute_bracket(g, phi, 2, ball1, certificate=cert,
                                         sdp_tol=cfg.tol, sdp_max_iter=cfg.max_iter)
        problems += check_bracket(br)
        if br.lower < phi.sup_abs() - 1e-12:
            problems.append(f"{name}: lower {br.lower!r} below sup |phi|")
        if (cert is None) != math.isinf(br.upper):
            problems.append(f"{name}: upper {br.upper!r} does not match its certificate")
        return br, problems

    def close(self, prefix: str, rows):
        return write_and_reread(prefix + "-brackets.csv", rows,
                                [self.cfg.header_line(), "# group=mixed"])


WORKLOADS = {
    "z-window": ZWindow,
    "tree-family": TreeFamilyWorkload,
    "group-windows": GroupWindows,
}
