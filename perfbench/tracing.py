"""Outside-in tracing: wrap mdlab's public functions where callers look them up.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span (-1 at the root) and ``op`` the benchmark op that caused it.
Spans stay in memory and are written once, after the run.  The first part
of a span name is its layer: the mdlab module (groups, schur, multipliers,
families), ``cli`` for the report writers the CLI uses, and ``bench`` for
the harness's own root spans.  Nothing here runs unless a tracer is
installed, and uninstall puts every original function back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np

import mdlab
from mdlab import cli, families, groups, multipliers, schur

LAYERS = ("groups", "schur", "multipliers", "families", "cli")
_SITES = (mdlab, groups, schur, multipliers, families, cli)


def _ball(tr, args, kwargs, ball):
    tr.add("groups.ball_elements", len(ball))


def _gram(tr, args, kwargs, gram):
    tr.add("groups.gram_entries", gram.size)


def _solve(tr, args, kwargs, sol):
    A = np.asarray(args[0] if args else kwargs["A"])
    m, n = A.shape
    if np.iscomplexobj(A) and np.any(A.imag):
        m, n = 2 * m, 2 * n
        tr.add("schur.realified_calls")
    tr.add("schur.schur_norm_calls")
    tr.add("schur.iterations", sol.iterations)
    # the Newton matrix is K x K on the real (or realified) problem
    K = m * (m + 1) // 2 + n * (n + 1) // 2 + 1
    tr.newton_dim_max = max(tr.newton_dim_max, K)


def _nodes(tr, args, kwargs, cert):
    tr.add("multipliers.certificate_nodes", len(cert.xi))


def _bracket(tr, args, kwargs, br):
    if "window-too-large-for-sdp" in br.flags:
        tr.add("multipliers.sdp_skipped")
    if br.lower_provenance == "schur-window-minus-tol":
        tr.add("multipliers.sdp_useful")


# (owner, attribute, span name, result hook).  Module-level functions are
# patched in every mdlab module that imported them, so a call made from the
# CLI, from another module or from the benchmark all land in the wrapper.
FUNCTIONS = (
    (groups, "load_group", "groups.load_group", None),
    (groups, "build_ball", "groups.build_ball", _ball),
    (groups, "gram_matrix", "groups.gram_matrix", _gram),
    (schur, "schur_norm", "schur.schur_norm", _solve),
    (schur, "psd_check", "schur.psd_check", None),
    (multipliers, "compute_bracket", "multipliers.compute_bracket", _bracket),
    (multipliers, "m2_lower_bound", "multipliers.m2_lower_bound", None),
    (multipliers, "circle_quadrature_certificate",
     "multipliers.circle_quadrature_certificate", _nodes),
    (multipliers, "density_quadrature_certificate",
     "multipliers.density_quadrature_certificate", _nodes),
    (families, "fejer_bracket_tree", "families.fejer_bracket_tree", None),
    (families, "averaged_family_bound", "families.averaged_family_bound", None),
    (families, "convergence_report", "families.convergence_report", None),
    (multipliers, "write_brackets_csv", "cli.write_brackets_csv", None),
    (families, "write_convergence_csv", "cli.write_convergence_csv", None),
)
METHODS = (
    (families.TreeFamily, "__init__", "families.tree_family_init"),
    (families.TreeFamily, "point", "families.point"),
    (families.TreeFamilyPoint, "empirical_bound", "families.empirical_bound"),
    (families.TreeFamilyPoint, "run_contract_checks", "families.run_contract_checks"),
)
# Called ~160 times per family point: counted, not timed.
COUNTED = ((families.TreeFamilyPoint, "interior_map", "families.interior_maps"),)


def _kind(op) -> str:
    """Timed ops carry their integer index; set-up and closing steps a name."""
    return "op" if isinstance(op, int) else str(op)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.newton_dim_max = 0
        self._stack: list[int] = []
        self._op = None
        self._patched: list[tuple] = []

    def add(self, name: str, n: int = 1) -> None:
        """Count n units of work under the op running now."""
        self.counts[_kind(self._op)][name] += n

    @contextlib.contextmanager
    def span(self, name: str, op=None):
        """A span around the benchmark's own code; op tags it and its children."""
        outer = self._op
        if op is not None:
            self._op = op
        record = [name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self._op = outer

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return traced

    def _count(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.add(name)
            return fn(*args, **kwargs)
        return counted

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for owner, attr, name, hook in FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            for site in _SITES:
                if site.__dict__.get(attr) is original:
                    self._patch(site, attr, wrapper)
        for cls, attr, name in METHODS:
            self._patch(cls, attr, self._wrap(cls.__dict__[attr], name, None))
        for cls, attr, name in COUNTED:
            self._patch(cls, attr, self._count(cls.__dict__[attr], name))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def totals(self, kind: str):
        """Per span name, over spans of one kind: (total s, self s, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if _kind(op) == kind:
                total[name] += end - start
                own[name] += end - start - child[i]
                calls[name] += 1
        return total, own, calls

    def metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit).

        Times and counts are means per timed op, so they do not grow with
        the number of ops a run fits in; set-up and closing-step metrics
        come from those steps alone.
        """
        total, own, calls = self.totals("op")
        ops = len({op for *_, op in self.spans if _kind(op) == "op"})
        c = self.counts["op"]

        def per_op(x):
            return x / ops if ops else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        layer_self = defaultdict(float)
        for name, seconds in own.items():
            layer_self[name.split(".")[0]] += seconds
        op_s = sum(layer_self.values())
        out = {}
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_s"] = (per_op(layer_self[layer]), "s")
        for layer in LAYERS:
            out[f"{layer}.self_share"] = (ratio(layer_self[layer], op_s), "ratio")
        # window solves inside compute_bracket: the base of sdp_useful_ratio
        solves = sum(1 for name, _, _, parent, op in self.spans
                     if name == "multipliers.m2_lower_bound" and _kind(op) == "op"
                     and parent >= 0 and self.spans[parent][0] == "multipliers.compute_bracket")
        k = self.newton_dim_max
        setup_total = self.totals("setup")[0]
        close_total = self.totals("close")[0]
        out.update({
            "groups.build_ball_s": (per_op(total["groups.build_ball"]), "s"),
            "groups.ball_elements": (per_op(c["groups.ball_elements"]), "count"),
            "groups.load_group_s": (per_op(total["groups.load_group"]), "s"),
            "groups.gram_matrix_s": (per_op(total["groups.gram_matrix"]), "s"),
            "groups.gram_entries": (per_op(c["groups.gram_entries"]), "count"),
            "groups.gram_entries_per_s": (
                ratio(c["groups.gram_entries"], total["groups.gram_matrix"]), "1/s"),
            "schur.schur_norm_s": (per_op(total["schur.schur_norm"]), "s"),
            "schur.schur_norm_calls": (per_op(c["schur.schur_norm_calls"]), "count"),
            "schur.iterations": (per_op(c["schur.iterations"]), "count"),
            "schur.s_per_iteration": (
                ratio(total["schur.schur_norm"], c["schur.iterations"]), "s"),
            "schur.realified_calls": (per_op(c["schur.realified_calls"]), "count"),
            "schur.newton_dim_max": (k, "count"),
            "schur.newton_bytes_computed": (8 * k * k, "B"),
            "schur.psd_check_s": (per_op(total["schur.psd_check"]), "s"),
            "multipliers.compute_bracket_self_s": (
                per_op(own["multipliers.compute_bracket"]), "s"),
            "multipliers.m2_lower_bound_s": (per_op(total["multipliers.m2_lower_bound"]), "s"),
            "multipliers.certificate_build_s": (per_op(
                total["multipliers.circle_quadrature_certificate"]
                + total["multipliers.density_quadrature_certificate"]), "s"),
            "multipliers.certificate_nodes": (per_op(c["multipliers.certificate_nodes"]), "count"),
            "multipliers.sdp_skipped": (per_op(c["multipliers.sdp_skipped"]), "count"),
            "multipliers.sdp_solves": (solves, "count"),
            "multipliers.sdp_useful_ratio": (ratio(c["multipliers.sdp_useful"], solves), "ratio"),
            "families.tree_family_init_s": (setup_total["families.tree_family_init"], "s"),
            "families.point_s": (per_op(total["families.point"]), "s"),
            "families.empirical_bound_s": (per_op(total["families.empirical_bound"]), "s"),
            "families.empirical_bound_calls": (per_op(calls["families.empirical_bound"]), "count"),
            "families.interior_maps": (per_op(c["families.interior_maps"]), "count"),
            "families.averaged_family_bound_s": (
                per_op(total["families.averaged_family_bound"]), "s"),
            "families.fejer_bracket_tree_self_s": (
                per_op(own["families.fejer_bracket_tree"]), "s"),
            "families.convergence_report_s": (close_total["families.convergence_report"], "s"),
            "cli.write_s": (close_total["cli.write_brackets_csv"]
                            + close_total["cli.write_convergence_csv"], "s"),
            "cli.write_bytes": (self.counts["close"]["cli.write_bytes"], "B"),
            "trace.ops": (ops, "count"),
            "trace.spans": (len(self.spans), "count"),
        })
        return out
