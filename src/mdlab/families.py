"""Radial coefficient families, Fejer smoothing, and tree operator families.

Three layers build on each other here.  The scalar family z^length turns
into finitely supported radial multipliers by averaging against the Fejer
kernel on the parameter circle; the closed form (1 - l/(N+1)) r^l is cross
checked against the defining quadrature.  Averaging is also the bound
aggregator: nonnegative kernel weights turn per-parameter norm bounds into
a bound for the averaged multiplier.

The third layer realizes the coefficient family concretely on a free
group.  Feature vectors indexed by the radius-R ball (one prefix chain per
element) conjugate the index shift of left multiplication into operators
pi_z(s) whose matrix coefficient at the basepoint reproduces z^length
exactly for words that fit in the ball.  Truncation is quarantined, not
hidden: overflow columns on the outer sphere are rerouted to the unreached
outer-sphere rows, every check restricts itself to an interior margin, and
the construction ships with its own contract checks (coefficient
reproduction, orthogonality at real parameters, a Cauchy-Riemann
difference-quotient test) plus an empirical operator-norm sweep that is
reported as a sample, never as a certified norm.  The sweep takes the ball
words one length class at a time and all its parameters (the quadrature
nodes of an averaged bound) together: the sparsity layout of a chunk of
words is built once, each parameter only fills in its values, and the
interior-restricted operators of every (parameter, word) pair become the
blocks of one block-diagonal sparse matrix of at most CHUNK_NNZ unsummed
entries, counted over parameters times words.  Power iteration runs on all
blocks in lockstep.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from mdlab.config import fmt
from mdlab.groups import Ball, BallCapError, FreeGroup, GroupRealization, ZnGroup, build_ball
from mdlab.multipliers import (
    GRID_NODE_CAP,
    Multiplier,
    MultiplierError,
    compute_bracket,
    density_quadrature_certificate,
)

__all__ = [
    "FamilyError",
    "power_coefficient",
    "radial_power",
    "fejer_kernel_coeff",
    "fejer_kernel_value",
    "fejer_nodes",
    "fejer_multiplier",
    "fejer_poisson_density",
    "fejer_bracket",
    "DUST",
    "quadrature_average",
    "averaged_bound",
    "TreeFamily",
    "TreeFamilyPoint",
    "averaged_family_bound",
    "fejer_bracket_tree",
    "family_report",
    "write_family_report",
    "ConvergenceRow",
    "ConvergenceReport",
    "convergence_report",
    "write_convergence_csv",
]


class FamilyError(ValueError):
    """A family construction failed validation or its own contract checks."""


# ---------------------------------------------------------------------------
# radial coefficient families
# ---------------------------------------------------------------------------

def _in_disk(z) -> complex:
    """complex(z) if it lies in the open unit disk, else FamilyError (NaN too)."""
    z = complex(z)
    if not abs(z) < 1.0:
        raise FamilyError(f"parameter must satisfy |z| < 1, got |z| = {abs(z)}")
    return z


def power_coefficient(z: complex, length: int) -> complex:
    """z**length with the 0**0 = 1 convention, so the identity always gets 1."""
    if length < 0:
        raise FamilyError(f"length must be >= 0, got {length}")
    if length == 0:
        return complex(1.0)
    return complex(z) ** length


def radial_power(group: GroupRealization, z: complex, max_len: int) -> Multiplier:
    """The radial multiplier t -> z^length(t), materialized up to max_len."""
    z = _in_disk(z)
    coeffs = [power_coefficient(z, ell) for ell in range(max_len + 1)]
    return Multiplier.radial(group, coeffs, name=f"power-{z:.6g}")


# ---------------------------------------------------------------------------
# Fejer kernel and smoothing
# ---------------------------------------------------------------------------

def _check_kernel(N: int, r: float | None = None) -> None:
    """FamilyError unless the degree N >= 0 and, when given, 0 < r < 1."""
    if N < 0:
        raise FamilyError(f"kernel degree must be >= 0, got {N}")
    if r is not None and not 0.0 < r < 1.0:
        raise FamilyError(f"radius must lie in (0, 1), got {r}")


def fejer_kernel_coeff(N: int, n: int) -> float:
    """Fourier coefficient of the degree-N Fejer kernel: max(0, 1 - |n|/(N+1))."""
    _check_kernel(N)
    return max(0.0, 1.0 - abs(n) / (N + 1))


def fejer_kernel_value(N: int, theta) -> np.ndarray:
    """Kernel values (sin((N+1)t/2) / sin(t/2))^2 / (N+1), vectorized.

    The closed form is a square, so the output is nonnegative by
    construction; the removable singularity at t = 0 (mod 2pi) takes the
    limit value N+1.
    """
    _check_kernel(N)
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    M = N + 1
    s = np.sin(0.5 * th)
    out = np.full(th.shape, float(M))
    reg = s != 0.0
    ratio = np.sin(M * 0.5 * th[reg]) / s[reg]
    out[reg] = ratio * ratio / M
    return out


def fejer_nodes(N: int, quad_factor: int = 4):
    """Uniform circle nodes and Fejer weights w_q = F_N(theta_q)/Q.

    Q = quad_factor*(N+1) nodes make the trapezoid rule exact for
    trigonometric polynomials of degree <= Q-1, which covers every product
    F_N(theta) e^(i l theta) with l <= N and then some.  The weights are
    nonnegative and sum to 1 exactly (the aliases of the unit mass vanish).
    """
    _check_kernel(N)
    if quad_factor < 4:
        raise FamilyError(f"need at least 4(N+1) quadrature nodes, got factor {quad_factor}")
    Q = quad_factor * (N + 1)
    thetas = 2.0 * math.pi * np.arange(Q) / Q
    weights = fejer_kernel_value(N, thetas) / Q
    return thetas, weights


def fejer_multiplier(group: GroupRealization, N: int, r: float) -> Multiplier:
    """Closed form of the kernel-smoothed radial family: (1 - l/(N+1)) r^l.

    Radial, supported on lengths 0..N.  This is what averaging the family
    z^length over z = r e^(i theta) against the Fejer kernel produces; the
    identity is tested, not assumed (see quadrature_average).
    """
    _check_kernel(N, r)
    coeffs = [fejer_kernel_coeff(N, ell) * r ** ell for ell in range(N + 1)]
    return Multiplier.radial(group, coeffs, name=f"fejer-N{N}-r{r:.6g}")


def fejer_poisson_density(N: int, r: float) -> Callable:
    """Circle density of the smoothed family on Z: the kernel-Poisson convolution.

    Evaluates sum over |m| <= N of (1 - |m|/(N+1)) r^|m| e^(i m theta)
    through the geometric closed form, O(1) per node for any N.  As a
    convolution of two nonnegative kernels the density is >= 0, which is
    what makes the quadrature certificate route work; its mean recovers
    the coefficient at 0, namely 1.
    """
    _check_kernel(N, r)
    M = N + 1

    def density(thetas) -> np.ndarray:
        th = np.asarray(thetas, dtype=float)
        if th.ndim == 2:
            if th.shape[1] != 1:
                raise MultiplierError("the kernel-Poisson density lives on one circle")
            th = th[:, 0]
        x = r * np.exp(1j * th)
        # sum_{m=0..N} (1 - m/M) x^m = (M - (M+1) x + x^(M+1)) / (M (1-x)^2)
        s = (M - (M + 1) * x + x ** (M + 1)) / (M * (1.0 - x) ** 2)
        return 2.0 * s.real - 1.0

    return density


def fejer_bracket(group: ZnGroup, N: int, r: float, d: int, ball: Ball, *,
                  quad_factor: int = 4, sdp_tol: float = 1e-8,
                  sdp_max_iter: int = 100):
    """Multiplier plus norm bracket on Z, upper bound from the circle density.

    The density is nonnegative, so its balanced quadrature split certifies
    upper = quadrature mean = 1 up to float summation, at every order d.
    Returns (multiplier, bracket).
    """
    if not (isinstance(group, ZnGroup) and group.n == 1):
        raise MultiplierError("the density certificate route needs the group Z")
    # the certificate checks the grid cap before the N + 1 coefficients exist
    Q = max(quad_factor * (N + 1), 16)
    cert = density_quadrature_certificate(group, fejer_poisson_density(N, r), Q=Q)
    phi = fejer_multiplier(group, N, r)
    bracket = compute_bracket(group, phi, d, ball, certificate=cert,
                              sdp_tol=sdp_tol, sdp_max_iter=sdp_max_iter)
    return phi, bracket


# ---------------------------------------------------------------------------
# quadrature averaging
# ---------------------------------------------------------------------------

# averaged values with modulus below this are floating-point dust
DUST = 1e-14


def quadrature_average(samples: Sequence[Multiplier], weights):
    """Pointwise weighted average of a grid of multipliers.

    All samples must share a kind (finite or radial).  Averaged values with
    modulus below DUST are dropped; the dropped mass is returned alongside
    the result as (multiplier, dropped_mass).
    """
    samples = list(samples)
    w = np.asarray(weights, dtype=float)
    if len(samples) != w.shape[0] or w.ndim != 1:
        raise MultiplierError(
            f"{len(samples)} samples need as many weights, got shape {w.shape}")
    if not samples:
        raise MultiplierError("cannot average an empty sample grid")
    name = f"avg-{samples[0].name}"
    kinds = {s.kind for s in samples}
    if kinds == {"radial"}:
        length = max(len(s.coeffs) for s in samples)
        acc = np.zeros(length, dtype=complex)
        for wq, s in zip(w, samples):
            c = np.asarray(s.coeffs, dtype=complex)
            acc[:c.shape[0]] += wq * c
        small = np.abs(acc) < DUST
        dropped = float(np.abs(acc[small]).sum())
        acc[small] = 0.0
        nz = np.nonzero(acc)[0]
        coeffs = list(acc[:nz[-1] + 1]) if nz.size else []
        avg = Multiplier.radial(samples[0].group, coeffs, name=name)
        return avg, dropped
    if kinds == {"finite"}:
        acc_map: dict = {}
        for wq, s in zip(w, samples):
            for t, v in s.support_items():
                acc_map[t] = acc_map.get(t, 0j) + wq * v
        dropped = sum(abs(v) for v in acc_map.values() if abs(v) < DUST)
        support = {t: v for t, v in acc_map.items() if abs(v) >= DUST}
        avg = Multiplier.finite(samples[0].group, support, name=name)
        return avg, float(dropped)
    raise MultiplierError(f"averaging needs uniform finite or radial samples, got kinds {sorted(kinds)}")


def averaged_bound(weights, bounds) -> float:
    """Norm bound for a weighted average: sum of w_q * b_q, weights >= 0.

    Valid because norm balls are convex; a negative weight would break the
    argument, so it is rejected.
    """
    w = np.asarray(weights, dtype=float)
    b = np.asarray(bounds, dtype=float)
    if w.shape != b.shape or w.ndim != 1:
        raise MultiplierError(f"weights {w.shape} and bounds {b.shape} must match")
    if w.size and w.min() < 0.0:
        raise MultiplierError(f"averaged bounds need nonnegative weights, got {w.min()}")
    return float(w @ b)


# ---------------------------------------------------------------------------
# tree operator family
# ---------------------------------------------------------------------------

# power iteration in the empirical sweep: step cap and relative stopping rule
POWER_ITERS = 60
POWER_RTOL = 1e-13
# largest number of (unsummed) entries one block-diagonal sweep operator
# holds, counted over parameters times words
CHUNK_NNZ = 1 << 17
# largest dense complex array (rows times columns) a contract residual
# builds, 4 GiB: coefficient_residual on F2 holds 172M entries at R = 9 and
# 1.55G at R = 10
DENSE_CHECK_CAP = 1 << 28


def _check_dense(rows: int, cols: int, what: str) -> None:
    """BallCapError before a rows x cols dense array past DENSE_CHECK_CAP."""
    if rows * cols > DENSE_CHECK_CAP:
        raise BallCapError(f"{what}: dense {rows} x {cols} array exceeds the cap of "
                           f"{DENSE_CHECK_CAP} entries")


class _SweepLayout(NamedTuple):
    """z-independent CSR structure of one word range's sweep operator M.

    At the parameter with values (vals, inv) = TreeFamily._values(z), slot k
    of M holds vals[pos[k]] * inv[kind[k]], plus vals[pos2[i]] * inv[kind2[i]]
    for the i-th slot k = two[i] that sums two entries.
    """

    entries: int            # unsummed entries, the unit CHUNK_NNZ counts
    words: int
    cols: int
    rows: int
    pos: np.ndarray
    kind: np.ndarray
    two: np.ndarray
    pos2: np.ndarray
    kind2: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray


class TreeFamily:
    """Shared combinatorics for one free group and one ball radius.

    Everything independent of the parameter z is tabulated once: prefix
    chains of every ball element (the sparsity pattern of the feature
    matrix V, stored column by column), the parent links its inverse needs,
    for each generator the index map of left multiplication with the
    outer-sphere rerouting already matched up, and for every ball word t
    the index map x -> index[t.x] over its interior columns together with
    the chunks the empirical sweep splits each length class into.  Points
    of the family, and the shifted evaluations the difference-quotient
    checks need, then cost one sparse refill each; the empirical sweep
    (empirical_bounds) runs on many parameters at once and builds no point.
    """

    def __init__(self, rank: int = 2, radius: int = 6, *, cap: int = 500_000):
        if radius < 3:
            raise FamilyError(f"ball radius must be >= 3 for the interior checks, got {radius}")
        if not 1 <= rank <= 26:
            raise FamilyError(f"free rank must be in 1..26, got {rank}")
        self.group = FreeGroup(rank)
        self.ball = build_ball(self.group, radius, cap=cap)
        self.radius = radius
        # the Cauchy-Riemann probe: the first length-3 word, whose coefficient
        # z^3 has third derivative 6, away from zero
        self.cr_probe = self.ball.sphere(3)[0]
        n = len(self.ball)
        index = self.ball.index
        elements = self.ball.elements

        # V pattern: column x holds z^len(x) at the basepoint row plus
        # c * z^(len(x)-i) at each proper prefix row (c = sqrt(1 - z^2)).
        rows, cols, exps, base = [], [], [], []
        parent = np.zeros(n, dtype=np.intp)
        for j, x in enumerate(elements):
            rows.append(0)
            cols.append(j)
            exps.append(len(x))
            base.append(True)
            for i in range(1, len(x) + 1):
                rows.append(index[x[:i]])
                cols.append(j)
                exps.append(len(x) - i)
                base.append(False)
            if x:
                parent[j] = index[x[:-1]]
        self._v_rows = np.asarray(rows, dtype=np.intp)
        self._v_cols = np.asarray(cols, dtype=np.intp)
        self._v_exps = np.asarray(exps, dtype=np.intp)
        self._v_base = np.asarray(base, dtype=bool)
        self._parent = parent

        # inverse pattern: delta_x = (v_x - z v_parent(x)) / c, column e is e_0
        self._iv_rows = np.concatenate([[0], np.stack([np.arange(1, n), parent[1:]], axis=1).ravel()])
        self._iv_cols = np.concatenate([[0], np.repeat(np.arange(1, n), 2)])
        # 0: literal 1, 1: 1/c, 2: -z/c
        self._iv_kind = np.concatenate([[0], np.tile([1, 2], n - 1)])

        # left-multiplication index maps, overflow columns rerouted to the
        # unreached rows (both live on the outer sphere; sorted order pairs them)
        self._perm: dict = {}
        for s in self.group.generators():
            img = np.empty(n, dtype=np.intp)
            for j, x in enumerate(elements):
                img[j] = index.get(self.group.multiply(s, x), -1)
            out_cols = np.nonzero(img < 0)[0]
            unhit = np.setdiff1d(np.arange(n), img[img >= 0], assume_unique=False)
            assert out_cols.shape == unhit.shape
            assert all(self.ball.lengths[j] == radius for j in out_cols)
            img[out_cols] = unhit
            self._perm[s] = img

        # _shift[l][k, j] = index[t.x_j] for the k-th word t of length l and
        # x_j of depth <= radius - l.  t.x = s.(t'.x) for t = s t' never
        # leaves the ball, so chaining the generator maps meets no rerouting.
        starts = self.ball.starts
        self._shift = [np.arange(n, dtype=np.intp)[None, :]]
        for ell in range(1, radius + 1):
            words = self.ball.sphere(ell)
            m = starts[radius - ell + 1]
            heads = np.fromiter((t[0] for t in words), dtype=np.intp, count=len(words))
            tails = np.fromiter((index[t[1:]] for t in words), dtype=np.intp,
                                count=len(words)) - starts[ell - 1]
            prev = self._shift[ell - 1][:, :m]
            table = np.empty((len(words), m), dtype=np.intp)
            for (s,), img in self._perm.items():
                rows = np.nonzero(heads == s)[0]
                table[rows] = img[prev[tails[rows]]]
            self._shift.append(table)

        # V's column pointers, and per length class the word ranges whose
        # sweep operators hold at most CHUNK_NNZ entries before summation
        col_len = np.asarray(self.ball.lengths, dtype=np.intp) + 1
        self._v_ptr = np.concatenate([[0], np.cumsum(col_len)])
        self._chunks = []
        for P in self._shift:
            per_word = np.cumsum(col_len[P].sum(axis=1)
                                 + col_len[P[:, parent[1:P.shape[1]]]].sum(axis=1))
            bounds = [0]
            while bounds[-1] < P.shape[0]:
                lo = bounds[-1]
                base = per_word[lo - 1] if lo else 0
                hi = int(np.searchsorted(per_word, base + CHUNK_NNZ, side="right"))
                bounds.append(max(hi, lo + 1))
            self._chunks.append(bounds)

    # -- per-parameter matrices ------------------------------------------------

    def _values(self, z: complex):
        """V's entries at z in pattern (column-major) order, and the inverse's
        value table [1, 1/c, -z/c] with c = sqrt(1 - z^2).  Column x of V
        starts (at _v_ptr[x]) with its basepoint entry z^len(x)."""
        z = _in_disk(z)
        c = cmath.sqrt(1.0 - z * z)
        zpow = np.array([power_coefficient(z, k) for k in range(self.radius + 1)])
        vals = np.where(self._v_base, zpow[self._v_exps], c * zpow[self._v_exps])
        return vals, np.array([1.0, 1.0 / c, -z / c], dtype=complex)

    def _pair(self, vals: np.ndarray, table: np.ndarray):
        """Sparse (V, V^-1) from _values(z); both are exact by pattern."""
        n = len(self.ball)
        V = sp.csr_matrix((vals, (self._v_rows, self._v_cols)), shape=(n, n))
        Vinv = sp.csc_matrix((table[self._iv_kind], (self._iv_rows, self._iv_cols)),
                             shape=(n, n))
        return V, Vinv

    def point(self, z: complex, *, check: bool = True) -> "TreeFamilyPoint":
        pt = TreeFamilyPoint(self, complex(z))
        if check:
            pt.run_contract_checks()
        return pt

    # -- empirical operator-norm sweep -----------------------------------------

    def _pattern(self, ell: int, lo: int, hi: int):
        """The z-independent part of the unsummed COO entries of pi_z(t) on the
        interior columns, for the words lo..hi-1 of length ell: (word, row,
        column, position in V's value array, kind of the V^-1 weight).

        Column j is (v_{t.x_j} - z v_{t.parent(x_j)}) / c and column 0 is
        v_t: V times the shifted columns of V^-1, read straight from V's
        columns.  An entry's value at z is vals[pos] * inv[kind] with
        (vals, inv) = _values(z); equal (row, column) pairs add up to the
        matrix entry.
        """
        P = self._shift[ell][lo:hi]
        K, m = P.shape
        # per word 2m - 1 columns of V: t.x_j for every j, then
        # t.parent(x_j) for j >= 1, each with its entry of V^-1
        src = np.concatenate([P, P[:, self._parent[1:m]]], axis=1).ravel()
        word = np.repeat(np.arange(K), 2 * m - 1)
        col = np.tile(np.concatenate([np.arange(m), np.arange(1, m)]), K)
        kind = np.tile(np.repeat([0, 1, 2], [1, m - 1, m - 1]), K)
        # V's column a holds the entries ptr[a] .. ptr[a+1]-1
        start = self._v_ptr[src]
        size = self._v_ptr[src + 1] - start
        pos = np.repeat(start - (np.cumsum(size) - size), size) + np.arange(int(size.sum()))
        return (np.repeat(word, size), self._v_rows[pos], np.repeat(col, size), pos,
                np.repeat(kind, size))

    def _layout(self, ell: int, lo: int, hi: int) -> _SweepLayout:
        """CSR layout of the block-diagonal sweep operator for the words
        lo..hi-1 of length ell, shared by every parameter.

        Rows are compressed to those each word reaches.  A (row, column)
        slot sums the entries of the two V columns t.x_j and t.parent(x_j),
        so at most two; since a + b == b + a in floating point, adding the
        pair in either order gives the value a COO -> CSR conversion would.
        """
        word, rows, cols, pos, kind = self._pattern(ell, lo, hi)
        K = hi - lo
        m = self._shift[ell].shape[1]
        # one sort by (word, row, column) orders the slots as M's CSR does
        reach = word * len(self.ball) + rows
        key = reach * m + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        count = np.diff(np.append(starts, key.size))
        assert count.max() <= 2
        two = np.flatnonzero(count == 2)
        first, second = order[starts], order[starts[two] + 1]
        slot_reach = reach[first]
        new_row = np.concatenate([[True], slot_reach[1:] != slot_reach[:-1]])
        indptr = np.append(np.flatnonzero(new_row), first.size)
        return _SweepLayout(
            entries=word.size, words=K, cols=m, rows=indptr.size - 1,
            pos=pos[first], kind=kind[first], two=two,
            pos2=pos[second], kind2=kind[second],
            indptr=indptr, indices=word[first] * m + cols[first])

    def _lower_norms(self, layout: _SweepLayout, vals: np.ndarray,
                     inv: np.ndarray) -> np.ndarray:
        """Largest singular values from below, by power iteration on M*M, of
        the interior maps of one word range at several parameters.

        vals and inv stack _values(z) for g parameters; the result has shape
        (g, words).  The g * words maps are the diagonal blocks of one
        sparse operator, the parameters' blocks side by side.  Every block
        keeps its own iteration: the fixed real start vector (deterministic,
        and conjugate data gives bit-identical values), its own stopping
        rule and the shared POWER_ITERS cap; a block that has stopped keeps
        its value while the others go on.
        """
        g = vals.shape[0]
        K, m, nrows = layout.words, layout.cols, layout.rows
        data = vals[:, layout.pos] * inv[:, layout.kind]
        data[:, layout.two] += vals[:, layout.pos2] * inv[:, layout.kind2]
        nnz = data.shape[1]
        off = np.arange(g)[:, None]
        M = sp.csr_matrix(
            (data.ravel(), (layout.indices + off * (K * m)).ravel(),
             np.append((layout.indptr[:-1] + off * nnz).ravel(), g * nnz)),
            shape=(g * nrows, g * K * m))
        Mh = M.conj().T
        blocks = g * K
        x = np.full(blocks * m, 1.0 / math.sqrt(m))
        lam = np.zeros(blocks)
        live = np.ones(blocks, dtype=bool)
        for _ in range(POWER_ITERS):
            y = (Mh @ (M @ x)).reshape(blocks, m)
            new = np.sqrt((y.real * y.real).sum(axis=1) + (y.imag * y.imag).sum(axis=1))
            stop = (new == 0.0) | (np.abs(new - lam) <= POWER_RTOL * np.maximum(new, 1.0))
            lam = np.where(live, new, lam)
            live &= ~stop
            if not live.any():
                break
            x = (y / np.where(new == 0.0, 1.0, new)[:, None]).ravel()
        return np.sqrt(lam).reshape(g, K)

    def empirical_bounds(self, zs) -> np.ndarray:
        """max(1, max over ball words t of the interior-restricted norm of
        pi_z(t)), for every parameter z in zs.

        A lower sample of the operator-norm supremum (power iteration
        underestimates, restriction discards columns), reported as
        empirical evidence only.  Exactly 1 at real parameters, where the
        restricted columns are orthonormal.  The words of one length run
        together, chunk by chunk: each chunk's layout is built once and
        every parameter adds only its values, as many parameters to one
        operator as keep it within CHUNK_NNZ unsummed entries.
        """
        tables = [self._values(z) for z in zs]
        best = np.ones(len(tables))
        if not tables:
            return best
        vals = np.stack([v for v, _ in tables])
        inv = np.stack([w for _, w in tables])
        for ell in range(1, self.radius + 1):
            bounds = self._chunks[ell]
            for lo, hi in zip(bounds, bounds[1:]):
                layout = self._layout(ell, lo, hi)
                step = max(1, CHUNK_NNZ // layout.entries)
                for a in range(0, len(tables), step):
                    norms = self._lower_norms(layout, vals[a:a + step], inv[a:a + step])
                    best[a:a + step] = np.maximum(best[a:a + step], norms.max(axis=1))
        return best

    def coefficient_path(self, z: complex, t) -> complex:
        """Basepoint coefficient of the word t at parameter z, light route.

        Rebuilds only the two sparse factors and walks the letters of t with
        matrix-vector products; exact for len(t) <= radius because no
        intermediate index ever reaches a rerouted column.
        """
        self.group.validate(t)
        if len(t) > self.radius:
            raise FamilyError(f"word of length {len(t)} does not fit in radius {self.radius}")
        V, Vinv = self._pair(*self._values(z))
        n = len(self.ball)
        w = np.zeros(n, dtype=complex)
        w[0] = 1.0
        for letter in reversed(t):
            u = Vinv @ w
            shuffled = np.zeros(n, dtype=complex)
            shuffled[self._perm[(letter,)]] = u
            w = V @ shuffled
        return complex(w[0])

    def holomorphy_residual(self, t, z0: complex, h: float) -> float:
        """Cauchy-Riemann defect of z -> coefficient(t) by central differences.

        For an analytic coefficient the defect is h^2 |f'''| / 6 + O(h^4),
        so halving h divides it by about 4; words of length >= 3 keep the
        third derivative away from zero.
        """
        z0 = complex(z0)
        if h <= 0:
            raise FamilyError(f"step must be positive, got {h}")
        for w in (z0 + h, z0 - h, z0 + 1j * h, z0 - 1j * h):
            _in_disk(w)
        f = lambda w: self.coefficient_path(w, t)
        fx = (f(z0 + h) - f(z0 - h)) / (2.0 * h)
        dy = (f(z0 + 1j * h) - f(z0 - 1j * h)) / (2.0 * h)
        return abs(0.5 * (fx + 1j * dy))

    def cr_ratio(self, t, z0: complex, h: float = 1e-3) -> float:
        """residual(h) / residual(h/2); about 4 when the coefficient is analytic."""
        num = self.holomorphy_residual(t, z0, h)
        den = self.holomorphy_residual(t, z0, h / 2.0)
        if den == 0.0:
            return math.inf
        return num / den


class TreeFamilyPoint:
    """Operators pi_z(s) = V P_s V^-1 on the ball basis at one parameter z.

    V's columns are the prefix feature vectors, P_s the rerouted index map
    of left multiplication.  Claims are interior-restricted: test words and
    column ranges of length <= radius - margin never touch the rerouting,
    so coefficient and orthogonality residuals are float noise, not model
    error.  The empirical bound is a sample from below of the true
    operator-norm supremum, nothing more.
    """

    margin = 2

    def __init__(self, family: TreeFamily, z: complex):
        self.family = family
        self.z = complex(z)
        self.radius = family.radius
        self._vals, self._inv = family._values(z)
        self.V, self.Vinv = family._pair(self._vals, self._inv)
        self._pi_cache: dict = {}
        self._bound: float | None = None

    # -- basic operators -------------------------------------------------------

    def pi_matrix(self, s) -> sp.csr_matrix:
        """Generator operator as a sparse matrix (built once, then cached)."""
        if s not in self._pi_cache:
            if s not in self.family._perm:
                raise FamilyError(f"{s!r} is not a generator")
            perm = self.family._perm[s]
            A = self.Vinv.tocoo()
            shifted = sp.csr_matrix((A.data, (perm[A.row], A.col)), shape=A.shape)
            self._pi_cache[s] = (self.V @ shifted).tocsr()
        return self._pi_cache[s]

    def coefficient(self, t) -> complex:
        """Basepoint matrix coefficient of the word t (TreeFamily.coefficient_path)."""
        return self.family.coefficient_path(self.z, t)

    def _interior_count(self, depth: int) -> int:
        return self.family.ball.starts[max(depth, 0) + 1]

    # -- contract residuals ----------------------------------------------------

    def coefficient_residual(self) -> float:
        """max |coefficient(t) - z^len(t)| over the whole interior ball.

        Walks the ball breadth-first so each element costs one sparse
        matvec on top of its parent suffix; exercises the actual generator
        matrices rather than the formula they came from.
        """
        ball = self.family.ball
        m = self._interior_count(self.radius - self.margin)
        n = len(ball)
        _check_dense(m, n, "coefficient residual")
        W = np.zeros((m, n), dtype=complex)
        W[0, 0] = 1.0
        # V's basepoint entries: z^len(x_j) from the family's one power table
        want = self._vals[self.family._v_ptr[:m]]
        worst = 0.0
        for j in range(1, m):
            x = ball.elements[j]
            head = self.pi_matrix((x[0],))
            W[j] = head @ W[ball.index[x[1:]]]
            worst = max(worst, abs(W[j, 0] - want[j]))
        return worst

    def unitarity_residual(self) -> float:
        """max over generators of ||(pi(s)* pi(s) - I)|_interior||_F.

        Zero in exact arithmetic at real parameters (the feature vectors
        are then a genuine orthogonal family); the Frobenius norm dominates
        the operator norm, erring conservative.  At non-real z the value is
        reported but means nothing: the operators are not unitary there.
        """
        m = self._interior_count(self.radius - self.margin)
        _check_dense(m, m, "unitarity residual")
        worst = 0.0
        eye = sp.identity(m, dtype=complex, format="csr")
        for s in self.family.group.generators():
            Q = self.pi_matrix(s)[:, :m]
            G = (Q.conj().T @ Q - eye).toarray()
            worst = max(worst, float(np.linalg.norm(G, "fro")))
        return worst

    def interior_map(self, t) -> sp.csr_matrix:
        """pi_z(t) restricted to columns of depth <= radius - len(t), built direct.

        The restriction keeps every needed image inside the ball, so the
        matrix equals the untruncated operator on those columns; no product
        of generator matrices (and none of their rerouting) is involved.
        The index map x -> index[t.x] comes from the family's table.
        """
        self.family.group.validate(t)
        ell = len(t)
        if ell > self.radius:
            raise FamilyError(f"word of length {ell} does not fit in radius {self.radius}")
        ball = self.family.ball
        k = ball.index[t] - ball.starts[ell]
        _, rows, cols, pos, kind = self.family._pattern(ell, k, k + 1)
        m = self._interior_count(self.radius - ell)
        return sp.csr_matrix((self._vals[pos] * self._inv[kind], (rows, cols)),
                             shape=(len(ball), m))

    def product_defect(self, s, t) -> float:
        """||pi(s) pi(t) - pi(st)|| on columns deep enough for both routes.

        Frobenius norm of the difference between the chained product and
        the directly built operator; float noise when the construction is
        consistent.
        """
        both = len(s) + len(t)
        if both > self.radius:
            raise FamilyError(f"combined length {both} does not fit in radius {self.radius}")
        m = self._interior_count(self.radius - both)
        prod = self.interior_map(t)[:, :m]
        for letter in reversed(s):
            prod = self.pi_matrix((letter,)) @ prod
        direct = self.interior_map(self.family.group.multiply(s, t))[:, :m]
        return float(np.linalg.norm((prod - direct).toarray(), "fro"))

    def empirical_bound(self) -> float:
        """The family's empirical sweep (TreeFamily.empirical_bounds) at this
        one parameter, computed once and cached."""
        if self._bound is None:
            self._bound = float(self.family.empirical_bounds([self.z])[0])
        return self._bound

    # -- contract bundle -------------------------------------------------------

    def contract_checks(self) -> dict:
        """All residuals in one dict; enforcement lives in run_contract_checks."""
        probe = self.family.cr_probe
        h = min(1e-3, (1.0 - abs(self.z)) / 8.0)
        return {
            "coefficient_residual": self.coefficient_residual(),
            "unitarity_residual": self.unitarity_residual(),
            "cr_residual": self.family.holomorphy_residual(probe, self.z, h),
            "cr_ratio": self.family.cr_ratio(probe, self.z, h),
        }

    def run_contract_checks(self, tol: float = 1e-8) -> dict:
        """Enforce the construction contract; FamilyError lists what failed.

        Coefficient reproduction is required everywhere, orthogonality only
        at real parameters, and the difference-quotient ratio must sit near
        the analytic value 4.
        """
        checks = self.contract_checks()
        failures = []
        if checks["coefficient_residual"] > tol:
            failures.append(f"coefficient residual {checks['coefficient_residual']:.3e} > {tol:.1e}")
        if self.z.imag == 0.0 and checks["unitarity_residual"] > tol:
            failures.append(f"unitarity residual {checks['unitarity_residual']:.3e} > {tol:.1e}")
        if not 3.5 <= checks["cr_ratio"] <= 4.5:
            failures.append(f"difference-quotient ratio {checks['cr_ratio']:.3f} outside [3.5, 4.5]")
        if failures:
            raise FamilyError("construction contract violated: " + "; ".join(failures))
        return checks


def family_report(point: TreeFamilyPoint) -> dict:
    """Flat JSON-ready summary of one family point's residuals and bound;
    the Cauchy-Riemann residual is taken at step 1e-3."""
    return {
        "z": [point.z.real, point.z.imag],
        "R": point.radius,
        # the larger dense check first, so a ball past DENSE_CHECK_CAP fails early
        "coefficient_residual": point.coefficient_residual(),
        "unitarity_residual": point.unitarity_residual(),
        "cr_residual": point.family.holomorphy_residual(point.family.cr_probe, point.z, 1e-3),
        "empirical_bound": point.empirical_bound(),
    }


def write_family_report(fh, report: dict) -> None:
    json.dump(report, fh, sort_keys=True, indent=2)
    fh.write("\n")


# ---------------------------------------------------------------------------
# averaged bounds on the tree
# ---------------------------------------------------------------------------

def averaged_family_bound(family: TreeFamily, N: int, r: float, d: int, *,
                          quad_factor: int = 4):
    """Order-d bound for the smoothed family by averaging point bounds.

    Sum of w_q * b(r e^(i theta_q))^d over the Fejer nodes, where b is the
    family's empirical operator-norm sample; conjugate nodes share their
    bound, halving the sweep, and the remaining nodes go through one
    batched sweep.  Returns (value, flags); the flags say plainly that
    nothing here is certified.
    """
    if d < 1:
        raise FamilyError(f"order d must be >= 1, got {d}")
    thetas, weights = fejer_nodes(N, quad_factor)
    Q = thetas.shape[0]
    vals = np.empty(Q)
    half = Q // 2
    vals[:half + 1] = family.empirical_bounds(
        [r * cmath.exp(1j * thetas[q]) for q in range(half + 1)])
    for q in range(half + 1, Q):
        vals[q] = vals[Q - q]
    value = averaged_bound(weights, vals ** d)
    return value, ("empirical", "family-average")


def fejer_bracket_tree(family: TreeFamily, N: int, r: float, d: int, *,
                       quad_factor: int = 4, sdp_tol: float = 1e-8,
                       sdp_max_iter: int = 100):
    """Multiplier plus bracket on the free group; empirical upper route.

    Lower bounds come from the certified window machinery on the radius-2
    ball; the upper bound averages empirical family bounds and is flagged
    as such.  Returns (multiplier, bracket).  More than GRID_NODE_CAP
    quadrature nodes raises BallCapError before the coefficients or the
    nodes are built.
    """
    if quad_factor * (N + 1) > GRID_NODE_CAP:
        raise BallCapError(f"{quad_factor * (N + 1)} quadrature nodes for N = {N} "
                           f"exceed the cap of {GRID_NODE_CAP}")
    phi = fejer_multiplier(family.group, N, r)
    ball = build_ball(family.group, 2)
    base = compute_bracket(family.group, phi, d, ball, certificate=None,
                           sdp_tol=sdp_tol, sdp_max_iter=sdp_max_iter)
    upper, uflags = averaged_family_bound(family, N, r, d, quad_factor=quad_factor)
    if base.upper <= upper:
        return phi, base
    return phi, replace(base, upper=upper, upper_provenance="family-average-empirical",
                        flags=base.flags + uflags)


# ---------------------------------------------------------------------------
# convergence reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    """One approximant: window residual to 1 next to its norm bracket."""

    n: int
    N: object
    r: object
    pointwise_residual: float
    lower: float
    upper: float
    flags: tuple


@dataclass
class ConvergenceReport:
    """Approximate-identity audit for a sequence of multipliers.

    success means: window residuals decrease monotonically (within float
    slack), the last one dips below success_residual, and every upper
    bound stays below the uniform constant C.
    """

    d: int
    C: float
    window_radius: int
    success_residual: float
    rows: list
    success: bool


def _upper_certainty(provenance: str, upper: float) -> str:
    if provenance == "none" or math.isinf(upper):
        return "none"
    if "sampled" in provenance or "empirical" in provenance:
        return "empirical"
    return "certified"


def convergence_report(group: GroupRealization, d: int, pairs, labels, *,
                       C: float = 1.0, window_radius: int = 1,
                       success_residual: float = 0.01,
                       ball: Ball | None = None) -> ConvergenceReport:
    """Audit a sequence of (multiplier, bracket) rows as approximants of 1.

    pairs is the sequence of (Multiplier, NormBracket); labels supplies the
    (N, r) tags of each row for the CSV (box size and 1 work fine for
    translation-invariant tents).  The pointwise residual is the sup of
    |phi(t) - 1| over the fixed window ball.
    """
    pairs = list(pairs)
    labels = list(labels)
    if len(labels) != len(pairs):
        raise MultiplierError(f"{len(pairs)} rows need as many labels, got {len(labels)}")
    window = ball if ball is not None else build_ball(group, window_radius)
    rows = []
    residuals = []
    for i, ((phi, bracket), (labN, labr)) in enumerate(zip(pairs, labels)):
        res = max(abs(complex(phi(t)) - 1.0) for t in window.elements)
        flags = tuple(bracket.flags) + (
            "lower-certified",
            "upper-" + _upper_certainty(bracket.upper_provenance, bracket.upper))
        rows.append(ConvergenceRow(n=i, N=labN, r=labr, pointwise_residual=res,
                                   lower=bracket.lower, upper=bracket.upper,
                                   flags=flags))
        residuals.append(res)
    monotone = all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
    bounded = all(row.upper <= C + 1e-6 for row in rows)
    success = bool(residuals) and monotone and bounded and residuals[-1] < success_residual
    return ConvergenceReport(d=d, C=C, window_radius=window.radius,
                             success_residual=success_residual,
                             rows=rows, success=success)


_CONVERGENCE_COLS = ["n", "N", "r", "pointwise_residual", "lower", "upper", "flags"]


def write_convergence_csv(fh, report: ConvergenceReport,
                          header_lines: Iterable[str] = ()) -> None:
    """CSV dump; the header comments record the audit parameters and verdict."""
    for line in header_lines:
        fh.write(line.rstrip("\n") + "\n")
    fh.write(f"# d={report.d}\n")
    fh.write(f"# C={fmt(report.C)}\n")
    fh.write(f"# window_radius={report.window_radius}\n")
    fh.write(f"# success_residual={fmt(report.success_residual)}\n")
    fh.write(f"# result={'SUCCESS' if report.success else 'INCOMPLETE'}\n")
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(_CONVERGENCE_COLS)
    for row in report.rows:
        w.writerow([
            row.n,
            row.N if isinstance(row.N, (int, np.integer)) else fmt(float(row.N)),
            row.r if isinstance(row.r, (int, np.integer)) else fmt(float(row.r)),
            fmt(row.pointwise_residual),
            fmt(row.lower),
            fmt(row.upper),
            ";".join(row.flags),
        ])
