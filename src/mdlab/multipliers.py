"""Multipliers on groups: norm brackets with checkable evidence on both sides.

A multiplier is a scalar function on a group.  For each order d >= 1 its
d-fold factorization norm is bracketed from below and from above by
independent routes:

* lower bounds come from finite windows.  The sup of |phi| works for every
  order; for d >= 2 the window Gram matrix [phi(s^-1 t)] feeds the
  factorization-norm solve, whose dual certificate, priced from scratch,
  bounds every higher order as well, because the norms increase with d.
* upper bounds come from factorization certificates.  All certificate
  families here are representation-shaped: a map pi into matrices (or exact
  lattice shifts), vectors xi and eta with phi(t) = <pi(t) eta, xi>.  The
  order-d bound is |pi|^d |xi| |eta|, so one certificate prices the whole
  chain of orders at once, and certificates built from genuinely unitary
  pi price every order identically.

Certificates declare how far they can be trusted: a quadrature-built
certificate reproduces phi only on a stated window (aliasing), a sampled
sup |pi| is marked as such, and verify_certificate recomputes the d-fold
matrix products rather than assuming the representation property.

The quotient toolkit (restriction, inflation along a quotient map, coset
averaging, and the extension of subgroup multipliers by finitely supported
coset data) works in exact arithmetic end to end: every sum is finite and
every element operation is integer-based.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mdlab.config import FLOAT_FMT
from mdlab.groups import (
    BallCapError, FiniteGroup, GroupError, GroupRealization, SL2ZSemidirect, ZnGroup,
    gram_matrix,
)
from mdlab.schur import is_symmetric, schur_norm

__all__ = [
    "WINDOW_CAP", "GRID_NODE_CAP", "VERIFY_CAP", "MultiplierError", "CertificateError",
    "Multiplier", "complex_from_json", "name_from_json",
    "MatrixRepCertificate", "LatticeShiftCertificate", "CertificateReport",
    "certificate_from_unitary_rep", "certificate_from_bounded_rep",
    "circle_quadrature_certificate", "density_quadrature_certificate",
    "radial_density_certificate",
    "constant_certificate",
    "folner_tent_value", "folner_multiplier", "folner_certificate",
    "folner_approximants",
    "verify_certificate", "md_upper_from_certificate",
    "m2_lower_bound", "sup_abs_window", "pairing", "pairing_duality_check",
    "cstar_norm_finite", "regular_compression_norm",
    "restrict_multiplier", "inflate_multiplier", "coset_average",
    "extension_multiplier", "extension_limit",
    "NormBracket", "compute_bracket", "write_brackets_csv", "read_brackets_csv",
]


# Largest window compute_bracket solves, counted in window elements and
# doubled when the Gram data is genuinely complex.  The solver works on
# complex data directly (it once realified it to twice the size); the
# doubling stays only so that the same windows get a Schur lower bound.
# Raising the cap or dropping the doubling changes reported brackets and
# verdicts, so it waits for a change that is allowed to move them.
WINDOW_CAP = 66

# Largest Q^n quadrature grid a certificate builds.  A node costs on the
# order of 100 bytes (symbol values, the FFT's array, split vectors,
# temporaries, and angle rows once pi is evaluated), so Z^2 at Q = 512
# (262,144 nodes) fits and Z^3 at Q = 512 (134M nodes, over 8 GB) is refused.
GRID_NODE_CAP = 1 << 20

# Most d-tuples verify_certificate walks.
VERIFY_CAP = 200_000


class MultiplierError(ValueError):
    """Malformed multiplier data."""


class CertificateError(ValueError):
    """Certificate construction pre-checks failed."""


# ---------------------------------------------------------------------------
# multiplier data model
# ---------------------------------------------------------------------------

class Multiplier:
    """Scalar function on a group: finite support, radial, or a raw callable.

    Finite multipliers store {element: value} and vanish elsewhere.  Radial
    multipliers read coeffs_by_length[word_length(t)] (zero past the end),
    which on a BFS-lengthed group grows the cached ball at most to sphere
    len(coeffs_by_length) - 1.
    """

    def __init__(self, group: GroupRealization, kind: str, *, support=None,
                 coeffs=None, func=None, name: str = "phi"):
        self.group = group
        self.kind = kind
        self.name = name
        if kind == "finite":
            items = dict(support or {})
            for t in items:
                group.validate(t)
            self._support = {t: complex(v) for t, v in items.items() if v != 0}
        elif kind == "radial":
            self._coeffs = [complex(c) for c in (coeffs or [])]
        else:
            self._func = func

    @classmethod
    def finite(cls, group, support, name="phi"):
        return cls(group, "finite", support=support, name=name)

    @classmethod
    def radial(cls, group, coeffs, name="phi"):
        return cls(group, "radial", coeffs=coeffs, name=name)

    @classmethod
    def from_callable(cls, group, func, name="phi"):
        return cls(group, "callable", func=func, name=name)

    def __call__(self, t) -> complex:
        if self.kind == "finite":
            return self._support.get(t, 0j)
        if self.kind == "radial":
            ell = self.group.word_length(t, len(self._coeffs))
            if ell < len(self._coeffs):
                return self._coeffs[ell]
            return 0j
        return complex(self._func(t))

    def support_items(self):
        if self.kind != "finite":
            raise MultiplierError("support_items needs a finite multiplier")
        return sorted(self._support.items(), key=lambda kv: self.group.sort_key(kv[0]))

    @property
    def coeffs(self):
        if self.kind != "radial":
            raise MultiplierError("coeffs needs a radial multiplier")
        return list(self._coeffs)

    def sup_abs(self) -> float:
        """Exact sup of |phi| over the whole group, when the data allows it."""
        if self.kind == "finite":
            return max((abs(v) for v in self._support.values()), default=0.0)
        if self.kind == "radial":
            # 0 past the end; on a finite group no length past the diameter occurs
            coeffs = self._coeffs
            if isinstance(self.group, FiniteGroup):
                coeffs = coeffs[:self.group.diameter() + 1]
            return max((abs(c) for c in coeffs), default=0.0)
        raise MultiplierError("sup_abs of a callable needs a window; "
                              "use sup_abs_window")

    def to_json(self):
        if self.kind == "finite":
            return {"name": self.name, "support": [
                [self.group.element_to_json(t), v.real, v.imag]
                for t, v in self.support_items()]}
        if self.kind == "radial":
            return {"name": self.name, "radial": {"coeffs_by_length": [
                [c.real, c.imag] for c in self._coeffs]}}
        raise MultiplierError("callable multipliers are not serializable")

    @classmethod
    def from_json(cls, group, obj):
        """Inverse of to_json; any other shape raises MultiplierError.

        Values are finite numbers or [re, im] pairs of them (see
        complex_from_json); support elements go through the group's own
        element_from_json, which raises GroupError on a bad element.
        """
        if not isinstance(obj, dict):
            raise MultiplierError(f"multiplier JSON must be an object, got {obj!r}")
        name = name_from_json(obj, "phi")
        if "support" in obj:
            rows = obj["support"]
            if not isinstance(rows, list):
                raise MultiplierError(f"'support' must be a list of rows, got {rows!r}")
            support = {}
            for row in rows:
                if not isinstance(row, list) or len(row) != 3:
                    raise MultiplierError(f"support rows are [element, re, im]: {row!r}")
                elem = group.element_from_json(row[0])
                support[elem] = complex_from_json(row[1:], "support value")
            return cls.finite(group, support, name=name)
        if "radial" in obj:
            spec = obj["radial"]
            if not isinstance(spec, dict):
                raise MultiplierError(f"'radial' must be an object, got {spec!r}")
            rows = spec.get("coeffs_by_length", [])
            if not isinstance(rows, list):
                raise MultiplierError(f"'coeffs_by_length' must be a list, got {rows!r}")
            coeffs = [complex_from_json(c, "radial coefficient") for c in rows]
            return cls.radial(group, coeffs, name=name)
        raise MultiplierError("multiplier JSON needs 'support' or 'radial'")


def _json_real(x, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise MultiplierError(f"{what} must be a number, got {x!r}")
    try:
        value = float(x)
    except OverflowError:   # an integer past the float range
        value = math.inf
    if not math.isfinite(value):
        raise MultiplierError(f"{what} must be finite, got {x!r}")
    return value


def complex_from_json(x, what: str = "value") -> complex:
    """A finite JSON number, or an [re, im] pair of them, as a complex.

    Booleans, strings and non-finite values raise MultiplierError, so a
    malformed multiplier file fails validation instead of deep inside a
    solve.
    """
    if isinstance(x, list):
        if len(x) != 2:
            raise MultiplierError(f"{what} must be a number or [re, im], got {x!r}")
        return complex(_json_real(x[0], what), _json_real(x[1], what))
    return complex(_json_real(x, what))


def name_from_json(obj: dict, default: str) -> str:
    """The optional "name" of a multiplier JSON object, which must be a string."""
    name = obj.get("name", default)
    if not isinstance(name, str):
        raise MultiplierError(f"multiplier name must be a string, got {name!r}")
    return name


def sup_abs_window(phi: Callable, elements) -> float:
    return max((abs(complex(phi(t))) for t in elements), default=0.0)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

# norms at or above this have squares in the normal float range
_SQUARE_SAFE = math.sqrt(np.finfo(float).tiny)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of v, also where its squares overflow or underflow.

    np.linalg.norm squares the entries, so past ~1.3e154 it returns inf and
    below ~1.5e-154 it loses digits or returns 0; there the norm is taken of
    v scaled by its largest modulus instead.
    """
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(v))
    if _SQUARE_SAFE <= norm < math.inf:
        return norm
    scale = float(np.max(np.abs(v), initial=0.0))
    if scale == 0.0:
        return 0.0
    return scale * float(np.linalg.norm(v / scale))


def _apply(mat, vec):
    """Matrix-vector product where a 1-d mat means a diagonal operator."""
    if mat.ndim == 1:
        return mat * vec
    return mat @ vec


def _as_matrix(value) -> np.ndarray:
    """A value of pi as a full complex matrix; a 1-d value is a diagonal."""
    M = np.asarray(value, dtype=complex)
    return np.diag(M) if M.ndim == 1 else M


@dataclass
class MatrixRepCertificate:
    """phi(t) = <pi(t) eta, xi> with an explicit matrix-valued pi.

    pi may return a full matrix or a 1-d array standing for a diagonal.
    pi_norm is sup_t of the operator norm; pi_provenance records whether it
    is structural ("unitary": exactly 1) or a sampled maximum ("sampled":
    a lower estimate of the true sup, so bounds built on it are flagged).
    window_member, when set, bounds where the reproduction identity is
    exact; None claims all of the group.
    """

    group: GroupRealization
    pi: Callable[[object], np.ndarray]
    xi: np.ndarray
    eta: np.ndarray
    pi_norm: float
    pi_provenance: str
    window_member: Callable[[object], bool] | None = None
    kind: str = "rep"

    def coefficient(self, t) -> complex:
        return complex(np.vdot(self.xi, _apply(self.pi(t), self.eta)))

    def product_coefficient(self, ts) -> complex:
        v = self.eta
        for t in reversed(list(ts)):
            v = _apply(self.pi(t), v)
        return complex(np.vdot(self.xi, v))

    def bound(self, d: int) -> float:
        if d < 1:
            raise ValueError("order d must be >= 1")
        return (self.pi_norm ** d) * (_norm(self.xi) * _norm(self.eta))

    def provenance(self, d: int) -> str:
        tag = f"{self.kind}:{self.pi_provenance}:d={d}"
        if self.window_member is not None:
            tag += ":windowed"
        return tag

    def flags(self) -> tuple:
        out = []
        if self.pi_provenance == "sampled":
            out.append("pi-norm-sampled")
        if self.window_member is not None:
            out.append("window-limited")
        return tuple(out)


@dataclass
class LatticeShiftCertificate:
    """phi(m) = |F cap (F+m)| / |F| through exact lattice translations.

    The representation is translation on square-summable sequences over Z^n
    with xi = eta = the normalized indicator of the finite set F; shifts are
    applied as actual set translations and pairings are overlap counts, so
    every number involved is an exact integer divided once by |F|.  A
    translation is an exact isometry, hence pi_norm is exactly 1 and the
    order-d bound is exactly 1 for every d.
    """

    group: ZnGroup
    points: frozenset
    kind: str = "shift"
    pi_provenance: str = "unitary"
    window_member = None

    def __post_init__(self):
        if not self.points:
            raise CertificateError("shift certificate needs a nonempty set")
        for p in self.points:
            self.group.validate(p)

    def coefficient(self, m) -> complex:
        return self.product_coefficient([m])

    def product_coefficient(self, ts) -> complex:
        shifted = self.points
        for t in reversed(list(ts)):
            shifted = frozenset(tuple(p[i] + t[i] for i in range(len(t)))
                                for p in shifted)
        overlap = len(shifted & self.points)
        return complex(overlap / len(self.points))

    def bound(self, d: int) -> float:
        if d < 1:
            raise ValueError("order d must be >= 1")
        return 1.0

    def provenance(self, d: int) -> str:
        return f"shift:exact:d={d}"

    def flags(self) -> tuple:
        return ()


def _sample_elements(group, elements, rng, count):
    if len(elements) <= count:
        return list(elements)
    idx = rng.choice(len(elements), size=count, replace=False)
    return [elements[i] for i in idx]


def _checked_rep(group, pi, elements, *, isometries: bool):
    """pi as a full-matrix map, after checking it on a seeded sample.

    Checks pi(e) = I, then (with isometries) pi(t)* pi(t) = I on up to 40
    sampled elements, then pi(s)pi(t) = pi(st) on the first 12 x 12 pairs
    of the sample, each to 1e-12 in the operator norm; CertificateError
    names the first failure.
    """
    rep_tol = 1e-12
    sample = _sample_elements(group, elements, np.random.default_rng(0), 40)

    def as_matrix(t):
        return _as_matrix(pi(t))

    ident = as_matrix(group.identity)
    eye = np.eye(ident.shape[0])
    if np.linalg.norm(ident - eye, 2) > rep_tol:
        raise CertificateError("pi(identity) is not the identity matrix")
    if isometries:
        for t in sample:
            M = as_matrix(t)
            if np.linalg.norm(M.conj().T @ M - eye, 2) > rep_tol:
                raise CertificateError(f"pi is not unitary at {t!r}")
    for s in sample[:12]:
        for t in sample[:12]:
            err = np.linalg.norm(as_matrix(group.multiply(s, t))
                                 - as_matrix(s) @ as_matrix(t), 2)
            if err > rep_tol:
                raise CertificateError(
                    f"pi is not multiplicative at ({s!r}, {t!r}): {err:g}")
    return as_matrix


def certificate_from_unitary_rep(group, pi, xi, eta, elements) -> MatrixRepCertificate:
    """Wrap a representation after checking it actually is one.

    Verifies pi(e) = I, pi(s)pi(t) = pi(st), and pi(t)* pi(t) = I on the
    given elements (all pairs when small, a seeded sample otherwise), to
    1e-12 in the operator norm.  Raises CertificateError on failure, so a
    certificate of this kind never silently carries a broken pi.
    """
    xi = np.asarray(xi, dtype=complex).ravel()
    eta = np.asarray(eta, dtype=complex).ravel()
    _checked_rep(group, pi, list(elements), isometries=True)
    return MatrixRepCertificate(group=group, pi=pi, xi=xi, eta=eta,
                                pi_norm=1.0, pi_provenance="unitary")


def certificate_from_bounded_rep(group, pi, xi, eta, elements) -> MatrixRepCertificate:
    """Same wrapping for a uniformly bounded (not unitary) pi.

    Multiplicativity is still required to 1e-12; sup |pi| is estimated as
    the maximum operator norm over the supplied elements only, so it is a
    sample of the true sup and the certificate says so in its provenance.
    """
    xi = np.asarray(xi, dtype=complex).ravel()
    eta = np.asarray(eta, dtype=complex).ravel()
    elements = list(elements)
    as_matrix = _checked_rep(group, pi, elements, isometries=False)
    pi_norm = max(float(np.linalg.norm(as_matrix(t), 2)) for t in elements)
    pi_norm = max(pi_norm, 1.0)  # pi(e) = I already forces sup >= 1
    return MatrixRepCertificate(group=group, pi=pi, xi=xi, eta=eta,
                                pi_norm=pi_norm, pi_provenance="sampled")


def constant_certificate(group, value) -> MatrixRepCertificate:
    """Certificate for the constant multiplier t -> value, any order."""
    value = complex(value)
    return MatrixRepCertificate(
        group=group, pi=lambda t: np.ones(1), xi=np.ones(1),
        eta=np.array([value]), pi_norm=1.0, pi_provenance="unitary", kind="const")


def _circle_grid(n: int, Q: int):
    """Uniform Q^n quadrature grid as (angles, w, pi).

    angles() returns the (Q^n, n) angle rows, built on its first call and
    kept; w is the node weight; pi(m) = exp(-i m.theta) is the character on
    the grid as a diagonal.  Symbol values come from _grid_trig_values (an
    inverse FFT over the occupied lines of the last axis, then over the
    leading axes, O(Q^n log Q)), so the angle rows are built only when pi is
    evaluated or a density callable needs them.

    A grid over GRID_NODE_CAP nodes raises BallCapError before any array
    is built.
    """
    if Q ** n > GRID_NODE_CAP:
        raise BallCapError(f"quadrature grid of {Q}^{n} = {Q ** n} nodes exceeds "
                           f"the cap of {GRID_NODE_CAP}")

    @functools.cache
    def angles():
        axes = [2.0 * math.pi * np.arange(Q) / Q for _ in range(n)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def pi(m):
        return np.exp(-1j * (angles() @ np.asarray(m, dtype=float)))

    return angles, 1.0 / (Q ** n), pi


def _grid_trig_values(items, n: int, Q: int) -> np.ndarray:
    """sum_k c_k e^{i k.theta_q} over [(k, c_k)] on the uniform Q^n grid.

    Each c_k is added into bin k mod Q of a (Q,)*n array, and an inverse
    FFT, scaled by Q^n, evaluates the polynomial at every node, raveled in
    the C order of _circle_grid's angle rows.  Sharing a bin is exact, since
    e^{2 pi i k j/Q} = e^{2 pi i (k mod Q) j/Q}.  The transform runs along
    the last axis only on the lines that hold a coefficient (every other
    line is zero and stays zero), then along the leading axes, last to
    first as ifftn orders them, and is scaled in place, so the values are
    ifftn's bit for bit and at most two Q^n arrays are alive at once.  Cost
    O(Q^n log Q), whatever the number of terms; callers check the grid cap
    first.
    """
    bins = np.array([[c % Q for c in k] for k, _ in items], dtype=np.int64)
    lines, slot = np.unique(bins[:, :-1], axis=0, return_inverse=True)
    occupied = np.zeros((len(lines), Q), dtype=complex)
    np.add.at(occupied, (slot.ravel(), bins[:, -1]),     # slot is 2-D on numpy 2.0.0
              np.array([v for _, v in items], dtype=complex))
    g = np.zeros((Q,) * n, dtype=complex)
    g[tuple(lines.T)] = np.fft.ifft(occupied)
    for axis in range(n - 2, -1, -1):
        g = np.fft.ifft(g, axis=axis)
    g *= Q ** n
    return g.ravel()


def circle_quadrature_certificate(group: ZnGroup, phi: Multiplier,
                                  Q: int = 512) -> MatrixRepCertificate:
    """Density-route certificate for a finitely supported phi on Z^n.

    phi determines the trigonometric polynomial
    g(theta) = sum_k phi(k) e^{i k.theta}, evaluated on the uniform Q^n grid
    by an inverse FFT over the occupied lines of the last axis, then over
    the leading axes (_grid_trig_values, O(Q^n log Q)); the balanced split
    xi_q = conj(g_q) sqrt(w |g_q|) / |g_q| (0 where g_q = 0),
    eta_q = sqrt(w |g_q|) against the diagonal translation characters
    reproduces phi(m) = sum_q w g_q e^{-i m.theta_q} exactly (uniform
    quadrature is exact on trigonometric polynomials below the aliasing
    frequency), and the bound is the quadrature value of (2pi)^-n int |g|.
    The angle rows are built only when pi is evaluated.  xi is built in the
    grid's own buffer, and |g| is turned into the scale in place, so what is
    held is xi and eta plus one real buffer, sqrt(w |g|).

    Aliasing limits exactness to max_i |m_i| <= Q - deg_i - 1, declared via
    window_member; the bound converges to the true density norm as Q grows.
    """
    if not isinstance(group, ZnGroup):
        raise CertificateError("quadrature certificates need a Z^n group")
    if phi.kind != "finite":
        raise CertificateError("quadrature certificates need finite support")
    items = phi.support_items()
    if not items:
        return constant_certificate(group, 0.0)
    n = group.n
    degs = [max(abs(t[i]) for t, _ in items) for i in range(n)]
    if Q <= max(degs) + 1:
        raise CertificateError(f"Q={Q} too small for support degree {max(degs)}")
    window = Q - max(degs) - 1

    _, w, pi = _circle_grid(n, Q)
    xi = _grid_trig_values(items, n, Q)     # g, until conjugated and scaled
    scale = np.abs(xi)                      # |g|, until divided into the scale
    root = np.multiply(w, scale)
    np.sqrt(root, out=root)
    # where g = 0 the scale keeps |g| = 0
    np.divide(root, scale, out=scale, where=scale > 0)
    np.conjugate(xi, out=xi)
    xi *= scale
    del scale                               # freed before eta is made
    eta = root.astype(complex)

    def in_window(m):
        return max(abs(c) for c in m) <= window

    return MatrixRepCertificate(group=group, pi=pi, xi=xi, eta=eta,
                                pi_norm=1.0, pi_provenance="unitary",
                                window_member=in_window, kind="quadrature")


def _density_certificate(group: ZnGroup, h: np.ndarray, w: float,
                         pi: Callable) -> MatrixRepCertificate:
    """xi = eta = sqrt(w h) for density values h on a _circle_grid grid, one
    array held as both."""
    if h.min() < -1e-12:
        raise CertificateError(f"density takes value {h.min()}; must be >= 0")
    root = np.sqrt(w * np.clip(h, 0.0, None)).astype(complex)
    return MatrixRepCertificate(group=group, pi=pi, xi=root, eta=root,
                                pi_norm=1.0, pi_provenance="unitary", kind="density")


def density_quadrature_certificate(group: ZnGroup, density: Callable,
                                   Q: int = 512) -> MatrixRepCertificate:
    """Certificate from a pointwise-nonnegative circle density on Z^n.

    For phi(m) = mean of h(theta) e^{-i m.theta} with h >= 0 the balanced
    split is xi = eta = sqrt(w h(theta_q)).  Unlike the finite-support
    constructor there is no exact window: the reproduced value carries the
    aliasing tail sum_{k != 0} phi(m + kQ), which for the geometric-decay
    densities in use sits far below double precision.  The bound is the
    quadrature mean of h, which exceeds the true mean by the same tail,
    erring on the safe side.  density receives an (L, n) array of angle
    rows and must return the L values.
    """
    if not isinstance(group, ZnGroup):
        raise CertificateError("quadrature certificates need a Z^n group")
    angles, w, pi = _circle_grid(group.n, Q)
    thetas = angles()
    h = np.asarray(density(thetas), dtype=float)
    if h.shape != (thetas.shape[0],):
        raise CertificateError(f"density returned shape {h.shape}")
    return _density_certificate(group, h, w, pi)


def radial_density_certificate(group: ZnGroup, phi: Multiplier,
                               quad_factor: int = 4) -> MatrixRepCertificate:
    """Density-route certificate for a radial phi on Z.

    The circle density c_0 + 2 sum c_l cos(l theta) of phi.coeffs is
    evaluated once on Q = max(quad_factor * len(coeffs), 64) nodes by one
    inverse FFT of the coefficients placed at +-l.  A density that is not real on those nodes
    (above 1e-12, checked when some coefficient is not real), or that dips
    negative, admits no certificate: CertificateError.  A grid over
    GRID_NODE_CAP nodes raises BallCapError before the values are computed.
    """
    if not (isinstance(group, ZnGroup) and group.n == 1):
        raise CertificateError("the radial density route needs the group Z")
    if phi.kind != "radial" or not phi.coeffs:
        raise CertificateError("the radial density route needs radial coefficients")
    c = phi.coeffs
    Q = max(quad_factor * len(c), 64)
    _, w, pi = _circle_grid(1, Q)
    items = [((0,), c[0])] + [((s * ell,), c[ell])
                              for ell in range(1, len(c)) for s in (1, -1)]
    h = _grid_trig_values(items, 1, Q)
    # real coefficients give a real density: the FFT's imaginary part is
    # then rounding on the scale of sum |c_l|, not a property of phi
    if any(v.imag for v in c) and np.max(np.abs(h.imag)) > 1e-12:
        raise CertificateError("the radial density is not real")
    return _density_certificate(group, h.real, w, pi)


# ---------------------------------------------------------------------------
# Folner tents on Z^n
# ---------------------------------------------------------------------------

def folner_tent_value(m, k: int) -> float:
    """prod_i max(0, 1 - |m_i|/(k+1)): the normalized box autocorrelation."""
    out = 1.0
    for c in m:
        out *= max(0.0, 1.0 - abs(c) / (k + 1))
    return out


def folner_multiplier(group: ZnGroup, k: int) -> Multiplier:
    if k < 0:
        raise MultiplierError("tent parameter k must be >= 0")
    return Multiplier.from_callable(group, lambda m: folner_tent_value(m, k),
                                    name=f"tent{k}")


def folner_certificate(group: ZnGroup, k: int) -> LatticeShiftCertificate:
    """Exact order-d bound 1 for the tent, via the box indicator {0..k}^n."""
    pts = frozenset(itertools.product(range(k + 1), repeat=group.n))
    return LatticeShiftCertificate(group=group, points=pts)


def folner_approximants(group: ZnGroup, ks) -> list:
    """[(k, tent multiplier, exact certificate)] for each box size k."""
    return [(k, folner_multiplier(group, k), folner_certificate(group, k))
            for k in ks]


# ---------------------------------------------------------------------------
# verification and bounds
# ---------------------------------------------------------------------------

@dataclass
class CertificateReport:
    """Outcome of re-deriving phi from a certificate's raw maps."""

    d: int
    max_residual: float
    checked: int
    skipped_outside_window: int

    def ok(self, tol: float) -> bool:
        return self.checked > 0 and self.max_residual <= tol


def verify_certificate(phi: Callable, cert, elements, d: int = 2) -> CertificateReport:
    """Recompute phi(t_1...t_d) as the certificate's d-fold product, for
    every d-tuple of elements; more than VERIFY_CAP tuples is a ValueError.

    Walks actual products of the certificate's maps (matrix chains or set
    translations), never the shortcut phi = coefficient, so a certificate
    whose pi is not really multiplicative fails here.  Tuples outside the
    certificate's declared window are skipped and counted.
    """
    group = cert.group
    elements = list(elements)
    if not elements:
        raise ValueError("no elements to verify on")
    if len(elements) ** d > VERIFY_CAP:
        raise ValueError(f"{len(elements)}^{d} tuples exceed the verification cap "
                         f"{VERIFY_CAP}")
    max_res = 0.0
    checked = 0
    skipped = 0
    for ts in itertools.product(elements, repeat=d):
        prod = group.identity
        for t in ts:
            prod = group.multiply(prod, t)
        if cert.window_member is not None and not cert.window_member(prod):
            skipped += 1
            continue
        got = cert.product_coefficient(ts)
        want = complex(phi(prod))
        max_res = max(max_res, abs(got - want))
        checked += 1
    return CertificateReport(d=d, max_residual=max_res, checked=checked,
                             skipped_outside_window=skipped)


def md_upper_from_certificate(cert, d: int) -> float:
    """Order-d upper bound priced by the certificate: |pi|^d |xi| |eta|."""
    return cert.bound(d)


def m2_lower_bound(group, phi: Callable, elements, tol: float = 1e-8,
                   max_iter: int = 100, gram=None):
    """Window lower bound for every order d >= 2.

    Builds the Gram-style matrix phi(s^-1 t) over the window (or reuses a
    precomputed one, which must be n x n for the n elements) and returns the
    price of the factorization-norm dual certificate, less its rounding
    allowance, together with the solve diagnostics.  The bound holds
    whatever the solve did; tol only sets how close to the window norm it
    gets.

    A Gram that is not symmetric is solved with its columns permuted s -> s^-1
    when the window is closed under inverses and that matrix, entries
    phi(s_i^-1 s_j^-1), is symmetric or Hermitian (on an abelian group it
    always is symmetric): a column permutation keeps the norm, and the solver
    halves its Newton system on symmetric input.
    """
    elements = list(elements)
    n = len(elements)
    A = gram_matrix(group, phi, elements) if gram is None else np.asarray(gram)
    if A.shape != (n, n):
        raise ValueError(f"gram must be {n} x {n} for the {n} window elements, "
                         f"got shape {A.shape}")
    if not is_symmetric(A):
        index = {x: i for i, x in enumerate(elements)}
        inv = [index.get(group.inverse(x)) for x in elements]
        if None not in inv and is_symmetric(A[:, inv]):
            A = A[:, inv]
    sol = schur_norm(A, tol=tol, max_iter=max_iter)
    lower = sol.lower_bound
    return lower, {
        "schur_value": sol.value,
        "dual_lower": sol.lower_bound,
        "witness_upper": sol.upper_bound,
        "iterations": sol.iterations,
        "window_size": n,
    }


def _pairing_items(g) -> list:
    """The (t, g(t)) pairs of a finite Multiplier, or of a dict of scalars
    sorted by repr."""
    if isinstance(g, Multiplier):
        return g.support_items()
    if not isinstance(g, dict):
        raise MultiplierError("g must be a finite Multiplier or a dict")
    items = sorted(g.items(), key=repr)
    if not all(isinstance(v, (int, float, complex)) for _, v in items):
        raise MultiplierError("pairing needs scalar values")
    return items


def pairing(phi: Callable, g) -> complex:
    """Bilinear pairing sum_t phi(t) g(t) over the support of g."""
    return sum(complex(phi(t)) * complex(v) for t, v in _pairing_items(g))


def pairing_duality_check(phi: Callable, cert: MatrixRepCertificate, g):
    """(|<phi, g>|, bound * |sum_t g(t) pi(t)|): left never exceeds right.

    The certificate turns the pairing into xi* (sum g(t) pi(t)) eta, so the
    operator norm of the g-average of pi prices the pairing.  Returns both
    sides; equality of structure, not numbers, is what is being tested.
    """
    lhs = abs(pairing(phi, g))
    acc = None
    for t, v in _pairing_items(g):
        M = _as_matrix(cert.pi(t))
        acc = v * M if acc is None else acc + v * M
    if acc is None:
        return lhs, 0.0
    opnorm = float(np.linalg.norm(acc, 2))
    rhs = _norm(cert.xi) * _norm(cert.eta) * opnorm
    return lhs, rhs


def cstar_norm_finite(group, g: Callable) -> float:
    """Operator norm of sum_t g(t) lambda(t) on a finite group, exactly
    the largest singular value of the convolution matrix [g(x y^-1)]."""
    if not hasattr(group, "order"):
        raise MultiplierError("cstar_norm_finite needs a finite group")
    return regular_compression_norm(group, g, range(group.order))


def regular_compression_norm(group, g: Callable, elements) -> float:
    """Norm of the window compression of sum g(t) lambda(t); a certified
    lower bound for the full convolution operator norm."""
    # pair_values gives g(s_i^-1 s_j); with s_i = x_i^-1 that is g(x_i x_j^-1)
    M = group.pair_values([group.inverse(x) for x in elements], g, complex)
    return float(np.linalg.norm(M, 2))


# ---------------------------------------------------------------------------
# quotient toolkit
# ---------------------------------------------------------------------------
#
# The quotient is G = SL(2,Z) x| Z^2 -> G/Gamma = SL(2,Z), Gamma = Z^2: the
# group's project (the quotient map q), lift (a section), gamma_member (the
# indicator of Gamma) and matrix_part (the quotient group).

def restrict_multiplier(phi: Callable, embed: Callable, subgroup) -> Multiplier:
    """Pull phi back along an injective homomorphism embed: H -> G."""
    return Multiplier.from_callable(subgroup, lambda h: phi(embed(h)), name="phi|H")


def inflate_multiplier(psi: Callable, group: SL2ZSemidirect) -> Multiplier:
    """Lift psi on G/Gamma to psi(q(t)) on G, q = group.project."""
    return Multiplier.from_callable(group, lambda t: psi(group.project(t)),
                                    name="psi.q")


def coset_average(group: SL2ZSemidirect, f) -> dict:
    """Sum finitely supported f over each coset: out[x] = sum_{q(u)=x} f(u).

    The adjoint of inflation under the bilinear pairing: summing
    psi(q(t)) f(t) over the support equals pairing coset sums with psi.
    """
    if isinstance(f, Multiplier):
        items = f.support_items()
    else:
        items = sorted(f.items(), key=lambda kv: group.sort_key(kv[0]))
    out: dict = {}
    for u, v in items:
        x = group.project(u)
        out[x] = out.get(x, 0) + v
    return out


def extension_multiplier(group: SL2ZSemidirect, f: dict,
                         gamma_phi: Callable, name: str = "ext") -> Multiplier:
    """Spread a subgroup multiplier over the group along coset data f.

    Value at t: sum of f(w) gamma_phi(w t) over support elements w lying in
    the coset of q(t)^-1 (those are exactly the w with w t in the subgroup).
    With f a section indicator this reads gamma_phi off the subgroup part
    of t in its coset decomposition.
    """
    buckets: dict = {}
    for w in sorted(f, key=group.sort_key):
        buckets.setdefault(group.project(w), []).append((w, f[w]))

    def value(t):
        x = group.matrix_part.inverse(group.project(t))
        acc = 0
        for w, coef in buckets.get(x, ()):
            gamma = group.multiply(w, t)
            if not group.gamma_member(gamma):
                raise GroupError(f"bucketing broke at {w!r} * {t!r}")
            acc += coef * gamma_phi(gamma)
        return acc

    return Multiplier.from_callable(group, value, name=name)


def extension_limit(group: SL2ZSemidirect, f: dict) -> Multiplier:
    """The k -> infinity end of the extension: subgroup data replaced by 1.

    Aggregates f over cosets once; the value at t is the aggregate at
    q(t)^-1, so it is constant on cosets of the subgroup by construction,
    and exactly so when f takes integer values.
    """
    s = coset_average(group, f)

    def value(t):
        return s.get(group.matrix_part.inverse(group.project(t)), 0)

    return Multiplier.from_callable(group, value, name="ext-limit")


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormBracket:
    """One certified row: lower <= order-d norm of phi <= upper."""

    phi_id: str
    d: int
    window_radius: int
    lower: float
    upper: float
    lower_provenance: str
    upper_provenance: str
    flags: tuple = ()


def compute_bracket(group, phi, d: int, ball, certificate=None,
                    sdp_tol: float = 1e-8, sdp_max_iter: int = 100) -> NormBracket:
    """Assemble the best available bracket for one multiplier and order.

    Lower route: sup |phi| (exact for finite/radial data, window sup
    otherwise), strengthened for d >= 2 by the window SDP when the window
    is small enough to solve.  Upper route: the supplied certificate priced
    at order d, the exact sup for order 1, or +inf with provenance "none".
    A window over WINDOW_CAP elements gets no Gram at all.
    """
    if d < 1:
        raise ValueError("order d must be >= 1")
    elements = ball.elements
    flags: list = []

    if isinstance(phi, Multiplier) and phi.kind in ("finite", "radial"):
        lower, lower_prov = phi.sup_abs(), "sup-exact"
    else:
        lower, lower_prov = sup_abs_window(phi, elements), "sup-window"
    if d >= 2:
        size = len(elements)
        if size <= WINDOW_CAP:
            gram = gram_matrix(group, phi, elements)
            if np.any(gram.imag):
                size *= 2
        if size <= WINDOW_CAP:
            sdp_lower, info = m2_lower_bound(group, phi, elements,
                                             tol=sdp_tol, max_iter=sdp_max_iter,
                                             gram=gram)
            if sdp_lower > lower:
                lower, lower_prov = sdp_lower, "schur-window-minus-tol"
        else:
            flags.append("window-too-large-for-sdp")

    upper = math.inf
    upper_prov = "none"
    if certificate is not None:
        upper = certificate.bound(d)
        upper_prov = certificate.provenance(d)
        flags.extend(certificate.flags())
    elif d == 1 and isinstance(phi, Multiplier) and phi.kind in ("finite", "radial"):
        upper, upper_prov = phi.sup_abs(), "sup-exact"

    if lower > upper + 1e-9 * max(1.0, abs(upper)):
        flags.append("bracket-inverted")
    name = phi.name if isinstance(phi, Multiplier) else "phi"
    return NormBracket(phi_id=name, d=d, window_radius=ball.radius,
                       lower=lower, upper=upper, lower_provenance=lower_prov,
                       upper_provenance=upper_prov, flags=tuple(flags))


_BRACKET_COLS = ["phi_id", "d", "F_radius", "lower", "upper",
                 "lower_provenance", "upper_provenance", "flags"]


def write_brackets_csv(fh, rows, header_lines=()) -> None:
    for line in header_lines:
        fh.write(line.rstrip("\n") + "\n")
    fh.write(",".join(_BRACKET_COLS) + "\n")
    for r in rows:
        fh.write(",".join([
            r.phi_id, str(r.d), str(r.window_radius),
            FLOAT_FMT % r.lower,
            FLOAT_FMT % r.upper,
            r.lower_provenance, r.upper_provenance,
            ";".join(r.flags)]) + "\n")


def read_brackets_csv(fh) -> list:
    rows = []
    header_seen = False
    for line in fh:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line.split(",") != _BRACKET_COLS:
                raise MultiplierError(f"unexpected bracket header {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != len(_BRACKET_COLS):
            raise MultiplierError(f"bad bracket row {line!r}")
        rows.append(NormBracket(
            phi_id=parts[0], d=int(parts[1]), window_radius=int(parts[2]),
            lower=float(parts[3]), upper=float(parts[4]),
            lower_provenance=parts[5], upper_provenance=parts[6],
            flags=tuple(p for p in parts[7].split(";") if p)))
    return rows
