"""Entrywise-factorization norm of a matrix through its reduced dual.

The norm of A is the least t admitting vectors x_1..x_m, y_1..y_n with
A_ij = <x_i, y_j> and max_i |x_i|^2 <= t, max_j |y_j|^2 <= t.  Its dual
reduces to two probability vectors (Linial-Shraibman 2009):

    norm(A) = max over a, b of ||D_a^{1/2} A D_b^{1/2}||_tr.

Whatever the weights, one SVD  U S V*  of B = D_a^{1/2} A D_b^{1/2} prices
both ends, so neither end trusts the iteration that chose (a, b):

* the certificate mu = a/2, nu = b/2, R = -D_a^{1/2} U V* D_b^{1/2} / 2 has
  total mass 1 and [[diag mu, R], [R*, diag nu]] >= 0 (it is D^{1/2} times
  [[I, -UV*], [-VU*, I]] / 2 times D^{1/2}, and ||UV*|| <= 1), so by weak
  duality the norm is at least -2 Re <A, R> = tr S;
* the witness x = D_a^{-1/2} U S^{1/2}, y = D_b^{-1/2} V S^{1/2} reproduces
  A exactly, so the norm is at most max_i |x_i| max_j |y_j|, which is
  sqrt(max_i (USU*)_ii / a_i * max_j (VSV*)_jj / b_j).

The two meet at the optimum, where a = diag(USU*)/tr S and b likewise.  The
weights are found by Newton's method on that fixed point: the Hessian of the
trace norm in the relative weight changes has a closed form in the SVD, the
step is a Levenberg-Marquardt step inside a trust region, and a step is kept
when it raises tr S or, with tr S flat to rounding, lowers the witness
price.  Weights stay above a floor of tol/(8m) and tol/(8n): the witness
then stays finite where the optimum puts zero weight on a nonzero row, and
the floors, tol/8 of the mass on each side, cost the bounds a small part of
tol.  All-zero rows and columns are dropped before the solve and get zero
weight and zero witness rows.  Complex matrices are solved as they are.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SolverError", "SchurSolution", "schur_norm",
    "certificate_lower_bound", "verify_witness", "witness_upper_bound",
    "psd_check",
    "write_matrix_csv", "read_matrix_csv",
    "write_matrix_binary", "read_matrix_binary",
]

# Entries per chunk of the Hessian's pair columns (rows times singular
# pairs), which keeps each work array of a 200 x 200 solve near 8 MB.
_HESSIAN_CHUNK = 1 << 19

# A trial step shrinks a weight's excess over its floor at most tenfold, so
# weights the optimum sets to zero reach the floor in about ten steps.
_SHRINK = 0.1


class SolverError(RuntimeError):
    """The weight iteration failed to reach the requested tolerance."""


@dataclass
class SchurSolution:
    """Norm value with a factorization witness and a dual certificate.

    x, y are row-stacked factor vectors (A ~ x @ y.conj().T up to
    witness_residual), priced by upper_bound.  (mu, nu, R) is the dual
    certificate of the final weights: [[diag mu, R], [R*, diag nu]] is
    positive semidefinite with sum(mu) + sum(nu) = 1, and lower_bound is its
    price -2 Re <A, R> less a rounding allowance, so it holds whatever the
    iteration did.  value is the trace norm at the final weights; gap is
    (upper_bound - lower_bound) / max(1, upper_bound).
    """

    value: float
    x: np.ndarray
    y: np.ndarray
    witness_residual: float
    upper_bound: float
    mu: np.ndarray
    nu: np.ndarray
    R: np.ndarray
    lower_bound: float
    iterations: int
    gap: float


# ---------------------------------------------------------------------------
# witnesses and certificates
# ---------------------------------------------------------------------------

def witness_upper_bound(x: np.ndarray, y: np.ndarray) -> float:
    """max_i |x_i| * max_j |y_j|; the norm of exactly the matrix x y*."""
    if x.shape[0] == 0 or y.shape[0] == 0 or x.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(x, axis=1).max() * np.linalg.norm(y, axis=1).max())


def verify_witness(A: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Largest entrywise deviation |A_ij - <x_i, y_j>|."""
    A = np.asarray(A)
    if A.size == 0:
        return 0.0
    if x.shape[1] == 0:
        return float(np.abs(A).max())
    return float(np.abs(A - x @ y.conj().T).max())


def certificate_lower_bound(A: np.ndarray, mu: np.ndarray, nu: np.ndarray,
                            R: np.ndarray) -> float:
    """Evaluate a dual certificate from scratch; ValueError if infeasible.

    Checks mu, nu >= 0, total mass 1, and [[diag mu, R],[R*, diag nu]] >= 0
    up to 1e-10, then returns -2 Re sum_ij A_ij conj(R_ij).
    """
    psd_tol = 1e-10
    A = np.asarray(A)
    m, n = A.shape
    if mu.shape != (m,) or nu.shape != (n,) or R.shape != (m, n):
        raise ValueError("certificate shapes do not match the matrix")
    if float(mu.min(initial=0.0)) < -psd_tol or float(nu.min(initial=0.0)) < -psd_tol:
        raise ValueError("certificate weights must be nonnegative")
    mass = float(mu.sum() + nu.sum())
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"certificate mass {mass} != 1")
    C = np.zeros((m + n, m + n), dtype=complex)
    C[:m, :m] = np.diag(mu)
    C[m:, m:] = np.diag(nu)
    C[:m, m:] = R
    C[m:, :m] = R.conj().T
    lam_min = float(np.linalg.eigvalsh(C)[0]) if m + n else 0.0
    if lam_min < -psd_tol:
        raise ValueError(f"certificate block matrix has eigenvalue {lam_min}")
    return float(-2.0 * np.real(np.sum(A * R.conj())))


def psd_check(M: np.ndarray) -> tuple[bool, float]:
    """(is PSD up to 1e-10, smallest eigenvalue) for a Hermitian matrix.

    A complex matrix whose imaginary part is all zero goes to the real
    symmetric eigensolver, which is several times faster.
    """
    M = np.asarray(M)
    if M.size == 0:
        return True, 0.0
    if np.iscomplexobj(M) and not np.any(M.imag):
        M = M.real
    lam = float(np.linalg.eigvalsh((M + M.conj().T) / 2.0)[0])
    return lam >= -1e-10, lam


# ---------------------------------------------------------------------------
# reduced dual
# ---------------------------------------------------------------------------

def _graded_svd(B: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Full SVD of B = D_a^{1/2} A D_b^{1/2}, accurate where weights are tiny.

    Rows and columns are sorted by decreasing weight, a Householder QR of
    the sorted matrix takes out the large part first, and the SVD of its
    triangular factor finishes.  A plain SVD of B resolves the block where
    two weights are small only to rounding relative to the largest entry,
    and the witness would miss A there by that error over sqrt(a_i b_j):
    up to 3e-7 on random 6 x 6 matrices, against 1e-10 this way.
    """
    ia, ib = np.argsort(-a, kind="stable"), np.argsort(-b, kind="stable")
    Q, R = np.linalg.qr(B[np.ix_(ia, ib)], mode="complete")
    U, s, Vh = np.linalg.svd(R)
    U[ia] = Q @ U
    Vh[:, ib] = Vh.copy()
    return U, s, Vh


class _Weights:
    """One SVD of D_a^{1/2} A D_b^{1/2} and the two bounds it prices."""

    def __init__(self, A: np.ndarray, a: np.ndarray, b: np.ndarray):
        self.a, self.b = a, b
        self.B = np.sqrt(a)[:, None] * A * np.sqrt(b)
        self.U, self.s, self.Vh = _graded_svd(self.B, a, b)
        r = self.s.size
        self.P = (np.abs(self.U[:, :r]) ** 2) @ self.s      # diag(U S U*)
        self.Q = (np.abs(self.Vh[:r].T) ** 2) @ self.s     # diag(V S V*)
        self.value = float(self.s.sum())
        self.upper = math.sqrt(float(np.max(self.P / a) * np.max(self.Q / b)))


def _hessian(pt: _Weights) -> np.ndarray:
    """Hessian of (alpha, beta) -> ||B(a(1+alpha), b(1+beta))||_tr at 0.

    With E the first-order change of B and F = U* E V, the trace norm's
    second-order term is sum_kl |F_kl - conj F_lk|^2 / (4 (s_k + s_l)) over
    the full (zero-padded) singular values; for E = (D_alpha B + B D_beta)/2
    that is sum_kl c_kl |(U* D_alpha U - V* D_beta V)_kl|^2 with
    c_kl = (s_k - s_l)^2 / (8 (s_k + s_l)).  As c is symmetric with c_kk = 0,
    that term is Re(Y Y*), where W = [U; V] and Y has the column
    sqrt(2 c_kl) conj(W_k) o W_l for each pair k < l with s_k + s_l > 0; a
    complex Y read as interleaved real pairs makes it one real product.  The
    square roots in B add -diag(USU*)/4, -diag(VSV*)/4 and the cross term
    Re(conj(UV*) o B)/4.
    """
    m, n = pt.B.shape
    N, p = m + n, max(m, n)
    sig = np.concatenate([pt.s, np.zeros(p - pt.s.size)])
    i = np.arange(p)
    k, l = np.nonzero((i[:, None] < i) & (sig[:, None] + sig > 0))
    weight = np.abs(sig[k] - sig[l]) / (2.0 * np.sqrt(sig[k] + sig[l]))   # sqrt(2 c_kl)
    W = np.zeros((N, p), dtype=pt.U.dtype)
    W[:m, :m] = pt.U
    W[m:, :n] = pt.Vh.conj().T
    H = np.zeros((N, N))
    step = max(1, _HESSIAN_CHUNK // N)
    for j in range(0, k.size, step):
        # a complex chunk in C order reads as (re, im) pairs side by side
        Y = W.take(k[j:j + step], axis=1).conj() * W.take(l[j:j + step], axis=1)
        Y = (Y * weight[j:j + step]).view(np.float64)
        H += Y @ Y.T
    r = pt.s.size
    cross = np.real((pt.U[:, :r] @ pt.Vh[:r]).conj() * pt.B) / 4.0
    H[:m, m:] = cross - H[:m, m:]
    H[m:, :m] = cross.T - H[m:, :m]
    H[np.arange(m), np.arange(m)] -= pt.P / 4.0
    H[np.arange(m, N), np.arange(m, N)] -= pt.Q / 4.0
    return H


def _newton_step(H: np.ndarray, g: np.ndarray, Z: np.ndarray, root: np.ndarray,
                 delta: float):
    """Levenberg-Marquardt step for max g.d + d.H d/2 over d in range(Z),
    with max |d / root| at most delta; returns (d, predicted increase)."""
    if Z.shape[1] == 0:
        return np.zeros(H.shape[0]), 0.0
    lam, V = np.linalg.eigh(Z.T @ H @ Z)
    lam = np.minimum(lam, 0.0)      # the trace norm is concave in the weights
    coef = V.T @ (Z.T @ g)

    def step(rho):
        return Z @ (V @ (coef / (rho - lam)))

    floor = 1e-12 * max(-float(lam[0]), float(np.abs(coef).max()), 1e-300)
    d = step(floor)
    if np.abs(d / root).max() > delta:
        # bisect log(rho) down to where the step fits the trust region
        lo = math.log(floor)
        hi = math.log(float(np.abs(coef).sum() / (delta * root.min()))
                      - float(lam[0]) + floor)
        while hi - lo > 0.05:
            mid = 0.5 * (lo + hi)
            if np.abs(step(math.exp(mid)) / root).max() > delta:
                lo = mid
            else:
                hi = mid
        d = step(math.exp(hi))
    return d, float(g @ d + 0.5 * d @ H @ d)


# largest binary exponent of an entry modulus schur_norm accepts
MAX_ENTRY_EXP = 1000


def schur_norm(A, tol: float = 1e-8, max_iter: int = 100) -> SchurSolution:
    """Factorization norm of a real or complex matrix with both-sided evidence.

    Stops once (upper - lower) / max(1, upper) <= tol for the certified
    ends; raises SolverError when max_iter Newton steps do not get there, or
    when no step improves either end (tolerances below about 1e-11 are not
    reliably reachable in double precision).
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError(f"expected a 2d matrix, got shape {A.shape}")
    m, n = A.shape
    if A.size == 0 or not np.any(A):
        mass = max(m + n, 1)
        return SchurSolution(
            value=0.0, x=np.zeros((m, 0)), y=np.zeros((n, 0)),
            witness_residual=0.0, upper_bound=0.0,
            mu=np.full(m, 1.0 / mass), nu=np.full(n, 1.0 / mass),
            R=np.zeros((m, n)), lower_bound=0.0,
            iterations=0, gap=0.0)
    if not np.all(np.isfinite(np.asarray(A, dtype=complex))):
        raise ValueError("matrix has non-finite entries")
    if not (np.iscomplexobj(A) and np.any(A.imag)):
        A = A.real.astype(float)

    # solve on the nonzero block scaled by a power of two to max entry in
    # [1/2, 1), which is exact even for subnormal data; price on A itself
    rows, cols = np.any(A != 0, axis=1), np.any(A != 0, axis=0)
    amax = float(np.abs(A).max())
    e = int(np.frexp(amax)[1])
    # below 2^MAX_ENTRY_EXP, scale times any priced quantity (at most about
    # sqrt(m n) times the scaled data) stays inside the float range
    if not math.isfinite(amax) or e > MAX_ENTRY_EXP:
        raise ValueError(f"matrix entries must be below 2^{MAX_ENTRY_EXP} in modulus, "
                         f"got {amax:.3e}")
    scale = math.ldexp(1.0, e)
    Ar = np.ldexp(A.real[np.ix_(rows, cols)], -e)
    if np.iscomplexobj(A):
        Ar = Ar + 1j * np.ldexp(A.imag[np.ix_(rows, cols)], -e)
    mr, nr = Ar.shape
    # 8 (m+n) 2^-53 ||A||_F covers the certificate's rounding: a PSD defect
    # of a few ulps in its block matrix and the summation error in its price
    allowance = 8.0 * (m + n) * 2.0 ** -53 * scale * float(np.linalg.norm(Ar))
    fa, fb = tol / (8.0 * mr), tol / (8.0 * nr)
    wa = np.full(mr, (1.0 - mr * fa) / mr)
    wb = np.full(nr, (1.0 - nr * fb) / nr)
    pt = _Weights(Ar, fa + wa, fb + wb)
    delta = 1.0
    it = 0
    while True:
        gap = ((pt.upper - pt.value) * scale + allowance) / max(1.0, pt.upper * scale)
        if gap <= tol:
            break
        if it == max_iter:
            raise SolverError(
                f"no convergence in {it} iterations "
                f"(relative gap {gap:.3e}, tol {tol:.1e})")
        it += 1
        # Newton in the relative weight changes alpha (rows, then columns),
        # each side keeping sum(a alpha) = 0.  Weights within 1% of their
        # floor whose witness rows are shorter than the value stay put.
        a, w = np.concatenate([pt.a, pt.b]), np.concatenate([wa, wb])
        grad = np.concatenate([pt.P, pt.Q]) / 2.0
        free = (w >= 0.01 * a) | (grad >= 0.5 * pt.value * a)
        side = np.arange(mr + nr) < mr
        # solve in beta = sqrt(a) alpha, along range(Z): there every
        # weight's share of the gradient is on the same footing however
        # small the weight, which the last digits of the witness need
        root = np.sqrt(a[free])
        constraints = np.zeros((root.size, 2))
        constraints[side[free], 0] = root[side[free]]
        constraints[~side[free], 1] = root[~side[free]]
        Z = np.linalg.qr(constraints, mode="complete")[0][:, 2:]
        H = _hessian(pt)[np.ix_(free, free)] / np.outer(root, root)
        slack = 4.0 * 2.0 ** -52 * pt.value
        for _ in range(12):
            alpha = np.zeros(mr + nr)
            beta, predicted = _newton_step(H, grad[free] / root, Z, root, delta)
            alpha[free] = beta / root
            # a weight's excess over the floor moves by a * alpha, but
            # shrinks at most tenfold
            w2 = w * np.maximum(1.0 + a * alpha / w, _SHRINK)
            wa2, wb2 = w2[:mr], w2[mr:]
            wa2 *= (1.0 - mr * fa) / wa2.sum()
            wb2 *= (1.0 - nr * fb) / wb2.sum()
            trial = _Weights(Ar, fa + wa2, fb + wb2)
            gain = trial.value - pt.value
            if gain > slack or (gain >= -slack and trial.upper < pt.upper):
                if gain > slack and gain < 0.25 * predicted:
                    delta /= 4.0
                elif gain > 0.75 * predicted and np.abs(alpha).max() >= 0.99 * delta:
                    delta = min(2.0 * delta, 1e3)
                break
            delta /= 4.0
        else:
            raise SolverError(
                f"no step improves either bound after {it} iterations "
                f"(relative gap {gap:.3e}, tol {tol:.1e})")
        pt, wa, wb = trial, wa2, wb2

    r = pt.s.size
    half_a, half_b = np.sqrt(pt.a), np.sqrt(pt.b)
    root = np.sqrt(pt.s * scale)
    x = np.zeros((m, r), dtype=pt.U.dtype)
    y = np.zeros((n, r), dtype=pt.Vh.dtype)
    x[rows] = pt.U[:, :r] * root / half_a[:, None]
    y[cols] = pt.Vh[:r].conj().T * root / half_b[:, None]
    mu, nu = np.zeros(m), np.zeros(n)
    mu[rows], nu[cols] = pt.a / 2.0, pt.b / 2.0
    R = np.zeros((m, n), dtype=pt.U.dtype)
    R[np.ix_(rows, cols)] = -(half_a[:, None] * (pt.U[:, :r] @ pt.Vh[:r])
                              * half_b) / 2.0
    price = float(-2.0 * np.real(np.sum(A * R.conj())))
    # a few ulps of the price itself matter only when A is subnormal
    lower = price - allowance - 4.0 * float(np.spacing(price))
    upper = witness_upper_bound(x, y)
    return SchurSolution(
        value=pt.value * scale, x=x, y=y,
        witness_residual=verify_witness(A, x, y), upper_bound=upper,
        mu=mu, nu=nu, R=R, lower_bound=lower, iterations=it,
        gap=(upper - lower) / max(1.0, upper))


# ---------------------------------------------------------------------------
# matrix files
# ---------------------------------------------------------------------------

def _fmt_entry(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def write_matrix_csv(fh, A: np.ndarray, header_lines=()) -> None:
    """Entries as a+bi text, one matrix row per line, comma separated."""
    A = np.asarray(A, dtype=complex)
    for line in header_lines:
        fh.write(line.rstrip("\n") + "\n")
    for row in A:
        fh.write(",".join(_fmt_entry(z) for z in row) + "\n")


def read_matrix_csv(fh) -> np.ndarray:
    rows = []
    for line in fh:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([complex(tok.strip().replace("i", "j"))
                     for tok in line.split(",")])
    if not rows:
        return np.zeros((0, 0), dtype=complex)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix rows")
    return np.array(rows, dtype=complex)


_MAGIC = b"SCHR1"


def write_matrix_binary(fh, A: np.ndarray) -> None:
    """Magic 'SCHR1', uint32 m and n little endian, then float64 little
    endian (re, im) pairs in row-major order."""
    A = np.ascontiguousarray(np.asarray(A, dtype=complex))
    m, n = A.shape
    fh.write(_MAGIC)
    fh.write(struct.pack("<II", m, n))
    inter = np.empty((m, n, 2))
    inter[:, :, 0] = A.real
    inter[:, :, 1] = A.imag
    fh.write(inter.astype("<f8").tobytes())


def read_matrix_binary(fh) -> np.ndarray:
    """Read the write_matrix_binary format from a seekable binary handle.

    The header's m x n is checked against the bytes left in the file before
    anything is read, so a header that overstates the size fails without
    allocating what it claims.
    """
    magic = fh.read(5)
    if magic != _MAGIC:
        raise ValueError(f"bad matrix file magic {magic!r}")
    header = fh.read(8)
    if len(header) != 8:
        raise ValueError("truncated matrix header")
    m, n = struct.unpack("<II", header)
    here = fh.tell()
    left = fh.seek(0, 2) - here
    fh.seek(here)
    if left < 16 * m * n:
        raise ValueError(f"matrix header claims {m}x{n} entries but only "
                         f"{left} bytes follow")
    raw = fh.read(16 * m * n)
    if len(raw) != 16 * m * n:
        raise ValueError("truncated matrix file")
    return np.frombuffer(raw, dtype="<c16").reshape(m, n)
