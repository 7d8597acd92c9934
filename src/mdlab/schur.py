"""Entrywise-factorization norm of a matrix by interior-point SDP.

The norm of A is the least t admitting vectors x_1..x_m, y_1..y_n with
A_ij = <x_i, y_j> and max_i |x_i|^2 <= t, max_j |y_j|^2 <= t.  Equivalently,
minimize t subject to

    [[P, A], [A*, Q]] >= 0,   diag(P) <= t,   diag(Q) <= t,

a linear matrix inequality in (P, Q, t).  The solver below is a feasible
predictor-corrector method with Nesterov-Todd scaling written directly
against this structure: the Newton system's Gram matrix has a closed form
in the scaling point, so each iteration is one dense assembly plus one
Cholesky factorization of a K x K matrix, K = m(m+1)/2 + n(n+1)/2 + 1.
Off-the-shelf conic translators expand the same problem through a general
PSD cone interface whose canonicalization is far too large at the matrix
sizes the norm bracket sweeps need.

Complex input is solved through its realification [[X, -Y], [Y, X]], which
has the same norm: averaging any feasible point with its conjugate under
the block rotation J = realified iI restores the complex structure without
touching the off-diagonal data, the objective, or positive semidefiniteness.

Both ends of the answer carry checkable evidence.  The primal side yields
vectors x_i, y_j reproducing A up to a reported residual; the dual side
yields weights (mu, nu) and a coupling matrix R with
[[diag mu, R], [R*, diag nu]] >= 0 and total weight 1, which certifies
norm >= -2 Re <A, R> by weak duality alone.  Certificates are repaired to
exact feasibility (diagonal shift, mass renormalization) before they are
reported, so the lower bound never leans on solver accuracy.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky, eigh, solve_triangular

__all__ = [
    "SolverError", "SchurSolution", "schur_norm",
    "certificate_lower_bound", "verify_witness", "witness_upper_bound",
    "psd_check",
    "write_matrix_csv", "read_matrix_csv",
    "write_matrix_binary", "read_matrix_binary",
]

_SQRT2 = math.sqrt(2.0)


class SolverError(RuntimeError):
    """Interior-point iteration failed to reach the requested tolerance."""


@dataclass
class SchurSolution:
    """Norm value with a factorization witness and a dual certificate.

    x, y are row-stacked factor vectors (A ~ x @ y.conj().T up to
    witness_residual).  (mu, nu, R) is feasible for the dual after repair:
    the block matrix [[diag mu, R], [R*, diag nu]] is positive semidefinite
    with sum(mu) + sum(nu) = 1, so lower_bound = -2 Re <A, R> holds
    unconditionally, not merely up to solver tolerance.
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
    converged: bool


# ---------------------------------------------------------------------------
# interior-point core (real symmetric data)
# ---------------------------------------------------------------------------

def _alpha_psd(L: np.ndarray, D: np.ndarray) -> float:
    """Largest a with X + a D >= 0, given X = L L^T > 0 and symmetric D."""
    T = solve_triangular(L, D, lower=True, check_finite=False)
    T = solve_triangular(L, T.T, lower=True, check_finite=False)
    lam = np.linalg.eigvalsh((T + T.T) / 2.0)[0]
    if lam >= -1e-16:
        return math.inf
    return -1.0 / lam


def _alpha_vec(x: np.ndarray, d: np.ndarray) -> float:
    neg = d < 0
    if not neg.any():
        return math.inf
    return float(np.min(x[neg] / -d[neg]))


def _ipm(A: np.ndarray, tol: float, max_iter: int) -> dict:
    """Minimize t over [[P,A],[A^T,Q]] >= 0, diag P <= t, diag Q <= t.

    Expects real A prescaled to spectral norm about 1.  Returns the primal
    block S1 = [[P,A],[A^T,Q]], slacks s2 = (t - diag P, t - diag Q), the
    dual block Z1 and diagonal dual z2, plus iteration diagnostics.  The
    start P = Q = 1.2 I, t = 2.4, Z1 = I/(m+n), z2 = 1/(m+n) is strictly
    feasible on both sides, and steps stay 0.98 short of each boundary, so
    every iterate remains feasible and the duality gap is a true error bound.
    """
    m, n = A.shape
    N1 = m + n
    ntot = 2 * N1
    ia_p, ib_p = np.triu_indices(m)
    ia_q, ib_q = np.triu_indices(n)
    ia = np.concatenate([ia_p, ia_q + m])
    ib = np.concatenate([ib_p, ib_q + m])
    K0 = ia.size
    K = K0 + 1
    off = ia != ib
    unpack = np.where(off, 1.0 / _SQRT2, 1.0)   # svec entry -> matrix entry
    pack = np.where(off, _SQRT2, 1.0)           # matrix entry -> svec entry
    wgt = np.where(off, 1.0, 1.0 / _SQRT2)      # Gram-matrix scaling weights
    diag_k = np.nonzero(~off)[0]
    diag_pos = ia[diag_k]

    def build_S(y):
        S1 = np.zeros((N1, N1))
        vals = y[:K0] * unpack
        S1[ia, ib] = vals
        S1[ib, ia] = vals
        S1[:m, m:] = A
        S1[m:, :m] = A.T
        s2 = y[K0] - np.diagonal(S1)
        return S1, s2

    y = np.zeros(K)
    y[diag_k] = 1.2
    y[K0] = 2.4
    Z1 = np.eye(N1) / N1
    z2 = np.full(N1, 1.0 / N1)

    chunk = max(64, (1 << 22) // max(K0, 1))
    converged = False
    it = 0
    gap_rel = math.inf
    S1, s2 = build_S(y)
    for it in range(1, max_iter + 1):
        pobj = y[K0]
        dobj = -2.0 * float(np.sum(A * Z1[:m, m:]))
        gap_rel = (pobj - dobj) / max(1.0, abs(pobj))
        mu = (float(np.sum(S1 * Z1)) + float(s2 @ z2)) / ntot
        if gap_rel <= tol and mu / max(1.0, abs(pobj)) <= tol:
            converged = True
            break

        try:
            L = cholesky(S1, lower=True, check_finite=False)
            Lz = cholesky(Z1, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"iterate left the cone at iteration {it}") from exc
        eye = np.eye(N1)
        S1inv = cho_solve((L, True), eye, check_finite=False)
        Mid = L.T @ Z1 @ L
        d, U = eigh((Mid + Mid.T) / 2.0, check_finite=False)
        d = np.clip(d, 1e-300, None)
        Msq = (U * np.sqrt(d)) @ U.T
        Linv = solve_triangular(L, eye, lower=True, check_finite=False)
        V1 = Linv.T @ (Msq @ Linv)
        V1 = (V1 + V1.T) / 2.0
        v2sq = z2 / s2
        inv_s2 = 1.0 / s2

        H = np.empty((K, K))
        for r0 in range(0, K0, chunk):
            r1 = min(K0, r0 + chunk)
            Va = V1[ia[r0:r1]]
            Vb = V1[ib[r0:r1]]
            Kc = Va[:, ia] * Vb[:, ib]
            Kc += Va[:, ib] * Vb[:, ia]
            Kc *= wgt[r0:r1, None]
            Kc *= wgt[None, :]
            H[r0:r1, :K0] = Kc
        H[:, K0] = 0.0
        H[K0, :] = 0.0
        H[diag_k, diag_k] += v2sq[diag_pos]
        H[diag_k, K0] = -v2sq[diag_pos]
        H[K0, diag_k] = -v2sq[diag_pos]
        H[K0, K0] = float(v2sq.sum())

        cho = None
        ridge = 1e-13 * float(np.mean(np.diagonal(H)))
        for attempt in range(4):
            try:
                cho = cho_factor(H, lower=True, check_finite=False)
                break
            except np.linalg.LinAlgError:
                H[np.arange(K), np.arange(K)] += ridge
                ridge *= 100.0
        if cho is None:
            raise SolverError(f"newton system not factorizable at iteration {it}")

        svec_S1inv = S1inv[ia, ib] * pack

        def direction(muhat):
            g = np.empty(K)
            g[:K0] = muhat * svec_S1inv
            g[diag_k] -= muhat * inv_s2[diag_pos]
            g[K0] = muhat * float(inv_s2.sum()) - 1.0
            dy = cho_solve(cho, g, check_finite=False)
            dS1 = np.zeros((N1, N1))
            vals = dy[:K0] * unpack
            dS1[ia, ib] = vals
            dS1[ib, ia] = vals
            ds2 = dy[K0] - np.diagonal(dS1)
            dZ1 = muhat * S1inv - Z1 - V1 @ dS1 @ V1
            dZ1 = (dZ1 + dZ1.T) / 2.0
            dz2 = muhat * inv_s2 - z2 - v2sq * ds2
            return dy, dS1, ds2, dZ1, dz2

        dy, dS1, ds2, dZ1, dz2 = direction(0.0)
        ap = min(1.0, 0.98 * min(_alpha_psd(L, dS1), _alpha_vec(s2, ds2)))
        ad = min(1.0, 0.98 * min(_alpha_psd(Lz, dZ1), _alpha_vec(z2, dz2)))
        mu_aff = (float(np.sum((S1 + ap * dS1) * (Z1 + ad * dZ1)))
                  + float((s2 + ap * ds2) @ (z2 + ad * dz2))) / ntot
        sigma = min(1.0, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        dy, dS1, ds2, dZ1, dz2 = direction(sigma * mu)
        ap = min(1.0, 0.98 * min(_alpha_psd(L, dS1), _alpha_vec(s2, ds2)))
        ad = min(1.0, 0.98 * min(_alpha_psd(Lz, dZ1), _alpha_vec(z2, dz2)))
        y = y + ap * dy
        Z1 = Z1 + ad * dZ1
        Z1 = (Z1 + Z1.T) / 2.0
        z2 = z2 + ad * dz2
        S1, s2 = build_S(y)

    return {
        "S1": S1, "s2": s2, "t": float(y[K0]), "Z1": Z1, "z2": z2,
        "iterations": it, "gap": float(gap_rel), "converged": converged,
    }


# ---------------------------------------------------------------------------
# realification bridge
# ---------------------------------------------------------------------------

def _realify(A: np.ndarray) -> np.ndarray:
    X, Y = A.real, A.imag
    return np.block([[X, -Y], [Y, X]])


def _complex_from_realified(B: np.ndarray, m: int, n: int) -> np.ndarray:
    """Recover M from a (possibly perturbed) realification [[X,-Y],[Y,X]].

    Averages the two copies of each part, which is exactly the projection
    onto matrices commuting with the block rotation J; positive
    semidefiniteness survives because the projection is an average of
    rotations of the input.
    """
    X = (B[:m, :n] + B[m:, n:]) / 2.0
    Y = (B[m:, :n] - B[:m, n:]) / 2.0
    return X + 1j * Y


# ---------------------------------------------------------------------------
# witnesses and certificates
# ---------------------------------------------------------------------------

def _factor_gram(G: np.ndarray, m: int, rel_cut: float = 1e-12):
    """Split a near-PSD Gram block into row vectors for the two index sets."""
    Gh = (G + G.conj().T) / 2.0
    lam, U = eigh(Gh, check_finite=False)
    lmax = float(lam[-1]) if lam.size else 0.0
    keep = lam > max(lmax, 0.0) * rel_cut
    if lmax <= 0.0:
        keep = np.zeros_like(lam, dtype=bool)
    B = U[:, keep] * np.sqrt(lam[keep])
    return B[:m], B[m:]


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
                            R: np.ndarray, psd_tol: float = 1e-10) -> float:
    """Evaluate a dual certificate from scratch; ValueError if infeasible.

    Checks mu, nu >= 0, total mass 1, and [[diag mu, R],[R*, diag nu]] >= 0
    up to psd_tol, then returns -2 Re sum_ij A_ij conj(R_ij).
    """
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


def _repair_certificate(mu, nu, R):
    """Shift and renormalize so the certificate is feasible outright."""
    m, n = R.shape
    mu = np.maximum(mu.real, 0.0)
    nu = np.maximum(nu.real, 0.0)
    C = np.zeros((m + n, m + n), dtype=complex)
    C[:m, :m] = np.diag(mu)
    C[m:, m:] = np.diag(nu)
    C[:m, m:] = R
    C[m:, :m] = R.conj().T
    lam_min = float(np.linalg.eigvalsh(C)[0]) if m + n else 0.0
    shift = max(0.0, -lam_min) + 1e-15
    mu = mu + shift
    nu = nu + shift
    mass = float(mu.sum() + nu.sum())
    return mu / mass, nu / mass, R / mass


def psd_check(M: np.ndarray, tol: float = 1e-10) -> tuple[bool, float]:
    """(is PSD up to tol, smallest eigenvalue) for a Hermitian matrix."""
    M = np.asarray(M)
    if M.size == 0:
        return True, 0.0
    lam = float(np.linalg.eigvalsh((M + M.conj().T) / 2.0)[0])
    return lam >= -tol, lam


def schur_norm(A, tol: float = 1e-8, max_iter: int = 100) -> SchurSolution:
    """Factorization norm of a real or complex matrix with both-sided evidence.

    Raises SolverError when the interior-point loop cannot reach tol within
    max_iter iterations; tolerances below about 1e-11 are not reliably
    reachable in double precision.
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
            iterations=0, gap=0.0, converged=True)
    if not np.all(np.isfinite(np.asarray(A, dtype=complex))):
        raise ValueError("matrix has non-finite entries")

    is_complex = np.iscomplexobj(A) and np.any(A.imag)
    scale = float(np.linalg.svd(np.asarray(A, dtype=complex), compute_uv=False)[0])
    if is_complex:
        As = A / scale
        work = _realify(As)
    else:
        As = A.real.astype(float) / scale
        work = As

    # The gap test inside the loop applies to the prescaled matrix; shrink
    # the target so the rescaled value overshoots the true norm by at most
    # tol, keeping value - tol a genuine lower bound.
    res = _ipm(work, max(tol / max(1.0, scale), 1e-12), max_iter)
    if not res["converged"]:
        raise SolverError(
            f"no convergence in {res['iterations']} iterations "
            f"(relative gap {res['gap']:.3e}, tol {tol:.1e})")

    S1, Z1 = res["S1"], res["Z1"]
    if is_complex:
        tm, tn = 2 * m, 2 * n
        P = _complex_from_realified(S1[:tm, :tm], m, m)
        Q = _complex_from_realified(S1[tm:, tm:], n, n)
        G = np.empty((m + n, m + n), dtype=complex)
        G[:m, :m] = P
        G[m:, m:] = Q
        G[:m, m:] = As
        G[m:, :m] = As.conj().T
        zd = np.diagonal(Z1)
        mu = zd[:m] + zd[m:tm]
        nu = zd[tm:tm + n] + zd[tm + n:]
        R = 2.0 * _complex_from_realified(Z1[:tm, tm:], m, n)
    else:
        G = S1
        zd = np.diagonal(Z1)
        mu, nu = zd[:m].copy(), zd[m:].copy()
        R = Z1[:m, m:].copy()

    x, y = _factor_gram(G, m)
    x = x * math.sqrt(scale)
    y = y * math.sqrt(scale)
    mu, nu, R = _repair_certificate(mu, nu, R)
    lower = float(-2.0 * np.real(np.sum(A * R.conj())))
    return SchurSolution(
        value=res["t"] * scale, x=x, y=y,
        witness_residual=verify_witness(A, x, y),
        upper_bound=witness_upper_bound(x, y),
        mu=mu, nu=nu, R=R, lower_bound=lower,
        iterations=res["iterations"], gap=res["gap"], converged=True)


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
    flat = np.frombuffer(raw, dtype="<f8").reshape(m, n, 2)
    return flat[:, :, 0] + 1j * flat[:, :, 1]
