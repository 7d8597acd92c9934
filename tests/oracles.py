"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive: plain BFS over group elements, angle
grid search for the 2x2 factorization norm, direct summation for kernels,
and, for small matrices, the interior-point SDP the factorization norm was
first computed with.  The implementations under src/ must agree with these,
not the other way round.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve, cholesky, eigh, solve_triangular

from mdlab.schur import (
    SchurSolution, SolverError, verify_witness, witness_upper_bound,
)


def bfs_spheres(identity, generators, multiply, radius: int, key=None) -> list[list]:
    """Spheres [S_0, ..., S_radius] by plain breadth-first search over tuples,
    each sorted by key when one is given."""
    seen = {identity}
    spheres = [[identity]]
    for _ in range(radius):
        nxt = []
        for x in spheres[-1]:
            for s in generators:
                y = multiply(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        spheres.append(sorted(nxt, key=key) if key is not None else nxt)
    return spheres


def bfs_sphere_sizes(identity, generators, multiply, radius: int) -> list[int]:
    """Sphere sizes [#S_0, ..., #S_radius] by plain breadth-first search."""
    return [len(s) for s in bfs_spheres(identity, generators, multiply, radius)]


def free_sphere_size(rank: int, r: int) -> int:
    """Sphere count in F_k: 1 for r=0, else 2k(2k-1)^(r-1)."""
    if r == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (r - 1)


def zn_ball_size(n: int, r: int) -> int:
    """|{m in Z^n : |m|_1 <= r}| by direct enumeration."""
    count = 0
    for v in itertools.product(range(-r, r + 1), repeat=n):
        if sum(abs(x) for x in v) <= r:
            count += 1
    return count


def schur_norm_2x2_grid(A: np.ndarray, steps: int = 2001) -> float:
    """Factorization norm of a real 2x2 matrix by dual angle grid search.

    Uses the rank-one duality: the norm is the maximum of
    trace_norm(diag(u) A diag(v)) over entrywise-nonnegative unit vectors
    u, v (phases of general unit vectors absorb into diagonal unitaries,
    which leave the trace norm alone).  Every grid point is a certified
    lower bound, so the grid maximum underestimates by at most the grid
    resolution.  For 2x2 the trace norm has the closed form
    sqrt(frobenius^2 + 2|det|), so the scan vectorizes.
    """
    A = np.asarray(A, dtype=float)
    assert A.shape == (2, 2)
    ang = np.linspace(0.0, math.pi / 2, steps)
    cu, su = np.cos(ang)[:, None], np.sin(ang)[:, None]
    cv, sv = np.cos(ang)[None, :], np.sin(ang)[None, :]
    A2 = A * A
    fro2 = (cu**2 * (A2[0, 0] * cv**2 + A2[0, 1] * sv**2)
            + su**2 * (A2[1, 0] * cv**2 + A2[1, 1] * sv**2))
    det = cu * su * cv * sv * float(np.linalg.det(A))
    tracenorm = np.sqrt(fro2 + 2.0 * np.abs(det))
    return float(tracenorm.max())


def fejer_coefficient(N: int, n: int) -> float:
    """Fejer kernel Fourier coefficient, cross-checked numerically.

    Returns the closed form max(0, 1 - |n|/(N+1)) after asserting it matches
    the Riemann average (1/2pi) int F_N(t) cos(nt) dt computed from the
    kernel's cosine expansion on a fine uniform grid.
    """
    closed = max(0.0, 1.0 - abs(n) / (N + 1))
    Q = 8192
    theta = 2.0 * math.pi * np.arange(Q) / Q
    F = np.zeros(Q)
    for m in range(-N, N + 1):
        F += (1.0 - abs(m) / (N + 1)) * np.cos(m * theta)
    riemann = float(np.mean(F * np.cos(n * theta)))
    assert abs(riemann - closed) < 1e-9, (N, n, riemann, closed)
    return closed


def poisson_sum_abs(r: float, terms: int = 200000) -> float:
    """sum_{n in Z} r^{|n|} = (1+r)/(1-r), checked by direct summation."""
    closed = (1.0 + r) / (1.0 - r)
    direct = 1.0 + 2.0 * sum(r ** n for n in range(1, terms))
    assert abs(closed - direct) < 1e-10
    return closed


def indicator01_circle_integral(samples: int = 2_000_001) -> float:
    """(1/2pi) int |1 + e^{-i theta}| d theta by midpoint rule.

    The integrand is 2|cos(theta/2)|; the exact value is 4/pi.  Midpoint on a
    smooth periodic integrand converges fast; the assert pins the closed
    form before it is frozen into tests.
    """
    theta = (np.arange(samples) + 0.5) * (2.0 * math.pi / samples)
    val = float(np.mean(np.abs(1.0 + np.exp(-1j * theta))))
    assert abs(val - 4.0 / math.pi) < 1e-9
    return 4.0 / math.pi


def circle_angles_reference(n: int, Q: int) -> np.ndarray:
    """The (Q^n, n) angle rows of the uniform Q^n grid, in C order."""
    axes = [2.0 * math.pi * np.arange(Q) / Q for _ in range(n)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def circle_characters_reference(thetas: np.ndarray):
    """pi(m) = exp(-i m.theta) on the angle rows, as a diagonal."""
    return lambda m: np.exp(-1j * (thetas @ np.asarray(m, dtype=float)))


def grid_trig_values_reference(items, thetas: np.ndarray) -> np.ndarray:
    """sum_k c_k e^{i k.theta} at each angle row, one complex exp per term."""
    vals = np.zeros(thetas.shape[0], dtype=complex)
    for t, v in items:
        vals += v * np.exp(1j * (thetas @ np.asarray(t, dtype=float)))
    return vals


def circle_quadrature_reference(items, n: int, Q: int):
    """(xi, eta) of the circle quadrature split built term by term:
    xi = conj(g/|g|) sqrt(w|g|), eta = sqrt(w|g|), by complex division."""
    g = grid_trig_values_reference(items, circle_angles_reference(n, Q))
    absg = np.abs(g)
    root = np.sqrt(1.0 / (Q ** n) * absg)
    phase = np.where(absg > 0, g / np.where(absg > 0, absg, 1.0), 0.0)
    return np.conj(phase) * root, root.astype(complex)


def gram_matrix_reference(group, phi, elements) -> np.ndarray:
    """M[i][j] = phi(s_i^-1 s_j), one product, one phi call and one array
    store per entry: the loop every gram_matrix route must match bit for bit."""
    n = len(elements)
    inv = [group.inverse(s) for s in elements]
    M = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            M[i, j] = phi(group.multiply(inv[i], elements[j]))
    return M


def interior_map_reference(point, t):
    """pi_z(t) on the columns of depth <= radius - len(t): one group product
    per column for the index map, then V times the shifted columns of V^-1."""
    ball = point.family.ball
    n = len(ball)
    m = sum(ball.sphere_sizes[:point.radius - len(t) + 1])
    mul = point.family.group.multiply
    p = np.fromiter((ball.index[mul(t, x)] for x in ball.elements[:m]),
                    dtype=np.intp, count=m)
    A = point.Vinv[:, :m].tocoo()
    shifted = sp.csr_matrix((A.data, (p[A.row], A.col)), shape=(n, m))
    return (point.V @ shifted).tocsr()


def sigma_max_lower_reference(M, iters: int = 60, rtol: float = 1e-13) -> float:
    """Largest singular value from below by power iteration on M*M, from a
    fixed real start vector, one sparse matrix at a time."""
    m = M.shape[1]
    if m == 0:
        return 0.0
    Mh = M.conj().T.tocsr()
    x = np.full(m, 1.0 / math.sqrt(m))
    lam = 0.0
    for _ in range(iters):
        y = Mh @ (M @ x)
        new = float(np.linalg.norm(y))
        if new == 0.0:
            return 0.0
        x = y / new
        if abs(new - lam) <= rtol * max(new, 1.0):
            lam = new
            break
        lam = new
    return math.sqrt(lam)


def empirical_bound_reference(point) -> float:
    """max(1, max over ball words t of the power-iteration norm of pi_z(t)
    on its interior columns), one word at a time."""
    best = 1.0
    for t in point.family.ball.elements[1:]:
        M = interior_map_reference(point, t)
        best = max(best, sigma_max_lower_reference(M))
    return best


# ---------------------------------------------------------------------------
# interior-point reference for the factorization norm
# ---------------------------------------------------------------------------
#
# The feasible predictor-corrector method with Nesterov-Todd scaling that
# mdlab.schur used before the reduced dual replaced it: minimize t subject
# to [[P, A], [A*, Q]] >= 0, diag P <= t, diag Q <= t, complex input solved
# through its realification [[X, -Y], [Y, X]], the witness read from the
# primal Gram block and the dual certificate repaired to exact feasibility.

# rows plus columns of the (realified) problem: 64 keeps the Newton matrix
# under 1100 x 1100, and takes the 29-element windows of Z
REFERENCE_MAX_SIDE = 64

_SQRT2 = math.sqrt(2.0)


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


def schur_norm_reference(A, tol: float = 1e-8, max_iter: int = 100) -> SchurSolution:
    """Factorization norm by the interior-point SDP that mdlab.schur once used.

    Kept verbatim as an independent oracle for the reduced-dual solver.  Its
    Newton matrix has K = m(m+1)/2 + n(n+1)/2 + 1 rows on the real (or
    realified) problem, so it refuses more than REFERENCE_MAX_SIDE rows
    plus columns.

    Raises SolverError when the interior-point loop cannot reach tol within
    max_iter iterations; tolerances below about 1e-11 are not reliably
    reachable in double precision.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError(f"expected a 2d matrix, got shape {A.shape}")
    m, n = A.shape
    if (2 if np.iscomplexobj(A) and np.any(A.imag) else 1) * (m + n) > REFERENCE_MAX_SIDE:
        raise ValueError(f"{m}x{n} is too large for the reference solver")
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
