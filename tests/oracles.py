"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive: plain BFS over group elements, angle
grid search for the 2x2 factorization norm, direct summation for kernels.
The implementations under src/ must agree with these, not the other way
round.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp


def bfs_sphere_sizes(identity, generators, multiply, radius: int) -> list[int]:
    """Sphere sizes [#S_0, ..., #S_radius] by plain breadth-first search."""
    seen = {identity}
    frontier = [identity]
    sizes = [1]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for s in generators:
                y = multiply(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        sizes.append(len(nxt))
        frontier = nxt
    return sizes


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
