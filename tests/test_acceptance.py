"""Acceptance gate: seven self-timed criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import random
import time

import numpy as np
import pytest

from mdlab.groups import SL2ZSemidirect, ZnGroup, build_ball, gram_matrix
from mdlab.schur import schur_norm
from mdlab.multipliers import (
    Multiplier,
    circle_quadrature_certificate,
    coset_average,
    extension_limit,
    extension_multiplier,
    folner_certificate,
    folner_tent_value,
    m2_lower_bound,
    md_upper_from_certificate,
    pairing_duality_check,
)
from mdlab.families import (
    TreeFamily,
    fejer_bracket,
    fejer_multiplier,
    fejer_nodes,
    quadrature_average,
    radial_power,
)

from oracles import indicator01_circle_integral, schur_norm_2x2_grid

Z = ZnGroup(1)


@contextlib.contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n} ({label}): FAIL")
        raise
    print(f"criterion {n} ({label}): PASS")


def random_correlation(rng, n: int) -> np.ndarray:
    G = rng.standard_normal((n, n + 2))
    C = G @ G.T
    d = 1.0 / np.sqrt(np.diag(C))
    return C * np.outer(d, d)


def test_criterion_1_schur_sdp_correctness():
    with criterion(1, "Schur-SDP correctness"):
        rng = np.random.default_rng(0)
        for i in range(50):
            n = 2 + i % 11
            A = random_correlation(rng, n)
            t0 = time.perf_counter()
            sol = schur_norm(A)
            assert time.perf_counter() - t0 <= 1.0
            assert sol.value == pytest.approx(1.0, abs=1e-5)
        A = np.array([[1.0, 1.0], [1.0, -1.0]])
        t0 = time.perf_counter()
        sol = schur_norm(A)
        assert time.perf_counter() - t0 <= 1.0
        assert sol.value == pytest.approx(schur_norm_2x2_grid(A), abs=1e-4)
        assert sol.value == pytest.approx(math.sqrt(2), abs=1e-4)


def test_criterion_2_bracket_pinch_on_z():
    with criterion(2, "bracket pinch on Z"):
        t0 = time.perf_counter()
        window = build_ball(Z, 1)
        segment = [(k,) for k in range(31)]
        for N in (4, 8, 16, 32):
            for r in (0.5, 0.9):
                phi = fejer_multiplier(Z, N, r)
                G = gram_matrix(Z, phi, segment)
                lam = float(np.linalg.eigvalsh((G + G.conj().T) / 2)[0])
                assert lam >= -1e-10
                _, br = fejer_bracket(Z, N, r, 2, window)
                assert br.lower == pytest.approx(1.0, abs=1e-5)
                assert br.upper == pytest.approx(1.0, abs=1e-5)
        assert time.perf_counter() - t0 <= 30.0


def test_criterion_3_kernel_identity():
    with criterion(3, "smoothing kernel identity"):
        t0 = time.perf_counter()
        worst = 0.0
        for N in range(33):
            for r in (0.5, 0.9):
                thetas, weights = fejer_nodes(N)
                samples = [radial_power(Z, r * cmath.exp(1j * th), N)
                           for th in thetas]
                avg, _ = quadrature_average(samples, weights)
                got = np.asarray(avg.coeffs, dtype=complex)
                want = np.asarray(fejer_multiplier(Z, N, r).coeffs,
                                  dtype=complex)
                # the averaging cutoff may trim a sub-1e-14 tail
                L = max(got.size, want.size)
                pad_got = np.zeros(L, dtype=complex)
                pad_got[:got.size] = got
                pad_want = np.zeros(L, dtype=complex)
                pad_want[:want.size] = want
                worst = max(worst, float(np.max(np.abs(pad_got - pad_want))))
        assert worst <= 1e-10
        assert time.perf_counter() - t0 <= 5.0


def test_criterion_4_four_over_pi_target():
    with criterion(4, "4/pi target"):
        t0 = time.perf_counter()
        phi = Multiplier.finite(Z, {(0,): 1.0, (1,): 1.0}, name="ind01")
        cert = circle_quadrature_certificate(Z, phi, Q=512)
        target = md_upper_from_certificate(cert, 2)
        assert target == pytest.approx(indicator01_circle_integral(), abs=1e-4)
        values = []
        for n in (4, 8, 16, 32, 64):
            lower, _ = m2_lower_bound(Z, phi, [(k,) for k in range(n + 1)])
            values.append(lower)
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-9
        assert all(v <= target + 1e-6 for v in values)
        assert time.perf_counter() - t0 <= 60.0


def test_criterion_5_tree_family_contract():
    with criterion(5, "tree family contract"):
        t0 = time.perf_counter()
        family = TreeFamily(2, 6)
        probe = family.ball.sphere(3)[0]
        for modulus in (0.3, 0.6, 0.9):
            for phase in (1.0, cmath.exp(1j * math.pi / 4), 1j):
                z = modulus * phase
                point = family.point(z, check=False)
                assert point.coefficient_residual() <= 1e-8
                if z.imag == 0.0:
                    assert point.unitarity_residual() <= 1e-8
                assert 3.5 <= family.cr_ratio(probe, z, 1e-3) <= 4.5
        assert time.perf_counter() - t0 <= 120.0


def test_criterion_6_extension_pipeline():
    with criterion(6, "extension pipeline"):
        t0 = time.perf_counter()
        G = SL2ZSemidirect()
        qball = build_ball(G.matrix_part, 2)
        section = {G.lift(x): 1 for x in qball.elements}

        # the limit object is constant on translate cosets, bit-for-bit
        limit = extension_limit(G, section)
        shifts = [(G.identity[0], v) for v in ((1, 0), (0, -1), (3, 2))]
        for t in build_ball(G, 3).elements:
            for gamma in shifts:
                assert limit(G.multiply(gamma, t)) == limit(t)

        # adjoint identity, exact on integer data
        rng = random.Random(123)
        gens = G.generators()
        for _ in range(100):
            f = {}
            for _ in range(rng.randrange(1, 8)):
                t = G.identity
                for _ in range(rng.randrange(0, 6)):
                    t = G.multiply(t, rng.choice(gens))
                f[t] = complex(rng.randrange(-9, 10), rng.randrange(-9, 10))
            table = {}
            psi_rand = lambda x: table.setdefault(
                x, complex(rng.randrange(-9, 10), rng.randrange(-9, 10)))
            lhs = sum(psi_rand(G.project(t)) * v for t, v in f.items())
            rhs = sum(psi_rand(x) * v
                      for x, v in coset_average(G, f).items())
            assert lhs == rhs

        # pointwise approach to 1 at five fixed elements, improving in k
        gen_T, gen_S = gens[0], gens[2]
        gen_e1, gen_e2 = (G.identity[0], (1, 0)), (G.identity[0], (0, 1))
        samples = [
            gen_e1,
            (G.identity[0], (2, 1)),
            G.multiply(gen_T, gen_e1),
            G.multiply(gen_S, gen_e2),
            G.multiply(gen_e1, gen_S),
        ]
        assert all(t[1] != (0, 0) for t in samples)
        residuals = []
        for k in (2, 4, 8, 16):
            ext = extension_multiplier(
                G, section,
                lambda gamma, k=k: folner_tent_value(gamma[1], k))
            residuals.append([abs(complex(ext(t)) - 1.0) for t in samples])
        for row, nxt in zip(residuals, residuals[1:]):
            assert all(b < a for a, b in zip(row, nxt))
        assert time.perf_counter() - t0 <= 120.0


def test_criterion_7_structural_invariants():
    with criterion(7, "structural invariants"):
        t0 = time.perf_counter()

        # submatrix monotonicity of the factorization norm
        rng = np.random.default_rng(7)
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        full = schur_norm(M).value
        for k in (2, 3, 4):
            assert schur_norm(M[:k, :k]).value <= full + 2e-8

        # window-enlargement monotonicity of the m2 lower bound
        phi = Multiplier.finite(Z, {(0,): 1.0, (1,): 1.0})
        v_small, _ = m2_lower_bound(Z, phi, [(k,) for k in range(5)])
        v_large, _ = m2_lower_bound(Z, phi, [(k,) for k in range(9)])
        assert v_small <= v_large + 2e-8

        # certificate bounds scale by |pi| per extra order
        for cert in (circle_quadrature_certificate(Z, phi, Q=256),
                     folner_certificate(ZnGroup(2), 5)):
            pi_norm = getattr(cert, "pi_norm", 1.0)
            assert pi_norm >= 1.0
            for d in (1, 2, 3):
                ratio = md_upper_from_certificate(cert, d + 1) / \
                    md_upper_from_certificate(cert, d)
                assert ratio == pytest.approx(pi_norm, rel=1e-12)

        # pairing duality: the certificate prices every pairing
        tent = Multiplier.finite(
            ZnGroup(1), {(m,): folner_tent_value((m,), 3)
                         for m in range(-3, 4)})
        cert = circle_quadrature_certificate(Z, tent, Q=128)
        rng2 = random.Random(5)
        for _ in range(20):
            g = {(rng2.randrange(-4, 5),): complex(rng2.uniform(-1, 1),
                                                   rng2.uniform(-1, 1))
                 for _ in range(rng2.randrange(1, 6))}
            lhs, rhs = pairing_duality_check(tent, cert, g)
            assert lhs <= rhs + 1e-9

        # box certificates on lattices price every order at exactly 1
        for n in (1, 2, 3):
            for k in (2, 5):
                cert = folner_certificate(ZnGroup(n), k)
                for d in (1, 2, 3, 4):
                    assert md_upper_from_certificate(cert, d) == 1.0

        assert time.perf_counter() - t0 <= 60.0
