"""Multiplier data model, certificates, brackets, and the quotient toolkit."""

from __future__ import annotations

import io
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlab.groups import (
    FiniteGroup,
    FreeGroup,
    GroupError,
    SL2Z,
    SL2ZSemidirect,
    ZnGroup,
    build_ball,
    gram_matrix,
)
from mdlab import multipliers, schur
from mdlab.multipliers import (
    CertificateError,
    LatticeShiftCertificate,
    MatrixRepCertificate,
    Multiplier,
    MultiplierError,
    NormBracket,
    certificate_from_bounded_rep,
    certificate_from_unitary_rep,
    circle_quadrature_certificate,
    compute_bracket,
    constant_certificate,
    coset_average,
    cstar_norm_finite,
    density_quadrature_certificate,
    extension_limit,
    extension_multiplier,
    folner_approximants,
    folner_certificate,
    folner_multiplier,
    folner_tent_value,
    inflate_multiplier,
    m2_lower_bound,
    md_upper_from_certificate,
    pairing,
    pairing_duality_check,
    radial_density_certificate,
    read_brackets_csv,
    regular_compression_norm,
    restrict_multiplier,
    sup_abs_window,
    verify_certificate,
    write_brackets_csv,
)

from oracles import (
    character_sums_reference,
    circle_angles_reference,
    circle_characters_reference,
    circle_quadrature_fft_reference,
    circle_quadrature_reference,
    grid_trig_values_reference,
    indicator01_circle_integral,
    schur_norm_2x2_grid,
)
from strategies import json_values, multiplier_descriptions


Z = ZnGroup(1)
Z2 = ZnGroup(2)


def indicator01():
    return Multiplier.finite(Z, {(0,): 1.0, (1,): 1.0}, name="ind01")


class TestMultiplier:
    def test_finite_eval_and_sup(self):
        phi = Multiplier.finite(Z, {(0,): 1.0, (2,): -0.5 + 0.5j})
        assert phi((0,)) == 1.0
        assert phi((1,)) == 0.0
        assert phi((2,)) == -0.5 + 0.5j
        assert phi.sup_abs() == 1.0
        # zeros are dropped from the support
        assert Multiplier.finite(Z, {(3,): 0.0}).sup_abs() == 0.0

    def test_radial_eval(self):
        g = FreeGroup(2)
        phi = Multiplier.radial(g, [1.0, 0.5, 0.25])
        assert phi(()) == 1.0
        assert phi((1,)) == 0.5
        assert phi((1, 2)) == 0.25
        assert phi((1, 2, 1)) == 0.0
        assert phi.sup_abs() == 1.0

    def test_callable(self):
        phi = Multiplier.from_callable(Z, lambda m: 1.0 / (1 + abs(m[0])))
        assert phi((3,)) == 0.25
        with pytest.raises(MultiplierError):
            phi.sup_abs()
        ball = build_ball(Z, 4)
        assert sup_abs_window(phi, ball.elements) == 1.0

    def test_json_round_trip_finite(self):
        phi = Multiplier.finite(Z2, {(1, 0): 2.0, (0, -1): 1j}, name="f")
        back = Multiplier.from_json(Z2, phi.to_json())
        for m in [(1, 0), (0, -1), (2, 2)]:
            assert back(m) == phi(m)
        assert back.name == "f"

    def test_json_round_trip_radial(self):
        g = FreeGroup(2)
        phi = Multiplier.radial(g, [1.0, 0.3 + 0.1j])
        back = Multiplier.from_json(g, phi.to_json())
        assert back.coeffs == phi.coeffs

    def test_json_rejects_junk(self):
        with pytest.raises(MultiplierError):
            Multiplier.from_json(Z, {"neither": 1})
        with pytest.raises(MultiplierError):
            Multiplier.from_json(Z, {"support": [[[0], 1.0]]})

    def test_json_values_are_finite_numbers_or_pairs(self):
        phi = Multiplier.from_json(Z, {"radial": {"coeffs_by_length": [1, [0.5, -0.5]]}})
        assert phi.coeffs == [1.0, 0.5 - 0.5j]
        for bad in ([True], ["1"], [[1]], [[1, 2, 3]], [float("nan")], [10 ** 400],
                    [[1, float("inf")]], [None]):
            with pytest.raises(MultiplierError):
                Multiplier.from_json(Z, {"radial": {"coeffs_by_length": bad}})

    @given(multiplier_descriptions() | json_values)
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_json_raises_only_validation_errors(self, obj):
        for group in (Z, FreeGroup(2), FiniteGroup([[0, 1], [1, 0]])):
            try:
                Multiplier.from_json(group, obj)
            except (MultiplierError, GroupError):
                pass


class TestQuadratureCertificate:
    def test_indicator_reproduction_inside_window(self):
        cert = circle_quadrature_certificate(Z, indicator01(), Q=64)
        phi = indicator01()
        for m in range(-20, 21):
            assert abs(cert.coefficient((m,)) - complex(phi((m,)))) < 1e-12

    def test_bound_converges_to_circle_integral(self):
        oracle = indicator01_circle_integral()
        b512 = circle_quadrature_certificate(Z, indicator01(), Q=512).bound(2)
        b4096 = circle_quadrature_certificate(Z, indicator01(), Q=4096).bound(2)
        assert abs(b512 - oracle) < 1e-4
        assert abs(b4096 - oracle) < 1e-6
        assert abs(b4096 - oracle) <= abs(b512 - oracle)

    def test_bound_is_d_independent_for_unitary_pi(self):
        cert = circle_quadrature_certificate(Z, indicator01(), Q=128)
        assert cert.bound(2) == cert.bound(3) == cert.bound(7)

    def test_window_declared_and_enforced(self):
        cert = circle_quadrature_certificate(Z, indicator01(), Q=8)
        assert cert.window_member((6,))
        assert not cert.window_member((7,))
        # beyond the window the quadrature value aliases back to phi(m - Q)
        assert abs(cert.coefficient((8,)) - 1.0) < 1e-12

    def test_verify_exhaustive_and_skips(self):
        phi = indicator01()
        cert = circle_quadrature_certificate(Z, phi, Q=8)
        elements = [(m,) for m in range(-5, 6)]
        rep = verify_certificate(phi, cert, elements, d=2)
        assert rep.skipped_outside_window > 0
        assert rep.checked > 0
        assert rep.max_residual < 1e-12
        assert rep.ok(1e-9)

    def test_zn_quadrature(self):
        phi = Multiplier.finite(Z2, {(0, 0): 1.0, (1, -1): 0.5})
        cert = circle_quadrature_certificate(Z2, phi, Q=16)
        for m in [(0, 0), (1, -1), (2, 3), (-1, 1)]:
            assert abs(cert.coefficient(m) - complex(phi(m))) < 1e-12
        rep = verify_certificate(phi, cert, [(i, j) for i in range(-2, 3)
                                             for j in range(-2, 3)], d=2)
        assert rep.ok(1e-9)

    def test_rejects_wrong_input(self):
        with pytest.raises(CertificateError):
            circle_quadrature_certificate(Z, Multiplier.radial(Z, [1.0]), Q=16)
        with pytest.raises(CertificateError):
            circle_quadrature_certificate(
                Z, Multiplier.finite(Z, {(9,): 1.0}), Q=8)

    def test_z2_grid_at_default_q_is_under_the_node_cap(self):
        # the Z^3 refusal is pinned end to end in test_cli.py
        phi = Multiplier.finite(Z2, {(0, 0): 1.0, (1, 0): 1.0})
        assert len(circle_quadrature_certificate(Z2, phi).xi) == 512 ** 2


def random_support(rng, n: int, reach: int, terms: int) -> dict:
    """Seeded complex coefficients on points of [-reach, reach]^n."""
    return {tuple(int(c) for c in rng.integers(-reach, reach + 1, size=n)):
            complex(*rng.normal(size=2)) for _ in range(terms)}


def grid_supports(rng, n: int, Q: int) -> list:
    """Seeded supports on Z^n as sorted items: random terms with negative
    coordinates that wrap and two terms in one bin, a single term, and one
    term on every line of the last axis."""
    shared = random_support(rng, n, reach=2 * Q, terms=8)
    k = next(iter(shared))
    twin = k[:-1] + (k[-1] - Q,)                  # bin k mod Q taken twice
    shared[twin] = shared.get(twin, 0) + 0.5 - 0.25j
    one = random_support(rng, n, reach=Q, terms=1)
    lead = range(-(Q // 2), Q - Q // 2)           # every residue mod Q
    every_line = {line + (int(rng.integers(-Q, Q)),): complex(*rng.normal(size=2))
                  for line in itertools.product(lead, repeat=n - 1)}
    return [sorted(s.items()) for s in (shared, one, every_line)]


class TestGridTrigValues:
    """The occupied-line FFT against the full ifftn and against the per-term
    complex exponentials."""

    @pytest.mark.parametrize("n,Q", [(1, 7), (1, 512), (2, 5), (2, 64), (3, 4), (3, 9)])
    def test_occupied_lines_match_the_full_ifftn_bit_for_bit(self, n, Q):
        rng = np.random.default_rng(100 * n + Q)
        thetas = circle_angles_reference(n, Q)
        for items in grid_supports(rng, n, Q):
            got = multipliers._grid_trig_values(items, n, Q)
            assert np.array_equal(got, grid_trig_values_reference(items, n, Q))
            scale = sum(abs(v) for _, v in items)
            assert np.max(np.abs(got - character_sums_reference(items, thetas))) <= 1e-12 * scale

    def test_z2_certificate_holds_xi_eta_and_one_real_buffer(self):
        Q = 512
        phi = Multiplier.finite(Z2, {(0, 0): 1.0, (1, 0): 0.25, (-1, 0): 0.25,
                                     (0, 1): 0.25, (0, -1): 0.25})
        circle_quadrature_certificate(Z2, phi, Q=Q)   # FFT plans made outside the trace
        tracemalloc.start()
        try:
            cert = circle_quadrature_certificate(Z2, phi, Q=Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # xi and eta take 16 Q^2 bytes each, sqrt(w |g|) half that
        assert peak <= 2.75 * 16 * Q ** 2
        xi, eta = circle_quadrature_fft_reference(phi.support_items(), 2, Q)
        assert np.array_equal(cert.xi, xi) and np.array_equal(cert.eta, eta)

    @pytest.mark.parametrize("n,Q", [(1, 8), (1, 7), (2, 6), (2, 5), (3, 4)])
    def test_matches_the_per_term_sum_even_when_terms_share_a_bin(self, n, Q):
        rng = np.random.default_rng(10 * n + Q)
        for _ in range(5):
            support = random_support(rng, n, reach=2 * Q, terms=8)
            k = next(iter(support))
            shifted = (k[0] + Q,) + k[1:]        # bin k mod Q taken twice
            support[shifted] = support.get(shifted, 0) + 0.5 - 0.25j
            items = sorted(support.items())
            got = multipliers._grid_trig_values(items, n, Q)
            want = character_sums_reference(items, circle_angles_reference(n, Q))
            scale = sum(abs(v) for _, v in items)
            assert got.shape == (Q ** n,)
            assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("group,Q,reach", [(Z, 512, 6), (Z, 16, 7), (Z2, 512, 2),
                                               (Z2, 24, 5)])
    def test_prices_agree_with_the_per_term_build_within_4_ulp(self, group, Q, reach):
        rng = np.random.default_rng(Q + group.n)
        for _ in range(3):
            phi = Multiplier.finite(group, random_support(rng, group.n, reach, 5))
            cert = circle_quadrature_certificate(group, phi, Q=Q)
            xi, eta = circle_quadrature_reference(phi.support_items(), group.n, Q)
            want = float(np.linalg.norm(xi) * np.linalg.norm(eta))
            assert len(cert.xi) == Q ** group.n
            assert abs(cert.bound(2) - want) <= 4 * np.spacing(want)
            assert np.max(np.abs(cert.xi - xi)) <= 1e-14 * np.max(np.abs(xi))

    @pytest.mark.parametrize("group,Q", [(Z, 16), (Z2, 12)])
    def test_characters_keep_their_bits(self, group, Q):
        pi_ref = circle_characters_reference(circle_angles_reference(group.n, Q))
        phi = Multiplier.finite(group, {(0,) * group.n: 1.0, (1,) * group.n: 0.5j})
        dens = lambda th: 2.0 + np.cos(th[:, 0])
        for cert in (circle_quadrature_certificate(group, phi, Q=Q),
                     density_quadrature_certificate(group, dens, Q=Q)):
            for m in [(0,) * group.n, (1,) * group.n, (3, -2)[:group.n], (-7,) * group.n]:
                assert np.array_equal(cert.pi(m), pi_ref(m))

    def test_density_route_residuals_keep_their_bits(self):
        r = 0.8
        dens = lambda th: (1 - r * r) / (1 - 2 * r * np.cos(th[:, 0]) + r * r)
        phi = Multiplier.from_callable(Z, lambda m: r ** abs(m[0]))
        elements = [(m,) for m in range(-6, 7)]
        thetas = circle_angles_reference(1, 64)
        root = np.sqrt(1.0 / 64 * dens(thetas)).astype(complex)
        ref = MatrixRepCertificate(group=Z, pi=circle_characters_reference(thetas),
                                   xi=root.copy(), eta=root, pi_norm=1.0,
                                   pi_provenance="unitary", kind="density")
        cert = density_quadrature_certificate(Z, dens, Q=64)
        assert cert.bound(2) == ref.bound(2)
        for d in (1, 2):
            got = verify_certificate(phi, cert, elements, d=d)
            want = verify_certificate(phi, ref, elements, d=d)
            assert got.max_residual == want.max_residual
            assert got.checked == want.checked

    def test_circle_route_residuals_match_the_per_term_build(self):
        phi = Multiplier.finite(Z2, {(0, 0): 1.0, (1, -1): 0.5, (0, 2): -0.25j})
        xi, eta = circle_quadrature_reference(phi.support_items(), 2, 16)
        ref = MatrixRepCertificate(
            group=Z2, pi=circle_characters_reference(circle_angles_reference(2, 16)),
            xi=xi, eta=eta, pi_norm=1.0, pi_provenance="unitary", kind="quadrature")
        cert = circle_quadrature_certificate(Z2, phi, Q=16)
        elements = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
        got = verify_certificate(phi, cert, elements, d=2)
        want = verify_certificate(phi, ref, elements, d=2)
        assert got.max_residual < 1e-14 and want.max_residual < 1e-14
        assert abs(got.max_residual - want.max_residual) < 1e-15

    def test_radial_route_evaluates_the_density_once(self, monkeypatch):
        calls = []
        real = multipliers._grid_trig_values

        def counted(items, n, Q):
            calls.append((len(items), n, Q))
            return real(items, n, Q)

        monkeypatch.setattr(multipliers, "_grid_trig_values", counted)
        coeffs = [1.0, 0.3, 0.1, 0.05j]
        cert = radial_density_certificate(Z, Multiplier.radial(Z, [1.0, 0.3, 0.1]))
        assert calls == [(5, 1, 64)]
        with pytest.raises(CertificateError):
            radial_density_certificate(Z, Multiplier.radial(Z, coeffs))
        assert calls == [(5, 1, 64), (7, 1, 64)]
        thetas = circle_angles_reference(1, 64)
        items = [((0,), 1.0), ((1,), 0.3), ((-1,), 0.3), ((2,), 0.1), ((-2,), 0.1)]
        h = character_sums_reference(items, thetas).real
        want = float(np.linalg.norm(np.sqrt(1.0 / 64 * h)) ** 2)
        assert abs(cert.bound(2) - want) <= 4 * np.spacing(want)


class TestDensityCertificate:
    def test_poisson(self):
        r = 0.9
        dens = lambda th: (1 - r * r) / (1 - 2 * r * np.cos(th[:, 0]) + r * r)
        cert = density_quadrature_certificate(Z, dens, Q=512)
        for m in range(0, 21, 5):
            assert abs(cert.coefficient((m,)) - r ** m) < 1e-12
        # aliasing adds 2 r^Q / (1 - r^Q), invisible at Q=512
        assert cert.bound(2) == pytest.approx(1.0, abs=1e-12)
        assert cert.bound(5) == cert.bound(2)

    def test_both_routes_hold_one_array_as_xi_and_eta(self):
        dens = lambda th: 2.0 + np.cos(th[:, 0])
        for cert in (density_quadrature_certificate(Z, dens, Q=64),
                     radial_density_certificate(Z, Multiplier.radial(Z, [1.0, 0.3]))):
            assert cert.xi is cert.eta

    def test_density_certificate_holds_one_complex_array(self):
        Q = 1 << 16
        dens = lambda th: 2.0 + np.cos(th[:, 0])
        tracemalloc.start()
        try:
            cert = density_quadrature_certificate(Z, dens, Q=Q)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # sqrt(w h) takes 16 Q bytes, held as both xi and eta; the grid's
        # angle rows half that
        assert held <= 2 * 16 * Q
        assert cert.bound(2) == pytest.approx(2.0, rel=1e-12)

    def test_rejects_negative_density(self):
        dens = lambda th: np.cos(th[:, 0])
        with pytest.raises(CertificateError):
            density_quadrature_certificate(Z, dens, Q=32)

    def test_radial_density_certificate(self):
        phi = Multiplier.radial(Z, [1.0, 0.3, 0.1])
        cert = radial_density_certificate(Z, phi)
        assert len(cert.xi) == 64                     # max(4 * 3, 64) nodes
        for m in range(-2, 4):
            assert abs(cert.coefficient((m,)) - phi((m,))) < 1e-15
        assert cert.bound(2) == pytest.approx(1.0, abs=1e-14)
        fejer = Multiplier.radial(Z, [1.0 - ell / 20 for ell in range(20)])
        assert len(radial_density_certificate(Z, fejer, quad_factor=8).xi) == 160

    def test_real_coefficients_at_scale_keep_their_certificate(self):
        # the FFT leaves rounding of order 1e-13 * sum |c_l| in the imaginary
        # part; with real coefficients that is not a complex density
        phi = Multiplier.radial(Z, [1e6 * 0.9 ** ell for ell in range(50)])
        cert = radial_density_certificate(Z, phi)
        assert cert.bound(2) == pytest.approx(1e6, rel=1e-12)

    @pytest.mark.parametrize("group,coeffs", [
        (Z, [1.0, 0.1j]),           # complex density
        (Z, [1.0, -0.9]),           # dips negative
        (Z, []),                    # nothing to certify
        (Z2, [1.0, 0.1]),           # not the group Z
    ])
    def test_radial_density_certificate_refusals(self, group, coeffs):
        with pytest.raises(CertificateError):
            radial_density_certificate(group, Multiplier.radial(group, coeffs))


class TestFolner:
    def test_tent_values(self):
        assert folner_tent_value((0, 0), 3) == 1.0
        assert folner_tent_value((2,), 3) == pytest.approx(0.5)
        assert folner_tent_value((4,), 3) == 0.0
        assert folner_tent_value((1, 2), 3) == pytest.approx(0.75 * 0.5)

    def test_certificate_exact_integer_identity(self):
        k, n = 3, 2
        cert = folner_certificate(ZnGroup(n), k)
        size = (k + 1) ** n
        for m in [(0, 0), (1, 0), (2, -1), (3, 3), (4, 0), (-2, 2)]:
            overlap = sum(1 for p in cert.points
                          if tuple(p[i] + m[i] for i in range(n)) in cert.points)
            expected = 1
            for c in m:
                expected *= max(0, k + 1 - abs(c))
            assert overlap == expected
            assert cert.coefficient(m) == complex(overlap / size)

    def test_bound_exactly_one(self):
        cert = folner_certificate(Z2, 4)
        assert cert.bound(2) == 1.0
        assert cert.bound(9) == 1.0

    def test_product_route_matches_tent(self):
        group = Z2
        k = 4
        phi = folner_multiplier(group, k)
        cert = folner_certificate(group, k)
        elements = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
        rep = verify_certificate(phi, cert, elements, d=3)
        assert rep.max_residual < 1e-15

    def test_approximants(self):
        out = folner_approximants(Z, [1, 2, 4])
        assert [k for k, _, _ in out] == [1, 2, 4]
        for k, phi, cert in out:
            assert phi((0,)) == 1.0
            assert cert.bound(2) == 1.0
        # pointwise increase toward 1 at a fixed nonzero point
        vals = [phi((1,)).real for _, phi, _ in out]
        assert vals == sorted(vals)


class TestRepCertificates:
    def test_unitary_rep_wrap(self):
        # character rep of Z/4 embedded as 2x2 rotations
        table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        g = FiniteGroup(table, generators=[1, 3])
        rot = lambda t: np.array([[math.cos(math.pi * t / 2), -math.sin(math.pi * t / 2)],
                                  [math.sin(math.pi * t / 2), math.cos(math.pi * t / 2)]])
        xi = np.array([1.0, 0.0])
        eta = np.array([1.0, 0.0])
        cert = certificate_from_unitary_rep(g, rot, xi, eta, list(range(4)))
        assert cert.pi_norm == 1.0
        assert abs(cert.coefficient(0) - 1.0) < 1e-12
        assert abs(cert.coefficient(1) - 0.0) < 1e-12
        assert abs(cert.coefficient(2) + 1.0) < 1e-12
        phi = Multiplier.finite(g, {0: 1.0, 2: -1.0})
        rep = verify_certificate(phi, cert, list(range(4)), d=3)
        assert rep.ok(1e-9)

    def test_unitary_wrap_rejects_non_homomorphism(self):
        fake = lambda t: np.array([[math.cos(t * t), -math.sin(t * t)],
                                   [math.sin(t * t), math.cos(t * t)]])
        with pytest.raises(CertificateError):
            certificate_from_unitary_rep(Z, lambda m: fake(m[0]),
                                         np.ones(2), np.ones(2),
                                         [(m,) for m in range(-5, 6)])

    def test_unitary_wrap_rejects_non_unitary(self):
        with pytest.raises(CertificateError):
            certificate_from_unitary_rep(Z, lambda m: np.array([[2.0 ** m[0]]]),
                                         np.ones(1), np.ones(1),
                                         [(m,) for m in range(-3, 4)])

    def test_bounded_rep_flags_sampled_norm(self):
        pi = lambda m: np.array([[2.0 ** m[0]]])
        elements = [(m,) for m in range(-3, 4)]
        cert = certificate_from_bounded_rep(Z, pi, np.ones(1), np.ones(1), elements)
        assert cert.pi_provenance == "sampled"
        assert cert.pi_norm == pytest.approx(8.0)
        assert "pi-norm-sampled" in cert.flags()
        # order ratio equals the sampled sup
        assert cert.bound(3) / cert.bound(2) == pytest.approx(8.0)

    def test_constant_certificate(self):
        cert = constant_certificate(Z, 2.5 - 1j)
        assert abs(cert.coefficient((7,)) - (2.5 - 1j)) < 1e-15
        assert cert.bound(4) == pytest.approx(abs(2.5 - 1j))

    def test_verification_past_the_cap_raises(self, monkeypatch):
        cert = constant_certificate(Z, 1.0)
        elements = [(m,) for m in range(5)]
        monkeypatch.setattr(multipliers, "VERIFY_CAP", 25)
        assert verify_certificate(lambda t: 1.0, cert, elements, d=2).checked == 25
        with pytest.raises(ValueError, match="5\\^3 tuples exceed the verification cap 25"):
            verify_certificate(lambda t: 1.0, cert, elements, d=3)

    def test_verify_catches_wrong_certificate(self):
        phi = indicator01()
        bad = MatrixRepCertificate(
            group=Z, pi=lambda m: np.ones(1), xi=np.ones(1),
            eta=np.array([0.5]), pi_norm=1.0, pi_provenance="unitary")
        rep = verify_certificate(phi, bad, [(m,) for m in range(-2, 3)], d=2)
        assert not rep.ok(1e-9)


class TestLowerBounds:
    def test_m2_on_two_point_window_matches_grid_oracle(self):
        phi = indicator01()
        elements = [(0,), (1,)]
        lower, info = m2_lower_bound(Z, phi, elements, tol=1e-8)
        # window matrix is [[1,1],[0,1]]
        oracle = schur_norm_2x2_grid(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert info["schur_value"] >= oracle - 1e-7
        assert abs(info["schur_value"] - oracle) < 2e-3
        assert lower == pytest.approx(info["schur_value"] - 1e-8)
        assert info["dual_lower"] <= info["schur_value"]

    def test_positive_definite_window_value_is_one(self):
        phi = folner_multiplier(Z, 5)
        ball = build_ball(Z, 3)
        lower, info = m2_lower_bound(Z, phi, ball.elements, tol=1e-8)
        assert info["schur_value"] == pytest.approx(1.0, abs=1e-6)
        assert lower <= 1.0

    def test_window_growth_is_monotone(self):
        phi = indicator01()
        values = []
        for radius in [1, 2, 4]:
            ball = build_ball(Z, radius)
            _, info = m2_lower_bound(Z, phi, ball.elements, tol=1e-9)
            values.append(info["schur_value"])
        assert values[0] <= values[1] + 2e-9
        assert values[1] <= values[2] + 2e-9

    @staticmethod
    def _captured(monkeypatch, group, phi, elements, tol=1e-8):
        """m2_lower_bound's lower and the matrix it handed the solver."""
        seen = []

        def capture(A, **kw):
            seen.append(A)
            return schur.schur_norm(A, **kw)

        monkeypatch.setattr(multipliers, "schur_norm", capture)
        lower, _ = m2_lower_bound(group, phi, elements, tol=tol)
        (A,) = seen
        gram = gram_matrix(group, phi, elements)
        direct = schur.schur_norm(gram, tol=tol)
        assert abs(lower - direct.lower_bound) <= tol * max(1.0, direct.upper_bound)
        return A, gram

    def test_abelian_window_closed_under_inverses_is_solved_symmetric(self, monkeypatch):
        phi = Multiplier.finite(Z2, {(0, 0): 1.0, (1, 0): 0.5, (0, 1): -0.25,
                                     (1, 1): 0.75j}, name="skew")
        A, gram = self._captured(monkeypatch, Z2, phi, build_ball(Z2, 2).elements)
        assert not schur.is_symmetric(gram)
        assert schur.is_symmetric(A)

    def test_window_not_closed_under_inverses_keeps_the_gram(self, monkeypatch):
        A, gram = self._captured(monkeypatch, Z, indicator01(), [(k,) for k in range(6)])
        assert np.array_equal(A, gram)

    def test_nonabelian_window_without_a_symmetric_arrangement_keeps_the_gram(
            self, monkeypatch):
        G = SL2Z()
        ball = build_ball(G, 2)
        values = {x: 0.3 + 0.1 * i for i, x in enumerate(ball.elements[1:6])}
        values[G.identity] = 1.0
        phi = Multiplier.finite(G, values, name="lopsided")
        A, gram = self._captured(monkeypatch, G, phi, ball.elements)
        inv = [ball.index[G.inverse(x)] for x in ball.elements]
        assert not schur.is_symmetric(gram) and not schur.is_symmetric(gram[:, inv])
        assert np.array_equal(A, gram)

    def test_gram_must_match_the_window(self):
        gram = gram_matrix(Z, indicator01(), build_ball(Z, 3).elements)
        with pytest.raises(ValueError, match="gram must be 3 x 3"):
            m2_lower_bound(Z, indicator01(), [(0,), (1,), (2,)], gram=gram)


class TestPairingAndCstar:
    def test_pairing_bilinear(self):
        phi = indicator01()
        g1 = {(0,): 1.0, (1,): 2.0}
        g2 = {(1,): -1.0, (5,): 3.0}
        p1 = pairing(phi, g1)
        p2 = pairing(phi, g2)
        both = {k: g1.get(k, 0) + g2.get(k, 0) for k in set(g1) | set(g2)}
        assert pairing(phi, both) == pytest.approx(p1 + p2)
        assert p1 == pytest.approx(3.0)

    def test_duality_inequality(self):
        phi = indicator01()
        cert = circle_quadrature_certificate(Z, phi, Q=64)
        g = {(0,): 1.0 + 1.0j, (1,): -2.0, (3,): 0.5j}
        lhs, rhs = pairing_duality_check(phi, cert, g)
        assert lhs <= rhs + 1e-9

    def test_cstar_norm_finite(self):
        table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        g = FiniteGroup(table, generators=[1, 3])
        assert cstar_norm_finite(g, lambda t: 1.0 if t == 1 else 0.0) == pytest.approx(1.0)
        assert cstar_norm_finite(g, lambda t: 2.0 if t == 0 else 0.0) == pytest.approx(2.0)
        # delta_e + delta_g1: commutative convolution, norm = max |1 + i^k|
        val = cstar_norm_finite(g, lambda t: 1.0 if t in (0, 1) else 0.0)
        assert val == pytest.approx(2.0)

    def test_cstar_norm_is_the_full_convolution_matrix(self):
        perms = sorted(itertools.permutations(range(3)))
        g = FiniteGroup([[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms]
                         for p in perms])
        f = lambda t: complex(t + 1, (-1) ** t * 0.5 * t)
        M = np.array([[f(g.multiply(x, g.inverse(y))) for y in range(6)]
                      for x in range(6)])
        assert cstar_norm_finite(g, f) == float(np.linalg.norm(M, 2))

    def test_compression_increases_to_symbol_sup(self):
        g = lambda m: 1.0 if m in [(0,), (1,)] else 0.0
        vals = []
        for radius in [2, 4, 8]:
            ball = build_ball(Z, radius)
            vals.append(regular_compression_norm(Z, g, ball.elements))
        assert vals == sorted(vals)
        assert vals[-1] <= 2.0 + 1e-12  # sup of |1 + e^{i theta}|


class TestQuotientToolkit:
    def setup_method(self):
        self.G = SL2ZSemidirect()

    def test_restrict(self):
        embed = lambda m: (m[0], 0)
        tent = folner_multiplier(Z2, 3)
        restr = restrict_multiplier(tent, embed, Z)
        for m in range(-5, 6):
            assert restr((m,)) == pytest.approx(folner_tent_value((m, 0), 3))

    def test_inflate_constant_on_cosets(self):
        psi = lambda A: float(A[0][0] + A[1][1])
        lifted = inflate_multiplier(psi, self.G)
        A = ((1, 1), (0, 1))
        assert lifted((A, (5, -3))) == lifted((A, (0, 0))) == 2.0

    def test_coset_average_aggregates(self):
        A = ((1, 1), (0, 1))
        B = ((0, -1), (1, 0))
        f = {(A, (0, 0)): 2, (A, (1, 1)): 3, (B, (0, 0)): 5}
        out = coset_average(self.G, f)
        assert out == {A: 5, B: 5}

    def test_adjoint_identity_exact_on_integers(self):
        rng = random.Random(42)
        gens = self.G.generators()
        for _ in range(100):
            # finitely supported f with Gaussian-integer values
            f = {}
            for _ in range(rng.randrange(1, 8)):
                t = self.G.identity
                for _ in range(rng.randrange(0, 6)):
                    t = self.G.multiply(t, rng.choice(gens))
                f[t] = complex(rng.randrange(-9, 10), rng.randrange(-9, 10))
            psi_table = {}
            psi = lambda x: psi_table.setdefault(
                x, complex(rng.randrange(-9, 10), rng.randrange(-9, 10)))
            lhs = sum(psi(self.G.project(t)) * v for t, v in f.items())
            averaged = coset_average(self.G, f)
            rhs = sum(psi(x) * v for x, v in averaged.items())
            assert lhs == rhs  # exact: all sums are Gaussian integers

    def test_extension_matches_direct_convolution(self):
        qball = build_ball(self.G.matrix_part, 2)
        f = {self.G.lift(x): 1 for x in qball.elements}
        k = 3
        gamma_tent = lambda gamma: folner_tent_value(gamma[1], k)
        ext = extension_multiplier(self.G, f, gamma_tent)
        rng = random.Random(7)
        gens = self.G.generators()
        for _ in range(40):
            t = self.G.identity
            for _ in range(rng.randrange(0, 7)):
                t = self.G.multiply(t, rng.choice(gens))
            # direct finite sum over supp f
            direct = 0.0
            for w, coef in f.items():
                wt = self.G.multiply(w, t)
                if self.G.gamma_member(wt):
                    direct += coef * folner_tent_value(wt[1], k)
            assert ext(t) == pytest.approx(direct, abs=1e-15)

    def test_extension_section_form(self):
        # with a section indicator the value reads the tent at A^-1 v
        qball = build_ball(self.G.matrix_part, 2)
        f = {self.G.lift(x): 1 for x in qball.elements}
        ext = extension_multiplier(self.G, f, lambda gamma: folner_tent_value(gamma[1], 4))
        A = ((1, 1), (0, 1))
        assert A in qball.index
        v = (2, -1)
        Ainv = self.G.matrix_part.inverse(A)
        w = (Ainv[0][0] * v[0] + Ainv[0][1] * v[1],
             Ainv[1][0] * v[0] + Ainv[1][1] * v[1])
        assert ext((A, v)) == pytest.approx(folner_tent_value(w, 4))

    def test_extension_limit_coset_constant_bitexact(self):
        qball = build_ball(self.G.matrix_part, 2)
        f = {self.G.lift(x): 1 for x in qball.elements}
        limit = extension_limit(self.G, f)
        rng = random.Random(3)
        gens = self.G.generators()
        for _ in range(50):
            t = self.G.identity
            for _ in range(rng.randrange(0, 8)):
                t = self.G.multiply(t, rng.choice(gens))
            base = limit(t)
            for _ in range(3):
                gamma = ((1, 0), (0, 1)), (rng.randrange(-9, 10), rng.randrange(-9, 10))
                assert limit(self.G.multiply(t, gamma)) == base
            # brute-force the convolution sum as the oracle
            direct = sum(coef for w, coef in f.items()
                         if self.G.gamma_member(self.G.multiply(w, t)))
            assert base == complex(direct)


class TestBrackets:
    def test_tent_bracket_pinches_at_one(self):
        phi = folner_multiplier(Z2, 6)
        cert = folner_certificate(Z2, 6)
        ball = build_ball(Z2, 2)
        br = compute_bracket(Z2, phi, 2, ball, certificate=cert)
        assert br.upper == 1.0
        assert br.lower <= br.upper
        assert br.lower > 0.99

    def test_sdp_route_wins_when_it_beats_the_sup(self):
        phi = indicator01()
        cert = circle_quadrature_certificate(Z, phi, Q=512)
        ball = build_ball(Z, 4)
        br = compute_bracket(Z, phi, 2, ball, certificate=cert)
        assert br.lower_provenance == "schur-window-minus-tol"
        assert br.lower > 1.05  # strictly above the sup of |phi|
        assert br.lower <= br.upper
        assert "window-limited" in br.flags

    def test_window_over_the_cap_gets_no_gram(self):
        # |B| = 916 > window_cap: no Gram is assembled and no window solved
        g = SL2Z()
        ball = build_ball(g, 9)
        phi = Multiplier.radial(g, [1.0, -0.5, 0.25j], name="rad")
        br = compute_bracket(g, phi, 2, ball)
        assert br == NormBracket("rad", 2, 9, 1.0, math.inf, "sup-exact", "none",
                                 ("window-too-large-for-sdp",))

    def test_complex_window_doubled_over_the_cap(self):
        phi = Multiplier.finite(Z, {(0,): 1.0, (1,): 0.5j}, name="cplx")
        br = compute_bracket(Z, phi, 2, build_ball(Z, 20))
        assert br == NormBracket("cplx", 2, 20, 1.0, math.inf, "sup-exact", "none",
                                 ("window-too-large-for-sdp",))

    def test_inversion_slack_scales_with_the_upper(self):
        # the density price of 1e300 + 2cos(theta) lands an ulp or so under
        # the exact sup 1e300: rounding, not an inverted bracket
        phi = Multiplier.radial(Z, [1e300, 1.0])
        cert = radial_density_certificate(Z, phi)
        br = compute_bracket(Z, phi, 2, build_ball(Z, 1), certificate=cert)
        assert br.lower == 1e300
        assert "bracket-inverted" not in br.flags

    def test_certificate_priced_under_the_sup_is_flagged(self):
        phi = indicator01()
        for scale in (1.0, 1e100):
            big = Multiplier.finite(Z, {(0,): scale, (1,): scale})
            br = compute_bracket(Z, big, 1, build_ball(Z, 1),
                                 certificate=constant_certificate(Z, 0.999 * scale))
            assert br.upper == pytest.approx(0.999 * scale)
            assert "bracket-inverted" in br.flags
        br = compute_bracket(Z, phi, 2, build_ball(Z, 2),
                             certificate=constant_certificate(Z, 1.0))
        assert "bracket-inverted" in br.flags

    def test_radial_sup_on_a_finite_group_stops_at_the_diameter(self):
        # Z/3 over {1, 2} has diameter 1: the coefficient 9 at length 2 is
        # never taken, so neither end of the bracket may see it
        g = FiniteGroup([[(i + j) % 3 for j in range(3)] for i in range(3)],
                        generators=[1, 2])
        phi = Multiplier.radial(g, [1.0, 0.5, 9.0], name="rad")
        assert phi.sup_abs() == 1.0
        ball = build_ball(g, 1)
        assert compute_bracket(g, phi, 1, ball) == NormBracket(
            "rad", 1, 1, 1.0, 1.0, "sup-exact", "sup-exact")
        assert compute_bracket(g, phi, 2, ball) == NormBracket(
            "rad", 2, 1, 1.0, math.inf, "sup-exact", "none")

    def test_radial_sup_on_a_finite_group_spanned_in_part(self):
        # {2} spans only {0, 2} in Z/4: lengths 0 and 1 occur, nothing else
        g = FiniteGroup([[(i + j) % 4 for j in range(4)] for i in range(4)],
                        generators=[2])
        assert Multiplier.radial(g, [1.0, -0.5, 7.0]).sup_abs() == 1.0
        assert Multiplier.radial(g, [0.5, -3.0, 7.0]).sup_abs() == 3.0

    def test_radial_sup_on_infinite_groups_reads_every_coefficient(self):
        assert Multiplier.radial(Z, [1.0, 0.5, 9.0]).sup_abs() == 9.0

    def test_order_one_finite_is_exact(self):
        phi = indicator01()
        ball = build_ball(Z, 2)
        br = compute_bracket(Z, phi, 1, ball)
        assert br.lower == br.upper == 1.0
        assert br.upper_provenance == "sup-exact"

    def test_csv_round_trip(self):
        rows = [
            NormBracket("ind01", 2, 4, 1.2, 1.2732, "schur-window-minus-tol",
                        "rep:unitary:d=2:windowed", ("window-limited",)),
            NormBracket("tent4", 3, 2, 0.999, 1.0, "sup-exact", "shift:exact:d=3"),
        ]
        buf = io.StringIO()
        write_brackets_csv(buf, rows, header_lines=["# config tol=1e-08"])
        text = buf.getvalue()
        assert text.splitlines()[0].startswith("# config")
        back = read_brackets_csv(io.StringIO(text))
        assert back == rows

    def test_infinite_upper_serializes(self):
        rows = [NormBracket("phi", 2, 3, 0.5, math.inf, "sup-window", "none")]
        buf = io.StringIO()
        write_brackets_csv(buf, rows)
        back = read_brackets_csv(io.StringIO(buf.getvalue()))
        assert math.isinf(back[0].upper)


coeff_lists = st.lists(st.floats(min_value=-1.0, max_value=1.0,
                                 allow_nan=False), min_size=1, max_size=5)


@given(coeff_lists)
@settings(max_examples=30, deadline=None)
def test_radial_sup_abs_property(coeffs):
    g = FreeGroup(2)
    phi = Multiplier.radial(g, coeffs)
    ball = build_ball(g, min(len(coeffs), 4) - 1) if len(coeffs) > 1 else build_ball(g, 0)
    window = sup_abs_window(phi, ball.elements)
    assert window <= phi.sup_abs() + 1e-15


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=6),
       st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
@settings(max_examples=60, deadline=None)
def test_tent_equals_box_autocorrelation(k, n_unused, m):
    cert = folner_certificate(Z2, k)
    assert cert.coefficient(m).real == pytest.approx(folner_tent_value(m, k), abs=1e-12)
