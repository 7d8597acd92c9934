"""Kernel smoothing, quadrature averaging, the tree operator family, reports."""

from __future__ import annotations

import io
import json
import math
import cmath
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlab.groups import FreeGroup, ZnGroup, build_ball, gram_matrix
from mdlab.multipliers import (
    Multiplier,
    MultiplierError,
    compute_bracket,
    density_quadrature_certificate,
    folner_approximants,
    md_upper_from_certificate,
)
from mdlab import families
from mdlab.families import (
    ConvergenceReport,
    FamilyError,
    TreeFamily,
    averaged_bound,
    averaged_family_bound,
    convergence_report,
    family_report,
    fejer_bracket,
    fejer_bracket_tree,
    fejer_kernel_coeff,
    fejer_kernel_value,
    fejer_multiplier,
    fejer_nodes,
    fejer_poisson_density,
    power_coefficient,
    quadrature_average,
    radial_power,
    write_convergence_csv,
    write_family_report,
)

from oracles import (
    empirical_bound_reference,
    fejer_coefficient,
    interior_map_reference,
)

Z = ZnGroup(1)
Z2 = ZnGroup(2)
F2 = FreeGroup(2)

# shared skeletons; building one per test would dominate the runtime
FAM3 = TreeFamily(2, 3)
FAM4 = TreeFamily(2, 4)
FAM5 = TreeFamily(2, 5)

# family parameters for the sweep comparisons: the degenerate point, real
# points on both sides, conjugate pairs, pure imaginary values and |z| = 0.95
Z_GRID = [0.0, 0.9, -0.9, 0.3 + 0.3j, 0.3 - 0.3j, 0.5j, -0.5j,
          0.95 * cmath.exp(1j * math.pi / 3), 0.95 * cmath.exp(-1j * math.pi / 3),
          0.95j]


# ---------------------------------------------------------------------------
# Fejer kernel
# ---------------------------------------------------------------------------

class TestFejerKernel:
    def test_coeff_matches_oracle(self):
        for N in (0, 1, 4, 9):
            for n in range(-12, 13):
                assert fejer_kernel_coeff(N, n) == pytest.approx(
                    fejer_coefficient(N, n), abs=1e-12)

    def test_coeff_frozen_value(self):
        assert fejer_kernel_coeff(4, 2) == 0.6

    def test_coeff_rejects_negative_degree(self):
        with pytest.raises(FamilyError):
            fejer_kernel_coeff(-1, 0)

    def test_value_nonnegative_and_peak(self):
        theta = np.linspace(-7.0, 7.0, 1001)
        for N in (0, 3, 8):
            vals = fejer_kernel_value(N, theta)
            assert vals.min() >= 0.0
            assert fejer_kernel_value(N, 0.0)[0] == pytest.approx(N + 1)
            assert fejer_kernel_value(N, 2 * math.pi)[0] == pytest.approx(N + 1, abs=1e-9)

    def test_value_mean_is_one(self):
        # coefficient at lag 0; aliases vanish because Q > N
        for N in (1, 5, 16):
            thetas, weights = fejer_nodes(N)
            assert weights.sum() == pytest.approx(1.0, abs=1e-14)
            assert thetas.shape == weights.shape == (4 * (N + 1),)

    def test_nodes_reject_sparse_grids(self):
        with pytest.raises(FamilyError):
            fejer_nodes(4, quad_factor=2)


@given(st.integers(0, 40), st.integers(-60, 60))
@settings(max_examples=80, deadline=None)
def test_kernel_coeff_bounded_symmetric_decreasing(N, n):
    c = fejer_kernel_coeff(N, n)
    assert 0.0 <= c <= 1.0
    assert c == fejer_kernel_coeff(N, -n)
    assert fejer_kernel_coeff(N, abs(n) + 1) <= c


@given(st.integers(0, 30), st.floats(-20.0, 20.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_kernel_value_nonnegative_everywhere(N, theta):
    assert fejer_kernel_value(N, theta)[0] >= 0.0


@given(st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_power_coefficient_modulus(rad, ang, ell):
    z = rad * cmath.exp(1j * ang)
    assert abs(power_coefficient(z, ell)) == pytest.approx(rad ** ell, rel=1e-9, abs=1e-250)


def test_power_coefficient_conventions():
    assert power_coefficient(0.0, 0) == 1.0
    assert power_coefficient(0.5j, 2) == pytest.approx(-0.25)
    with pytest.raises(FamilyError):
        power_coefficient(0.5, -1)


# ---------------------------------------------------------------------------
# smoothed multiplier and its quadrature identity
# ---------------------------------------------------------------------------

class TestFejerMultiplier:
    def test_frozen_coefficients(self):
        phi = fejer_multiplier(Z, 4, 0.9)
        assert phi((0,)) == pytest.approx(1.0)
        assert complex(phi((2,))).real == pytest.approx(0.486, abs=1e-12)
        assert phi((5,)) == 0.0  # past the kernel degree
        assert phi((-2,)) == phi((2,))

    def test_parameter_validation(self):
        with pytest.raises(FamilyError):
            fejer_multiplier(Z, 4, 1.0)
        with pytest.raises(FamilyError):
            fejer_multiplier(Z, 4, 0.0)
        with pytest.raises(FamilyError):
            fejer_multiplier(Z, -1, 0.5)
        with pytest.raises(FamilyError):
            radial_power(Z, 1.0, 4)

    @pytest.mark.parametrize("N", [1, 4, 9, 16])
    @pytest.mark.parametrize("r", [0.5, 0.9])
    def test_average_of_powers_reproduces_closed_form(self, N, r):
        # the averaging route must agree with the closed form it motivates
        thetas, weights = fejer_nodes(N)
        samples = [radial_power(Z, r * cmath.exp(1j * th), N) for th in thetas]
        avg, dropped = quadrature_average(samples, weights)
        got = np.asarray(avg.coeffs, dtype=complex)
        want = np.asarray(fejer_multiplier(Z, N, r).coeffs, dtype=complex)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-10
        assert dropped < 1e-12

    def test_average_truncates_aliased_lengths(self):
        # sampled powers carry lengths past N; their averages are alias dust
        N, r = 4, 0.8
        thetas, weights = fejer_nodes(N)
        samples = [radial_power(Z, r * cmath.exp(1j * th), N + 3) for th in thetas]
        avg, dropped = quadrature_average(samples, weights)
        assert len(avg.coeffs) <= N + 1
        assert dropped < 1e-12


class TestQuadratureAverage:
    def test_finite_kind(self):
        a = Multiplier.finite(Z2, {(0, 0): 1.0, (1, 0): 0.5})
        b = Multiplier.finite(Z2, {(0, 0): 1.0, (0, 1): -0.5j})
        avg, dropped = quadrature_average([a, b], [0.5, 0.5])
        assert avg((0, 0)) == pytest.approx(1.0)
        assert avg((1, 0)) == pytest.approx(0.25)
        assert complex(avg((0, 1))) == pytest.approx(-0.25j)
        assert avg((2, 2)) == 0.0
        assert dropped == 0.0

    def test_weight_count_mismatch(self):
        a = radial_power(Z, 0.5, 3)
        with pytest.raises(MultiplierError):
            quadrature_average([a, a], [1.0, 1.0, 1.0])

    def test_empty_grid(self):
        with pytest.raises(MultiplierError):
            quadrature_average([], np.zeros(0))

    def test_mixed_kinds(self):
        a = radial_power(Z, 0.5, 3)
        b = Multiplier.finite(Z, {(0,): 1.0})
        with pytest.raises(MultiplierError):
            quadrature_average([a, b], [0.5, 0.5])

    def test_averaged_bound(self):
        assert averaged_bound([0.25, 0.75], [1.0, 2.0]) == pytest.approx(1.75)
        with pytest.raises(MultiplierError):
            averaged_bound([0.5, -0.5], [1.0, 1.0])
        with pytest.raises(MultiplierError):
            averaged_bound([0.5], [1.0, 1.0])


# ---------------------------------------------------------------------------
# circle density and the certified bracket on Z
# ---------------------------------------------------------------------------

class TestPoissonDensity:
    def test_matches_cosine_sum(self):
        N, r = 6, 0.7
        dens = fejer_poisson_density(N, r)
        theta = np.linspace(0.0, 2 * math.pi, 257)
        direct = np.zeros_like(theta)
        for m in range(-N, N + 1):
            direct += fejer_kernel_coeff(N, m) * r ** abs(m) * np.cos(m * theta)
        assert np.max(np.abs(dens(theta) - direct)) < 1e-12
        assert dens(theta).min() >= 0.0

    def test_column_input_and_width_check(self):
        dens = fejer_poisson_density(3, 0.5)
        theta = np.linspace(0.0, 1.0, 8)
        flat = dens(theta)
        col = dens(theta.reshape(-1, 1))
        assert np.array_equal(flat, col)
        with pytest.raises(MultiplierError):
            dens(np.zeros((4, 2)))

    def test_certificate_bound_is_one(self):
        cert = density_quadrature_certificate(Z, fejer_poisson_density(6, 0.7), Q=64)
        for d in (1, 2, 5):
            assert md_upper_from_certificate(cert, d) == pytest.approx(1.0, abs=1e-12)

    def test_scales_to_large_degree(self):
        # closed form is O(1) per node regardless of N
        dens = fejer_poisson_density(16384, 1.0 - 2.0 ** -7)
        Q = 65540
        vals = dens(2 * math.pi * np.arange(Q) / Q)
        assert vals.min() >= -1e-12
        assert np.mean(vals) == pytest.approx(1.0, abs=1e-6)


class TestFejerBracket:
    def test_pinch_at_one(self):
        ball = build_ball(Z, 4)
        phi, br = fejer_bracket(Z, 8, 0.9, 2, ball)
        assert br.lower == pytest.approx(1.0, abs=1e-8)
        assert br.upper == pytest.approx(1.0, abs=1e-12)
        assert br.lower <= br.upper + 2e-8
        assert "density" in br.upper_provenance
        assert "bracket-inverted" not in br.flags

    def test_gram_is_psd(self):
        phi = fejer_multiplier(Z, 8, 0.9)
        G = gram_matrix(Z, phi, [(k,) for k in range(31)])
        lam = np.linalg.eigvalsh((G + G.conj().T) / 2).min()
        assert lam >= -1e-10

    def test_needs_the_integers(self):
        ball = build_ball(Z2, 2)
        with pytest.raises(MultiplierError):
            fejer_bracket(Z2, 4, 0.5, 2, ball)


# ---------------------------------------------------------------------------
# tree operator family
# ---------------------------------------------------------------------------

class TestTreeSkeleton:
    def test_zero_parameter_degenerates_to_permutations(self):
        V, Vinv = FAM4._pair(0.0)
        n = len(FAM4.ball)
        assert (V - sp.identity(n)).nnz == 0
        assert (Vinv - sp.identity(n)).nnz == 0
        pt = FAM4.point(0.0, check=False)
        P = pt.pi_matrix((1,)).toarray()
        expected = np.zeros((n, n), dtype=complex)
        expected[FAM4._perm[(1,)], np.arange(n)] = 1.0
        assert np.array_equal(P, expected)
        assert pt.coefficient(()) == 1.0
        assert pt.coefficient((1,)) == 0.0
        assert pt.empirical_bound() == 1.0

    def test_inverse_pair(self):
        V, Vinv = FAM4._pair(0.45 + 0.25j)
        n = len(FAM4.ball)
        err = np.abs((Vinv @ V - sp.identity(n)).toarray()).max()
        assert err < 1e-13

    def test_bilinear_gram_identity(self):
        # <v_x, v_y> without conjugation collapses to z^(tree distance)
        z = 0.6 + 0.2j
        V, _ = FAM4._pair(z)
        G = (V.T @ V).toarray()
        els = FAM4.ball.elements
        dist = np.array([[len(F2.multiply(F2.inverse(x), y)) for y in els]
                         for x in els])
        assert np.max(np.abs(G - z ** dist)) < 1e-12

    def test_validation(self):
        with pytest.raises(FamilyError):
            TreeFamily(2, 2)
        with pytest.raises(FamilyError):
            TreeFamily(0, 4)
        with pytest.raises(FamilyError):
            TreeFamily(27, 4)
        with pytest.raises(FamilyError):
            FAM4.point(1.0, check=False)
        with pytest.raises(FamilyError):
            FAM4.point(0.8 + 0.7j, check=False)


class TestTreePoint:
    def test_coefficient_matches_power(self):
        z = 0.45 + 0.35j
        pt = FAM5.point(z, check=False)
        assert pt.coefficient_residual() < 1e-12
        t = FAM5.ball.sphere(4)[7]
        assert pt.coefficient(t) == pytest.approx(z ** 4, abs=1e-13)
        assert FAM5.coefficient_path(z, t) == pytest.approx(z ** 4, abs=1e-13)

    def test_coefficient_path_rejects_long_words(self):
        with pytest.raises(FamilyError):
            FAM4.coefficient_path(0.5, (1, 2, 1, 2, 1))

    def test_unitary_at_real_parameters(self):
        assert FAM5.point(0.5, check=False).unitarity_residual() < 1e-12

    def test_checked_point_at_complex_parameter(self):
        # orthogonality genuinely fails off the real axis, and is not enforced there
        pt = FAM4.point(0.3 + 0.3j, check=True)
        assert pt.unitarity_residual() > 1e-3

    def test_contract_enforcement_at_real_parameter(self):
        checks = FAM4.point(0.7).run_contract_checks(tol=1e-8)
        assert checks["coefficient_residual"] < 1e-12
        assert checks["unitarity_residual"] < 1e-12
        assert 3.5 <= checks["cr_ratio"] <= 4.5

    def test_product_defect(self):
        pt = FAM4.point(0.45 + 0.25j, check=False)
        assert pt.product_defect((1,), (2, 2)) < 1e-12
        assert pt.product_defect((1, 2), (2,)) < 1e-12
        with pytest.raises(FamilyError):
            pt.product_defect((1, 2, 1), (2, 1))

    def test_pi_matrix_rejects_non_generators(self):
        pt = FAM4.point(0.5, check=False)
        with pytest.raises(FamilyError):
            pt.pi_matrix((1, 2))
        with pytest.raises(FamilyError):
            pt.pi_matrix((3,))

    def test_empirical_bound_real(self):
        b = FAM4.point(0.9, check=False).empirical_bound()
        assert 1.0 <= b <= 1.0 + 1e-12

    def test_empirical_bound_conjugation_equivariant(self):
        z = 0.3 * cmath.exp(1j * math.pi / 4)
        b1 = FAM4.point(z, check=False).empirical_bound()
        b2 = FAM4.point(z.conjugate(), check=False).empirical_bound()
        assert b1 == b2
        assert b1 >= 1.0

    @pytest.mark.parametrize("fam", [FAM3, FAM4, FAM5], ids=["R3", "R4", "R5"])
    def test_empirical_bound_matches_the_per_word_reference(self, fam):
        for z in Z_GRID:
            b = fam.point(z, check=False).empirical_bound()
            ref = empirical_bound_reference(fam.point(z, check=False))
            assert abs(b - ref) <= 1e-15 * ref, z

    def test_interior_map_matches_the_group_product_reference(self):
        pt = FAM4.point(0.45 + 0.25j, check=False)
        for t in FAM4.ball.elements:
            got = pt.interior_map(t)
            ref = interior_map_reference(pt, t)
            assert got.shape == ref.shape
            assert np.abs((got - ref).toarray()).max(initial=0.0) <= 1e-15, t

    def test_chunked_sweep_matches_one_chunk(self, monkeypatch):
        monkeypatch.setattr(families, "CHUNK_NNZ", 64)
        small = TreeFamily(2, 3)
        assert max(len(b) - 1 for b in small._chunks) > 1
        for ell in range(1, small.radius + 1):
            bounds = small._chunks[ell]
            assert bounds[0] == 0 and bounds[-1] == small._shift[ell].shape[0]
            assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
        for z in (0.3 + 0.3j, 0.95j):
            b = small.point(z, check=False).empirical_bound()
            ref = FAM3.point(z, check=False).empirical_bound()
            assert abs(b - ref) <= 1e-15 * ref

    def test_radius_seven_point_memory_and_reference(self):
        fam = TreeFamily(2, 7)
        z = 0.45 + 0.25j
        pt = fam.point(z, check=False)
        tracemalloc.start()
        try:
            b = pt.empirical_bound()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2 ** 20
        ref = empirical_bound_reference(fam.point(z, check=False))
        assert abs(b - ref) <= 1e-15 * ref


class TestBatchedSweep:
    @pytest.mark.parametrize("fam", [FAM3, FAM4, FAM5], ids=["R3", "R4", "R5"])
    def test_batched_bounds_equal_one_node_bounds(self, fam):
        batch = fam.empirical_bounds(Z_GRID)
        assert batch.shape == (len(Z_GRID),)
        for z, b in zip(Z_GRID, batch):
            assert b == fam.point(z, check=False).empirical_bound(), z
        # conjugate pairs sit next to each other in the grid
        assert batch[3] == batch[4] and batch[5] == batch[6] and batch[7] == batch[8]

    def test_empty_batch(self):
        assert FAM3.empirical_bounds([]).shape == (0,)

    def test_batch_validates_every_parameter(self):
        with pytest.raises(FamilyError):
            FAM3.empirical_bounds([0.5, 1.0])

    @pytest.mark.parametrize("fam,N", [(FAM3, 2), (FAM3, 4), (FAM4, 2)],
                             ids=["R3-N2", "R3-N4", "R4-N2"])
    def test_averaged_family_bound_matches_per_node_reference(self, fam, N):
        r, d = 0.6, 2
        thetas, weights = fejer_nodes(N)
        ref_vals = np.array([
            empirical_bound_reference(fam.point(r * cmath.exp(1j * th), check=False))
            for th in thetas])
        ref = averaged_bound(weights, ref_vals ** d)
        got, flags = averaged_family_bound(fam, N, r, d)
        assert abs(got - ref) <= 1e-15 * ref
        assert flags == ("empirical", "family-average")

    def test_split_batch_equals_unsplit(self, monkeypatch):
        ref = FAM3.empirical_bounds(Z_GRID)
        monkeypatch.setattr(families, "CHUNK_NNZ", 64)
        small = TreeFamily(2, 3)
        calls = []
        real = TreeFamily._lower_norms

        def counted(self, layout, vals, inv):
            calls.append((layout.entries, vals.shape[0]))
            return real(self, layout, vals, inv)

        monkeypatch.setattr(TreeFamily, "_lower_norms", counted)
        got = small.empirical_bounds(Z_GRID)
        assert np.array_equal(got, ref)
        n_chunks = sum(len(b) - 1 for b in small._chunks[1:])
        assert n_chunks > small.radius                  # the word ranges split
        assert len(calls) > n_chunks                    # and so do the nodes
        assert all(e * g <= 64 or g == 1 for e, g in calls)

    def test_radius_seven_seven_node_batch_memory(self):
        fam = TreeFamily(2, 7)
        thetas, _ = fejer_nodes(2)
        zs = [0.5 * cmath.exp(1j * th) for th in thetas[:7]]
        tracemalloc.start()
        try:
            bounds = fam.empirical_bounds(zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2 ** 20
        assert bounds[0] == 1.0
        assert bounds[3] == fam.point(zs[3], check=False).empirical_bound()

    def test_averaged_bound_builds_one_operator_per_length_chunk(self, monkeypatch):
        counts = {"layouts": 0, "operators": 0, "points": 0}

        def counting(cls, name, key):
            real = getattr(cls, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counting(TreeFamily, "_layout", "layouts")
        counting(TreeFamily, "_lower_norms", "operators")
        counting(families.TreeFamilyPoint, "__init__", "points")
        averaged_family_bound(FAM4, 2, 0.5, 2)
        n_chunks = sum(len(b) - 1 for b in FAM4._chunks[1:])
        assert counts == {"layouts": n_chunks, "operators": n_chunks, "points": 0}


class TestHolomorphy:
    def test_residual_scales_as_h_squared(self):
        t = FAM5.ball.sphere(3)[0]
        z0 = 0.4 + 0.2j
        res = FAM5.holomorphy_residual(t, z0, 1e-3)
        assert 0.9e-6 <= res <= 1e-6 * (1 + 1e-6)
        assert FAM5.cr_ratio(t, z0, 1e-3) == pytest.approx(4.0, abs=0.1)

    def test_identity_word_is_flat(self):
        assert FAM5.holomorphy_residual((), 0.4, 1e-3) < 1e-12

    def test_step_validation(self):
        t = FAM5.ball.sphere(3)[0]
        with pytest.raises(FamilyError):
            FAM5.holomorphy_residual(t, 0.95, 0.1)
        with pytest.raises(FamilyError):
            FAM5.holomorphy_residual(t, 0.4, 0.0)


class TestFamilyReport:
    def test_keys_and_roundtrip(self):
        pt = FAM3.point(0.5, check=False)
        rep = family_report(pt)
        assert set(rep) == {"z", "R", "unitarity_residual", "coefficient_residual",
                            "cr_residual", "empirical_bound"}
        assert rep["z"] == [0.5, 0.0]
        assert rep["R"] == 3
        buf = io.StringIO()
        write_family_report(buf, rep)
        text = buf.getvalue()
        assert text.endswith("\n")
        assert json.loads(text) == rep


# ---------------------------------------------------------------------------
# brackets on the free group
# ---------------------------------------------------------------------------

class TestTreeBracket:
    def test_fejer_bracket_tree(self):
        phi, br = fejer_bracket_tree(FAM3, 2, 0.5, 2)
        assert br.d == 2
        assert br.upper_provenance == "family-average-empirical"
        assert "empirical" in br.flags
        assert br.lower == pytest.approx(1.0, abs=1e-6)
        assert br.upper >= br.lower - 1e-8
        assert math.isfinite(br.upper)

    def test_averaged_family_bound_validation(self):
        with pytest.raises(FamilyError):
            averaged_family_bound(FAM3, 2, 0.5, 0)

    def test_radial_gram_psd_and_window_norm(self):
        # positive definiteness of the power family survives on the tree
        psi = radial_power(F2, 0.5, 6)
        ball3 = build_ball(F2, 3)
        G = gram_matrix(F2, psi, ball3.elements)
        lam = np.linalg.eigvalsh((G + G.conj().T) / 2).min()
        assert lam >= -1e-9
        ball2 = build_ball(F2, 2)
        br = compute_bracket(F2, psi, 2, ball2)
        assert br.lower == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# convergence reports
# ---------------------------------------------------------------------------

def folner_rows(ks):
    ball = build_ball(Z2, 1)
    rows = []
    for k, tent, cert in folner_approximants(Z2, ks):
        rows.append((tent, compute_bracket(Z2, tent, 2, ball, certificate=cert)))
    return ball, rows


class TestConvergenceReport:
    def test_folner_success(self):
        ball, rows = folner_rows([2, 8, 32, 128])
        rep = convergence_report(Z2, 2, rows, [(k, 1) for k in (2, 8, 32, 128)],
                                 ball=ball)
        assert rep.success
        assert [pytest.approx(r.pointwise_residual) for r in rep.rows] == \
            [1 / 3, 1 / 9, 1 / 33, 1 / 129]
        for row in rep.rows:
            assert row.upper == 1.0
            assert row.lower == 1.0
            assert "bracket-inverted" not in row.flags
            assert "lower-certified" in row.flags
            assert "upper-certified" in row.flags

    def test_fixed_radius_stalls(self):
        # r pinned at 0.9 leaves a 1-r gap no kernel degree can close
        ball = build_ball(Z, 1)
        pairs, labels = [], []
        for N in (4, 8, 16, 32):
            pairs.append(fejer_bracket(Z, N, 0.9, 2, ball))
            labels.append((N, 0.9))
        rep = convergence_report(Z, 2, pairs, labels, ball=ball)
        assert not rep.success
        finals = [r.pointwise_residual for r in rep.rows]
        assert all(b < a for a, b in zip(finals, finals[1:]))
        assert finals[-1] == pytest.approx(1 - 0.9 * 32 / 33)
        assert all(r.upper <= 1 + 1e-6 for r in rep.rows)

    def test_diagonal_sequence_converges(self):
        ball = build_ball(Z, 1)
        pairs, labels = [], []
        for j in range(1, 8):
            r, N = 1.0 - 2.0 ** -j, 4 ** j
            pairs.append(fejer_bracket(Z, N, r, 2, ball))
            labels.append((N, r))
        rep = convergence_report(Z, 2, pairs, labels, ball=ball)
        assert rep.success
        assert rep.rows[-1].pointwise_residual < 0.01
        assert all(r.upper <= 1 + 1e-6 for r in rep.rows)

    def test_label_count_mismatch(self):
        ball, rows = folner_rows([2])
        with pytest.raises(MultiplierError):
            convergence_report(Z2, 2, rows, [(2, 1), (8, 1)], ball=ball)

    def test_csv_shape_and_determinism(self):
        ball, rows = folner_rows([2, 8])
        def render():
            rep = convergence_report(Z2, 2, rows, [(2, 1), (8, 1)], ball=ball)
            buf = io.StringIO()
            write_convergence_csv(buf, rep, header_lines=["# run=test"])
            return buf.getvalue()
        text = render()
        assert render() == text
        lines = text.splitlines()
        assert lines[0] == "# run=test"
        assert "# d=2" in lines
        assert "# result=INCOMPLETE" in lines  # two rows stop at residual 1/9
        assert lines[6] == "n,N,r,pointwise_residual,lower,upper,flags"
        first = lines[7].split(",")
        assert first[0] == "0" and first[1] == "2" and first[2] == "1"
        assert "lower-certified" in lines[7]
