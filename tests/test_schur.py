"""Factorization-norm solver: values, witnesses, certificates, file formats."""

from __future__ import annotations

import importlib.util
import io
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlab.families import fejer_multiplier
from mdlab.groups import FreeGroup, ZnGroup, build_ball, gram_matrix
from mdlab.multipliers import Multiplier
from mdlab.schur import (
    SolverError,
    certificate_lower_bound,
    psd_check,
    read_matrix_binary,
    read_matrix_csv,
    schur_norm,
    verify_witness,
    witness_upper_bound,
    write_matrix_binary,
    write_matrix_csv,
)

from oracles import schur_norm_2x2_grid, schur_norm_reference


def random_correlation(rng, n):
    B = rng.normal(size=(n, n + 2))
    C = B @ B.T
    d = np.sqrt(np.diag(C))
    return C / np.outer(d, d)


def test_two_by_two_matches_grid_oracle():
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    sol = schur_norm(A)
    oracle = schur_norm_2x2_grid(A)
    assert abs(sol.value - oracle) < 1e-4
    assert abs(sol.value - math.sqrt(2)) < 1e-6
    assert sol.lower_bound <= sol.value + 1e-9
    assert sol.upper_bound >= sol.value - 1e-6


@pytest.mark.parametrize("seed,n", [(0, 2), (1, 3), (2, 5), (3, 8), (4, 12)])
def test_psd_unit_diagonal_is_one(seed, n):
    rng = np.random.default_rng(seed)
    C = random_correlation(rng, n)
    sol = schur_norm(C)
    assert abs(sol.value - 1.0) < 1e-6
    assert sol.lower_bound > 1.0 - 1e-6
    assert sol.upper_bound < 1.0 + 1e-6
    assert sol.witness_residual < 1e-7


def test_random_2x2_against_oracle():
    rng = np.random.default_rng(11)
    for _ in range(4):
        A = rng.normal(size=(2, 2))
        sol = schur_norm(A)
        oracle = schur_norm_2x2_grid(A)
        # oracle is a grid maximum of certified lower bounds
        assert oracle <= sol.value + 1e-7
        assert abs(sol.value - oracle) < 2e-3


def test_scaling_homogeneous():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 5))
    v1 = schur_norm(A).value
    v3 = schur_norm(3.0 * A).value
    assert abs(v3 - 3.0 * v1) < 1e-6 * max(1.0, v3)


def test_submatrix_monotone():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(6, 6))
    full = schur_norm(A).value
    sub = schur_norm(A[np.ix_([0, 2, 4], [1, 3])]).value
    assert sub <= full + 1e-7


def test_entry_lower_bound():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(5, 4))
    sol = schur_norm(A)
    assert sol.value >= np.abs(A).max() - 1e-7


def test_complex_hermitian_psd():
    A = np.array([[1.0, 1j], [-1j, 1.0]])
    sol = schur_norm(A)
    assert abs(sol.value - 1.0) < 1e-6
    assert sol.witness_residual < 1e-7


def test_complex_generic_sandwich():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    sol = schur_norm(A)
    assert sol.witness_residual < 1e-6
    assert sol.lower_bound <= sol.value + 1e-8
    assert sol.value <= sol.upper_bound + 1e-6
    assert sol.value - sol.lower_bound < 1e-5


def test_rank_one_value():
    u = np.array([2.0, -1.0, 0.5])
    v = np.array([1.0, 3.0])
    sol = schur_norm(np.outer(u, v))
    assert abs(sol.value - 2.0 * 3.0) < 1e-6


def test_zero_and_empty():
    z = schur_norm(np.zeros((3, 2)))
    assert z.value == 0.0
    e = schur_norm(np.zeros((0, 0)))
    assert e.value == 0.0


def test_certificate_reverifies_from_scratch():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(4, 4))
    sol = schur_norm(A)
    lb = certificate_lower_bound(A, sol.mu, sol.nu, sol.R)
    assert abs(lb - sol.lower_bound) < 1e-12
    assert lb <= sol.value + 1e-8
    assert lb >= sol.value - 1e-5


def test_certificate_rejects_bogus():
    A = np.eye(2)
    mu = np.array([0.25, 0.25])
    nu = np.array([0.25, 0.25])
    with pytest.raises(ValueError):
        certificate_lower_bound(A, mu, nu, np.full((2, 2), 5.0))
    with pytest.raises(ValueError):
        certificate_lower_bound(A, 3 * mu, nu, np.zeros((2, 2)))


def test_witness_helpers():
    x = np.array([[1.0, 0.0], [0.0, 2.0]])
    y = np.array([[1.0, 1.0]])
    A = x @ y.conj().T
    assert verify_witness(A, x, y) == 0.0
    assert witness_upper_bound(x, y) == pytest.approx(2.0 * math.sqrt(2.0))


def test_deterministic():
    rng = np.random.default_rng(10)
    A = rng.normal(size=(5, 3))
    a = schur_norm(A)
    b = schur_norm(A)
    assert a.value == b.value
    assert a.iterations == b.iterations
    assert np.array_equal(a.R, b.R)


def test_nonconvergence_raises():
    rng = np.random.default_rng(12)
    A = rng.normal(size=(4, 4))
    with pytest.raises(SolverError):
        schur_norm(A, tol=1e-12, max_iter=3)


def test_nonsquare_and_single():
    assert abs(schur_norm(np.array([[3.0]])).value - 3.0) < 1e-7
    rng = np.random.default_rng(13)
    A = rng.normal(size=(1, 6))
    # one row: norm is the sup of absolute entries
    assert abs(schur_norm(A).value - np.abs(A).max()) < 1e-6


def test_psd_check():
    ok, lam = psd_check(np.eye(3))
    assert ok and lam == pytest.approx(1.0)
    bad, lam2 = psd_check(np.diag([1.0, -0.5]))
    assert not bad and lam2 == pytest.approx(-0.5)


@pytest.mark.parametrize("group,radius", [(ZnGroup(2), 6), (FreeGroup(2), 4)])
def test_psd_check_on_real_data_matches_the_complex_solver(group, radius, monkeypatch):
    ball = build_ball(group, radius)
    for r in (0.3, 0.7):
        G = gram_matrix(group, Multiplier.radial(group, [r ** k for k in range(2 * radius + 1)]),
                        ball.elements)
        assert G.dtype == np.complex128 and not np.any(G.imag)
        want = float(np.linalg.eigvalsh((G + G.conj().T) / 2.0)[0])
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def spy(M):
            seen.append(M.dtype)
            return eigvalsh(M)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        ok, lam = psd_check(G)
        monkeypatch.undo()
        assert seen == [np.float64]
        assert ok == (want >= -1e-10)
        assert abs(lam - want) <= 1e-12 * max(1.0, abs(want))


def test_psd_check_keeps_complex_hermitian_input_complex():
    rng = np.random.default_rng(4)
    B = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    for H in (B @ B.conj().T, B + B.conj().T):
        ok, lam = psd_check(H)
        want = float(np.linalg.eigvalsh((H + H.conj().T) / 2.0)[0])
        assert lam == want and ok == (want >= -1e-10)


entries = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@given(st.lists(entries, min_size=9, max_size=9), st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=10, deadline=None)
def test_scaling_property(vals, c):
    A = np.array(vals).reshape(3, 3)
    if not np.any(A):
        return
    v1 = schur_norm(A, tol=1e-7).value
    vc = schur_norm(c * A, tol=1e-7).value
    assert abs(vc - c * v1) <= 1e-5 * max(1.0, vc)


def test_matrix_csv_roundtrip():
    rng = np.random.default_rng(14)
    A = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    buf = io.StringIO()
    write_matrix_csv(buf, A, header_lines=["# config tol=1e-08"])
    back = read_matrix_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(back, A)


def test_matrix_binary_roundtrip():
    rng = np.random.default_rng(15)
    A = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    buf = io.BytesIO()
    write_matrix_binary(buf, A)
    raw = buf.getvalue()
    assert raw[:5] == b"SCHR1"
    back = read_matrix_binary(io.BytesIO(raw))
    assert np.array_equal(back, A)


def test_matrix_binary_roundtrip_is_bit_exact():
    """Signed zeros and non-finite parts read back bit for bit."""
    A = np.array([[complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 1.5)],
                  [complex(1.0, math.inf), complex(-math.inf, 0.0), complex(math.nan, -2.0)]])
    buf = io.BytesIO()
    write_matrix_binary(buf, A)
    back = read_matrix_binary(io.BytesIO(buf.getvalue()))
    assert back.shape == A.shape
    assert back.tobytes() == A.tobytes()


def test_matrix_binary_rejects_garbage():
    with pytest.raises(ValueError):
        read_matrix_binary(io.BytesIO(b"NOPE!" + b"\0" * 8))
    buf = io.BytesIO()
    write_matrix_binary(buf, np.ones((2, 2)))
    with pytest.raises(ValueError):
        read_matrix_binary(io.BytesIO(buf.getvalue()[:-8]))
    with pytest.raises(ValueError):
        read_matrix_binary(io.BytesIO(b"SCHR1" + b"\x02\0\0"))


class _RecordingReader(io.BytesIO):
    """In-memory file that records every size passed to read()."""

    def __init__(self, data):
        super().__init__(data)
        self.asked = []

    def read(self, size=-1):
        self.asked.append(size)
        return super().read(size)


def test_matrix_binary_header_checked_before_reading():
    fh = _RecordingReader(b"SCHR1" + struct.pack("<II", 65535, 65535) + b"\0" * 32)
    with pytest.raises(ValueError, match="65535x65535"):
        read_matrix_binary(fh)
    assert max(fh.asked) <= 8


def test_matrix_csv_rejects_ragged():
    with pytest.raises(ValueError):
        read_matrix_csv(io.StringIO("1+0i,2+0i\n3+0i\n"))


# ---------------------------------------------------------------------------
# agreement with the interior-point reference
# ---------------------------------------------------------------------------

def _solved_in_this_file():
    """Every matrix the tests above solve (the 2x2 grid-oracle cases and the
    seeded complex 3 x 4 among them), rebuilt from the same seeds."""
    cases = [("hadamard", np.array([[1.0, 1.0], [1.0, -1.0]]))]
    for seed, n in [(0, 2), (1, 3), (2, 5), (3, 8), (4, 12)]:
        cases.append((f"correlation{n}", random_correlation(np.random.default_rng(seed), n)))
    rng = np.random.default_rng(11)
    cases += [(f"grid{k}", rng.normal(size=(2, 2))) for k in range(4)]
    A = np.random.default_rng(5).normal(size=(4, 5))
    cases += [("scaled", A), ("scaled3", 3.0 * A)]
    A = np.random.default_rng(6).normal(size=(6, 6))
    cases += [("full6", A), ("sub6", A[np.ix_([0, 2, 4], [1, 3])])]
    cases.append(("entry", np.random.default_rng(7).normal(size=(5, 4))))
    cases.append(("hermitian", np.array([[1.0, 1j], [-1j, 1.0]])))
    rng = np.random.default_rng(8)
    cases.append(("complex3x4", rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))))
    cases.append(("rank_one", np.outer([2.0, -1.0, 0.5], [1.0, 3.0])))
    cases.append(("certificate", np.random.default_rng(9).normal(size=(4, 4))))
    cases.append(("deterministic", np.random.default_rng(10).normal(size=(5, 3))))
    cases.append(("single", np.array([[3.0]])))
    cases.append(("row", np.random.default_rng(13).normal(size=(1, 6))))
    return cases


def _z_window_grams(seed: int):
    """The seven window Grams of the benchmark's z-window pool at a seed."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    bench_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_inputs)
    inputs = bench_inputs.z_window_inputs(seed)
    Z = ZnGroup(1)
    window = build_ball(Z, inputs["radius"]).elements
    grams = []
    for item in inputs["pool"]:
        if item["kind"] == "fejer":
            phi = fejer_multiplier(Z, item["N"], item["r"])
        else:
            phi = Multiplier.finite(Z, {(k,): v for k, v in item["support"]})
        name = item["name"] if "name" in item else f"fejer{item['N']}"
        grams.append((name, gram_matrix(Z, phi, window)))
    return grams


@pytest.mark.parametrize("name,A", _solved_in_this_file() + _z_window_grams(1),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_agrees_with_interior_point_reference(name, A):
    sol = schur_norm(A, tol=1e-8)
    ref = schur_norm_reference(A, tol=1e-8)
    assert abs(sol.value - ref.value) <= 1e-7
    assert abs(sol.lower_bound - ref.lower_bound) <= 1e-7


complex_entries = st.one_of(
    st.just(0j), st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))


@st.composite
def sparse_complex_matrices(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    A = np.array(draw(st.lists(complex_entries, min_size=m * n, max_size=m * n)),
                 dtype=complex).reshape(m, n)
    A[np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))] = 0
    A[:, np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0
    return A


@given(sparse_complex_matrices())
@settings(max_examples=60, deadline=None)
def test_both_ends_certified_on_random_complex(A):
    sol = schur_norm(A)
    assert certificate_lower_bound(A, sol.mu, sol.nu, sol.R) >= sol.lower_bound
    assert sol.lower_bound <= sol.upper_bound
    assert sol.witness_residual <= 1e-9 * max(1.0, float(np.abs(A).max()))


# ---------------------------------------------------------------------------
# degenerate inputs, each within the default max_iter
# ---------------------------------------------------------------------------

def _check_converged(sol, A, tol=1e-8):
    assert sol.gap <= tol
    assert sol.iterations <= 100
    assert certificate_lower_bound(A, sol.mu, sol.nu, sol.R) >= sol.lower_bound
    assert sol.witness_residual <= 1e-9 * max(1.0, float(np.abs(A).max()))


def test_zero_row_and_column_are_dropped():
    A = np.random.default_rng(16).normal(size=(4, 5))
    A[1] = 0.0
    A[:, 2] = 0.0
    sol = schur_norm(A)
    _check_converged(sol, A)
    inner = schur_norm(np.delete(np.delete(A, 1, axis=0), 2, axis=1))
    assert sol.value == inner.value and sol.iterations == inner.iterations
    assert not np.any(sol.x[1]) and not np.any(sol.y[2])
    assert sol.mu[1] == 0.0 and sol.nu[2] == 0.0
    assert not np.any(sol.R[1]) and not np.any(sol.R[:, 2])


@pytest.mark.parametrize("shape", [(1, 7), (7, 1)])
def test_single_row_or_column_is_the_largest_entry(shape):
    rng = np.random.default_rng(17)
    A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    sol = schur_norm(A)
    _check_converged(sol, A)
    top = float(np.abs(A).max())
    # the witness prices x y*, which is A up to the witness residual
    assert sol.lower_bound <= top <= sol.upper_bound * (1.0 + 1e-14)
    assert abs(sol.value - top) <= 1e-8 * top


def test_complex_rank_one():
    u = np.array([2.0, -1.0 + 1j, 0.5j])
    v = np.array([1.0, 3.0 - 1j, -0.5])
    A = np.outer(u, v.conj())
    sol = schur_norm(A)
    _check_converged(sol, A)
    exact = float(np.abs(u).max() * np.abs(v).max())
    assert sol.lower_bound <= exact <= sol.upper_bound * (1.0 + 1e-14)


@pytest.mark.parametrize("A,value", [
    # the third row's witness (0.1, 0.1) is shorter than the others: its
    # optimal weight is zero
    (np.array([[1.0, 0.0], [0.0, 1.0], [0.1, 0.1]]), 1.0),
    # the norm is the largest entry: the weight on the third column vanishes
    (np.array([[1.0, 0.0, -1.0, -1.0], [2.0, 0.0, 0.0, 1.0]]), 2.0),
])
def test_weights_vanishing_on_a_nonzero_row(A, value):
    sol = schur_norm(A)
    _check_converged(sol, A)
    assert sol.lower_bound <= value <= sol.upper_bound * (1.0 + 1e-14)
    weights = np.concatenate([sol.mu[np.any(A, axis=1)], sol.nu[np.any(A, axis=0)]])
    assert 2.0 * weights.min() <= 1e-8


def test_large_solve_memory():
    A = np.random.default_rng(18).normal(size=(200, 200))
    tracemalloc.start()
    try:
        sol = schur_norm(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.gap <= 1e-8
    assert peak <= 64 * 2 ** 20
