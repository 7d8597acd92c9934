"""Group realizations, ball enumeration, and serialization round trips."""

from __future__ import annotations

import io
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlab.groups import (
    Ball,
    BallCapError,
    BallTooSmallError,
    FiniteGroup,
    FreeGroup,
    GroupError,
    SL2Z,
    SL2ZSemidirect,
    ZnGroup,
    build_ball,
    gram_matrix,
    load_group,
)

from mdlab.multipliers import Multiplier

from strategies import GROUP_KINDS, group_descriptions, json_values, matrix_json, semidirect_json
from oracles import (
    bfs_sphere_sizes, bfs_spheres, free_sphere_size, gram_matrix_reference, zn_ball_size,
)


def naive_reduce(word):
    """Oracle free reduction: scan for cancelling pairs until stable."""
    word = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == -word[i + 1]:
                del word[i:i + 2]
                changed = True
                break
    return tuple(word)


letters = st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0)
raw_words = st.lists(letters, max_size=12)


class TestFreeGroup:
    def test_identity_and_generators(self):
        g = FreeGroup(2)
        assert g.identity == ()
        assert len(g.generators()) == 4
        for s in g.generators():
            assert g.multiply(s, g.inverse(s)) == ()

    @given(raw_words, raw_words)
    def test_multiply_matches_naive_reduction(self, u, v):
        g = FreeGroup(2)
        a, b = naive_reduce(u), naive_reduce(v)
        assert g.multiply(a, b) == naive_reduce(list(a) + list(b))

    @given(raw_words)
    def test_inverse_cancels(self, w):
        g = FreeGroup(2)
        a = naive_reduce(w)
        assert g.multiply(a, g.inverse(a)) == ()
        assert g.multiply(g.inverse(a), a) == ()

    def test_word_length_is_reduced_length(self):
        g = FreeGroup(2)
        assert g.word_length(()) == 0
        assert g.word_length((1, 2, -1)) == 3

    def test_frozen_ball_counts(self):
        # |B_1| = 5 and |B_2| = 17 in F_2; spheres follow 2k(2k-1)^(r-1).
        g = FreeGroup(2)
        ball = build_ball(g, 2)
        assert len(ball.elements_up_to(1)) == 5
        assert len(ball) == 17
        assert ball.sphere_sizes == [1, 4, 12]

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_sphere_sizes_match_bfs_oracle(self, rank):
        g = FreeGroup(rank)
        ball = build_ball(g, 4)
        oracle = bfs_sphere_sizes(g.identity, g.generators(), g.multiply, 4)
        assert ball.sphere_sizes == oracle
        assert oracle == [free_sphere_size(rank, r) for r in range(5)]

    def test_ball_radius_6_count(self):
        ball = build_ball(FreeGroup(2), 6)
        assert len(ball) == 1457

    def test_string_round_trip(self):
        g = FreeGroup(3)
        w = (1, -2, 3, 3, -1)
        s = g.element_to_string(w)
        assert s == "aBccA"
        assert g.element_from_json(s) == w
        assert g.element_from_json("e") == ()

    def test_validate_rejects_unreduced(self):
        g = FreeGroup(2)
        with pytest.raises(GroupError):
            g.validate((1, -1))
        with pytest.raises(GroupError):
            g.validate((3,))
        with pytest.raises(GroupError):
            g.element_from_json("a1b")


class TestZnGroup:
    def test_arithmetic(self):
        g = ZnGroup(3)
        assert g.multiply((1, 2, -1), (0, -2, 5)) == (1, 0, 4)
        assert g.inverse((4, -7, 0)) == (-4, 7, 0)
        assert g.word_length((4, -7, 0)) == 11

    @pytest.mark.parametrize("n,r", [(1, 6), (2, 1), (2, 4), (3, 3)])
    def test_ball_sizes(self, n, r):
        ball = build_ball(ZnGroup(n), r)
        assert len(ball) == zn_ball_size(n, r)

    def test_z2_unit_ball_is_5(self):
        assert len(build_ball(ZnGroup(2), 1)) == 5

    @given(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
           st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
    def test_commutes(self, a, b):
        g = ZnGroup(2)
        assert g.multiply(a, b) == g.multiply(b, a)

    def test_json_round_trip(self):
        g = ZnGroup(2)
        assert g.element_from_json(g.element_to_json((3, -1))) == (3, -1)


def s3_table():
    """Multiplication table of S_3 from raw permutation composition."""
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))
    return [[idx[compose(p, q)] for q in perms] for p in perms], perms


class TestFiniteGroup:
    def test_cyclic4(self):
        table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        g = FiniteGroup(table, generators=[1, 3])
        assert g.identity == 0
        assert g.inverse(1) == 3
        assert g.word_length(2) == 2
        ball = build_ball(g, 2)
        assert len(ball) == 4

    def test_s3_full_generating_set(self):
        table, _ = s3_table()
        g = FiniteGroup(table)
        assert g.order == 6
        ball = build_ball(g, 1)
        assert len(ball) == 6
        for x in range(6):
            assert g.multiply(x, g.inverse(x)) == g.identity

    def test_rejects_non_group_table(self):
        with pytest.raises(GroupError):
            FiniteGroup([[0, 1], [0, 1]])
        with pytest.raises(GroupError):
            FiniteGroup([[0, 1], [1, 0]], generators=[0])

    def test_rejection_messages(self):
        cases = [
            ([[0, 1], [1]], "multiplication table must be square and nonempty"),
            ([], "multiplication table must be square and nonempty"),
            ([[0, 2], [1, 0]], "table entry 2 out of range 0..1"),
            ([[0, -1], [2 ** 70, 0]], "table entry -1 out of range 0..1"),
            ([[0, 2 ** 70], [1, 0]], f"table entry {2 ** 70} out of range 0..1"),
            ([[0, 0], [0, 0]], "table has no identity element"),
            ([[0, 1], [0, 1]], "table has no identity element"),  # left identity only
            ([[0, 1], [1, 1]], "element 1 has no inverse; not a group table"),
        ]
        for table, message in cases:
            with pytest.raises(GroupError) as info:
                FiniteGroup(table)
            assert str(info.value) == message

    def test_entries_convert_as_int_does(self):
        g = FiniteGroup([["0", 1.0], [True, 0]])
        assert g.table.tolist() == [[0, 1], [1, 0]]
        assert type(g.multiply(1, 1)) is int and type(g.inverse(1)) is int
        assert type(g.identity) is int

    def test_generators_out_of_range(self):
        for gens, bad in (([5], 5), ([1, -1], -1)):
            with pytest.raises(GroupError) as info:
                FiniteGroup([[0, 1], [1, 0]], generators=gens)
            assert str(info.value) == f"generator {bad} out of range 0..1"

    def test_diameter(self):
        table = [[(i + j) % 6 for j in range(6)] for i in range(6)]
        assert FiniteGroup(table, generators=[1, 5]).diameter() == 3
        assert FiniteGroup(table).diameter() == 1
        assert FiniteGroup(table, generators=[2, 4]).diameter() == 1  # spans Z/3 only
        g = FiniteGroup(table, generators=[3])
        build_ball(g, 4)  # explored past the end: trailing spheres are empty
        assert g.diameter() == 1

    def test_saturated_ball_has_empty_outer_spheres(self):
        table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        g = FiniteGroup(table, generators=[1, 2])
        ball = build_ball(g, 4)
        assert len(ball) == 3
        assert ball.sphere_sizes == [1, 2, 0, 0, 0]


class TestSL2Z:
    def test_generators_and_inverse(self):
        g = SL2Z()
        for s in g.generators():
            g.validate(s)
            assert g.multiply(s, g.inverse(s)) == g.identity

    def test_det_validation(self):
        g = SL2Z()
        with pytest.raises(GroupError):
            g.validate(((1, 0), (0, 2)))

    def test_bfs_matches_oracle(self):
        g = SL2Z()
        ball = build_ball(g, 4)
        oracle = bfs_sphere_sizes(g.identity, g.generators(), g.multiply, 4)
        assert ball.sphere_sizes == oracle

    def test_s_has_order_4_word_length(self):
        g = SL2Z()
        s = g.S
        s2 = g.multiply(s, s)
        assert s2 == ((-1, 0), (0, -1))
        assert g.word_length(s2) == 2

    def test_horizon_error(self):
        g = SL2Z()
        # T^40 sits at distance 40 > default horizon
        t40 = ((1, 40), (0, 1))
        with pytest.raises(BallTooSmallError):
            g.word_length(t40, horizon=6)

    def test_json_round_trip(self):
        g = SL2Z()
        m = ((2, 1), (1, 1))
        assert g.element_from_json(g.element_to_json(m)) == m


@pytest.mark.parametrize("cls,radius", [(SL2Z, 12), (SL2ZSemidirect, 6)])
def test_matrix_balls_match_the_python_bfs_sphere_by_sphere(cls, radius):
    g = cls()
    ball = build_ball(g, radius)
    spheres = bfs_spheres(g.identity, g.generators(), g.multiply, radius, key=g.sort_key)
    assert ball.sphere_sizes == [len(s) for s in spheres]
    for r, sphere in enumerate(spheres):
        assert ball.sphere(r) == sphere
    assert ball.lengths == [r for r, sphere in enumerate(spheres) for _ in sphere]


sl2_words = st.lists(st.integers(0, 3), min_size=0, max_size=8)


def sl2_from_word(g, word):
    gens = g.generators()
    x = g.identity
    for i in word:
        x = g.multiply(x, gens[i])
    return x


class TestSL2ZSemidirect:
    def test_group_law(self):
        g = SL2ZSemidirect()
        A = ((1, 1), (0, 1))
        a = (A, (2, -1))
        b = (((0, -1), (1, 0)), (1, 1))
        prod = g.multiply(a, b)
        # (A,v)(B,w) = (AB, v + A.w); A.(1,1) = (2,1)
        assert prod == (g.matrix_part.multiply(A, b[0]), (4, 0))
        assert g.multiply(a, g.inverse(a)) == g.identity
        assert g.multiply(g.inverse(a), a) == g.identity

    @given(st.lists(st.integers(0, 7), max_size=6),
           st.lists(st.integers(0, 7), max_size=6),
           st.lists(st.integers(0, 7), max_size=6))
    @settings(max_examples=50)
    def test_associative(self, wa, wb, wc):
        g = SL2ZSemidirect()
        gens = g.generators()
        mk = lambda w: sl2_from_word(g, [i % len(gens) for i in w])
        a, b, c = mk(wa), mk(wb), mk(wc)
        assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))

    def test_quotient_decomposition(self):
        g = SL2ZSemidirect()
        q = g.quotient()
        rng = random.Random(7)
        gens = g.generators()
        for _ in range(100):
            t = g.identity
            for _ in range(rng.randrange(0, 10)):
                t = g.multiply(t, rng.choice(gens))
            x, gamma = q.decompose(t)
            assert q.member(gamma)
            assert g.multiply(q.lift(x), gamma) == t
            assert q.project(t) == x

    def test_projection_is_homomorphism(self):
        g = SL2ZSemidirect()
        q = g.quotient()
        a = (((1, 1), (0, 1)), (3, 4))
        b = (((0, -1), (1, 0)), (-2, 5))
        assert q.project(g.multiply(a, b)) == g.matrix_part.multiply(q.project(a), q.project(b))


class TestBall:
    def test_identity_first_and_lengths(self):
        g = FreeGroup(2)
        ball = build_ball(g, 3)
        assert ball.elements[0] == g.identity
        for i, x in enumerate(ball.elements):
            assert ball.lengths[i] == g.word_length(x)
            assert ball.index[x] == i

    def test_inverse_closed(self):
        for grp in (FreeGroup(2), ZnGroup(2), SL2ZSemidirect()):
            ball = build_ball(grp, 3)
            for x in ball.elements:
                assert grp.inverse(x) in ball.index

    def test_deterministic_order(self):
        b1 = build_ball(FreeGroup(2), 3)
        b2 = build_ball(FreeGroup(2), 3)
        assert b1.elements == b2.elements

    def test_cap(self):
        with pytest.raises(BallCapError):
            build_ball(FreeGroup(2), 6, cap=100)

    def test_csv_dump(self):
        g = FreeGroup(2)
        ball = build_ball(g, 1)
        buf = io.StringIO()
        ball.write_csv(buf, header_lines=["# config tol=1e-06"])
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# config")
        assert lines[1] == "index,canonical_string,length"
        assert lines[2] == "0,e,0"
        assert len(lines) == 2 + 5

    def test_sphere_slices(self):
        ball = build_ball(FreeGroup(2), 2)
        assert ball.sphere(0) == [()]
        assert len(ball.sphere(2)) == 12
        assert ball.elements_up_to(1) == ball.elements[:5]


class TestGram:
    def test_entries(self):
        g = ZnGroup(1)
        elems = [(0,), (1,), (2,)]
        phi = lambda m: 0.5 ** abs(m[0])
        M = gram_matrix(g, phi, elems)
        expect = np.array([[1, .5, .25], [.5, 1, .5], [.25, .5, 1]])
        assert np.allclose(M, expect)

    def test_hermitian_for_symmetric_phi(self):
        g = FreeGroup(2)
        ball = build_ball(g, 2)
        rng = np.random.default_rng(3)
        vals = {x: complex(rng.normal(), rng.normal()) for x in ball.elements}
        phi = lambda x: vals.get(x, 0) + np.conj(vals.get(g.inverse(x), 0))
        M = gram_matrix(g, phi, ball.elements_up_to(1))
        assert np.allclose(M, M.conj().T)


def sl2_mod_p_table(p):
    """Multiplication table of SL(2, Z/p) and the indices of T, T^-1, S, S^-1."""
    els = [e for e in itertools.product(range(p), repeat=4)
           if (e[0] * e[3] - e[1] * e[2]) % p == 1]
    idx = {e: i for i, e in enumerate(els)}

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % p, (a * f + b * h) % p,
                (c * e + d * g) % p, (c * f + d * h) % p)

    table = [[idx[mul(x, y)] for y in els] for x in els]
    gens = [idx[(1, 1, 0, 1)], idx[(1, p - 1, 0, 1)],
            idx[(0, p - 1, 1, 0)], idx[(0, 1, p - 1, 0)]]
    return table, gens


def make_group(kind):
    """A fresh realization (cold BFS cache) and the ball radius tested on it."""
    if kind == "free":
        return FreeGroup(2), 3
    if kind == "zn":
        return ZnGroup(2), 4
    if kind == "finite":
        table, gens = sl2_mod_p_table(5)
        return FiniteGroup(table, generators=gens), 4
    if kind == "sl2z":
        return SL2Z(), 3
    return SL2ZSemidirect(), 2


def sample_phis(g, ball):
    """Radial (short and full coefficient lists), finite, and a plain function."""
    R = ball.radius
    return {
        "radial-short": Multiplier.radial(g, [0.7 ** k * (1 + 0.2j * k) for k in range(R + 1)]),
        "radial-full": Multiplier.radial(g, [0.6 ** k for k in range(2 * R + 1)]),
        "finite": Multiplier.finite(g, {x: complex(i + 1, -i)
                                        for i, x in enumerate(ball.elements[:7])}),
        "lambda": lambda t: (len(g.element_to_string(t)) + 1j) ** 0.5,
    }


def assert_same_gram(g, phi, window):
    want = gram_matrix_reference(g, phi, window)
    got = gram_matrix(g, phi, window)
    assert got.dtype == np.complex128
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


class TestGramRoutes:
    """Every gram_matrix route against the entry-by-entry reference loop."""

    @pytest.mark.parametrize("kind", GROUP_KINDS)
    @pytest.mark.parametrize("phi_name", ["radial-short", "radial-full", "finite", "lambda"])
    def test_ball_windows(self, kind, phi_name):
        g, R = make_group(kind)
        ball = build_ball(g, R)
        phi = sample_phis(g, ball)[phi_name]
        shuffled = list(ball.elements)
        random.Random(5).shuffle(shuffled)
        for window in (ball.elements, [], ball.elements[:1], ball.elements[-1:], shuffled):
            assert_same_gram(g, phi, window)

    def test_radial_past_the_horizon_raises_like_the_reference(self):
        t = SL2Z.T
        t10 = ((1, 10), (0, 1))
        window = [SL2Z().inverse(t10), SL2Z().identity, t, t10]
        messages = []
        for gram in (gram_matrix_reference, gram_matrix):
            g = SL2Z()
            phi = Multiplier.radial(g, [0.5, 0.25])
            with pytest.raises(BallTooSmallError) as info:
                gram(g, phi, window)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_huge_product_past_the_horizon_raises_like_the_reference(self):
        x = ((1, 10 ** 30), (0, 1))  # T^(10^30): its row has no int64 code
        messages = []
        for gram in (gram_matrix_reference, gram_matrix):
            g = SL2Z()
            with pytest.raises(BallTooSmallError) as info:
                gram(g, Multiplier.radial(g, [0.5, 0.25]), [g.identity, x])
            messages.append(str(info.value))
            assert g._explored_radius() == 16
        assert messages[0] == messages[1]

    def test_finite_radial_past_the_horizon_raises(self):
        cyclic = [[(i + j) % 40 for j in range(40)] for i in range(40)]
        for gram in (gram_matrix_reference, gram_matrix):
            g = FiniteGroup(cyclic, generators=[1, 39])
            with pytest.raises(BallTooSmallError):
                gram(g, Multiplier.radial(g, [1.0]), [0, 20])

    def test_radial_on_another_instance_takes_the_generic_route(self):
        g = SL2Z()
        ball = build_ball(g, 2)
        phi = Multiplier.radial(SL2Z(), [1.0, 0.5, 0.25])
        assert_same_gram(g, phi, ball.elements)

    def test_lattice_coordinates_beyond_int64(self):
        g = ZnGroup(2)
        big = 2 ** 70
        window = [(big, 0), (big, 1), (-big, 3), (0, 0)]
        assert_same_gram(g, Multiplier.radial(g, [1.0, 0.5, 0.25]), window)

    def test_malformed_elements_raise_group_errors(self):
        for g, window in ((ZnGroup(2), [(0, 0), (1, 2, 3)]),
                          (FreeGroup(2), [(1, -1), ()]),
                          (FiniteGroup([[0, 1], [1, 0]]), [0, 2])):
            phi = Multiplier.radial(g, [1.0, 0.5])
            for gram in (gram_matrix_reference, gram_matrix):
                with pytest.raises(GroupError):
                    gram(g, phi, window)

    @pytest.mark.parametrize("kind", ["sl2z", "sl2z_semidirect"])
    def test_matrix_entries_beyond_int64(self, kind):
        g = SL2Z() if kind == "sl2z" else SL2ZSemidirect()
        big = ((1, 10 ** 30), (0, 1))
        x = big if kind == "sl2z" else (big, (10 ** 40, -3))
        T, S = g.generators()[0], g.generators()[2]
        window = [x, g.multiply(x, T), g.multiply(x, S)]
        assert_same_gram(g, Multiplier.radial(g, [1.0, 0.5j, 0.25, 0.125]), window)

    @pytest.mark.parametrize("kind", ["sl2z", "sl2z_semidirect"])
    def test_malformed_matrix_elements_raise_group_errors(self, kind):
        bad_det = ((1, 0), (0, 2))
        if kind == "sl2z":
            g = SL2Z()
            det_window = [g.identity, bad_det]
            shape_windows = ([g.identity, ((1, 0), (0, 1), (0, 0))],
                             [((1.0, 0), (0, 1))], [((1, 0), (0,))])
        else:
            g = SL2ZSemidirect()
            det_window = [g.identity, (bad_det, (0, 0))]
            shape_windows = ([(SL2Z.T, (0, 0, 0))], [(SL2Z.T,)],
                             [(SL2Z.T, (0, "1"))], [((1, 0), (0, 1))])
        phi = Multiplier.radial(g, [1.0, 0.5])
        for gram in (gram_matrix_reference, gram_matrix):
            with pytest.raises(GroupError):
                gram(g, phi, det_window)
        for window in shape_windows:
            with pytest.raises(GroupError):
                gram_matrix(g, phi, window)

    @given(st.sampled_from(["sl2z", "sl2z_semidirect"]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_matrix_words(self, kind, data):
        # words short enough that every product lies within radius 12 (SL(2,Z))
        # or 6 (semidirect), so both sides stay cheap
        cls, letters, longest = ((SL2Z, 3, 6) if kind == "sl2z"
                                 else (SL2ZSemidirect, 7, 3))
        words = data.draw(st.lists(st.lists(st.integers(0, letters), max_size=longest),
                                   max_size=12))
        coeffs = data.draw(st.lists(st.complex_numbers(max_magnitude=2, allow_nan=False),
                                    max_size=2 * longest + 3))
        window = [sl2_from_word(cls(), w) for w in words]
        g, ref = cls(), cls()  # cold balls for both routes
        got = gram_matrix(g, Multiplier.radial(g, coeffs), window)
        want = gram_matrix_reference(ref, Multiplier.radial(ref, coeffs), window)
        assert got.dtype == np.complex128
        assert got.tobytes() == want.tobytes()

    def test_sl2z_radial_gram_grows_lazily_without_pair_products(self, monkeypatch):
        g = SL2Z()
        ball = build_ball(g, 6)
        assert len(ball) == 204
        phi = Multiplier.radial(g, [0.5 ** k for k in range(13)])
        assert phi.horizon == 16
        calls = {"multiply": 0, "grow": 0}
        multiply, grow = SL2Z.multiply, SL2Z._grow_one_sphere

        def counting_multiply(self, a, b):
            calls["multiply"] += 1
            return multiply(self, a, b)

        def counting_grow(self, cap=None):
            calls["grow"] += 1
            return grow(self, cap)

        monkeypatch.setattr(SL2Z, "multiply", counting_multiply)
        monkeypatch.setattr(SL2Z, "_grow_one_sphere", counting_grow)
        gram_matrix(g, phi, ball.elements)
        assert calls["multiply"] == 0
        # products of two radius-6 elements reach radius 12, not the horizon
        assert calls["grow"] == 6
        assert g._explored_radius() == 12

    @given(st.sampled_from(["free", "zn"]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_subsets(self, kind, data):
        g, R = make_group(kind)
        ball = build_ball(g, R)
        picks = data.draw(st.lists(st.integers(0, len(ball) - 1), unique=True, max_size=40))
        coeffs = data.draw(st.lists(st.complex_numbers(max_magnitude=2, allow_nan=False),
                                    max_size=2 * R + 3))
        window = [ball.elements[i] for i in picks]
        assert_same_gram(g, Multiplier.radial(g, coeffs), window)


class TestLoadGroup:
    def test_kinds(self):
        assert load_group({"kind": "free", "rank": 2}).kind == "free"
        assert load_group({"kind": "zn", "n": 3}).n == 3
        assert load_group({"kind": "sl2z"}).kind == "sl2z"
        assert load_group({"kind": "sl2z_semidirect"}).kind == "sl2z_semidirect"
        table = [[0, 1], [1, 0]]
        g = load_group({"kind": "finite", "table": table})
        assert g.order == 2

    def test_from_path(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"kind": "free", "rank": 2}))
        assert load_group(str(p)).rank == 2

    def test_rejects_unknown(self):
        with pytest.raises(GroupError):
            load_group({"kind": "hyperbolic"})
        with pytest.raises(GroupError):
            load_group({"rank": 2})


class TestLoaderFuzz:
    """Loaders reject malformed input with GroupError and nothing else."""

    @given(group_descriptions())
    @settings(max_examples=300, deadline=None)
    def test_load_group_descriptions(self, desc):
        try:
            g = load_group(desc)
        except GroupError:
            return
        assert g.kind == desc["kind"] in GROUP_KINDS

    @given(st.text(max_size=30) | group_descriptions().map(json.dumps))
    @settings(max_examples=150, deadline=None)
    def test_load_group_text(self, text):
        try:
            load_group(io.StringIO(text))
        except GroupError:
            pass

    @given(st.sampled_from(["sl2z", "sl2z_semidirect"]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matrix_element_from_json(self, kind, data):
        g = SL2Z() if kind == "sl2z" else SL2ZSemidirect()
        obj = data.draw(matrix_json if kind == "sl2z" else semidirect_json | json_values)
        try:
            x = g.element_from_json(obj)
        except GroupError:
            return
        g.validate(x)
        assert g.element_from_json(g.element_to_json(x)) == x
