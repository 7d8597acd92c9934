"""Finitely generated groups with exact arithmetic and ball enumeration.

Five realizations share one small interface: free groups F_k, Z^n, finite
groups given by a multiplication table, SL(2,Z) as exact integer 2x2 matrices,
and the semidirect product SL(2,Z) x| Z^2.  Elements are plain hashable
values (tuples of ints, nested tuples, table indices), so they can key dicts
and be compared without wrapper objects.

Word length is the canonical-form length where one exists (freely reduced
word length on F_k, the L1 norm on Z^n) and breadth-first distance in the
Cayley graph over the fixed symmetric generating set otherwise.  Matrix
entries grow fast in SL(2,Z) balls, and products are never silently
wrapped: tuples hold Python integers, exact at every size, and the array
kernel shared by SL(2,Z) and the semidirect product works in int64 only
where a bound on its inputs' largest entry, checked before the multiply,
proves that no entry or sort code can overflow; otherwise its arrays hold
Python integers (object dtype).

Balls are enumerated sphere by sphere, each sphere sorted in the
realization's canonical order.  The resulting index map is the contract that
makes Gram matrices and CSV dumps reproducible across runs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

__all__ = [
    "GroupError", "BallTooSmallError", "BallCapError",
    "FreeGroup", "ZnGroup", "FiniteGroup", "SL2Z", "SL2ZSemidirect",
    "Ball", "build_ball", "gram_matrix", "QuotientStructure", "load_group",
]


class GroupError(ValueError):
    """Malformed element, mismatched realization, or bad group description."""


class BallTooSmallError(GroupError):
    """Word-length query fell outside the explored BFS horizon."""


class BallCapError(RuntimeError):
    """Ball enumeration, a quadrature grid or a matrix exceeded its size cap."""


def _as_int(x, what: str) -> int:
    """int(x) for a value read from outside, or GroupError."""
    try:
        return int(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GroupError(f"{what} must be an integer, got {x!r}") from exc


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------

class GroupRealization:
    """Shared BFS machinery; concrete realizations fill in the arithmetic.

    Subclasses must provide: kind, identity, generators(), multiply(),
    inverse(), sort_key(), element_to_string(), element_to_json(),
    element_from_json(), validate().  Generating sets are symmetric (closed
    under inverses) and never contain the identity.
    """

    kind: str = "?"

    def __init__(self) -> None:
        self._layers: list[list[Any]] = [[self.identity]]
        self._lengths: dict[Any, int] = {self.identity: 0}

    # -- arithmetic interface ------------------------------------------------

    @property
    def identity(self):
        raise NotImplementedError

    def generators(self) -> list:
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def sort_key(self, a):
        raise NotImplementedError

    def validate(self, a) -> None:
        raise NotImplementedError

    def element_to_string(self, a) -> str:
        raise NotImplementedError

    def element_to_json(self, a):
        raise NotImplementedError

    def element_from_json(self, obj):
        raise NotImplementedError

    # -- word length ----------------------------------------------------------

    def word_length(self, a, horizon: int | None = None) -> int:
        """BFS distance from the identity; overridden where a closed form exists."""
        self.validate(a)
        horizon = 12 if horizon is None else horizon
        while a not in self._lengths:
            r = len(self._layers)  # the first sphere not yet in _lengths
            # explored spheres are read at any radius; growth stops at the horizon
            if r > max(horizon, self._explored_radius()):
                raise self._beyond(horizon)
            self._ensure_radius(r)
        return self._lengths[a]

    def _beyond(self, horizon: int) -> BallTooSmallError:
        return BallTooSmallError(
            f"{self.kind}: element beyond BFS horizon {horizon}; enlarge the ball")

    def pair_values(self, elements: list, f: Callable, dtype) -> np.ndarray:
        """Matrix f(s_i^-1 s_j) over an ordered finite subset, f once per pair.

        Products are almost all distinct on infinite groups, so a memo would
        cost more than it saves; the values go into the array in one step.
        """
        n = len(elements)
        inv = [self.inverse(s) for s in elements]
        mul = self.multiply
        return np.fromiter((f(mul(a, b)) for a in inv for b in elements),
                           dtype=dtype, count=n * n).reshape(n, n)

    def _explored_radius(self) -> int:
        return len(self._layers) - 1

    def _grow_one_sphere(self, cap: int | None = None) -> None:
        frontier = self._layers[-1]
        gens = self.generators()
        fresh: dict[Any, None] = {}
        for x in frontier:
            for s in gens:
                y = self.multiply(x, s)
                if y not in self._lengths and y not in fresh:
                    fresh[y] = None
        sphere = sorted(fresh, key=self.sort_key)
        r = len(self._layers)
        for y in sphere:
            self._lengths[y] = r
        self._layers.append(sphere)
        if cap is not None and len(self._lengths) > cap:
            raise BallCapError(
                f"{self.kind}: ball exceeded cap {cap} at radius {r}")

    def _ensure_radius(self, radius: int, cap: int | None = None) -> None:
        while self._explored_radius() < radius:
            self._grow_one_sphere(cap)


class FreeGroup(GroupRealization):
    """F_k with elements stored as freely reduced letter tuples.

    Letter i in 1..k is the i-th generator, -i its inverse.  Strings use
    'a'..'z' for generators and 'A'..'Z' for their inverses, 'e' for the
    identity, so "abA" is a*b*a^-1.
    """

    kind = "free"

    def __init__(self, rank: int):
        if not 1 <= rank <= 26:
            raise GroupError(f"free rank must be in 1..26, got {rank}")
        self.rank = rank
        super().__init__()

    @property
    def identity(self):
        return ()

    def generators(self) -> list:
        out = []
        for i in range(1, self.rank + 1):
            out.append((i,))
            out.append((-i,))
        return out

    def multiply(self, a, b):
        word = list(a)
        for letter in b:
            if word and word[-1] == -letter:
                word.pop()
            else:
                word.append(letter)
        return tuple(word)

    def inverse(self, a):
        return tuple(-l for l in reversed(a))

    def word_length(self, a, horizon: int | None = None) -> int:
        self.validate(a)
        return len(a)

    def pair_lengths(self, elements: list, horizon: int | None = None) -> np.ndarray:
        """|s^-1 t| = |s| + |t| - 2 lcp(s, t) for reduced words, all pairs at once."""
        for s in elements:
            self.validate(s)
        n = len(elements)
        lens = np.fromiter(map(len, elements), dtype=np.intp, count=n)
        width = int(lens.max(initial=0))
        # letters padded with 0, which is no letter, so padding never matches
        letters = np.array([s + (0,) * (width - len(s)) for s in elements],
                           dtype=np.int8).reshape(n, width)
        L = lens[:, None] + lens[None, :]
        common = np.ones((n, n), dtype=bool)  # pairs whose prefixes agree so far
        for col in letters.T:
            common &= col[:, None] == col[None, :]
            common &= (col != 0)[:, None]
            # each shared letter cancels once in s and once in t (in place,
            # so the only n x n temporaries are booleans)
            L -= common
            L -= common
        return L

    def sort_key(self, a):
        return (len(a), tuple((abs(l), l < 0) for l in a))

    def validate(self, a) -> None:
        if not isinstance(a, tuple):
            raise GroupError(f"free element must be a tuple, got {type(a).__name__}")
        for l in a:
            if not isinstance(l, int) or l == 0 or abs(l) > self.rank:
                raise GroupError(f"bad letter {l!r} for F_{self.rank}")
        for u, v in zip(a, a[1:]):
            if u == -v:
                raise GroupError(f"word {a} is not freely reduced")

    def element_to_string(self, a) -> str:
        if not a:
            return "e"
        return "".join(chr(ord("a") + l - 1) if l > 0 else chr(ord("A") - l - 1) for l in a)

    def element_to_json(self, a):
        return self.element_to_string(a)

    def element_from_json(self, obj):
        if not isinstance(obj, str):
            raise GroupError(f"free element JSON must be a string, got {obj!r}")
        if obj in ("e", ""):
            return ()
        word = []
        for ch in obj:
            if "a" <= ch <= "z":
                word.append(ord(ch) - ord("a") + 1)
            elif "A" <= ch <= "Z":
                word.append(-(ord(ch) - ord("A") + 1))
            else:
                raise GroupError(f"bad free-group letter {ch!r}")
        elem = tuple(word)
        self.validate(elem)
        return elem


class ZnGroup(GroupRealization):
    """Z^n with integer coordinate tuples; generators are +-e_i."""

    kind = "zn"
    MAX_N = 1000  # the generating set alone holds 2n tuples of n coordinates

    def __init__(self, n: int):
        if n < 1:
            raise GroupError(f"Z^n needs n >= 1, got {n}")
        if n > self.MAX_N:
            raise GroupError(f"Z^n needs n <= {self.MAX_N}, got {n}")
        self.n = n
        super().__init__()

    @property
    def identity(self):
        return (0,) * self.n

    def generators(self) -> list:
        out = []
        for i in range(self.n):
            for sign in (1, -1):
                e = [0] * self.n
                e[i] = sign
                out.append(tuple(e))
        return out

    def multiply(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a):
        return tuple(-x for x in a)

    def word_length(self, a, horizon: int | None = None) -> int:
        self.validate(a)
        return sum(abs(x) for x in a)

    def pair_lengths(self, elements: list, horizon: int | None = None) -> np.ndarray:
        """L1 norms of all coordinate differences, by broadcasting.

        Coordinates too large for int64 differences are summed as Python
        integers (object dtype), so lengths are exact at every size.
        """
        for s in elements:
            self.validate(s)
        n = len(elements)
        bound = max((abs(x) for s in elements for x in s), default=0)
        dtype = np.int64 if 2 * bound * self.n < 2 ** 63 else object
        coords = np.array(elements, dtype=dtype).reshape(n, self.n)
        L = np.zeros((n, n), dtype=dtype)
        for col in coords.T:
            diff = col[None, :] - col[:, None]
            L += np.abs(diff, out=diff)
        return L

    def sort_key(self, a):
        return (sum(abs(x) for x in a), a)

    def validate(self, a) -> None:
        if not isinstance(a, tuple) or len(a) != self.n:
            raise GroupError(f"Z^{self.n} element must be a {self.n}-tuple, got {a!r}")
        if not all(isinstance(x, int) for x in a):
            raise GroupError(f"Z^{self.n} element must have integer entries: {a!r}")

    def element_to_string(self, a) -> str:
        return "(" + ",".join(str(x) for x in a) + ")"

    def element_to_json(self, a):
        return list(a)

    def element_from_json(self, obj):
        if not isinstance(obj, (list, tuple)):
            raise GroupError(f"Z^n element JSON must be a list, got {obj!r}")
        try:
            elem = tuple(int(x) for x in obj)
        except (TypeError, ValueError, OverflowError) as exc:
            raise GroupError(f"bad Z^{self.n} element JSON {obj!r}") from exc
        self.validate(elem)
        return elem


class FiniteGroup(GroupRealization):
    """Finite group given by its multiplication table.

    table[i, j] is the index of g_i * g_j, held as an int64 array.  The
    identity is the first element acting trivially on both sides; inverses
    are precomputed.  The generating set defaults to every non-identity
    element and must be symmetric.
    """

    kind = "finite"

    def __init__(self, table: Iterable[Iterable[int]],
                 generators: list[int] | None = None,
                 names: list[str] | None = None):
        try:
            rows = [list(row) for row in table]
        except TypeError as exc:
            raise GroupError("multiplication table must be a list of rows") from exc
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise GroupError("multiplication table must be square and nonempty")
        try:
            tab = np.array(rows, dtype=np.int64)  # converts entries as int() does
        except (TypeError, ValueError, OverflowError):
            tab = None
        if tab is None or tab.ndim != 2 or ((tab < 0) | (tab >= n)).any():
            # name the first bad entry in row-major order
            for x in (x for row in rows for x in row):
                x = _as_int(x, "table entry")
                if not 0 <= x < n:
                    raise GroupError(f"table entry {x} out of range 0..{n-1}")
            raise GroupError("table entries must be integers")
        ar = np.arange(n)
        trivial = (tab == ar[None, :]).all(axis=1) & (tab == ar[:, None]).all(axis=0)
        if not trivial.any():
            raise GroupError("table has no identity element")
        ident = int(np.argmax(trivial))
        two_sided = (tab == ident) & (tab.T == ident)
        missing = ~two_sided.any(axis=1)
        if missing.any():
            raise GroupError(f"element {int(np.argmax(missing))} has no inverse; "
                             "not a group table")
        self.table = tab
        self.order = n
        self._identity = ident
        self._inv = np.argmax(two_sided, axis=1)
        try:
            self.names = (tuple(f"g{i}" for i in range(n)) if names is None
                          else tuple(str(s) for s in names))
            gens = ([x for x in range(n) if x != ident] if generators is None
                    else [_as_int(x, "generator") for x in generators])
        except TypeError as exc:
            raise GroupError("names and generators must be lists") from exc
        if len(self.names) != n:
            raise GroupError("names list must match the table size")
        bad = next((x for x in gens if not 0 <= x < n), None)
        if bad is not None:
            raise GroupError(f"generator {bad} out of range 0..{n-1}")
        gen_set = set(gens)
        if ident in gen_set:
            raise GroupError("generating set must not contain the identity")
        if any(self._inv[x] not in gen_set for x in gens):
            raise GroupError("generating set must be closed under inverses")
        if len(gens) != len(gen_set) or not gens:
            raise GroupError("generating set must be nonempty without repeats")
        self._gens = gens
        super().__init__()

    @property
    def identity(self):
        return self._identity

    def generators(self) -> list:
        return list(self._gens)

    def multiply(self, a, b):
        self.validate(a)
        self.validate(b)
        return self.table.item(a, b)

    def inverse(self, a):
        self.validate(a)
        return self._inv.item(a)

    def diameter(self) -> int:
        """Largest word length that occurs: BFS runs until it reaches every
        element or a sphere comes up empty (the generators may span less)."""
        while self._layers[-1] and len(self._lengths) < self.order:
            self._grow_one_sphere()
        return max(r for r, layer in enumerate(self._layers) if layer)

    def pair_values(self, elements: list, f: Callable, dtype) -> np.ndarray:
        """Matrix f(s_i^-1 s_j) with f evaluated once per distinct product.

        Products are gathered from the table; f sees plain int indices in
        increasing order.
        """
        for s in elements:
            self.validate(s)
        idx = np.array(elements, dtype=np.intp)
        products = self.table[self._inv[idx][:, None], idx[None, :]]
        seen = np.zeros(self.order, dtype=bool)
        seen[products] = True
        distinct = np.flatnonzero(seen)
        values = np.zeros(self.order, dtype=dtype)
        values[distinct] = np.fromiter(map(f, distinct.tolist()), dtype=dtype,
                                       count=distinct.size)
        return values[products]

    def pair_lengths(self, elements: list, horizon: int | None = None) -> np.ndarray:
        return self.pair_values(elements, lambda t: self.word_length(t, horizon), np.intp)

    def sort_key(self, a):
        return a

    def validate(self, a) -> None:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise GroupError(f"finite-group element must be an index in 0..{self.order-1}, got {a!r}")

    def element_to_string(self, a) -> str:
        return self.names[a]

    def element_to_json(self, a):
        return a

    def element_from_json(self, obj):
        try:
            elem = int(obj)
        except (TypeError, ValueError, OverflowError) as exc:
            raise GroupError(f"bad finite-group element JSON {obj!r}") from exc
        self.validate(elem)
        return elem


_SL2_ID = ((1, 0), (0, 1))


def _sl2_mul(x, y):
    (a, b), (c, d) = x
    (p, q), (r, s) = y
    return ((a * p + b * r, a * q + b * s), (c * p + d * r, c * q + d * s))


def _sl2_inv(x):
    (a, b), (c, d) = x
    return ((d, -b), (-c, a))


# The integer kernel shared by SL(2,Z) and SL(2,Z) x| Z^2: an element is the
# row (a, b, c, d, v0, v1) of ([[a, b], [c, d]], v), with v = 0 on SL(2,Z).

_INT64_MAX = 2 ** 63 - 1


def _exact_dtype(bound: int):
    """int64 when every value is known to lie in [-bound, bound], else object."""
    return np.int64 if bound <= _INT64_MAX else object


def _bound(rows: np.ndarray) -> int:
    """Largest absolute entry, as a Python int."""
    return int(np.abs(rows).max(initial=0))


def _row_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows of (A,v)(B,w) = (AB, v + A.w), broadcast over the leading axes.

    Entries bounded by X and Y give entries bounded by X (2Y + 1).
    """
    a, b, c, d, v0, v1 = np.moveaxis(x, -1, 0)
    p, q, r, s, w0, w1 = np.moveaxis(y, -1, 0)
    return np.stack([a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s,
                     v0 + a * w0 + b * w1, v1 + c * w0 + d * w1], axis=-1)


def _row_inverse(x: np.ndarray) -> np.ndarray:
    """Rows of (A,v)^-1 = (A^-1, -A^-1 v); entries bounded by X give 2X^2."""
    a, b, c, d, v0, v1 = np.moveaxis(x, -1, 0)
    return np.stack([d, -b, -c, a, b * v1 - d * v0, c * v0 - a * v1], axis=-1)


def _codes(rows: np.ndarray, M: int) -> np.ndarray:
    """One integer per row with entries in [-M, M], ordered as the rows are
    lexicographically: the digits of the row in base 2M + 1."""
    base = 2 * M + 1
    dtype = _exact_dtype(base ** 6 - 1)
    code = np.zeros(len(rows), dtype=dtype)
    for col in rows.T:
        code = code * base + (col.astype(dtype) + M)
    return code


class _SL2Rows(GroupRealization):
    """BFS and pair word lengths on integer rows, for SL(2,Z) and its
    semidirect product with Z^2.

    The explored ball is one row array per sphere, each sorted
    lexicographically, which is the realizations' sort_key order.  The tuple
    views _layers and _lengths are made sphere by sphere, only as far as
    build_ball or word_length reads them.
    """

    def __init__(self) -> None:
        self._spheres = [np.array([self._to_row(self.identity)], dtype=np.int64)]
        self._generator_rows = np.array([self._to_row(s) for s in self.generators()],
                                        dtype=np.int64)
        super().__init__()

    def _to_row(self, a) -> tuple:
        raise NotImplementedError

    def _from_row(self, row: list):
        raise NotImplementedError

    def _explored_radius(self) -> int:
        return len(self._spheres) - 1

    def _grow_one_sphere(self, cap: int | None = None) -> None:
        spheres = self._spheres
        frontier, gens = spheres[-1], self._generator_rows
        if 3 * _bound(frontier) > _INT64_MAX:
            frontier, gens = frontier.astype(object), gens.astype(object)
        candidates = _row_product(frontier[:, None], gens[None, :]).reshape(-1, 6)
        # a neighbour of sphere r lies in sphere r - 1, r or r + 1
        old = spheres[-2:]
        M = max(_bound(candidates), *map(_bound, old))
        codes, first = np.unique(_codes(candidates, M), return_index=True)
        fresh = ~np.isin(codes, np.concatenate([_codes(s, M) for s in old]))
        spheres.append(candidates[first[fresh]])
        if cap is not None and sum(map(len, spheres)) > cap:
            raise BallCapError(
                f"{self.kind}: ball exceeded cap {cap} at radius {len(spheres) - 1}")

    def _ensure_radius(self, radius: int, cap: int | None = None) -> None:
        super()._ensure_radius(radius, cap)
        for r in range(len(self._layers), radius + 1):
            layer = list(map(self._from_row, self._spheres[r].tolist()))
            self._layers.append(layer)
            self._lengths.update(dict.fromkeys(layer, r))

    def pair_lengths(self, elements: list, horizon: int | None = None) -> np.ndarray:
        """Integer matrix L[i, j] = |s_i^-1 s_j| over an ordered finite subset.

        All n^2 products come from one broadcast.  Each distinct product is
        found by a sorted search against the explored spheres, and the BFS
        grows one sphere at a time only until every product is found; past
        the horizon it raises BallTooSmallError, as word_length does.
        """
        for s in elements:
            self.validate(s)
        n = len(elements)
        rows = [self._to_row(s) for s in elements]
        X = max((abs(x) for row in rows for x in row), default=0)
        # |s^-1| <= 2X^2 entrywise, so |s^-1 t| <= 2X^2 (2X + 1)
        S = np.array(rows, dtype=_exact_dtype(2 * X * X * (2 * X + 1))).reshape(n, 6)
        products = _row_product(_row_inverse(S)[:, None], S[None, :]).reshape(n * n, 6)
        M = _bound(products)
        codes, slots = np.unique(_codes(products, M), return_inverse=True)
        return self._code_lengths(codes, M, horizon)[slots].reshape(n, n)

    def _code_lengths(self, codes: np.ndarray, M: int, horizon: int | None) -> np.ndarray:
        """Word lengths of the rows with these sorted, distinct codes."""
        horizon = 12 if horizon is None else horizon
        lengths = np.empty(len(codes), dtype=np.intp)
        found, r = 0, 0
        while found < len(codes):
            if r > self._explored_radius():
                if r > horizon:
                    raise self._beyond(horizon)
                self._grow_one_sphere()
            sphere = self._spheres[r]
            # rows with an entry past M are no product, and have no code in base 2M + 1
            keys = _codes(sphere[np.abs(sphere).max(axis=1) <= M], M)
            at = np.minimum(np.searchsorted(codes, keys), len(codes) - 1)
            hit = at[codes[at] == keys]
            lengths[hit] = r
            found += hit.size
            r += 1
        return lengths


class SL2Z(_SL2Rows):
    """SL(2,Z) with exact integer matrices.

    Generated by T = [[1,1],[0,1]], S = [[0,-1],[1,0]] and their inverses.
    Word length is BFS distance over that set, grown lazily and cached.
    """

    kind = "sl2z"
    T = ((1, 1), (0, 1))
    S = ((0, -1), (1, 0))

    @property
    def identity(self):
        return _SL2_ID

    def generators(self) -> list:
        return [self.T, _sl2_inv(self.T), self.S, _sl2_inv(self.S)]

    def multiply(self, a, b):
        return _sl2_mul(a, b)

    def inverse(self, a):
        return _sl2_inv(a)

    def sort_key(self, a):
        return a[0] + a[1]

    def _to_row(self, a) -> tuple:
        return a[0] + a[1] + (0, 0)

    def _from_row(self, row: list):
        return ((row[0], row[1]), (row[2], row[3]))

    def validate(self, a) -> None:
        ok = (isinstance(a, tuple) and len(a) == 2
              and all(isinstance(r, tuple) and len(r) == 2 for r in a)
              and all(isinstance(x, int) for r in a for x in r))
        if not ok:
            raise GroupError(f"SL(2,Z) element must be a 2x2 integer tuple, got {a!r}")
        (p, q), (r, s) = a
        if p * s - q * r != 1:
            raise GroupError(f"matrix {a} has determinant != 1")

    def element_to_string(self, a) -> str:
        (p, q), (r, s) = a
        return f"[[{p},{q}],[{r},{s}]]"

    def element_to_json(self, a):
        return [list(a[0]), list(a[1])]

    def element_from_json(self, obj):
        try:
            elem = (tuple(int(x) for x in obj[0]), tuple(int(x) for x in obj[1]))
        except (TypeError, LookupError, ValueError, OverflowError) as exc:
            raise GroupError(f"bad SL(2,Z) element JSON {obj!r}") from exc
        self.validate(elem)
        return elem


class SL2ZSemidirect(_SL2Rows):
    """SL(2,Z) x| Z^2 with elements (matrix, vector).

    Group law (A,v)(B,w) = (AB, v + A.w); the Z^2 factor {(I,v)} is the
    normal subgroup the quotient machinery projects away.
    Generators: the four SL(2,Z) generators paired with the zero vector,
    plus the identity matrix paired with +-e1, +-e2.
    """

    kind = "sl2z_semidirect"

    def __init__(self) -> None:
        self.matrix_part = SL2Z()
        super().__init__()

    @property
    def identity(self):
        return (_SL2_ID, (0, 0))

    def generators(self) -> list:
        out = [(m, (0, 0)) for m in self.matrix_part.generators()]
        out += [(_SL2_ID, v) for v in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        return out

    def multiply(self, a, b):
        (A, v), (B, w) = a, b
        Aw = (A[0][0] * w[0] + A[0][1] * w[1], A[1][0] * w[0] + A[1][1] * w[1])
        return (_sl2_mul(A, B), (v[0] + Aw[0], v[1] + Aw[1]))

    def inverse(self, a):
        A, v = a
        Ainv = _sl2_inv(A)
        w = (Ainv[0][0] * v[0] + Ainv[0][1] * v[1], Ainv[1][0] * v[0] + Ainv[1][1] * v[1])
        return (Ainv, (-w[0], -w[1]))

    def sort_key(self, a):
        A, v = a
        return (A[0] + A[1], v)

    def _to_row(self, a) -> tuple:
        return a[0][0] + a[0][1] + a[1]

    def _from_row(self, row: list):
        return (((row[0], row[1]), (row[2], row[3])), (row[4], row[5]))

    def validate(self, a) -> None:
        if not (isinstance(a, tuple) and len(a) == 2):
            raise GroupError(f"semidirect element must be (matrix, vector), got {a!r}")
        self.matrix_part.validate(a[0])
        v = a[1]
        if not (isinstance(v, tuple) and len(v) == 2 and all(isinstance(x, int) for x in v)):
            raise GroupError(f"semidirect vector part must be a 2-tuple of ints, got {v!r}")

    def element_to_string(self, a) -> str:
        return f"({self.matrix_part.element_to_string(a[0])},({a[1][0]},{a[1][1]}))"

    def element_to_json(self, a):
        return [self.matrix_part.element_to_json(a[0]), list(a[1])]

    def element_from_json(self, obj):
        try:
            mat = self.matrix_part.element_from_json(obj[0])
            vec = (int(obj[1][0]), int(obj[1][1]))
        except (TypeError, LookupError, ValueError, OverflowError) as exc:
            raise GroupError(f"bad semidirect element JSON {obj!r}") from exc
        elem = (mat, vec)
        self.validate(elem)
        return elem

    # -- quotient structure G -> G/Z^2 = SL(2,Z) ------------------------------

    def gamma_member(self, a) -> bool:
        return a[0] == _SL2_ID

    def project(self, a):
        return a[0]

    def lift(self, m):
        self.matrix_part.validate(m)
        return (m, (0, 0))

    def quotient(self) -> "QuotientStructure":
        return QuotientStructure(
            ambient=self, quotient_group=self.matrix_part,
            project=self.project, lift=self.lift, member=self.gamma_member)


@dataclass(frozen=True)
class QuotientStructure:
    """Quotient map data for G -> G/Gamma with a fixed section.

    project is the quotient homomorphism q, lift a section with q(lift(x)) = x,
    member the indicator of the normal subgroup Gamma = ker q.
    """

    ambient: GroupRealization
    quotient_group: GroupRealization
    project: Callable
    lift: Callable
    member: Callable

    def decompose(self, t):
        """Split t as lift(q(t)) * gamma and return (q(t), gamma)."""
        x = self.project(t)
        gamma = self.ambient.multiply(self.ambient.inverse(self.lift(x)), t)
        if not self.member(gamma):
            raise GroupError(f"decomposition left a non-subgroup part for {t!r}")
        return x, gamma


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------

@dataclass
class Ball:
    """Ball of radius R, enumerated sphere by sphere in canonical order.

    elements[0] is the identity; index maps element -> position; lengths[i]
    is the word length of elements[i].
    """

    group: GroupRealization
    radius: int
    elements: list
    index: dict
    lengths: list[int]
    sphere_sizes: list[int]

    def __len__(self) -> int:
        return len(self.elements)

    def sphere(self, r: int) -> list:
        lo = sum(self.sphere_sizes[:r])
        return self.elements[lo:lo + self.sphere_sizes[r]]

    def elements_up_to(self, r: int) -> list:
        return self.elements[:sum(self.sphere_sizes[:r + 1])]

    def write_csv(self, fh, header_lines: Iterable[str] = ()) -> None:
        for line in header_lines:
            fh.write(line.rstrip("\n") + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["index", "canonical_string", "length"])
        for i, x in enumerate(self.elements):
            w.writerow([i, self.group.element_to_string(x), self.lengths[i]])


def build_ball(group: GroupRealization, radius: int, cap: int = 500_000) -> Ball:
    """Enumerate the ball of the given radius over the group's generating set."""
    if radius < 0:
        raise GroupError(f"ball radius must be >= 0, got {radius}")
    group._ensure_radius(radius, cap)
    elements: list = []
    sphere_sizes: list[int] = []
    for r in range(radius + 1):
        layer = group._layers[r]
        sphere_sizes.append(len(layer))
        elements.extend(layer)
        if len(elements) > cap:
            raise BallCapError(f"{group.kind}: ball of radius {radius} exceeds cap {cap}")
    index = {x: i for i, x in enumerate(elements)}
    lengths = [group._lengths[x] for x in elements]
    return Ball(group=group, radius=radius, elements=elements, index=index,
                lengths=lengths, sphere_sizes=sphere_sizes)


def gram_matrix(group: GroupRealization, phi: Callable, elements: list) -> np.ndarray:
    """Complex matrix M[i][j] = phi(s_i^-1 s_j) over an ordered finite subset.

    Every route gives the matrix that evaluating phi entry by entry gives,
    bit for bit.  A radial multiplier on this group (a phi with kind
    "radial", coeffs and horizon, as mdlab.multipliers.Multiplier has) is
    read off its coefficient list, zero past the end, at the pair word
    lengths, which each realization computes for all pairs at once
    (pair_lengths).  Any other phi goes through pair_values: once per
    distinct product on a finite group, once per pair elsewhere.
    """
    elements = list(elements)
    if getattr(phi, "kind", None) == "radial" and getattr(phi, "group", None) is group:
        coeffs = phi.coeffs
        table = np.array(coeffs + [0j], dtype=complex)
        L = group.pair_lengths(elements, phi.horizon)
        return table[np.minimum(L, len(coeffs), out=L).astype(np.intp, copy=False)]
    return group.pair_values(elements, phi, complex)


# ---------------------------------------------------------------------------
# group descriptions on disk
# ---------------------------------------------------------------------------

def load_group(source) -> GroupRealization:
    """Build a realization from a JSON description (path, file object, or dict).

    {"kind": "free", "rank": 2}
    {"kind": "zn", "n": 2}
    {"kind": "finite", "table": [[0,1],[1,0]], "generators": [1], "names": ["e","s"]}
    {"kind": "sl2z"}
    {"kind": "sl2z_semidirect"}
    """
    if isinstance(source, dict):
        desc = source
    else:
        try:
            if hasattr(source, "read"):
                desc = json.load(source)
            else:
                with open(source, "r", encoding="utf-8") as fh:
                    desc = json.load(fh)
        except ValueError as exc:  # JSON syntax or text encoding
            raise GroupError(f"group description is not valid JSON: {exc}") from exc
    if not isinstance(desc, dict) or "kind" not in desc:
        raise GroupError("group description must be a JSON object with a 'kind'")
    kind = desc["kind"]
    if kind == "free":
        if "rank" not in desc:
            raise GroupError("free group description needs 'rank'")
        return FreeGroup(_as_int(desc["rank"], "free group 'rank'"))
    if kind == "zn":
        if "n" not in desc:
            raise GroupError("zn description needs 'n'")
        return ZnGroup(_as_int(desc["n"], "zn 'n'"))
    if kind == "finite":
        if "table" not in desc:
            raise GroupError("finite group description needs 'table'")
        return FiniteGroup(desc["table"], desc.get("generators"), desc.get("names"))
    if kind == "sl2z":
        return SL2Z()
    if kind == "sl2z_semidirect":
        return SL2ZSemidirect()
    raise GroupError(f"unknown group kind {kind!r}")
