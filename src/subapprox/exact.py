"""Exact integer linear algebra and the package's one exterior-algebra table.

Gram determinants, wedges, integer kernels, Hermite normal forms and
unimodular completions are computed over Python's integers, so they are
exact; the last three come from one integer row echelon, and rationals
enter only through :func:`clear_denominators`.  Every wedge x ^ eta of the
package is read off :func:`wedge_terms` through :func:`annihilator`, and
every Hodge star is :func:`hodge_twist`.  Both keep their input's dtype, so
object arrays of Python ints stay exact at any size.

Conventions shared by the whole package:

* a basis of an e-dimensional lattice in Z^n (e >= 1) is a tuple of e
  integer vectors of length n;
* e-element subsets of {0, ..., n-1} are ordered lexicographically, and
  minor/Plucker coordinates follow that order;
* the Laplace sign of an e-subset S (used when pairing complementary
  minors) is ``(-1) ** (sum(S) + e*(e+1)/2)`` with 1-based indices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np


@lru_cache(maxsize=None)
def subsets(n: int, e: int) -> tuple[tuple[int, ...], ...]:
    """All e-subsets of {0, ..., n-1} in lexicographic order."""
    return tuple(itertools.combinations(range(n), e))


@lru_cache(maxsize=None)
def subset_index(n: int, e: int) -> dict[tuple[int, ...], int]:
    return {s: i for i, s in enumerate(subsets(n, e))}


@lru_cache(maxsize=None)
def wedge_terms(n: int, e: int) -> tuple[np.ndarray, ...]:
    """Index arrays (T, k, sign, S) of the terms of x ^ eta for an e-blade eta:
    (x ^ eta)_T = sum of sign * x[k] * eta[S] over the terms of T, where T
    indexes the (e+1)-subsets, k = T[pos], sign = (-1)^pos and S indexes
    T without k.  The terms of T are the e + 1 consecutive ones from
    (e + 1) T; the arrays are read-only and empty when e + 1 > n."""
    idx = subset_index(n, e)
    terms = [(t, k, (-1) ** pos, idx[sub[:pos] + sub[pos + 1:]])
             for t, sub in enumerate(subsets(n, e + 1)) for pos, k in enumerate(sub)]
    cols = np.array(terms, dtype=np.intp).reshape(-1, 4).T.copy()
    cols.setflags(write=False)
    return tuple(cols)


def annihilator(eta: np.ndarray, n: int, e: int) -> np.ndarray:
    """M in eta's dtype with x @ M = x ^ eta for the Plucker vector eta of an
    e-blade: the transposed annihilator, since the wedge is linear in x.  Its
    kernel is the span of the blade.  An object eta of Python ints or mpfs
    gives an object M of the same, each entry +-eta[S] or the int 0."""
    T, k, sign, S = wedge_terms(n, e)
    M = np.zeros((n, math.comb(n, e + 1)), dtype=eta.dtype)
    M[k, T] = sign * eta[S]
    return M


def hodge_twist(P: np.ndarray, n: int, e: int) -> np.ndarray:
    """The (n, n - e) Plucker rows P reversed and twisted by the Laplace signs
    of the e-subsets: the complement of the i-th (n - e)-subset is the
    (N-1-i)-th e-subset, so these are the Hodge stars, whose subspaces are the
    orthogonal complements, and <a, *eta> is the dot product of a with the twist."""
    return P[..., ::-1] * np.array([laplace_sign(s) for s in subsets(n, e)], dtype=P.dtype)


def laplace_sign(subset: Sequence[int]) -> int:
    """Sign pairing the minor at `subset` (0-based rows) with its complement.

    For M in M_n with column blocks M1 (e columns) and M2 (n-e columns):
    det M = sum over e-subsets S of laplace_sign(S) * minor(M1, S) * minor(M2, S^c).
    """
    e = len(subset)
    return -1 if (sum(subset) + e + e * (e + 1) // 2) % 2 else 1


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    m = [list(map(int, r)) for r in rows]
    k = len(m)
    if any(len(r) != k for r in m):
        raise ValueError("matrix not square")
    if k == 0:
        return 1
    sign = 1
    denom = 1
    for c in range(k - 1):
        pivot_row = next((r for r in range(c, k) if m[r][c] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        for r in range(c + 1, k):
            for j in range(c + 1, k):
                m[r][j] = (m[r][j] * m[c][c] - m[r][c] * m[c][j]) // denom
            m[r][c] = 0
        denom = m[c][c]
    return sign * m[-1][-1]


def gram_det_sq(basis: Sequence[Sequence[int]]) -> int:
    """The Gram determinant of e vectors in Z^n; the squared covolume of their lattice."""
    e = len(basis)
    if len(basis[0]) < e:
        raise ValueError("more vectors than coordinates: %d in Z^%d" % (e, len(basis[0])))
    gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    d = det_int(gram)
    if d < 0:
        raise ArithmeticError("negative Gram determinant %d" % d)
    return d


def wedge_plucker(basis: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """All e x e minors of the e vectors, indexed by lex-ordered coordinate
    subsets: v_1 ^ (v_2 ^ (... ^ v_e)) through :func:`annihilator` over
    Python ints.  The squared norm of the result is ``gram_det_sq(basis)``
    (Cauchy-Binet).  Raises ValueError if the vectors differ in length (the
    reshape) or are dependent: more of them than coordinates, or all minors
    zero.
    """
    n, e = len(basis[0]), len(basis)
    if e > n:
        raise ValueError("%d vectors in Q^%d are dependent" % (e, n))
    vs = np.array([[int(x) for x in v] for v in basis], dtype=object).reshape(e, n)
    w = vs[-1]
    for grade, v in enumerate(vs[-2::-1], start=1):
        w = v @ annihilator(w, n, grade)
    if not any(w):
        raise ValueError("dependent vectors: zero wedge")
    return tuple(w.tolist())


@dataclass(frozen=True)
class PluckerVec:
    """Primitive, sign-canonical Plucker coordinate vector.

    Invariants: 1 <= e <= n, gcd of coordinates is 1 and the first nonzero
    coordinate is positive.  ``coords`` follows the lexicographic subset order.
    """

    n: int
    e: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.e <= self.n:
            raise ValueError("need 1 <= e <= n")
        want = math.comb(self.n, self.e)
        if len(self.coords) != want:
            raise ValueError("expected %d coordinates, got %d" % (want, len(self.coords)))
        g = math.gcd(*self.coords)
        if g != 1:
            raise ValueError("coordinates not primitive (gcd %d)" % g)
        lead = next((x for x in self.coords if x != 0), 0)
        if lead <= 0:
            raise ValueError("first nonzero coordinate must be positive")

    @property
    def norm_sq(self) -> int:
        return sum(x * x for x in self.coords)

    @property
    def key(self) -> str:
        return "%d %d : %s" % (self.n, self.e, " ".join(map(str, self.coords)))


def normalize_plucker(raw: Sequence[int], n: int, e: int) -> PluckerVec:
    """Divide by the gcd and flip the sign so the first nonzero entry is positive."""
    coords = [int(x) for x in raw]
    if all(x == 0 for x in coords):
        raise ValueError("zero vector has no Plucker normalization")
    g = 0
    for x in coords:
        g = math.gcd(g, x)
    coords = [x // g for x in coords]
    lead = next(x for x in coords if x != 0)
    if lead < 0:
        coords = [-x for x in coords]
    return PluckerVec(n, e, tuple(coords))


def _echelon(m: list[list[int]], width: int) -> int:
    """Row-reduce the first `width` columns of `m` in place; return the rank.

    Only swaps, negations and integer row additions are used, so the row
    lattice is preserved and the columns past `width` record the transform:
    reducing [M | I] leaves [R M | R] with R unimodular.  Each pivot is
    positive, the gcd of its column below the rows already reduced.
    """
    nr = len(m)
    rank = 0
    for c in range(width):
        if rank == nr:
            break
        # Euclid the column entries below `rank` down to a single gcd pivot.
        while True:
            live = [i for i in range(rank, nr) if m[i][c] != 0]
            if not live:
                break
            piv = min(live, key=lambda i: abs(m[i][c]))
            m[rank], m[piv] = m[piv], m[rank]
            if m[rank][c] < 0:
                m[rank] = [-a for a in m[rank]]
            top = m[rank]
            done = True
            for i in range(rank + 1, nr):
                if m[i][c] != 0:
                    q = m[i][c] // top[c]
                    m[i] = [a - q * b for a, b in zip(m[i], top)]
                    done = done and m[i][c] == 0
            if done:
                break
        if m[rank][c] != 0:
            rank += 1
    return rank


def kernel_int(rows: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Basis of {x in Z^width : M x = 0} for the integer matrix M with these rows.

    The transpose of M is echeloned beside an identity block, and the
    transform rows beside its zero rows span the kernel: a saturated lattice,
    returned HNF-canonical.  With no rows the kernel is Z^width.
    """
    r = len(rows)
    m = [[int(row[j]) for row in rows] + [int(i == j) for i in range(width)]
         for j in range(width)]
    rank = _echelon(m, r)
    res = [row[r:] for row in m if not any(row[:r])]
    if len(res) != width - rank:
        raise ArithmeticError("kernel has %d vectors, rank %d of %d" % (len(res), rank, width))
    return hnf_rows(res)


def hnf_rows(vectors: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Canonical (row-style Hermite normal form) basis of the row lattice.

    Requires independent rows.  Pivots are positive and entries above each
    pivot are reduced into [0, pivot).
    """
    m = [list(map(int, v)) for v in vectors]
    if _echelon(m, len(m[0]) if m else 0) != len(m):
        raise ValueError("dependent rows")
    for i, row in enumerate(m):
        c = next(j for j, x in enumerate(row) if x != 0)
        for k in range(i):
            q = m[k][c] // row[c]
            if q:
                m[k] = [a - q * b for a, b in zip(m[k], row)]
    return [tuple(r) for r in m]


def complete_to_unimodular(basis: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Vectors extending a saturated lattice basis to a basis of Z^n.

    Input: e vectors in Z^n that are a basis of a *saturated* lattice.
    Returns n-e integer vectors u such that (basis, u's) is unimodular.
    """
    n, e = len(basis[0]), len(basis)
    m = [[v[i] for v in basis] + [int(i == j) for j in range(n)] for i in range(n)]
    if _echelon(m, e) != e:
        raise ValueError("dependent basis vectors")
    if abs(det_int([row[:e] for row in m[:e]])) != 1:
        raise ValueError("basis is not saturated")
    # R M = [T; 0] with T unimodular, so the last n-e columns of R^-1 complete
    # the basis.  R is unimodular, so the HNF of [R | I] is [I | R^-1].
    inv = hnf_rows([row[e:] + [int(i == j) for j in range(n)] for i, row in enumerate(m)])
    return [tuple(inv[i][n + j] for i in range(n)) for j in range(e, n)]


def clear_denominators(vector: Sequence) -> tuple[int, ...]:
    """Scale a rational vector by the lcm of denominators to a primitive-ish integer vector."""
    fracs = [Fraction(x) for x in vector]
    l = 1
    for f in fracs:
        l = l * f.denominator // math.gcd(l, f.denominator)
    return tuple(int(f * l) for f in fracs)
