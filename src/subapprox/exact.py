"""Exact integer and rational linear algebra.

Everything in this module is computed over Python's arbitrary-precision
integers (or ``fractions.Fraction`` where division is unavoidable), so
results are exact: Gram determinants, all e x e minors of a basis matrix,
integer kernels, lattice saturation and Hermite normal forms.

Conventions shared by the whole package:

* a basis of an e-dimensional lattice in Z^n is stored as the *columns*
  of an n x e :class:`IntMat`;
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
from typing import Iterable, Sequence


@lru_cache(maxsize=None)
def subsets(n: int, e: int) -> tuple[tuple[int, ...], ...]:
    """All e-subsets of {0, ..., n-1} in lexicographic order."""
    return tuple(itertools.combinations(range(n), e))


@lru_cache(maxsize=None)
def subset_index(n: int, e: int) -> dict[tuple[int, ...], int]:
    return {s: i for i, s in enumerate(subsets(n, e))}


@lru_cache(maxsize=None)
def wedge_terms(n: int, e: int) -> tuple[tuple[int, ...], ...]:
    """Index columns (T, k, sign, S) of the terms of x ^ eta for an e-blade eta:
    (x ^ eta)_T = sum of sign * x[k] * eta[S] over the terms of T, where T
    indexes the (e+1)-subsets, k = T[pos], sign = (-1)^pos and S indexes
    T without k.  The annihilator x -> x ^ eta of every route is this table."""
    idx = subset_index(n, e)
    terms = [(t, k, (-1) ** pos, idx[sub[:pos] + sub[pos + 1:]])
             for t, sub in enumerate(subsets(n, e + 1)) for pos, k in enumerate(sub)]
    return tuple(zip(*terms))


def annihilator_rows(eta: Sequence, n: int, e: int) -> list[list]:
    """Rows of x -> x ^ eta, indexed by the (e+1)-subsets, with entries of eta's type."""
    rows = [[0] * n for _ in range(math.comb(n, e + 1))]
    for t, k, sign, s in zip(*wedge_terms(n, e)):
        rows[t][k] = sign * eta[s]
    return rows


def laplace_sign(subset: Sequence[int]) -> int:
    """Sign pairing the minor at `subset` (0-based rows) with its complement.

    For M in M_n with column blocks M1 (e columns) and M2 (n-e columns):
    det M = sum over e-subsets S of laplace_sign(S) * minor(M1, S) * minor(M2, S^c).
    """
    e = len(subset)
    return -1 if (sum(subset) + e + e * (e + 1) // 2) % 2 else 1


@dataclass(frozen=True)
class IntMat:
    """Immutable integer matrix, row-major."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.entries:
            w = len(self.entries[0])
            if any(len(r) != w for r in self.entries):
                raise ValueError("ragged rows")
        for r in self.entries:
            for x in r:
                if not isinstance(x, int):
                    raise ValueError("entries must be integers, got %r" % (x,))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def from_columns(cls, vectors: Iterable[Sequence[int]]) -> "IntMat":
        vecs = [tuple(int(x) for x in v) for v in vectors]
        if not vecs:
            return cls(())
        n = len(vecs[0])
        if any(len(v) != n for v in vecs):
            raise ValueError("column length mismatch")
        return cls(tuple(tuple(v[i] for v in vecs) for i in range(n)))

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(r[j] for r in self.entries) for j in range(self.cols))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMat":
        return IntMat(self.columns)


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


def gram_det_sq(mat: IntMat) -> int:
    """det(M^t M) for an n x e integer matrix M; the squared covolume of its columns."""
    cols = mat.columns
    e = len(cols)
    if e == 0:
        return 1
    if mat.rows < e:
        raise ValueError("more columns than rows: %d x %d" % (mat.rows, e))
    gram = [[sum(a * b for a, b in zip(u, v)) for v in cols] for u in cols]
    d = det_int(gram)
    if d < 0:
        raise ArithmeticError("negative Gram determinant %d" % d)
    return d


def wedge_plucker(mat: IntMat) -> tuple[int, ...]:
    """All e x e minors of the n x e matrix, indexed by lex-ordered row subsets.

    The squared Euclidean norm of the result equals ``gram_det_sq(mat)``
    (Cauchy-Binet).  Raises if the columns are dependent (all minors zero).
    """
    n, e = mat.rows, mat.cols
    if e > n:
        raise ValueError("need e <= n")
    out = []
    for sub in subsets(n, e):
        out.append(det_int([mat.entries[i] for i in sub]))
    if all(x == 0 for x in out):
        raise ValueError("dependent columns: zero wedge")
    return tuple(out)


@dataclass(frozen=True)
class PluckerVec:
    """Primitive, sign-canonical Plucker coordinate vector.

    Invariants: gcd of coordinates is 1 and the first nonzero coordinate is
    positive.  ``coords`` follows the lexicographic subset order.
    """

    n: int
    e: int
    coords: tuple[int, ...]

    def __post_init__(self):
        want = math.comb(self.n, self.e)
        if len(self.coords) != want:
            raise ValueError("expected %d coordinates, got %d" % (want, len(self.coords)))
        g = math.gcd(*self.coords) if len(self.coords) > 1 else abs(self.coords[0])
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


def _row_reduce_unimodular(rows: list[list[int]]):
    """Integer row echelon with unimodular transform tracking.

    Returns (H, R, Rinv, rank) where H = R @ M, R is unimodular and Rinv its
    inverse.  Row operations are restricted to swaps, negations and adding
    integer multiples, so lattices are preserved.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    R = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    Rinv = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]

    def swap(i, j):
        m[i], m[j] = m[j], m[i]
        R[i], R[j] = R[j], R[i]
        for r in Rinv:
            r[i], r[j] = r[j], r[i]

    def addmul(i, j, q):
        # row_i += q * row_j  =>  (Rinv) col_j -= q * col_i
        if q == 0:
            return
        m[i] = [a + q * b for a, b in zip(m[i], m[j])]
        R[i] = [a + q * b for a, b in zip(R[i], R[j])]
        for r in Rinv:
            r[j] -= q * r[i]

    def negate(i):
        m[i] = [-a for a in m[i]]
        R[i] = [-a for a in R[i]]
        for r in Rinv:
            r[i] = -r[i]

    rank = 0
    for c in range(nc):
        if rank == nr:
            break
        # Euclid the column entries below `rank` down to a single gcd pivot.
        while True:
            live = [i for i in range(rank, nr) if m[i][c] != 0]
            if not live:
                break
            piv = min(live, key=lambda i: abs(m[i][c]))
            if piv != rank:
                swap(rank, piv)
            if m[rank][c] < 0:
                negate(rank)
            done = True
            for i in range(rank + 1, nr):
                if m[i][c] != 0:
                    addmul(i, rank, -(m[i][c] // m[rank][c]))
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if rank < nr and m[rank][c] != 0:
            rank += 1
    return m, R, Rinv, rank


def kernel_int(rows: Sequence[Sequence[int]], width: int | None = None) -> list[tuple[int, ...]]:
    """Basis of {x in Z^n : M x = 0} for the r x n integer matrix M.

    The kernel of an integer matrix is a saturated lattice; the returned
    basis is HNF-canonical.
    """
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        if width is None:
            raise ValueError("width required for an empty matrix")
        return [tuple(1 if i == j else 0 for j in range(width)) for i in range(width)]
    n = len(rows[0])
    # Row-reduce the transpose: zero rows of H pick out kernel rows of R.
    tr = [[rows[i][j] for i in range(len(rows))] for j in range(n)]
    H, R, _, rank = _row_reduce_unimodular(tr)
    res = [tuple(R[i]) for i in range(len(H)) if all(x == 0 for x in H[i])]
    if len(res) != n - rank:
        raise ArithmeticError("kernel has %d vectors, rank %d of %d columns" % (len(res), rank, n))
    if not res:
        return []
    return hnf_rows(res)


def hnf_rows(vectors: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Canonical (row-style Hermite normal form) basis of the row lattice.

    Requires independent rows.  Pivots are positive and entries above each
    pivot are reduced into [0, pivot).
    """
    H, _, _, rank = _row_reduce_unimodular([list(map(int, v)) for v in vectors])
    if rank != len(H):
        raise ValueError("dependent rows")
    # reduce entries above each pivot
    pivots = []
    for i, row in enumerate(H):
        c = next(j for j, x in enumerate(row) if x != 0)
        pivots.append(c)
        for k in range(i):
            q = H[k][c] // row[c]
            if q:
                H[k] = [a - q * b for a, b in zip(H[k], row)]
    return [tuple(r) for r in H]


def saturate(generators: Sequence[Sequence[int]]) -> IntMat:
    """Basis of span_Q(generators) intersected with Z^n.

    Computed as the integer kernel of the integer kernel (the double
    orthogonal-complement over Z), which is exact and automatically
    saturated; the result is HNF-canonical.  Raises on dependent input.
    """
    gens = [tuple(map(int, g)) for g in generators]
    if not gens:
        raise ValueError("no generators")
    n = len(gens[0])
    e = len(gens)
    comp = kernel_int(gens, width=n)
    basis = kernel_int(comp, width=n)
    if len(basis) != e:
        raise ValueError("dependent generators (rank %d < %d)" % (len(basis), e))
    return IntMat.from_columns(basis)


def solve_fraction(columns: Sequence[Sequence[int]], target: Sequence[int]):
    """Solve sum_j x_j * columns[j] = target over Q; None if unsolvable."""
    ncols = len(columns)
    n = len(target)
    aug = [[Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(target[i])]
           for i in range(n)]
    piv_rows = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if pr is None:
            return None  # dependent columns not supported here
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_rows.append(r)
        r += 1
    for i in range(r, n):
        if aug[i][ncols] != 0:
            return None
    return [aug[i][ncols] for i in range(ncols)]


def lattice_contains(basis: IntMat, vector: Sequence[int]) -> bool:
    """Whether `vector` is an integer combination of the basis columns."""
    sol = solve_fraction(basis.columns, [int(x) for x in vector])
    if sol is None:
        return False
    return all(x.denominator == 1 for x in sol)


def complete_to_unimodular(basis: IntMat) -> list[tuple[int, ...]]:
    """Vectors extending a saturated lattice basis to a basis of Z^n.

    Input: n x e IntMat whose columns are a basis of a *saturated* lattice.
    Returns n-e integer vectors u such that (columns, u's) is unimodular.
    """
    n = basis.rows
    e = basis.cols
    H, _, Rinv, rank = _row_reduce_unimodular([list(r) for r in basis.entries])
    if rank != e:
        raise ValueError("dependent basis columns")
    top = [H[i][:] for i in range(e)]
    if abs(det_int(top)) != 1:
        raise ValueError("basis is not saturated")
    # columns e..n-1 of Rinv complete the lattice
    return [tuple(Rinv[i][j] for i in range(n)) for j in range(e, n)]


def clear_denominators(vector: Sequence) -> tuple[int, ...]:
    """Scale a rational vector by the lcm of denominators to a primitive-ish integer vector."""
    fracs = [Fraction(x) for x in vector]
    l = 1
    for f in fracs:
        l = l * f.denominator // math.gcd(l, f.denominator)
    return tuple(int(f * l) for f in fracs)
