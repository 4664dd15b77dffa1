"""Rational subspaces of R^n held exactly.

A :class:`RationalSubspace` carries a saturated lattice basis (the integer
points of the subspace), the primitive sign-canonical Plucker vector of
that lattice, and the squared height (= squared norm of the Plucker
vector = Gram determinant of the basis).  Conversions go both ways:
from generating vectors, and back from a decomposable Plucker vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .angles import RealSubspace
from .exact import (
    IntMat,
    PluckerVec,
    annihilator_rows,
    clear_denominators,
    hnf_rows,
    kernel_int,
    normalize_plucker,
    saturate,
    subset_index,
    subsets,
    wedge_plucker,
)


@dataclass(frozen=True)
class RationalSubspace:
    n: int
    e: int
    lattice_basis: IntMat      # n x e, columns form an HNF-canonical saturated basis
    plucker: PluckerVec
    height_sq: int

    @property
    def key(self) -> str:
        return self.plucker.key

    def basis_vectors(self) -> tuple[tuple[int, ...], ...]:
        return self.lattice_basis.columns


def from_generators(vectors: Sequence[Sequence]) -> RationalSubspace:
    """Build the rational subspace spanned by rational vectors.

    Denominators are cleared, the lattice is saturated, and the result is
    independent of the particular generating set of the same span.
    """
    gens = [clear_denominators(v) for v in vectors]
    if not gens:
        raise ValueError("no generators")
    n = len(gens[0])
    basis = saturate(gens)  # raises on dependent input
    canon = hnf_rows([list(c) for c in basis.columns])
    mat = IntMat.from_columns(canon)
    raw = wedge_plucker(mat)
    pl = normalize_plucker(raw, n, mat.cols)
    return RationalSubspace(n, mat.cols, mat, pl, pl.norm_sq)


@lru_cache(maxsize=None)
def plucker_relations(n: int, e: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The quadratic Grassmann-Plucker relations for (n, e).

    Each relation is a tuple of terms (coeff, i, j) meaning
    sum coeff * p[i] * p[j] = 0.  The set may be redundant; a vector is
    decomposable iff all of them vanish.
    """
    if e in (0, 1) or e >= n - 1:
        return ()
    idx = subset_index(n, e)
    rels = []
    seen = set()
    for alpha in subsets(n, e - 1):
        aset = set(alpha)
        for beta in subsets(n, e + 1):
            acc: dict[tuple[int, int], int] = {}
            for pos, b in enumerate(beta):
                if b in aset:
                    continue
                merged = sorted(alpha + (b,))
                # sign of moving b into sorted position within alpha+(b)
                inv = sum(1 for a in alpha if a > b)
                rest = tuple(x for x in beta if x != b)
                i, j = idx[tuple(merged)], idx[rest]
                pair = (min(i, j), max(i, j))
                acc[pair] = acc.get(pair, 0) + (-1) ** (pos + inv)
            terms = sorted((i, j, c) for (i, j), c in acc.items() if c != 0)
            if not terms:
                continue
            g = math.gcd(*(abs(c) for _, _, c in terms))
            terms = [(i, j, c // g) for i, j, c in terms]
            if terms[0][2] < 0:
                terms = [(i, j, -c) for i, j, c in terms]
            norm = tuple(terms)
            if norm in seen:
                continue
            seen.add(norm)
            rels.append(tuple((c, i, j) for i, j, c in norm))
    return tuple(rels)


def plucker_relations_check(coords: Sequence[int], n: int, e: int) -> bool:
    """True iff all quadratic Plucker relations vanish exactly."""
    coords = [int(x) for x in coords]
    if len(coords) != math.comb(n, e):
        raise ValueError("expected %d coordinates" % math.comb(n, e))
    for rel in plucker_relations(n, e):
        if sum(c * coords[i] * coords[j] for c, i, j in rel) != 0:
            return False
    return True


def from_plucker(v: PluckerVec) -> RationalSubspace:
    """Recover the rational subspace with Plucker vector v.

    v must be decomposable (satisfy the Plucker relations); the subspace is
    the kernel of x -> x wedge v, saturated.  Round-trips with
    :func:`from_generators`.
    """
    n, e = v.n, v.e
    if not plucker_relations_check(v.coords, n, e):
        raise ValueError("vector fails the Plucker relations: not decomposable")
    if e == n:
        basis = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    else:
        basis = kernel_int(annihilator_rows(v.coords, n, e), width=n)
        if len(basis) != e:
            raise ValueError("vector is not decomposable (kernel rank %d != %d)" % (len(basis), e))
        basis = hnf_rows(basis)
    mat = IntMat.from_columns(basis)
    pl = normalize_plucker(wedge_plucker(mat), n, e)
    if pl.coords != v.coords:
        raise ValueError("recovered subspace does not reproduce the Plucker vector")
    return RationalSubspace(n, e, mat, pl, pl.norm_sq)


def real_view(b: RationalSubspace, precision_bits: int = 128) -> RealSubspace:
    """Orthonormal high-precision basis of the same span."""
    return RealSubspace.from_vectors(b.basis_vectors(), precision_bits=precision_bits)


def parse_key(text: str) -> PluckerVec:
    """Parse the canonical textual form `n e : p_1 ... p_N`."""
    head, _, tail = text.partition(":")
    try:
        n, e = map(int, head.split())
        coords = tuple(int(x) for x in tail.split())
    except ValueError as exc:
        raise ValueError("bad subspace key %r" % text) from exc
    return PluckerVec(n, e, coords)
