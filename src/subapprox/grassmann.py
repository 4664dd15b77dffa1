"""Rational subspaces of R^n held exactly.

A :class:`RationalSubspace` carries a saturated lattice basis (the integer
points of the subspace) and the primitive sign-canonical Plucker vector of
that lattice, whose squared norm is the squared height (= Gram determinant
of the basis).  Both conversions go through the Plucker vector: generating
vectors are wedged into it, and a decomposable Plucker vector eta gives the
integer points as the integer kernel of x -> x ^ eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from mpmath import mp

from .angles import RealSubspace, canonical_angles, zero_tol
from .exact import (
    PluckerVec,
    annihilator,
    clear_denominators,
    kernel_int,
    normalize_plucker,
    wedge_plucker,
    wedge_terms,
)


@dataclass(frozen=True)
class RationalSubspace:
    lattice_basis: tuple[tuple[int, ...], ...]  # e vectors in Z^n, HNF-canonical, saturated
    plucker: PluckerVec

    @property
    def n(self) -> int:
        return self.plucker.n

    @property
    def e(self) -> int:
        return self.plucker.e

    @property
    def height_sq(self) -> int:
        return self.plucker.norm_sq

    @property
    def key(self) -> str:
        return self.plucker.key


def from_generators(vectors: Sequence[Sequence]) -> RationalSubspace:
    """Build the rational subspace spanned by rational vectors.

    Denominators are cleared and the integer generators wedged; the wedge,
    made primitive, is the subspace's Plucker vector, and :func:`from_plucker`
    recovers the integer points from it.  So the result does not depend on
    the generating set of the span.  Raises on dependent input.
    """
    gens = [clear_denominators(v) for v in vectors]
    if not gens:
        raise ValueError("no generators")
    return from_plucker(normalize_plucker(wedge_plucker(gens), len(gens[0]), len(gens)))


@lru_cache(maxsize=None)
def plucker_relations(n: int, e: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The quadratic Grassmann-Plucker relations for (n, e).

    Each relation is a tuple of terms (coeff, i, j) meaning
    sum coeff * p[i] * p[j] = 0.  The set may be redundant; a vector is
    decomposable iff all of them vanish.  They are the coordinates of
    (iota_alpha p) ^ p, p contracted by each (e-1)-subset alpha and wedged
    with p, both read off the table; each is made primitive with a positive
    first coefficient and kept where it first occurs.
    """
    if e in (0, 1) or e >= n - 1:
        return ()
    T1, k1, sign1, A = wedge_terms(n, e - 1)  # e_k ^ e_alpha = sign1 e_T1
    k, sign, S = (c.reshape(-1, e + 1) for c in wedge_terms(n, e)[1:])  # row beta: (x ^ p)_beta
    # (iota_alpha p)[k] = iota_sign[alpha, k] p[iota_at[alpha, k]], and 0 for k in alpha
    iota_sign = np.zeros((math.comb(n, e - 1), n), dtype=np.intp)
    iota_at = np.zeros_like(iota_sign)
    iota_sign[A, k1], iota_at[A, k1] = sign1, T1
    rels = {}  # an ordered set: each relation where it first occurs
    for sg, at_alpha in zip(iota_sign, iota_at):
        at = at_alpha[k]
        for cs, lo, hi in zip((sign * sg[k]).tolist(), np.minimum(at, S).tolist(),
                              np.maximum(at, S).tolist()):
            acc: dict[tuple[int, int], int] = {}
            for c, pair in zip(cs, zip(lo, hi)):
                acc[pair] = acc.get(pair, 0) + c
            terms = sorted((i, j, c) for (i, j), c in acc.items() if c != 0)
            if terms:
                g = math.gcd(*(c for _, _, c in terms)) * (1 if terms[0][2] > 0 else -1)
                rels.setdefault(tuple((c // g, i, j) for i, j, c in terms))
    return tuple(rels)


# the package's working set of one block: of relation_values' products, cache
# text, float bounds or one _float_psi batch; no result depends on it
_BLOCK_BYTES = 1 << 20


@lru_cache(maxsize=None)
def _relation_terms(n: int, e: int) -> np.ndarray:
    """:func:`plucker_relations` as a (3, terms, relations) int64 array of
    (c, i, j): column r holds relation r's terms c p[i] p[j], padded with
    c = 0."""
    rels = plucker_relations(n, e)
    width = max(map(len, rels), default=0)
    padded = [rel + ((0, 0, 0),) * (width - len(rel)) for rel in rels]
    return np.array(padded, dtype=np.int64).reshape(len(rels), width, 3).T


def relation_values(P: np.ndarray, n: int, e: int):
    """Every :func:`plucker_relations` quadric at every row of P, yielded in
    blocks of consecutive rows: an array per block, a column per relation.
    Integer rows are multiplied in int64, which the caller keeps from
    overflowing; object rows (Python ints, or mpfs at the working precision)
    in their own dtype.  A row is decomposable iff its values are all 0."""
    c, i, j = _relation_terms(n, e)
    if not c.size:
        return
    dt = P.dtype if P.dtype == object else np.int64
    c = c.astype(dt)  # Python ints for object rows
    step = max(1, _BLOCK_BYTES // (8 * c.size))
    for lo in range(0, len(P), step):
        prods = np.multiply(P[lo:lo + step, i], P[lo:lo + step, j], dtype=dt)
        prods *= c
        yield prods.sum(axis=1)


def plucker_relations_check(coords: Sequence[int], n: int, e: int) -> bool:
    """True iff all quadratic Plucker relations vanish exactly."""
    coords = [int(x) for x in coords]
    if len(coords) != math.comb(n, e):
        raise ValueError("expected %d coordinates" % math.comb(n, e))
    return not any(v.any() for v in relation_values(np.array([coords], dtype=object), n, e))


def from_plucker(v: PluckerVec) -> RationalSubspace:
    """Recover the rational subspace with Plucker vector v.

    v must be decomposable (satisfy the Plucker relations).  The integer
    kernel of x -> x ^ v is then the subspace's integer points, a saturated
    lattice, returned as its HNF basis; the basis must wedge back to v.
    """
    n, e = v.n, v.e
    if not plucker_relations_check(v.coords, n, e):
        raise ValueError("vector fails the Plucker relations: not decomposable")
    M = annihilator(np.array(v.coords, dtype=object), n, e)
    basis = tuple(kernel_int(M.T.tolist(), width=n))  # HNF-canonical
    if len(basis) != e:
        raise ValueError("vector is not decomposable (kernel rank %d != %d)" % (len(basis), e))
    if normalize_plucker(wedge_plucker(basis), n, e).coords != v.coords:
        raise ValueError("recovered subspace does not reproduce the Plucker vector")
    return RationalSubspace(basis, v)


def real_view(b: RationalSubspace, precision_bits: int = 128) -> RealSubspace:
    """Orthonormal high-precision basis of the same span."""
    return RealSubspace.from_vectors(b.lattice_basis, precision_bits=precision_bits)


def refine_psi(a: RealSubspace, b: RationalSubspace, j: int):
    """(psi_j(A, B), phi(A, B)) at A's precision, from B's exact basis.

    The one mp refinement of a float-screened rational B: scans, going-up
    and the Dirichlet construction all call it.  A psi_j below
    :func:`angles.zero_tol` is rounding noise: both values are then 0, as
    phi <= psi_j.
    """
    prof = canonical_angles(a, real_view(b, a.precision_bits))
    psi = prof.sines[j - 1]
    if psi < zero_tol(a.precision_bits):
        return mp.mpf(0), mp.mpf(0)
    return psi, prof.phi


def parse_key(text: str) -> PluckerVec:
    """Parse the canonical textual form `n e : p_1 ... p_N`."""
    head, _, tail = text.partition(":")
    try:
        n, e = map(int, head.split())
        coords = tuple(int(x) for x in tail.split())
    except ValueError as exc:
        raise ValueError("bad subspace key %r" % text) from exc
    return PluckerVec(n, e, coords)
