"""Canonical (principal) angles between subspaces at configurable precision.

A real subspace is built at a precision it then carries; every computation
on it runs at that precision, and one on two subspaces at the lower of
theirs.  So proximities as small as H^-6 keep relative accuracy.  The
sines of the principal angles are obtained two ways and merged:

* cosines from the singular values of the d x e matrix of inner products
  of orthonormal bases (accurate for large angles);
* sines from the singular values of the projection complement
  (I - P_A) Q_B (accurate for small angles, no cancellation near cos ~ 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mpmath import mp

from .exact import gram_det_sq


class PrecisionError(ArithmeticError):
    """Raised when a computation cannot reach the requested accuracy."""


def zero_tol(prec: int):
    """2^-(prec/2): below this, a psi, pairing or norm computed at prec bits
    is rounding noise and counts as 0.  A power of two, so exact in mp at any
    precision (a float64 copy underflows from prec ~ 2150 on)."""
    return mp.mpf(2) ** (-(prec // 2))


def _to_mpf(x):
    """An int, Fraction, float or mpf as an mpf at the working precision;
    a Fraction is one rounded division of its exact numerator."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _svd_values(a: "mp.matrix"):
    """The singular values of a, descending; a is overwritten."""
    if a.rows < a.cols:
        a = a.T
    s = mp.svd_r(a, compute_uv=False, overwrite_a=True)
    return sorted((s[i] for i in range(s.rows)), reverse=True)


@dataclass(frozen=True)
class RealSubspace:
    """A subspace of R^n held as an orthonormal basis of mpmath reals."""

    n: int
    dim: int
    basis: tuple[tuple, ...]  # dim rows of length n, orthonormal
    precision_bits: int

    @classmethod
    def from_vectors(cls, vectors: Sequence[Sequence], precision_bits: int = 128) -> "RealSubspace":
        """Orthonormalize spanning vectors (modified Gram-Schmidt, one
        re-orthogonalization pass) at the requested precision."""
        vecs = list(vectors)
        if not vecs:
            raise ValueError("no vectors")
        n = len(vecs[0])
        with mp.workprec(precision_bits):
            rows = [[_to_mpf(x) for x in v] for v in vecs]
            if any(len(r) != n for r in rows):
                raise ValueError("vector length mismatch")
            ortho: list[list] = []
            floor = zero_tol(precision_bits)
            for r in rows:
                v = list(r)
                for _ in range(2):  # MGS + one re-orthogonalization pass
                    for u in ortho:
                        c = mp.fsum(a * b for a, b in zip(v, u))
                        v = [a - c * b for a, b in zip(v, u)]
                nrm = mp.sqrt(mp.fsum(a * a for a in v))
                if nrm < floor:
                    raise ValueError("dependent (or vanishing) vector in basis")
                ortho.append([a / nrm for a in v])
            return cls(n, len(ortho), tuple(tuple(r) for r in ortho), precision_bits)

    def mat(self) -> "mp.matrix":
        return mp.matrix(self.basis)


@dataclass(frozen=True)
class AngleProfile:
    """Ascending sines of the principal angles and their product."""

    sines: tuple
    phi: object

    def __post_init__(self):
        if any(a > b for a, b in zip(self.sines, self.sines[1:])):
            raise ValueError("sines must be ascending")


def sin_angle(x: Sequence, y: Sequence, precision_bits: int = 128):
    """Sine of the acute angle between two nonzero vectors.

    Computed as the norm of y's component orthogonal to x, over |y|; this
    keeps relative accuracy for nearly-colinear vectors.
    """
    with mp.workprec(precision_bits):
        xv = [_to_mpf(a) for a in x]
        yv = [_to_mpf(a) for a in y]
        nx = mp.sqrt(mp.fsum(a * a for a in xv))
        ny = mp.sqrt(mp.fsum(a * a for a in yv))
        if nx == 0 or ny == 0:
            raise ValueError("zero vector")
        xv = [a / nx for a in xv]
        c = mp.fsum(a * b for a, b in zip(xv, yv))
        w = [a - c * b for a, b in zip(yv, xv)]
        s = mp.sqrt(mp.fsum(a * a for a in w)) / ny
        return min(s, mp.mpf(1))


def canonical_angles(a: RealSubspace, b: RealSubspace) -> AngleProfile:
    """Sines of the min(dim a, dim b) principal angles, ascending, at the
    lower of the two subspaces' precisions."""
    if a.n != b.n:
        raise ValueError("ambient dimension mismatch")
    t = min(a.dim, b.dim)
    with mp.workprec(min(a.precision_bits, b.precision_bits)):
        small, large = (a, b) if a.dim <= b.dim else (b, a)
        X = large.mat()   # rows orthonormal
        Y = small.mat()
        G = Y * X.T       # t x dim(large)
        # projection complement of the smaller basis off the larger subspace,
        # formed before G's SVD, which may overwrite G
        S = Y - G * X
        cosines = _svd_values(G)  # descending <-> angles ascending
        sines_small = sorted(_svd_values(S))
        sines = []
        for i in range(t):
            c = min(cosines[i], mp.mpf(1))
            if c * c >= mp.mpf("0.5"):
                s = sines_small[i]
            else:
                s = mp.sqrt((1 - c) * (1 + c))
            sines.append(min(max(s, mp.mpf(0)), mp.mpf(1)))
        sines.sort()
        prod = mp.mpf(1)
        for s in sines:
            prod *= s
        return AngleProfile(tuple(sines), prod)


def principal_pairs(a: RealSubspace, b: RealSubspace):
    """Biorthogonal principal-vector pairs (x_i, y_i) with x_i . y_j = delta cos(theta_i),
    at the lower of the two subspaces' precisions.

    Pairs are ordered by ascending angle.  Returns (pairs, profile).
    """
    if a.n != b.n:
        raise ValueError("ambient dimension mismatch")
    if a.dim != b.dim:
        raise ValueError("principal pairs need equal dimensions")
    with mp.workprec(min(a.precision_bits, b.precision_bits)):
        X, Y = a.mat(), b.mat()
        G = X * Y.T
        U, s, V = mp.svd_r(G)
        XR = U.T * X
        YR = V * Y
        pairs = []
        for i in range(a.dim):
            xi = tuple(XR[i, j] for j in range(a.n))
            yi = tuple(YR[i, j] for j in range(a.n))
            # fix signs so the pair has nonnegative inner product
            ip = mp.fsum(p * q for p, q in zip(xi, yi))
            if ip < 0:
                yi = tuple(-q for q in yi)
            pairs.append((xi, yi))
    return pairs, canonical_angles(a, b)


def phi_via_det(a: RealSubspace, b_lattice_basis: Sequence[Sequence[int]]):
    """Proximity product via the determinant route, for complementary dimensions,
    at A's precision.

    With M the square matrix stacking an orthonormal basis of A and a lattice
    basis of B as columns, returns |det M| / (D(A-basis) * H(B)); it must
    agree with ``canonical_angles(a, b).phi`` up to rounding.
    """
    e = len(b_lattice_basis)
    n = len(b_lattice_basis[0])
    if a.n != n or a.dim + e != n:
        raise ValueError("phi_via_det requires dim A + dim B = n")
    hsq = gram_det_sq(b_lattice_basis)
    with mp.workprec(a.precision_bits):
        cols = a.basis + tuple(b_lattice_basis)
        det = mp.det(mp.matrix([[c[i] for c in cols] for i in range(n)]))
        # D of an orthonormal basis is 1 up to roundoff; compute it anyway
        X = a.mat()
        gram = X * X.T
        d_a = mp.sqrt(mp.det(gram))
        return abs(det) / (d_a * mp.sqrt(mp.mpf(hsq)))
