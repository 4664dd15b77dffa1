"""Test oracles that the package itself never calls: the signed Bareiss
determinant, an exact check of the Plucker relations at one vector,
orthonormality and containment residuals of a :class:`RealSubspace`, the
direct-sum angle bound of criterion 8, the R^4 and R^5 witness searches over
their whole boxes, and a Hermite-capped sweep of 3-subspaces.  The tests
import them as ``oracles``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from mpmath import mp

from subapprox.angles import RealSubspace, _to_mpf, canonical_angles, principal_pairs
from subapprox.enumeration import _canonical_sign_rows, _integer_ball, _row_gcd, _unique_sorted
from subapprox.exact import annihilator, hodge_twist
from subapprox.grassmann import relation_values


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


def plucker_relations_check(coords: Sequence[int], n: int, e: int) -> bool:
    """True iff all quadratic Plucker relations vanish exactly."""
    coords = [int(x) for x in coords]
    if len(coords) != math.comb(n, e):
        raise ValueError("expected %d coordinates" % math.comb(n, e))
    return not any(v.any() for v in relation_values(np.array([coords], dtype=object), n, e))


def gram_residual(sub: RealSubspace):
    """max |<b_i, b_j> - delta_ij| over the basis of sub, for orthonormality
    checks."""
    with mp.workprec(sub.precision_bits):
        worst = mp.mpf(0)
        for i, u in enumerate(sub.basis):
            for j, v in enumerate(sub.basis):
                g = mp.fsum(a * b for a, b in zip(u, v))
                worst = max(worst, abs(g - (1 if i == j else 0)))
        return worst


def contains_residual(sub: RealSubspace, vector):
    """Distance from a unit-normalized vector to sub."""
    with mp.workprec(sub.precision_bits):
        v = [_to_mpf(x) for x in vector]
        nrm = mp.sqrt(mp.fsum(a * a for a in v))
        v = [a / nrm for a in v]
        for u in sub.basis:
            c = mp.fsum(a * b for a, b in zip(v, u))
            v = [a - c * b for a, b in zip(v, u)]
        return mp.sqrt(mp.fsum(a * a for a in v))


@dataclass(frozen=True)
class DirectSumBound:
    lhs: object            # psi_k(F, B)
    rhs: object            # sum_i psi_{d_i}(F_i, B_i)
    constant_bound: object  # constructive constant: lhs <= constant_bound * rhs
    k: int


def direct_sum_angle_bound(f_parts: Sequence[RealSubspace],
                           b_parts: Sequence[RealSubspace]) -> DirectSumBound:
    """psi_k of direct sums against the sum of blockwise proximities, at the
    lowest precision of the parts.

    Also derives a per-instance constant from the principal-line
    decomposition (sqrt(2) * max block dim * the coefficient norm of the
    chosen line basis), so the inequality lhs <= c * rhs is checkable
    without fitting.
    """
    if len(f_parts) != len(b_parts) or not f_parts:
        raise ValueError("need matching nonempty part lists")
    n = f_parts[0].n
    dims = [p.dim for p in f_parts]
    if [q.dim for q in b_parts] != dims:
        raise ValueError("block dimensions differ")
    prec = min(p.precision_bits for p in (*f_parts, *b_parts))
    k = sum(dims)
    f_all = RealSubspace.from_vectors([row for p in f_parts for row in p.basis], precision_bits=prec)
    b_all = RealSubspace.from_vectors([row for p in b_parts for row in p.basis], precision_bits=prec)
    if f_all.dim != k or b_all.dim != k:
        raise ValueError("parts are not independent")
    with mp.workprec(prec):
        lhs = canonical_angles(f_all, b_all).sines[-1]
        rhs = mp.mpf(0)
        lines_a = []
        for fp, bp in zip(f_parts, b_parts):
            rhs += canonical_angles(fp, bp).sines[-1]
            pairs, _ = principal_pairs(fp, bp)
            lines_a.extend(x for x, _ in pairs)
        # coefficient norm of the a-line basis: max row norm of its pseudo-inverse
        u, s, v = mp.svd_r(mp.matrix([[vec[r] for vec in lines_a] for r in range(n)]))
        smin = min(abs(s[i]) for i in range(k))
        if smin == 0:
            raise ValueError("degenerate line basis")
        pinv_rows = mp.mpf(0)
        # pinv = V^T S^-1 U^T; row norms bounded by 1/smin, computed exactly below
        vt = v.T
        for i in range(k):
            row = [mp.fsum(vt[i, a] / s[a] * u[r, a] for a in range(k)) for r in range(n)]
            pinv_rows = max(pinv_rows, mp.sqrt(mp.fsum(x * x for x in row)))
        constant = mp.sqrt(2) * max(dims) * pinv_rows
    return DirectSumBound(lhs, rhs, constant, k)


def r4_search_cube(bound: int) -> list:
    """The nonzero integer solutions of b^2 + c^2 = 7 a^2 with |a|, |b|,
    |c| <= bound, in (a, b, c) order, from a mask over the whole
    (2 bound + 1)^3 cube."""
    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    A, B, C = np.meshgrid(rng, rng, rng, indexing="ij", sparse=True)
    mask = (B * B + C * C == 7 * A * A)
    sol = np.argwhere(np.broadcast_to(mask, (len(rng),) * 3))
    return [tuple(int(rng[i]) for i in row) for row in sol
            if any(rng[i] for i in row)]


def r5_search_loop(quadrics, bound: int) -> list:
    """The nonzero integer solutions of the four-variable quadric system in
    the box |n_i| <= bound, in (a, b, c, d) order, by one pass over the
    (b, c, d) box per value of a: the first quadric k a^2 + a l + g is
    moved on by l in place, and the others are evaluated at its zeros."""
    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    box = (len(rng),) * 3
    solutions = []
    B, C, D = np.meshgrid(rng, rng, rng, indexing="ij", sparse=True)
    first, *rest = quadrics
    k = first(1, 0, 0, 0)
    rem = np.broadcast_to(first(-bound, B, C, D), box) - k * bound * bound  # g + a l at a = -bound
    lb, lc, ld = ((first(1, *u) - first(-1, *u)) // 2 for u in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    lin = lb * B + lc * C + ld * D
    zero = np.empty(box, dtype=bool)
    for a in rng.tolist():
        b, c, d = (rng[i] for i in np.nonzero(np.equal(rem, -k * a * a, out=zero)))
        rem += lin
        ok = np.ones(len(b), dtype=bool)
        for q in rest:
            ok &= q(a, b, c, d) == 0
        for bcd in zip(b[ok].tolist(), c[ok].tolist(), d[ok].tolist()):
            if a or any(bcd):
                solutions.append((a,) + bcd)
    return solutions


def hermite_triple_sweep(n: int, e: int, hmax_sq: int) -> np.ndarray:
    """The (n, e) subspaces of height^2 <= hmax_sq, min(e, n - e) = 3, as
    sorted distinct int64 rows, by a sweep that needs no reduction: every
    increasing triple of primitive sign-canonical vectors of norm^2 <=
    2 H^2 with |v1|^2 |v2|^2 |v3|^2 <= 2 H^2 (Minkowski's second theorem in
    Hermite form) is wedged, and the heights are tested after the wedge.
    The rows are Hodge-twisted when e > n - e."""
    cap = 2 * hmax_sq
    V = _integer_ball(n, cap).astype(np.int64)
    n2 = np.einsum("ij,ij->i", V, V)
    out = [np.zeros((0, math.comb(n, 3)), dtype=np.int64)]
    for a in range(int(np.count_nonzero(n2 ** 3 <= cap))):
        k1 = int(n2[a])
        stop = int(np.searchsorted(n2, math.isqrt(cap // k1), side="right"))  # k1 k2^2 <= cap
        minors = V[a + 1:stop] @ annihilator(V[a], n, 1)
        for b in range(a + 1, stop):
            X = V[b + 1:int(np.searchsorted(n2, cap // (k1 * int(n2[b])), side="right"))]
            W = X @ annihilator(minors[b - a - 1], n, 2)  # +-(v1 ^ v2 ^ x)
            W = W[np.einsum("ij,ij->i", W, W) <= hmax_sq]
            out.append(W[_row_gcd(W) == 1])
    rows = _canonical_sign_rows(np.concatenate(out))
    return _unique_sorted(_canonical_sign_rows(hodge_twist(rows, n, e)) if e > n - e else rows)
