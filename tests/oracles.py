"""Test oracles that the package itself never calls: the signed Bareiss
determinant, orthonormality and containment residuals of a
:class:`RealSubspace`, and the direct-sum angle bound of criterion 8.  The
tests import them as ``oracles``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from mpmath import mp

from subapprox.angles import RealSubspace, _to_mpf, canonical_angles, principal_pairs


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
