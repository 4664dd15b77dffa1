"""Explicit hard-to-approximate subspaces in R^4 and R^5 with machine
certificates.

The R^4 witness is the plane spanned by (0, 1, x, sqrt(7 - x^2)) and
(1, 0, -sqrt(7 - x^2), x) for a parameter 0 < x < sqrt(7); its
irrationality argument reduces (mod 4) the quadric b^2 + c^2 = 7 a^2.

The R^5 witness is a 3-dimensional subspace given by ten closed-form
Plucker coordinates driven by one parameter z >= 5/4; the coordinates
satisfy the quadratic relations of the (5, 3) Grassmannian by
construction, which is verified numerically at working precision, and the
subspace is recovered from them by a least-squares annihilator.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp

from .angles import PrecisionError, RealSubspace, _to_mpf, zero_tol
from .enumeration import _U, Enumeration, _decide
from .exact import annihilator, hodge_twist, subsets
from .grassmann import _BLOCK_BYTES, relation_values

MAX_BOX_CELLS = 10 ** 7  # bounds b for both searches by the (2b + 1)^3 cells of the R^5 box
_PARAM_RE = re.compile(r"^\s*(?:sqrt(\d+))?\s*([+-]?\s*\d+(?:/\d+|\.\d+)?)?\s*$")


def parse_param(token):
    """Parse a witness parameter: `sqrt2`, `3/2`, `1.25`, or `sqrt3+1/4`.

    Returns its value as an mpf at the working precision; a caller that
    doubles the precision parses the token again.
    """
    if isinstance(token, (int, float, Fraction)):
        return _to_mpf(token)
    m = _PARAM_RE.match(str(token))
    if not m or (m.group(1) is None and m.group(2) is None):
        raise ValueError("cannot parse parameter %r" % (token,))
    radicand = int(m.group(1)) if m.group(1) else None
    rest = m.group(2).replace(" ", "") if m.group(2) else None
    offset = Fraction(rest) if rest else None
    total = mp.mpf(0)
    if radicand is not None:
        total += mp.sqrt(radicand)
    if offset is not None:
        total += _to_mpf(offset)
    return total


@dataclass
class WitnessSpec:
    precision_bits: int
    derived: tuple            # the 10 Plucker coordinates
    relation_residuals: tuple = ()
    annihilator_residual: object = None


def r4_vectors(xi, prec):
    """The spanning vectors (0,1,x,sqrt(7-x^2)) and (1,0,-sqrt(7-x^2),x) of
    the R^4 witness, at prec bits."""
    with mp.workprec(prec):
        x = xi if isinstance(xi, mp.mpf) else parse_param(xi)
        if not (0 < x < mp.sqrt(7)):
            raise ValueError("parameter must lie in (0, sqrt(7))")
        s = mp.sqrt(7 - x * x)
        v1 = (mp.mpf(0), mp.mpf(1), x, s)
        v2 = (mp.mpf(1), mp.mpf(0), -s, x)
        return v1, v2


def witness_r4(xi="sqrt2", precision_bits: int = 128) -> RealSubspace:
    """The plane of R^4 spanned by :func:`r4_vectors`."""
    return RealSubspace.from_vectors(r4_vectors(xi, precision_bits), precision_bits=precision_bits)


def _search_range(bound: int) -> np.ndarray:
    """The integers -bound..bound of a search box's axis, after refusing a
    bound below 1 or a box of more than MAX_BOX_CELLS cells."""
    if bound < 1:
        raise ValueError("a search bound must be >= 1")
    if (2 * bound + 1) ** 3 > MAX_BOX_CELLS:
        raise ValueError("search bound %d: the box has (2b + 1)^3 = %d cells, more than %d"
                         % (bound, (2 * bound + 1) ** 3, MAX_BOX_CELLS))
    return np.arange(-bound, bound + 1, dtype=np.int64)


def _square_roots(q, bound: int):
    """(at, a): the flat index of each entry of the integer array q that is
    a square a^2 with |a| <= bound, once per root +-a (once for a = 0), and
    that root.  Only an entry in [0, bound^2] can be one.  A square below
    2^52 has an exact float64 square root, so np.sqrt, truncated, gives its
    one candidate a, and a * a == q keeps every root and only roots."""
    q = np.ravel(q)
    at = np.flatnonzero((q >= 0) & (q <= bound * bound))
    s = np.sqrt(q[at]).astype(np.int64)
    root = s * s == q[at]
    at, s = at[root], s[root]
    return np.concatenate([at, at[s > 0]]), np.concatenate([s, -s[s > 0]])


def _nonzero_sorted(cols) -> list:
    """The rows of the equal-length integer columns cols (a, b, ...) other
    than zero, as tuples of ints in lexicographic order."""
    return sorted(row for row in zip(*(v.tolist() for v in cols)) if any(row))


def r4_irrationality_certificate(search_bound: int = 50) -> dict:
    """Certificate that b^2 + c^2 = 7 a^2 has only the zero integer solution.

    (a) exhaustive search over |a|, |b|, |c| <= search_bound: a solution has
        a = +-sqrt((b^2 + c^2) / 7), which :func:`_square_roots` finds over
        the (b, c) square (-1 where 7 does not divide b^2 + c^2);
    (b) the mod-4 reduction table: every residue class solving
        b^2 + c^2 = 3 a^2 (mod 4) has a, b, c all even.
    """
    rng = _search_range(search_bound)
    q = rng[:, None] ** 2 + rng ** 2
    at, a = _square_roots(np.where(q % 7 == 0, q // 7, -1), search_bound)
    solutions = _nonzero_sorted((a, *(rng[i] for i in np.unravel_index(at, q.shape))))

    classes = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)
               if (b * b + c * c - 3 * a * a) % 4 == 0]
    all_even = all(a % 2 == 0 and b % 2 == 0 and c % 2 == 0 for a, b, c in classes)
    return {
        "kind": "r4-irrationality",
        "search_bound": search_bound,
        "nonzero_solutions": solutions,
        "mod4_classes": classes,
        "mod4_all_even": all_even,
        "passed": not solutions and all_even,
    }


def _r5_zetas(z, prec):
    """The four closed-form coordinates driven by z >= 5/4."""
    with mp.workprec(prec):
        root = mp.sqrt(2) * mp.sqrt(4 * z - 5) * mp.sqrt(z - 1)
        denom = 4 * (10 * z ** 4 - 7 * z ** 3
                     - (4 * mp.sqrt(2) * z ** 3 + 3 * mp.sqrt(2) * z ** 2 + mp.sqrt(2))
                     * mp.sqrt(4 * z - 5) * mp.sqrt(z - 1)
                     - 10 * z ** 2 + 5 * z - 2)
        z1 = -(112 * z ** 4 - 196 * z ** 3
               - (42 * mp.sqrt(2) * z ** 3 - 17 * mp.sqrt(2) * z ** 2 + 13 * mp.sqrt(2) * z)
               * mp.sqrt(4 * z - 5) * mp.sqrt(z - 1)
               + 88 * z ** 2 - 30 * z + 6) / denom
        z2 = -(52 * z ** 4 - 154 * z ** 3
               - (18 * mp.sqrt(2) * z ** 3 - 35 * mp.sqrt(2) * z ** 2
                  + 13 * mp.sqrt(2) * z - 6 * mp.sqrt(2))
               * mp.sqrt(4 * z - 5) * mp.sqrt(z - 1)
               + 148 * z ** 2 - 60 * z + 18) / denom
        z4 = -(root * z ** 2 - 6 * z ** 3 + 3 * z ** 2 + 3 * z) / (2 * (z * z - 1))
        z5 = -(root * z - 3 * z ** 2 + 3 * z) / (2 * (z * z - 1))
        return z1, z2, z4, z5


def r5_plucker_coords(zeta3, precision_bits: int = 128):
    """The ten Plucker coordinates of the R^5 witness, lex order."""
    with mp.workprec(precision_bits):
        z = zeta3 if isinstance(zeta3, mp.mpf) else parse_param(zeta3)
        if z < mp.mpf(5) / 4:
            raise ValueError("parameter must be >= 5/4")
        z1, z2, z4, z5 = _r5_zetas(z, precision_bits)
        return (mp.mpf(1), z2 + z5, -z1, 1 + z1 + z5, z2,
                2 * z2 - z5, -z, z, z4, z5)


def r5_relation_residuals(coords, precision_bits: int | None = None):
    """Residuals of the five (5,3) quadrics, each the negated value of
    :func:`grassmann.relation_values`, so signed p_a p_b - p_c p_d - p_e p_f.

    Evaluate well above the precision the coordinates were built at, so the
    result measures the coordinates' own residual rather than roundoff.
    """
    with mp.workprec(precision_bits or mp.prec):
        [values] = relation_values(np.array([coords], dtype=object), 5, 3)
        return tuple(-v for v in values[0])


def witness_r5(zeta3="sqrt3+1/4", precision_bits: int = 128):
    """R^5 witness subspace: evaluate the coordinates, verify the quadric
    residuals, and recover the 3-dimensional span from the (numerically
    decomposable) Plucker vector by a least-squares annihilator.

    Escalates precision once if residuals exceed tolerance, then raises.
    """
    for attempt, prec in enumerate((precision_bits, 2 * precision_bits)):
        coords = r5_plucker_coords(zeta3, prec)
        with mp.workprec(prec):
            residuals = r5_relation_residuals(coords)
            if max(abs(r) for r in residuals) <= r5_residual_tol(coords, prec):
                subspace, ann_res = _r5_recover(coords, prec)
                spec = WitnessSpec(prec, tuple(coords),
                                   relation_residuals=residuals,
                                   annihilator_residual=ann_res)
                return spec, subspace
    raise PrecisionError("R5 witness residuals above tolerance at %d and %d bits (largest %s)"
                         % (precision_bits, 2 * precision_bits,
                            mp.nstr(max(abs(r) for r in residuals), 8)))


def r5_residual_tol(coords, prec: int):
    """The largest residual a quadric may keep for coordinates built at prec
    bits: max(1, max|c|^2) 2^(-prec + 16), evaluated at the caller's working
    precision (the power of two scales exactly)."""
    return max(mp.mpf(1), max(abs(c) for c in coords) ** 2) * mp.mpf(2) ** (-prec + 16)


def _r5_recover(coords, prec):
    """Kernel of x -> x wedge p as the span; the ratio sigma_3/sigma_1 of the
    annihilator's singular values reports how decomposable p was."""
    with mp.workprec(prec):
        rows = annihilator(np.array(coords, dtype=object), 5, 3).T  # mpfs and int zeros
        u, s, v = mp.svd_r(mp.matrix(rows.tolist()))
        order = sorted(range(5), key=lambda i: -abs(s[i]))
        ann_res = abs(s[order[2]]) / abs(s[order[0]])
        basis = [[v[order[k], j] for j in range(5)] for k in (2, 3, 4)]
        sub = RealSubspace.from_vectors(basis, precision_bits=prec)
        if ann_res > zero_tol(prec):
            raise PrecisionError("annihilator kernel not numerically rank-3 "
                                 "(sigma_3/sigma_1 = %s)" % mp.nstr(ann_res, 8))
        return sub, ann_res


_R5_SEARCH_QUADRICS = (
    # coefficients of the four-variable system in (a, b, c, d) = (n3, n5, n7, n9)
    lambda a, b, c, d: a * a - 2 * b * b + 2 * b * c - b * d - c * d + d * d,
    lambda a, b, c, d: -a * c - b * d + c * d - d * d,
    lambda a, b, c, d: -a * c - c * c + c * d,
    lambda a, b, c, d: -2 * b * c - a * d + c * d,
    lambda a, b, c, d: a * c - 2 * b * c + b * d + c * d,
)


def r5_trivial_solution_search(bound: int = 30) -> dict:
    """Exhaustively check the four-variable quadric system has only the zero
    solution in the integer box |n_i| <= bound (integers suffice: the system
    is homogeneous of degree 2).

    a occurs in the first quadric only as a^2, so it is a^2 + g(b, c, d)
    with g = first(0, b, c, d), and a solution needs -g = a^2, |a| <= bound.
    g's coefficients sum to 7 in absolute value, so |g| <= 7 * 107^2 < 2^31
    at the largest bound admitted: g is evaluated in int32 over the (b, c, d)
    box, in blocks of about ``_BLOCK_BYTES``, and :func:`_square_roots` of -g
    gives every root.  The other quadrics are evaluated only at the roots,
    block by block."""
    rng = _search_range(bound)
    box = (len(rng),) * 3
    first, *rest = _R5_SEARCH_QUADRICS
    b, c, d = np.meshgrid(*[rng.astype(np.int32)] * 3, indexing="ij", sparse=True)
    step = max(1, _BLOCK_BYTES // (32 * len(rng) ** 2))  # values of b a block; ~32 bytes a cell
    found = []
    for lo in range(0, len(rng), step):
        x = b[lo:lo + step]
        g = np.broadcast_to(first(0, x, c, d), (len(x),) + box[1:])  # g may omit a variable
        at, a = _square_roots(-g, bound)
        cand = [a, *(rng[i] for i in np.unravel_index(at + lo * len(rng) ** 2, box))]
        ok = np.ones(len(a), dtype=bool)
        for q in rest:
            ok &= q(*cand) == 0
        found.append([v[ok] for v in cand])
    solutions = _nonzero_sorted([np.concatenate(v) for v in zip(*found)])
    return {
        "kind": "r5-trivial-solutions",
        "bound": bound,
        "nonzero_solutions": solutions,
        "passed": not solutions,
    }


def _det(m):
    """mp.det of a square mp matrix, or 0 where mpmath 1.3's LU decomposition
    meets an exactly zero pivot column and raises TypeError: it is singular."""
    try:
        return mp.det(m)
    except TypeError:
        return mp.mpf(0)


def target_plucker(a: RealSubspace):
    """Unit Plucker coordinate vector of a real subspace (mp floats)."""
    with mp.workprec(a.precision_bits):
        coords = [_det(mp.matrix([[row[i] for row in a.basis] for i in sub]))
                  for sub in subsets(a.n, a.dim)]
        nrm = mp.sqrt(mp.fsum(c * c for c in coords))
        return [c / nrm for c in coords]


@dataclass
class LowerBoundReport:
    exponent: float
    count: int
    c_min: object            # mpf: min over B of phi(A,B) H(B)^exponent
    argmin_key: str
    quantiles: dict
    truncated: bool
    rational_target: bool
    claimed_c: float | None = None

    def passed(self) -> bool:
        return not self.rational_target and (self.claimed_c is None or self.c_min >= self.claimed_c)


def _float_values(apl, rows: np.ndarray, n: int, e: int, exponent: float):
    """(v, delta): v = |<a, *eta>| H^(exponent - 1) = phi(A, B) H^exponent in
    float64 for A's mp unit Plucker vector ``apl`` and each row eta of
    ``rows``, (n, e) Plucker rows with dim A + e = n, and a bound on
    |v - v_mp| row by row.

    With u = 2^-53, N = C(n, e), p = (exponent - 1) / 2, P the float H^2^p
    and first-order terms (Higham, ch. 2-3): rounding a and eta (exact below
    2^53) costs u H each, and the N-term dot product, in any order and with
    or without fused multiply-adds, N u sum |a_i eta_i| <= N u H (|a| = 1).
    fl(exponent - 1) / 2 is within u |p| of p, moving H^2^p by u |p| ln H^2
    of itself.  numpy's array power, not always libm's pow bit for bit, is
    taken to be within 4 ulps, 8u: the one assumed constant (at most 0.66
    ulp was measured over H^2 <= 625 and 52 exponents).  The product adds u.
    So |v - v_mp| <= (N + 2) u H P + (9 + |p| ln H^2) u v, and delta doubles
    it for the second-order terms, its own rounding and the mp error (at
    most N 2^-prec H P, prec >= 64).  This needs P normal and v finite (a
    subnormal v adds at most 2^-1075 <= u P), so an exponent that takes some
    H^(exponent - 1) out of that range raises ValueError.
    """
    h2 = np.einsum("ij,ij->i", rows, rows, dtype=np.int64).astype(np.float64)
    pairing = np.abs(hodge_twist(rows, n, n - e).astype(np.float64) @ np.array([float(x) for x in apl]))
    p = (exponent - 1) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        power = h2 ** p
        values = pairing * power
    if not (np.isfinite(values).all() and power.min() >= np.finfo(np.float64).tiny):
        raise ValueError("H^(exponent - 1) leaves the float64 range at exponent %g" % exponent)
    delta = 2 * _U * ((math.comb(n, e) + 2) * np.sqrt(h2) * power
                      + (9 + abs(p) * np.log(h2)) * values)
    return values, delta


def _screen_values(apl, enum: Enumeration, exponent: float):
    """(values, kept, lo, hi): the :func:`_float_values` of every row of
    ``enum``, and the rows whose lower end v - delta is at most the least
    upper end v + delta over all rows, with their two ends.

    One pass forms the values block by block and keeps the rows whose lower
    end is at most the least upper end so far; the final least is at most
    every running one, so filtering the kept rows once against it leaves
    the rows of the rule.  Every block but the last holds a multiple of 64
    rows, so the BLAS product and numpy's loops treat each row as they do in
    one product over all rows, and every bit is the same.
    """
    n, e, rows = enum.n, enum.e, enum.pluckers
    step = max(1, _BLOCK_BYTES // (64 * 8 * math.comb(n, e))) * 64  # the float rows fill a block
    values, least = np.empty(len(rows)), np.inf
    kept, low, high = [], [], []
    for lo in range(0, len(rows), step):
        v, delta = _float_values(apl, rows[lo:lo + step], n, e, exponent)
        values[lo:lo + len(v)] = v
        least = min(least, (v + delta).min())
        keep = np.flatnonzero(v - delta <= least)
        kept.append(keep + lo)
        low.append(v[keep] - delta[keep])
        high.append(v[keep] + delta[keep])
    kept, low, high = map(np.concatenate, (kept, low, high))
    keep = low <= least
    return values, kept[keep], low[keep], high[keep]


def lower_bound_check(witness: RealSubspace, e: int, exponent: float,
                      height_max, *, enumeration: Enumeration,
                      claimed_c: float | None = None) -> LowerBoundReport:
    """min over all enumerated B of phi(A, B) * H(B)^exponent at A's
    precision (dim A + e = n), and the quantiles of the float values.

    The minimum is an empirical stand-in for the constant in the decay
    bound, never the true infimum; a `claimed_c` is compared with it in mp.
    :func:`_decide` screens the float values as one group and picks the
    least mp value, exact ties going to the lexicographically smaller key;
    the rows :func:`_screen_values` keeps hold the least upper end, so it
    refines all of them, the rows it would keep over every row.  A meets a
    rational subspace iff that B's pairing is below the zero tolerance.  A
    non-finite exponent or claimed_c raises ValueError.
    """
    n, d = witness.n, witness.dim
    if d + e != n or (enumeration.n, enumeration.e) != (n, e):
        raise ValueError("lower_bound_check needs dim A + e = n and an (n, e) enumeration")
    if not math.isfinite(exponent) or not math.isfinite(0 if claimed_c is None else claimed_c):
        raise ValueError("the exponent and the claimed constant must be finite")
    enum = enumeration.restrict(height_max)
    if len(enum) == 0:
        raise ValueError("empty enumeration")
    apl = target_plucker(witness)
    values, kept, lo, hi = _screen_values(apl, enum, exponent)

    with mp.workprec(witness.precision_bits):
        p = (mp.mpf(exponent) - 1) / 2

        def exact(k):
            i = int(kept[k])
            coords = enum.coords_at(i)
            pair = mp.fsum(x * t for x, t in zip(apl, hodge_twist(enum.pluckers[i], n, d).tolist()))
            return abs(pair) * mp.mpf(sum(c * c for c in coords)) ** p, coords, pair, i

        [(c_min, _, pair, arg)] = _decide([(lo, hi, [0])], exact)
        rational = abs(pair) < zero_tol(witness.precision_bits)

    qs = (0.0, 0.01, 0.1, 0.5, 1.0)  # one partition, in place: no copy of the values
    return LowerBoundReport(
        exponent=float(exponent),
        count=len(enum),
        c_min=c_min,
        argmin_key=enum.key_at(arg),
        quantiles=dict(zip(qs, np.quantile(values, qs, overwrite_input=True).tolist())),
        truncated=enum.truncated,
        rational_target=bool(rational),
        claimed_c=claimed_c,
    )
