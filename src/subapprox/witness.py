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

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from mpmath import mp

from .angles import PrecisionError, RealSubspace
from .enumeration import Enumeration, _hodge_twist, _zero_tol, hodge_pairing_floats, target_plucker
from .exact import annihilator_rows

_PARAM_RE = re.compile(r"^\s*(?:sqrt(\d+))?\s*([+-]?\s*\d+(?:/\d+|\.\d+)?)?\s*$")


def parse_param(token):
    """Parse a witness parameter: `sqrt2`, `3/2`, `1.25`, or `sqrt3+1/4`.

    Returns a callable evaluating the value at a given precision, so checks
    can re-evaluate the same parameter when precision is doubled.
    """
    if isinstance(token, (int, Fraction)):
        frac = Fraction(token)
        return lambda prec: _frac_mpf(frac)
    if isinstance(token, float):
        return lambda prec: mp.mpf(token)
    m = _PARAM_RE.match(str(token))
    if not m or (m.group(1) is None and m.group(2) is None):
        raise ValueError("cannot parse parameter %r" % (token,))
    radicand = int(m.group(1)) if m.group(1) else None
    rest = m.group(2).replace(" ", "") if m.group(2) else None
    offset = Fraction(rest) if rest else None

    def ev(prec):
        total = mp.mpf(0)
        if radicand is not None:
            total += mp.sqrt(radicand)
        if offset is not None:
            total += _frac_mpf(offset)
        return total

    return ev


def _frac_mpf(f: Fraction):
    return mp.mpf(f.numerator) / f.denominator


@dataclass
class WitnessSpec:
    kind: str                 # "R4" or "R5"
    param: object             # token or number as given
    precision_bits: int
    derived: tuple            # R4: the two spanning vectors; R5: 10 Plucker coords
    relation_residuals: tuple = ()
    annihilator_residual: object = None


def _r4_vectors(xi, prec):
    with mp.workprec(prec):
        x = xi if isinstance(xi, mp.mpf) else parse_param(xi)(prec)
        if not (0 < x < mp.sqrt(7)):
            raise ValueError("parameter must lie in (0, sqrt(7))")
        s = mp.sqrt(7 - x * x)
        v1 = (mp.mpf(0), mp.mpf(1), x, s)
        v2 = (mp.mpf(1), mp.mpf(0), -s, x)
        return v1, v2


def witness_r4(xi="sqrt2", precision_bits: int = 128) -> RealSubspace:
    """The plane of R^4 spanned by (0,1,x,sqrt(7-x^2)) and (1,0,-sqrt(7-x^2),x)."""
    v1, v2 = _r4_vectors(xi, precision_bits)
    return RealSubspace.from_vectors([v1, v2], precision_bits=precision_bits)


def witness_r4_spec(xi="sqrt2", precision_bits: int = 128) -> WitnessSpec:
    v1, v2 = _r4_vectors(xi, precision_bits)
    return WitnessSpec("R4", xi, precision_bits, (v1, v2))


def r4_irrationality_certificate(search_bound: int = 50) -> dict:
    """Certificate that b^2 + c^2 = 7 a^2 has only the zero integer solution.

    (a) exhaustive search over |a|, |b|, |c| <= search_bound;
    (b) the mod-4 reduction table: every residue class solving
        b^2 + c^2 = 3 a^2 (mod 4) has a, b, c all even.
    """
    if search_bound < 1:
        raise ValueError("search_bound must be >= 1")
    rng = np.arange(-search_bound, search_bound + 1, dtype=np.int64)
    A, B, C = np.meshgrid(rng, rng, rng, indexing="ij", sparse=True)
    mask = (B * B + C * C == 7 * A * A)
    sol = np.argwhere(np.broadcast_to(mask, (len(rng),) * 3))
    solutions = [tuple(int(rng[i]) for i in row) for row in sol
                 if any(rng[i] for i in row)]

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


def r4_det_pairing(xi, eta: Sequence[int], precision_bits: int = 128):
    """The 4x4 determinant det[X1 X2 Y1 Y2] via the Laplace pairing
    -n6 + n5 x - n4 s - n3 s - n2 x + 7 n1, with s = sqrt(7 - x^2)."""
    with mp.workprec(precision_bits):
        x = xi if isinstance(xi, mp.mpf) else parse_param(xi)(precision_bits)
        s = mp.sqrt(7 - x * x)
        n1, n2, n3, n4, n5, n6 = [mp.mpf(v) for v in eta]
        return -n6 + n5 * x - n4 * s - n3 * s - n2 * x + 7 * n1


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
        z = zeta3 if isinstance(zeta3, mp.mpf) else parse_param(zeta3)(precision_bits)
        if z < mp.mpf(5) / 4:
            raise ValueError("parameter must be >= 5/4")
        z1, z2, z4, z5 = _r5_zetas(z, precision_bits)
        return (mp.mpf(1), z2 + z5, -z1, 1 + z1 + z5, z2,
                2 * z2 - z5, -z, z, z4, z5)


_R5_RELATIONS = (  # the (5,3) Grassmannian quadrics, 0-based coordinate indices
    ((1, 4), (2, 3), (0, 5)),
    ((1, 7), (2, 6), (0, 8)),
    ((3, 7), (4, 6), (0, 9)),
    ((3, 8), (5, 6), (1, 9)),
    ((4, 8), (5, 7), (2, 9)),
)


def r5_relation_residuals(coords, precision_bits: int | None = None):
    """Residuals p_a p_b - p_c p_d - p_e p_f of the five (5,3) quadrics.

    Evaluate well above the precision the coordinates were built at, so the
    result measures the coordinates' own residual rather than roundoff.
    """
    def ev():
        out = []
        for (a, b), (c, d), (e, f) in _R5_RELATIONS:
            out.append(coords[a] * coords[b] - coords[c] * coords[d] - coords[e] * coords[f])
        return tuple(out)

    if precision_bits is None:
        return ev()
    with mp.workprec(precision_bits):
        return ev()


def witness_r5(zeta3="sqrt3+1/4", precision_bits: int = 128):
    """R^5 witness subspace: evaluate the coordinates, verify the quadric
    residuals, and recover the 3-dimensional span from the (numerically
    decomposable) Plucker vector by a least-squares annihilator.

    Escalates precision once if residuals exceed tolerance, then raises.
    """
    for attempt, prec in enumerate((precision_bits, 2 * precision_bits)):
        coords = r5_plucker_coords(zeta3, prec)
        with mp.workprec(prec):
            scale = max(mp.mpf(1), max(abs(c) for c in coords) ** 2)
            tol = scale * mp.mpf(2) ** (-prec + 16)
            residuals = r5_relation_residuals(coords)
            if max(abs(r) for r in residuals) <= tol:
                subspace, ann_res = _r5_recover(coords, prec)
                spec = WitnessSpec("R5", zeta3, prec, tuple(coords),
                                   relation_residuals=residuals,
                                   annihilator_residual=ann_res)
                return spec, subspace
    raise PrecisionError("R5 witness residuals above tolerance at %d and %d bits"
                         % (precision_bits, 2 * precision_bits),
                         achieved=max(abs(r) for r in residuals))


def _r5_recover(coords, prec):
    """Kernel of x -> x wedge p as the span; the ratio sigma_3/sigma_1 of the
    annihilator's singular values reports how decomposable p was."""
    with mp.workprec(prec):
        u, s, v = mp.svd_r(mp.matrix(annihilator_rows(coords, 5, 3)))
        order = sorted(range(5), key=lambda i: -abs(s[i]))
        ann_res = abs(s[order[2]]) / abs(s[order[0]])
        basis = [[v[order[k], j] for j in range(5)] for k in (2, 3, 4)]
        sub = RealSubspace.from_vectors(basis, precision_bits=prec)
        floor = mp.mpf(2) ** (-prec // 2)
        if ann_res > floor:
            raise PrecisionError("annihilator kernel not numerically rank-3",
                                 achieved=ann_res)
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
    is homogeneous of degree 2)."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    solutions = []
    B, C, D = np.meshgrid(rng, rng, rng, indexing="ij")
    for a in rng:
        ok = np.ones(B.shape, dtype=bool)
        for q in _R5_SEARCH_QUADRICS:
            ok &= q(a, B, C, D) == 0
            if not ok.any():
                break
        if ok.any():
            for b, c, d in zip(B[ok].ravel(), C[ok].ravel(), D[ok].ravel()):
                if a or b or c or d:
                    solutions.append((int(a), int(b), int(c), int(d)))
    return {
        "kind": "r5-trivial-solutions",
        "bound": bound,
        "nonzero_solutions": solutions,
        "passed": not solutions,
    }


@dataclass
class LowerBoundReport:
    exponent: float
    count: int
    height_max_sq: int
    c_min: object            # mpf: min over B of phi(A,B) H(B)^exponent
    argmin_key: str
    quantiles: dict
    truncated: bool
    rational_target: bool
    claimed_c: float | None = None

    def passed(self) -> bool:
        if self.rational_target or float(self.c_min) <= 0:
            return False
        if self.claimed_c is not None:
            return float(self.c_min) >= self.claimed_c
        return True


def lower_bound_check(witness: RealSubspace, e: int, exponent: float,
                      height_max, *, enumeration: Enumeration,
                      claimed_c: float | None = None,
                      precision_bits: int | None = None) -> LowerBoundReport:
    """min over all enumerated B of phi(A, B) * H(B)^exponent, with the
    argmin recomputed at full precision and the distribution summarized.

    The reported minimum is an empirical stand-in for the constant in the
    decay bound, never the true infimum; when a `claimed_c` is supplied the
    report additionally states whether the minimum clears it.  Requires
    dim(witness) + e = n so the determinant pairing applies.
    """
    n = witness.n
    if witness.dim + e != n:
        raise ValueError("lower_bound_check needs dim A + e = n")
    prec = precision_bits if precision_bits is not None else witness.precision_bits
    enum = enumeration.restrict(height_max)
    if enum.e != e or enum.n != n:
        raise ValueError("enumeration dimensions do not match")
    if len(enum) == 0:
        raise ValueError("empty enumeration")
    h2 = enum.heights_sq.astype(np.float64)
    pairing = hodge_pairing_floats(witness, enum.pluckers)
    # phi = pairing / H, so phi * H^exponent = pairing * H^(exponent - 1)
    values = pairing * h2 ** ((exponent - 1) / 2.0)
    order = np.argsort(values, kind="stable")
    arg = int(order[0])

    with mp.workprec(prec):
        apl = target_plucker(witness)

        def exact_value(i):
            twisted = _hodge_twist(enum.pluckers[i], n, witness.dim)
            pair = mp.fsum(x * int(t) for x, t in zip(apl, twisted))
            hh = mp.mpf(int(enum.heights_sq[i]))
            return abs(pair) * hh ** ((mp.mpf(exponent) - 1) / 2)

        # refine the float argmin and near-ties at full precision
        near = [int(i) for i in order[: min(len(order), 64)]
                if values[int(i)] <= values[arg] * (1 + 1e-6) + 1e-300]
        best_i, best_v = None, None
        for i in near:
            v = exact_value(i)
            if best_v is None or v < best_v or (v == best_v and enum.coords_at(i) < enum.coords_at(best_i)):
                best_i, best_v = i, v
        rational = best_v < _zero_tol(prec)

    qs = {q: float(np.quantile(values, q)) for q in (0.0, 0.01, 0.1, 0.5, 1.0)}
    return LowerBoundReport(
        exponent=float(exponent),
        count=len(enum),
        height_max_sq=enum.height_max_sq,
        c_min=best_v,
        argmin_key=enum.key_at(best_i),
        quantiles=qs,
        truncated=enum.truncated,
        rational_target=bool(rational),
        claimed_c=claimed_c,
    )
