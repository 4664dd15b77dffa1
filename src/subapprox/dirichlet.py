"""Constructive approximation machinery: flag bases, simultaneous rational
approximation, approximant assembly, direct-sum angle bounds, and a
search-based going-up step.

The pipeline mirrors the constructive lower-bound argument: inside a target
subspace F pick an orthonormal flag (f_1, ..., f_j) whose l-th vector has
its last d-l coordinates exactly zero; approximate the retained coordinates
simultaneously by p/q; the integer slices p_i then span a rational subspace
B whose height grows like q^j while psi_j(F, B) decays like q^-(N+1)/N.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from mpmath import mp

from .angles import PrecisionError, RealSubspace, canonical_angles, principal_pairs, sin_angle
from .enumeration import _U, _contenders, _float_psi, _refine_psi, _wedge_matrix, _zero_tol
from .exact import (
    PluckerVec,
    complete_to_unimodular,
    lattice_contains,
    normalize_plucker,
    solve_fraction,
)
from .grassmann import RationalSubspace, from_generators, from_plucker


@dataclass(frozen=True)
class FlagBasis:
    """Orthonormal family inside a target subspace with forced zero tails.

    vectors[l] has its coordinates at ``vanish_pattern[l]`` equal to exact
    zero; the remaining (retained) coordinates are the prefix indices.
    """

    n: int
    vectors: tuple[tuple, ...]
    vanish_pattern: tuple[tuple[int, ...], ...]
    precision_bits: int

    @property
    def retained_counts(self) -> tuple[int, ...]:
        return tuple(self.n - len(p) for p in self.vanish_pattern)

    @property
    def total_retained(self) -> int:
        return sum(self.retained_counts)

    def approximation_vector(self) -> tuple:
        """Concatenated retained coordinates of the flag vectors."""
        out = []
        for v, kept in zip(self.vectors, self.retained_counts):
            out.extend(v[:kept])
        return tuple(out)


def flag_basis(f: RealSubspace, j: int) -> FlagBasis:
    """Orthonormal (f_1, ..., f_j) in F with f_l vanishing on its last
    (dim F - l) coordinates.

    Exists because intersecting with the coordinate subspace drops the
    dimension by at most the number of constraints; the kernel vector is
    chosen deterministically (smallest singular direction, first retained
    coordinate positive) and the forced zeros are set exactly.
    """
    d = f.dim
    n = f.n
    if not (1 <= j <= d):
        raise ValueError("need 1 <= j <= dim F")
    prec = f.precision_bits
    with mp.workprec(prec):
        flags: list[tuple] = []
        pattern: list[tuple[int, ...]] = []
        floor = mp.mpf(2) ** (-(prec // 2))
        g_basis = [list(row) for row in f.basis]
        for ell in range(1, j + 1):
            zero_from = n - d + ell  # 0-based: coords >= zero_from are forced to 0
            g = len(g_basis)
            nz = n - zero_from
            if nz == 0:
                combo = [mp.mpf(1)] + [mp.mpf(0)] * (g - 1)
            else:
                # kernel of the (n - zero_from) x g coordinate-restriction map;
                # pad with zero rows since nz = g - 1 < g
                m = mp.matrix(g, g)
                for r in range(nz):
                    for c in range(g):
                        m[r, c] = g_basis[c][zero_from + r]
                u, s, v = mp.svd_r(m)
                order = sorted(range(g), key=lambda i: abs(s[i]))
                combo = [v[order[0], c] for c in range(g)]
            vec = [mp.fsum(combo[c] * g_basis[c][i] for c in range(g)) for i in range(n)]
            for w in flags:  # tiny re-orthogonalization against earlier flags
                ip = mp.fsum(a * b for a, b in zip(vec, w))
                vec = [a - ip * b for a, b in zip(vec, w)]
            for i in range(zero_from, n):
                if abs(vec[i]) > mp.mpf(2) ** (-(prec // 4)):
                    raise PrecisionError(
                        "flag vector fails to vanish at coordinate %d (|.| = %s)"
                        % (i, mp.nstr(abs(vec[i]), 8)), achieved=abs(vec[i]))
                vec[i] = mp.mpf(0)
            nrm = mp.sqrt(mp.fsum(a * a for a in vec))
            if nrm < floor:
                raise PrecisionError("degenerate intersection at flag step %d" % ell)
            vec = [a / nrm for a in vec]
            lead = next((i for i in range(n) if abs(vec[i]) > floor), 0)
            if vec[lead] < 0:
                vec = [-a for a in vec]
            flags.append(tuple(vec))
            pattern.append(tuple(range(zero_from, n)))
            if ell < j:
                g_basis = _orthocomplement_in(f, flags, d - ell, prec)
    return FlagBasis(n, tuple(flags), tuple(pattern), prec)


def _orthocomplement_in(f: RealSubspace, flags, want: int, prec: int):
    """Orthonormal basis of F minus the span of the flag vectors (SVD-based)."""
    n = f.n
    proj = []
    for row in f.basis:
        w = list(row)
        for fl in flags:
            ip = mp.fsum(a * b for a, b in zip(w, fl))
            w = [a - ip * b for a, b in zip(w, fl)]
        proj.append(w)
    m = mp.matrix(len(proj), n)
    for r, w in enumerate(proj):
        for c in range(n):
            m[r, c] = w[c]
    u, s, v = mp.svd_r(m)
    order = sorted(range(min(m.rows, n)), key=lambda i: -abs(s[i]))
    if abs(s[order[want - 1]]) < mp.mpf("0.1"):
        raise PrecisionError("orthocomplement lost rank")
    return [[v[order[k], c] for c in range(n)] for k in range(want)]


@dataclass(frozen=True)
class DirichletApproximant:
    q: int
    p: tuple[int, ...]
    err: object      # mpf, max_i |x_i - p_i / q|
    quality: object  # mpf, q^(1 + 1/N) * err; <= 1 when the pigeonhole bound holds

    def __post_init__(self):
        g = math.gcd(self.q, *self.p) if self.p else self.q
        if g != 1:
            raise ValueError("approximant must be primitive (gcd %d)" % g)


def simultaneous_approx(x: Sequence, q_max: int, *,
                        precision_bits: int = 128) -> list[DirichletApproximant]:
    """Record-setting simultaneous rational approximations p/q, q <= q_max.

    A denominator enters the list iff its best rounding error strictly beats
    every smaller denominator; records are automatically primitive.  Every
    returned entry satisfies the pigeonhole bound quality <= 1 (checked, not
    assumed).  The exhaustive q-sweep is used up to 10^5; beyond that a
    lattice-reduction search proposes candidate denominators.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    N = len(x)
    if N == 0:
        raise ValueError("empty target vector")
    with mp.workprec(precision_bits):
        xv = [mp.mpf(v) if not isinstance(v, Fraction) else mp.mpf(v.numerator) / v.denominator
              for v in x]
        if q_max <= 100_000:
            cand_qs = _record_candidates_sweep(xv, q_max)
        else:
            cand_qs = _record_candidates_lll(xv, q_max, precision_bits)
        out: list[DirichletApproximant] = []
        best = None
        for q in cand_qs:
            p = [int(mp.nint(q * v)) for v in xv]
            g = math.gcd(q, *p)
            q, p = q // g, [pi // g for pi in p]
            if any(a.q == q for a in out):
                continue
            err = max(abs(v - mp.mpf(pi) / q) for v, pi in zip(xv, p))
            if best is not None and err >= best:
                continue
            best = err
            quality = err * mp.mpf(q) ** (1 + mp.mpf(1) / N)
            if quality <= 1:
                out.append(DirichletApproximant(q, tuple(p), err, quality))
            if err == 0:
                break
        return out


def _record_candidates_sweep(xv, q_max):
    """Every denominator that can be a record, screened in float64 by
    :func:`_contenders` with each q its own group.

    err_q = max_i |q x_i - round(q x_i)| / q.  With u = 2^-53: x_i rounded to
    float64 moves q x_i by q u |x_i|, and the product rounds by as much again;
    distance to Z is 1-Lipschitz, and the subtraction of the nearest integer
    is exact (Sterbenz), so the float err_q is within 2 u max|x_i| + u err_q
    of the exact one, to first order.  The mp value it stands for is within
    2^-prec max|x_i| of exact, and prec >= 53; 3 u max|x_i| + 2 u err_q
    covers both and the second-order terms.
    """
    xs = np.array([float(v) for v in xv])
    qs = np.arange(1, q_max + 1, dtype=np.float64)
    prods = qs[:, None] * xs[None, :]
    errs = np.abs(prods - np.round(prods)).max(axis=1) / qs
    delta = 3 * _U * np.abs(xs).max() + 2 * _U * errs
    cand = _contenders(errs - delta, errs + delta, np.arange(q_max))
    return [int(q) for q in np.flatnonzero(cand) + 1]


def _record_candidates_lll(xv, q_max, prec):
    """Candidate denominators from short vectors of the approximation lattice."""
    N = len(xv)
    C = 1 << (prec // 2)
    W = int(round(C / q_max ** (1 + 1.0 / N)))
    basis = []
    for i in range(N):
        row = [Fraction(0)] * (N + 1)
        row[i] = Fraction(C)
        basis.append(row)
    last = [Fraction(-int(mp.nint(v * C))) for v in xv] + [Fraction(max(W, 1))]
    basis.append(last)
    red, _ = lll_reduce(basis)
    qs = set()
    for row in red:
        q = abs(int(row[-1] / max(W, 1)))
        if 1 <= q <= q_max:
            qs.add(q)
        for k in range(2, 40):
            if 1 <= q * k <= q_max:
                qs.add(q * k)
    qs.add(1)
    return sorted(qs)


def lll_reduce(basis: list[list[Fraction]]):
    """LLL over exact rationals, run by :func:`_lll_gram` on the Gram matrix.
    Returns (reduced_basis, transform)."""
    b = [list(map(Fraction, row)) for row in basis]
    U = _lll_gram([[sum(x * y for x, y in zip(u, v)) for v in b] for u in b])
    return [[sum(c * row[i] for c, row in zip(u, b)) for i in range(len(b[0]))] for u in U], U


def build_approximant(flag: FlagBasis, approximant: DirichletApproximant):
    """Integer slices of p, padded by zeros in the forced-vanish positions,
    spanning a rational subspace close to the flag's span.

    Returns None when the slices are dependent (degenerate approximant);
    callers count and report skips.
    """
    n = flag.n
    vectors = []
    off = 0
    for kept in flag.retained_counts:
        sl = approximant.p[off: off + kept]
        off += kept
        vectors.append(tuple(sl) + (0,) * (n - kept))
    if all(any(v) for v in vectors):
        try:
            return from_generators(vectors)
        except ValueError:
            return None
    return None


@dataclass(frozen=True)
class DirectSumBound:
    lhs: object            # psi_k(F, B)
    rhs: object            # sum_i psi_{d_i}(F_i, B_i)
    constant_bound: object  # constructive constant: lhs <= constant_bound * rhs
    k: int


def direct_sum_angle_bound(f_parts: Sequence[RealSubspace], b_parts: Sequence[RealSubspace],
                           precision_bits: int | None = None) -> DirectSumBound:
    """psi_k of direct sums against the sum of blockwise proximities.

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
    prec = precision_bits if precision_bits is not None else min(p.precision_bits for p in f_parts)
    k = sum(dims)
    f_all = RealSubspace.from_vectors([row for p in f_parts for row in p.basis], precision_bits=prec)
    b_all = RealSubspace.from_vectors([row for p in b_parts for row in p.basis], precision_bits=prec)
    if f_all.dim != k or b_all.dim != k:
        raise ValueError("parts are not independent")
    with mp.workprec(prec):
        lhs = canonical_angles(f_all, b_all, precision_bits=prec).sines[-1]
        rhs = mp.mpf(0)
        lines_a = []
        for fp, bp in zip(f_parts, b_parts):
            rhs += canonical_angles(fp, bp, precision_bits=prec).sines[-1]
            pairs, _ = principal_pairs(fp, bp, precision_bits=prec)
            lines_a.extend(x for x, _ in pairs)
        # coefficient norm of the a-line basis: max row norm of its pseudo-inverse
        m = mp.matrix(n, k)
        for c, vec in enumerate(lines_a):
            for r in range(n):
                m[r, c] = vec[r]
        u, s, v = mp.svd_r(m)
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


@dataclass(frozen=True)
class LineDecomposition:
    a_lines: tuple
    b_lines: tuple
    line_sines: tuple
    psi_k: object
    sum_lines: object    # sum of line sines; psi_k <= sum <= k * psi_k


def line_decomposition(d_sub: RealSubspace, e_sub: RealSubspace,
                       precision_bits: int | None = None) -> LineDecomposition:
    """Principal-vector lines D_i, E_i pairing two k-dimensional subspaces,
    with the sandwich psi_k <= sum_i psi_1(D_i, E_i) <= k psi_k."""
    if d_sub.dim != e_sub.dim:
        raise ValueError("need equal dimensions")
    prec = precision_bits if precision_bits is not None else min(d_sub.precision_bits,
                                                                 e_sub.precision_bits)
    pairs, prof = principal_pairs(d_sub, e_sub, precision_bits=prec)
    with mp.workprec(prec):
        sines = tuple(sin_angle(x, y, precision_bits=prec) for x, y in pairs)
        total = mp.fsum(sines)
    return LineDecomposition(tuple(x for x, _ in pairs), tuple(y for _, y in pairs),
                             sines, prof.sines[-1], total)


def unit_chord_bound(x: Sequence, y: Sequence, precision_bits: int = 128):
    """(sin angle, chord length) for unit vectors with nonnegative inner
    product; the sine dominates sqrt(2)/2 times the chord."""
    with mp.workprec(precision_bits):
        xv = [mp.mpf(v) for v in x]
        yv = [mp.mpf(v) for v in y]
        normed = []
        for v in (xv, yv):
            nrm = mp.sqrt(mp.fsum(a * a for a in v))
            if abs(nrm - 1) > mp.mpf("1e-6"):  # inputs may be float-level unit
                raise ValueError("inputs must be unit vectors")
            normed.append([a / nrm for a in v])
        xv, yv = normed
        if mp.fsum(a * b for a, b in zip(xv, yv)) < 0:
            raise ValueError("need x . y >= 0")
        chord = mp.sqrt(mp.fsum((a - b) ** 2 for a, b in zip(xv, yv)))
        return sin_angle(xv, yv, precision_bits=precision_bits), chord


# ---------------------------------------------------------------------------
# going-up: extend B to C of one higher dimension with controlled height
# ---------------------------------------------------------------------------

@dataclass
class GoingUpResult:
    c: RationalSubspace
    psi_before: object
    psi_after: object
    height_ratio: float        # H(C) / H(B)^((n-e-1)/(n-e))
    candidates: int
    contained: bool


def _projected_gram(basis_cols, extras):
    """Exact Gram matrix of the completion vectors projected off span(B):
    <u_i, u_j> - <c_i, (<u_j, b_a>)_a>, where G c_i = (<u_i, b_a>)_a for B's Gram matrix G."""
    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    gram_b = [[dot(u, v) for v in basis_cols] for u in basis_cols]
    rhs = [[dot(u, v) for v in basis_cols] for u in extras]
    coeffs = [solve_fraction(gram_b, r) for r in rhs]  # G is symmetric: its rows are its columns
    return [[dot(u, w) - dot(c, r) for w, r in zip(extras, rhs)] for u, c in zip(extras, coeffs)]


_LLL_DELTA = Fraction(99, 100)


def _lll_gram(gram: list[list[Fraction]]):
    """LLL on a lattice given only by its Gram matrix; returns the transform."""
    m = len(gram)
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    G = [row[:] for row in gram]

    def apply_addmul(i, j, q):
        # v_i <- v_i - q v_j
        for k in range(m):
            G[i][k] -= q * G[j][k]
        for k in range(m):
            G[k][i] -= q * G[k][j]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def apply_swap(i, j):
        G[i], G[j] = G[j], G[i]
        for row in G:
            row[i], row[j] = row[j], row[i]
        U[i], U[j] = U[j], U[i]

    def gso():
        mu = [[Fraction(0)] * m for _ in range(m)]
        norm = [Fraction(0)] * m
        for i in range(m):
            norm[i] = G[i][i] - sum(mu[i][j] ** 2 * norm[j] for j in range(i))
            for k in range(i + 1, m):
                mu[k][i] = (G[k][i] - sum(mu[k][j] * mu[i][j] * norm[j] for j in range(i))) / norm[i]
        return mu, norm

    mu, norm = gso()
    k = 1
    while k < m:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                apply_addmul(k, j, q)
                mu, norm = gso()
        if norm[k] >= (_LLL_DELTA - mu[k][k - 1] ** 2) * norm[k - 1]:
            k += 1
        else:
            apply_swap(k, k - 1)
            mu, norm = gso()
            k = max(k - 1, 1)
    return U


def going_up_search(a: RealSubspace, b: RationalSubspace, j: int, budget: int = 2,
                    weight: float = 1.0, precision_bits: int | None = None) -> GoingUpResult:
    """Search norm-bounded integer extensions C = sat(B + Zv) minimizing
    H(C) * psi_j(A, C)^weight.

    Candidates sweep a coefficient box over an LLL-reduced basis of the
    quotient lattice Z^n / (B cap Z^n), so the short extensions the height
    bound H(C) <= kappa H(B)^((n-e-1)/(n-e)) relies on are always in range.
    No candidate v lies in B, so no wedge v ^ B is zero.  A psi below the
    zero tolerance 2^-(prec/2) is rounding noise and counts as 0, and a
    candidate with psi = 0 scores +inf when weight < 0.
    """
    n, e = b.n, b.e
    if e >= n - 1:
        raise ValueError("need dim B < n - 1")
    if not (1 <= j <= min(a.dim, e)):
        raise ValueError("need 1 <= j <= min(dim A, dim B)")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    prec = precision_bits if precision_bits is not None else a.precision_bits

    basis_cols = list(b.basis_vectors())
    extras = complete_to_unimodular(b.lattice_basis)
    U = _lll_gram(_projected_gram(basis_cols, extras))
    # v ^ eta is linear in v, so one product wedges every candidate; object
    # arrays hold Python ints, which cannot overflow
    ints = functools.partial(np.array, dtype=object)
    wedged = ints(U) @ ints(extras) @ _wedge_matrix(ints(b.plucker.coords), n, e)
    coeffs = [c for c in itertools.product(range(-budget, budget + 1), repeat=len(U))
              if next((x for x in c if x), 0) > 0]  # spans are insensitive to v -> -v
    heights: dict[tuple[int, ...], int] = {}
    for raw in (ints(coeffs) @ wedged).tolist():
        pl = normalize_plucker(raw, n, e + 1)
        heights.setdefault(pl.coords, pl.norm_sq)

    keys = _screen_candidates(a, sorted(heights), heights, n, e + 1, j, weight, prec)
    scored = []  # (score, key, psi)
    with mp.workprec(prec):
        for key in keys:
            psi = _refined_psi(a, key, n, e + 1, j, prec)
            score = (mp.inf if psi == 0 and weight < 0
                     else mp.sqrt(mp.mpf(heights[key])) * psi ** mp.mpf(weight))
            scored.append((score, key, psi))
    best = min(scored, key=lambda s: s[:2])  # exact score ties keep the lex-smaller key

    c_sub = from_plucker(PluckerVec(n, e + 1, best[1]))
    contained = all(lattice_contains(c_sub.lattice_basis, col) for col in basis_cols)
    with mp.workprec(prec):
        psi_before = _refined_psi(a, b.plucker.coords, n, e, j, prec)
        expo = mp.mpf(n - e - 1) / (n - e)
        ratio = float(mp.sqrt(mp.mpf(c_sub.height_sq)) / mp.mpf(b.height_sq) ** (expo / 2))
    return GoingUpResult(c_sub, psi_before, best[2], ratio, len(coeffs), contained)


def _refined_psi(a, key, n, e, j, prec):
    """psi_j(A, C) at prec bits, 0 below the zero tolerance."""
    psi = _refine_psi(a, key, n, e, j, prec)[0]
    return psi if psi >= _zero_tol(prec) else mp.mpf(0)


def _screen_candidates(a, keys, heights, n, e, j, weight, prec):
    """The keys, in order, whose score H(C) psi_j(A, C)^weight can still be
    the minimum, judged from a float64 psi within delta of the exact one.

    psi_j lies in [psi - delta, psi + delta] cut to [0, 1], and counts as 0
    below the zero tolerance of prec bits, so a lower end below twice the
    tolerance (a margin for its own rounding) is taken as 0.  The score lies
    in H times the image of that interval under psi -> psi^weight.  A key is
    dropped only when its lowest possible score exceeds the highest possible
    score of some key, so it cannot be the minimum or tie with it.  Scores
    are compared as logs, log H + weight log psi, so no power underflows;
    psi = 0 gives log psi = -inf, and weight 0 gives the score H.
    """
    psi, delta = _float_psi(a, np.array(keys, dtype=np.float64), n, e, j)  # no int64 cast
    log_h = 0.5 * np.log(np.array([heights[k] for k in keys], dtype=np.float64))
    low = np.where(psi - delta < 2 * float(_zero_tol(prec)), 0.0, psi - delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = [weight * np.log(np.clip(x, 0, 1)) for x in (low, psi + delta)]
    terms = [np.where(np.isnan(t), 0.0, t) for t in terms]  # 0 * log 0 is psi^0 = 1
    if weight < 0:
        terms.reverse()
    # absolute error of a float log score: H^2's conversion and log, psi +- delta's
    # rounding (|weight| u), its log (within 4 ulp), the product and the sum
    # (u each), and the rounding of the mp score it stands for (below 4 u)
    lo, hi = (log_h + t + sign * 8 * _U * (1 + abs(weight) + np.abs(log_h) + np.abs(t))
              for t, sign in zip(terms, (-1, 1)))
    keep = _contenders(lo, hi, [0])
    return [k for k, kept in zip(keys, keep) if kept]
