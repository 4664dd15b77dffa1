"""Exhaustive-by-height enumeration of rational subspaces and record scans.

One sharded core sweeps e-tuples of primitive, sign-canonical integer
vectors, each vector strictly later than the one before in (norm^2,
lexicographic) order, for e <= 3 and e <= n - e.  A tuple is kept only when
its wedge has gcd 1, i.e. it is a basis of a saturated lattice, so the wedge
already is the primitive Plucker vector; lattices that are not saturated are
found through the basis of their saturation.

* Planes: only Lagrange-Gauss reduced pairs are swept, |v1| <= |v2| and
  2 |<v1, v2>| <= |v1|^2.  Every saturated rank-2 lattice has such a basis,
  and H^2 = |v1|^2 |v2|^2 - <v1, v2>^2 >= 3/4 |v1|^2 |v2|^2 bounds the
  sweep.  Each plane is emitted about once; only ties on the boundary of the
  reduction conditions emit it twice.
* 3-subspaces (n >= 6): for e <= 3 the successive minima of a lattice are
  attained by a basis, so Minkowski's product bound
  lam_1 lam_2 lam_3 <= (6 / pi) H makes the sweep complete.
* e > n - e: the Hodge star maps a saturated lattice to its orthogonal
  complement, which has the same height, so the (n, e) subspaces are the
  (n, n - e) ones with every Plucker row reversed and twisted by Laplace
  signs.

Duplicates are dropped by first occurrence over the shards in order, which
also names the shard a subspace is cached under.  Completeness for
(n, e) = (4, 2) is cross-checked against an independent sweep of primitive
Plucker vectors on the quadric (see :func:`plucker_sweep_count_4_2`).

Scanning a real target over an enumeration produces the strictly-improving
record sequence of (height, psi_j) observations; a least-squares fit of
log psi_j against log height estimates the approximation exponent.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np
from mpmath import mp

from .angles import RealSubspace, canonical_angles
from .exact import PluckerVec, laplace_sign, subsets, wedge_terms
from .grassmann import RationalSubspace, from_plucker, plucker_relations, real_view

_SHARD_SIZE = 64  # first-vector candidates per shard; fixed so cache layout is stable
# names the shard layout above; a partial cache of another layout is rebuilt, not resumed
_CACHE_VERSION = "v2"


class CacheCorruption(ValueError):
    pass


def _height_cap_sq(height_max) -> int:
    f = Fraction(height_max)
    if f < 1:
        raise ValueError("height_max must be >= 1")
    return (f * f).numerator // (f * f).denominator


def _integer_ball(n: int, cap_sq: int) -> np.ndarray:
    """Primitive, sign-canonical integer vectors with 0 < |v|^2 <= cap_sq.

    Sorted by (norm^2, lexicographic).  Sign-canonical means the first
    nonzero coordinate is positive, so each line appears once.
    """
    r = math.isqrt(cap_sq)
    chunks = []
    for k in range(n):  # k leading zeros, then a positive coordinate
        tail = n - k - 1
        for lead in range(1, r + 1):
            budget = cap_sq - lead * lead
            if budget < 0:
                break
            if tail == 0:
                v = np.zeros((1, n), dtype=np.int64)
                v[0, k] = lead
                chunks.append(v)
                continue
            rr = math.isqrt(budget)
            rng = np.arange(-rr, rr + 1, dtype=np.int64)
            grids = np.meshgrid(*([rng] * tail), indexing="ij")
            rest = np.stack([g.ravel() for g in grids], axis=1)
            keep = (rest * rest).sum(1) <= budget
            rest = rest[keep]
            v = np.zeros((len(rest), n), dtype=np.int64)
            v[:, k] = lead
            v[:, k + 1:] = rest
            chunks.append(v)
    V = np.concatenate(chunks) if chunks else np.zeros((0, n), dtype=np.int64)
    g = np.gcd.reduce(np.abs(V), axis=1)
    V = V[g == 1]
    n2 = (V * V).sum(1)
    order = np.lexsort(tuple(V[:, c] for c in range(n - 1, -1, -1)) + (n2,))
    return V[order]


def _canonical_sign_rows(W: np.ndarray) -> np.ndarray:
    idx = np.argmax(W != 0, axis=1)
    s = np.sign(np.take_along_axis(W, idx[:, None], 1))[:, 0]
    return W * s[:, None]


@dataclass
class Enumeration:
    """The set of rational subspaces of dimension e and height <= height_max.

    ``pluckers`` holds one canonical primitive Plucker vector per row,
    sorted by (squared height, lexicographic coordinates).
    """

    n: int
    e: int
    height_max_sq: int
    pluckers: np.ndarray
    truncated: bool = False
    pair_count: int = 0

    def __len__(self) -> int:
        return len(self.pluckers)

    @property
    def heights_sq(self) -> np.ndarray:
        return (self.pluckers * self.pluckers).sum(1)

    def coords_at(self, i: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.pluckers[i])

    def key_at(self, i: int) -> str:
        return "%d %d : %s" % (self.n, self.e, " ".join(map(str, self.coords_at(i))))

    def plucker_at(self, i: int) -> PluckerVec:
        return PluckerVec(self.n, self.e, self.coords_at(i))

    def subspace_at(self, i: int) -> RationalSubspace:
        return from_plucker(self.plucker_at(i))

    def subspaces(self) -> Iterator[RationalSubspace]:
        for i in range(len(self)):
            yield self.subspace_at(i)

    def restrict(self, height_max) -> "Enumeration":
        cap = _height_cap_sq(height_max)
        if cap > self.height_max_sq:
            raise ValueError("cannot restrict to a larger height")
        if cap == self.height_max_sq:
            return self
        keep = self.heights_sq <= cap
        return Enumeration(self.n, self.e, cap, self.pluckers[keep],
                           truncated=self.truncated, pair_count=self.pair_count)


def _narrow(a: np.ndarray) -> np.ndarray:
    """a in the narrowest signed dtype that holds +-max|a|."""
    return a.astype(np.min_scalar_type(-int(np.abs(a).max(initial=0)) - 1))


def _unique_sorted(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of P sorted by (norm^2, lexicographic), and the index
    in P of each one's first occurrence (the sort is stable).  The keys are
    sorted in the narrowest dtypes that hold them, which numpy radix-sorts up
    to 16 bits; the order is the same as on int64."""
    Q = _narrow(P)
    order = np.lexsort(tuple(Q[:, c] for c in range(P.shape[1] - 1, -1, -1)) + (_narrow((P * P).sum(1)),))
    S = Q[order]
    first = np.ones(len(S), dtype=bool)
    first[1:] = np.any(S[1:] != S[:-1], axis=1)
    return P[order[first]], order[first]


def _product_cap(e: int, hmax_sq: int) -> int:
    """Exact bound on |v_1|^2 ... |v_e|^2 over the bases the sweep needs.

    The product of squared norms is an integer, so flooring the rational
    bound loses nothing.
    """
    if e == 2:
        # reduced pair, |v1| <= |v2| and 2 |<v1, v2>| <= |v1|^2:
        # H^2 = |v1|^2 |v2|^2 - <v1, v2>^2 >= |v1|^2 |v2|^2 - |v1|^4 / 4 >= 3/4 |v1|^2 |v2|^2
        return 4 * hmax_sq // 3
    # Minkowski's second theorem: prod lam_i^2 <= (2^3 / V_3)^2 H^2 = (36 / pi^2) H^2,
    # and 36 / pi^2 < 73 / 20 because pi^2 > 9.8696 > 720 / 73 = 9.8630...
    return 73 * hmax_sq // 20


@functools.lru_cache(maxsize=None)
def _wedge_index(n: int, e: int) -> tuple[np.ndarray, ...]:
    """:func:`~subapprox.exact.wedge_terms` as index arrays."""
    return tuple(np.array(c) for c in wedge_terms(n, e))


def _wedge_matrix(eta: np.ndarray, n: int, e: int) -> np.ndarray:
    """M in eta's dtype with x @ M = x ^ eta for the Plucker vector eta of an
    e-blade: the transposed annihilator, since the wedge is linear in x."""
    T, k, sign, S = _wedge_index(n, e)
    M = np.zeros((n, math.comb(n, e + 1)), dtype=eta.dtype)
    M[k, T] = sign * eta[S]
    return M


def _sweep_shard(V, n2, lo, hi, e, prod_cap, hmax_sq):
    """Canonical rows of the subspaces with a swept basis whose first vector
    is V[a], lo <= a < hi, and the number of e-tuples wedged.

    Each later vector comes strictly later in V, so every set of vectors is
    tried once; the last one is vectorised.
    """
    n = V.shape[1]
    out, pairs = [], 0
    for a in range(lo, hi):
        v1, k1 = V[a], int(n2[a])
        if e == 2:
            prefixes = [(v1, a, k1)]
        else:  # v3 is no shorter than v2, so k1 k2^2 <= prod_cap
            stop = int(np.searchsorted(n2, math.isqrt(prod_cap // k1), side="right"))
            minors = V[a + 1:stop] @ _wedge_matrix(v1, n, 1)
            prefixes = [(minors[b - a - 1], b, k1 * int(n2[b])) for b in range(a + 1, stop)]
        for w, last, prod in prefixes:
            X = V[last + 1:int(np.searchsorted(n2, prod_cap // prod, side="right"))]
            if e == 2:  # Lagrange-Gauss reduced
                X = X[2 * np.abs(X @ v1) <= k1]
            pairs += len(X)
            W = X @ _wedge_matrix(w, n, e - 1)  # +-(v1 ^ ... ^ x); the sign is canonicalised
            W = W[(W * W).sum(1) <= hmax_sq]
            out.append(W[np.gcd.reduce(np.abs(W), axis=1) == 1])
    rows = np.concatenate(out) if out else np.zeros((0, math.comb(n, e)), dtype=np.int64)
    return _canonical_sign_rows(rows), pairs


def _shard_jobs(n: int, e: int, hmax_sq: int) -> list:
    """One call per shard of the (n, e) sweep, e <= n - e; each returns
    (rows, tuples wedged).  Lines and the zero subspace are one shard."""
    if e == 0:
        return [lambda: (np.ones((1, 1), dtype=np.int64), 0)]
    if e == 1:
        def lines():
            V = _integer_ball(n, hmax_sq)
            return V, len(V)
        return [lines]
    cap = _product_cap(e, hmax_sq)
    V = _integer_ball(n, cap)
    n2 = (V * V).sum(1)
    m = int(np.count_nonzero(n2 ** e <= cap))  # candidates for the shortest basis vector
    return [functools.partial(_sweep_shard, V, n2, lo, min(lo + _SHARD_SIZE, m), e, cap, hmax_sq)
            for lo in range(0, m, _SHARD_SIZE)]


def _run_shards(jobs, workers, max_pairs):
    """Results of the jobs in order, stopping after the one that exceeds max_pairs."""
    rows, pairs = [], 0
    with ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:
        for P, p in (pool.map(lambda job: job(), jobs) if workers > 1 else (job() for job in jobs)):
            rows.append(P)
            pairs += p
            if max_pairs is not None and pairs > max_pairs:
                pool.shutdown(cancel_futures=True)
                break
    return rows, pairs


def _hodge_twist(P: np.ndarray, n: int, e: int) -> np.ndarray:
    """The (n, n - e) Plucker rows P reversed and twisted by the Laplace signs
    of the e-subsets: the complement of the i-th (n - e)-subset is the
    (N-1-i)-th e-subset, so these are the Hodge stars, whose subspaces are the
    orthogonal complements, and <a, *eta> is the dot product of a with the twist."""
    return P[..., ::-1] * np.array([laplace_sign(s) for s in subsets(n, e)])


def enumerate_subspaces(n: int, e: int, height_max, *, cache_path: str | None = None,
                        workers: int = 1, max_pairs: int | None = None) -> Enumeration:
    """Every rational subspace of dimension e in R^n with height <= height_max.

    Needs min(e, n - e) <= 3.  Dedup is by canonical Plucker key; the result
    is sorted by (height^2, lexicographic key), so downstream consumers are
    independent of enumeration order.  ``max_pairs`` bounds the sweep: no
    shard starts once more than that many tuples have been wedged, and a
    result with a shard left unswept carries ``truncated=True`` (never
    silent).  With ``cache_path`` a complete cache is loaded, a partial one
    resumed from its last completed shard.
    """
    if not (1 <= e <= n):
        raise ValueError("need 1 <= e <= n")
    f = min(e, n - e)  # the swept dimension; e > n - e is its Hodge dual
    if f > 3:
        raise ValueError("enumeration supports min(e, n - e) <= 3 (desk scale)")
    hmax_sq = _height_cap_sq(height_max)

    nshards, done, complete = None, [], False
    if cache_path is not None and os.path.exists(cache_path):
        nshards, done, complete = _load_cache(cache_path, n, e, hmax_sq)
        if complete:
            return Enumeration(n, e, hmax_sq, _unique_sorted(np.concatenate(done))[0])

    jobs = _shard_jobs(n, f, hmax_sq)
    if nshards != len(jobs):
        done = []
    swept, pairs = _run_shards(jobs[len(done):], workers, max_pairs)
    if f != e:
        swept = [_canonical_sign_rows(_hodge_twist(P, n, e)) for P in swept]
    shards = done + swept
    rows, first = _unique_sorted(np.concatenate(shards))
    shard_of = np.searchsorted(np.cumsum([len(P) for P in shards]), first, side="right")
    if cache_path is not None:
        _write_cache(cache_path, n, e, hmax_sq, len(jobs), rows, shard_of, len(done), len(shards))
    return Enumeration(n, e, hmax_sq, rows, truncated=len(shards) < len(jobs), pair_count=pairs)


# ---------------------------------------------------------------------------
# cache format: one line per subspace `n e : p_1 ... p_N`, appended per
# completed shard, each shard closed by a `# shard <i> done` marker and the
# file by `# end` once every shard is in.
# ---------------------------------------------------------------------------

def _write_cache(path, n, e, hmax_sq, nshards, rows, shard_of, start, stop):
    """Append shards start..stop-1 of the sorted rows, starting the file afresh
    when start is 0; shard_of names each row's shard.  A resumed file first
    loses the unfinished rows after the marker of shard start - 1."""
    order = np.argsort(shard_of, kind="stable")  # keeps the rows' order within a shard
    bounds = np.searchsorted(shard_of[order], np.arange(stop + 1))
    line = "%d %d : " % (n, e) + " ".join(["%d"] * rows.shape[1]) + "\n"
    if start:
        marker = b"# shard %d done\n" % (start - 1)
        with open(path, "rb+") as fh:
            fh.truncate(fh.read().rindex(marker) + len(marker))
    with open(path, "a" if start else "w") as fh:
        if not start:
            fh.write("# subapprox-cache %s n=%d e=%d hmax_sq=%d shards=%d\n"
                     % (_CACHE_VERSION, n, e, hmax_sq, nshards))
        for i in range(start, stop):
            part = rows[order[bounds[i]:bounds[i + 1]]]
            fh.write(line * len(part) % tuple(part.ravel().tolist()))
            fh.write("# shard %d done\n" % i)
        if stop == nshards:
            fh.write("# end\n")


def _validate_rows(rows: np.ndarray, n, e, hmax_sq, path):
    if len(rows) == 0:
        return
    h2 = (rows * rows).sum(1)
    if h2.max(initial=0) > hmax_sq or h2.min(initial=1) < 1:
        raise CacheCorruption("cached subspace out of height range in %s" % path)
    for rel in plucker_relations(n, e):
        acc = np.zeros(len(rows), dtype=np.int64)
        for c, i, j in rel:
            acc += c * rows[:, i] * rows[:, j]
        if np.any(acc != 0):
            raise CacheCorruption("cached vector fails the Plucker relations in %s" % path)
    g = np.gcd.reduce(np.abs(rows), axis=1)
    if np.any(g != 1):
        raise CacheCorruption("cached vector is not primitive in %s" % path)


_HEADER = re.compile(r"# subapprox-cache (v\d+) n=(\d+) e=(\d+) hmax_sq=(\d+) shards=(\d+)")
_SHARD_MARKER = re.compile(r"\n# shard (\d+) done(?=\n)")


def _parse_shard(text, prefix, ncols, where):
    """The rows of one shard's text, each line after a newline prefix + ncols integers."""
    rows = text.count("\n" + prefix)
    body = text.replace("\n" + prefix, "\n")
    if ":" in body or "#" in body:
        raise CacheCorruption("line in %s is not a `%s` row" % (where, prefix.strip()))
    try:  # an empty shard is blank, and loadtxt warns on blank text
        P = (np.loadtxt(io.StringIO(body), dtype=np.int64, comments=None, ndmin=2)
             if rows or body.strip() else np.zeros((0, ncols), dtype=np.int64))
    except ValueError as err:
        raise CacheCorruption("malformed row in %s: %s" % (where, err)) from None
    if P.shape != (rows, ncols):
        raise CacheCorruption("malformed row in %s: not %d integers" % (where, ncols))
    return P


def _load_cache(path, n, e, hmax_sq):
    """(shard count, validated rows of each completed shard, complete) of the
    cache at path; (None, [], False) when it holds another enumeration, or is
    a partial cache of another shard layout.  Rows after the last shard
    marker of a partial cache are an unfinished shard and are ignored."""
    with open(path) as fh:
        header = _HEADER.fullmatch(fh.readline().strip())
        if header is None:
            raise CacheCorruption("not a subapprox cache: %s" % path)
        version, *fields = header.groups()
        *key, nshards = map(int, fields)
        if key != [n, e, hmax_sq]:
            return None, [], False
        body = "\n" + fh.read()
    pieces = _SHARD_MARKER.split(body)  # rows of shard 0, "0", rows of shard 1, "1", ..., tail
    texts = pieces[:-1:2]
    if [int(i) for i in pieces[1::2]] != list(range(len(texts))):
        raise CacheCorruption("non-contiguous shard markers in %s" % path)
    complete = pieces[-1].strip() == "# end"
    if complete and len(texts) != nshards:
        raise CacheCorruption("cache %s ends before its last shard" % path)
    if not complete and version != _CACHE_VERSION:
        return None, [], False
    arrays = [_parse_shard(t, "%d %d : " % (n, e), math.comb(n, e), "shard %d of %s" % (i, path))
              for i, t in enumerate(texts)]
    if arrays:
        _validate_rows(np.concatenate(arrays), n, e, hmax_sq, path)
    return nshards, arrays, complete


# ---------------------------------------------------------------------------
# independent Plucker-vector sweep for (n, e) = (4, 2)
# ---------------------------------------------------------------------------

def _mobius(m: int) -> np.ndarray:
    mu = np.ones(m + 1, dtype=np.int64)
    is_comp = np.zeros(m + 1, dtype=bool)
    primes: list[int] = []
    for i in range(2, m + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > m:
                break
            is_comp[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


def _quadric_solutions_4_2(cap_sq: int) -> int:
    """Nonzero integer 6-tuples with p1 p6 - p2 p5 + p3 p4 = 0 and norm^2 <= cap_sq.

    Counted by convolving the joint (product, norm^2) distribution of
    coordinate pairs; FFT sums stay far below 2^53 at desk scale.
    """
    r = math.isqrt(cap_sq)
    xs = np.arange(-r, r + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    m = (X * X + Y * Y) <= cap_sq
    r2 = r * r
    P = (X * Y)[m].ravel() + r2
    S = (X * X + Y * Y)[m].ravel()
    F = np.zeros((2 * r2 + 1, cap_sq + 1))
    np.add.at(F, (P, S), 1.0)
    np1, ns1 = F.shape
    fp, fs = 2 * np1 - 1, 2 * ns1 - 1
    FF = np.fft.rfft2(F, s=(fp, fs))
    G = np.fft.irfft2(FF * FF, s=(fp, fs))
    Gm = G[r2: 3 * r2 + 1, : cap_sq + 1]
    Gc = np.cumsum(Gm, axis=1)
    total = 0.0
    for s2 in range(cap_sq + 1):
        col = F[:, s2]
        nz = np.nonzero(col)[0]
        if len(nz):
            total += float((col[nz] * Gc[nz, cap_sq - s2]).sum())
    return int(round(total)) - 1


def plucker_sweep_count_4_2(height_max) -> int:
    """Number of rational planes in R^4 with height <= height_max.

    Counts primitive integer points on the Plucker quadric directly
    (Moebius inversion removes imprimitive multiples; each subspace has
    exactly two sign representatives).  Independent of the pair sweep.
    """
    hmax_sq = _height_cap_sq(height_max)
    mu = _mobius(max(1, math.isqrt(hmax_sq)))
    total = 0
    k = 1
    while k * k <= hmax_sq:
        if mu[k]:
            total += int(mu[k]) * _quadric_solutions_4_2(hmax_sq // (k * k))
        k += 1
    if total % 2:
        raise ArithmeticError("odd count of sign representatives: %d" % total)
    return total // 2


# ---------------------------------------------------------------------------
# record scans against a real target
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproximationRecord:
    subspace_key: str
    height: object     # mpf
    psi_j: object      # mpf
    phi: object        # mpf
    j: int


@dataclass
class ScanResult:
    records: list[ApproximationRecord]
    j: int
    truncated: bool = False
    rational_target: bool = False
    scanned: int = 0


@dataclass(frozen=True)
class ExponentEstimate:
    beta_hat: float
    records: tuple[ApproximationRecord, ...]
    fit_residual: float


def _det(m):
    """mp.det of a square mp matrix.  mpmath 1.3's LU decomposition leaves a
    pivot index None, and mp.det raises TypeError, when a pivot column is
    exactly 0; the matrix is then singular, so its determinant is 0."""
    try:
        return mp.det(m)
    except TypeError:
        return mp.mpf(0)


def target_plucker(a: RealSubspace):
    """Unit Plucker coordinate vector of a real subspace (mp floats)."""
    with mp.workprec(a.precision_bits):
        rows = a.basis
        coords = []
        for sub in subsets(a.n, a.dim):
            m = mp.matrix(a.dim, a.dim)
            for ii, i in enumerate(sub):
                for jj in range(a.dim):
                    m[ii, jj] = rows[jj][i]
            coords.append(_det(m))
        nrm = mp.sqrt(mp.fsum(c * c for c in coords))
        return [c / nrm for c in coords]


def hodge_pairing_floats(a: RealSubspace, etas: np.ndarray) -> np.ndarray:
    """|<a, *eta>| per row: the numerator of phi(A, B) * H(B) for d + e = n."""
    apl = np.array([float(x) for x in target_plucker(a)])
    return np.abs(_hodge_twist(etas.astype(np.float64), a.n, a.dim) @ apl)


def _zero_tol(prec: int):
    """Below this, a psi or pairing computed at prec bits is rounding noise and counts as 0."""
    return mp.mpf(2) ** (-(prec // 2))


def _refine_psi(a: RealSubspace, coords: tuple[int, ...], n, e, j, precision_bits):
    b = from_plucker(PluckerVec(n, e, coords))
    rv = real_view(b, precision_bits)
    prof = canonical_angles(a, rv, precision_bits=precision_bits)
    return prof.sines[j - 1], prof.phi, prof.err


_GENERIC_LIMIT = 500_000  # largest scan the generic float screen accepts
# working set of one batch of :func:`_float_psi_generic`: the stacked
# annihilator matrices and their full SVD; a speed-neutral size, since LAPACK
# works one matrix at a time either way
_GENERIC_BATCH_BYTES = 1 << 22
_U = 2.0 ** -53  # unit roundoff of float64


def _float_psi_delta(n: int, e: int) -> float:
    """Absolute bound on |psi - psi_j(A, B)| for psi from :func:`_float_psi_generic`
    on an (n, e) subspace B; at most 1e-12 for n <= 7.

    With u = 2^-53, m = C(n, e + 1) rows in the annihilator x -> x ^ eta and
    d = dim A <= n:

    * eta is decomposable, so x -> x ^ eta is |eta| times an isometry on B^perp
      and 0 on B: its nonzero singular values all equal |eta|.
    * Rounding eta to float64 moves the map by at most sqrt(n - e) u |eta|
      (each eta_S sits in n - e rows).  The Householder-based SVD is backward
      stable: it returns the exact SVD of a matrix within p u |eta|, with
      right singular vectors orthonormal within p u, where p = 4 m n.  This is
      the gamma~_mn of Higham, ch. 19, whose constant the literature (and
      LAPACK's p(m, n)) leaves unspecified; it is assumed to be 4 here, for
      the divide-and-conquer gesdd that numpy calls.  The assumption is
      checked empirically: ``test_float_psi_delta_is_sound`` measures errors
      below 5% of the resulting bound.
    * Wedin's sin-Theta theorem with the gap |eta| - (sqrt(n - e) + p) u |eta|
      >= |eta| / 2 puts the computed kernel B' within ||P_B - P_B'|| <=
      2 (sqrt(n - e) + p) u of B, whatever the conditioning of B's bases.
    * The sines of the principal angles are the singular values of
      P_A^perp P_B.  By Weyl's inequality they move by at most
      ||P_B - P_B'||, by the p u orthonormality error of the kernel basis Y,
      and by ||X^T X - P_A|| <= 3 sqrt(d) u for A's basis X rounded to float64.
    * G = Y X^T and S = Y - G X are sums of at most n products, within
      (2 gamma_n + u) sqrt(e d) of exact in norm (Higham, ch. 3); the two small
      SVDs add 4 e n u each.  The cosine branch sqrt(1 - c^2) is taken only
      for c^2 < 1/2, where it is 1-Lipschitz in c, and sorting the sines is
      1-Lipschitz in the max norm.

    With a few u for sqrt and clipping, and sqrt(n - e), d and e bounded by
    n >= 3, the sum is at most K u with K = 3 p + 13 n^2, given the assumed
    SVD constant.  Doubling it covers the second-order terms while
    K u <= 1/4, and the 2^-prec error of the mp value it is compared with.  The line route of :func:`_float_psi_generic`
    (no SVD) stays inside the same bound.
    """
    p = 4 * math.comb(n, e + 1) * n
    return 2 * (3 * p + 13 * n * n) * _U


def _float_psi_generic(a: RealSubspace, etas: np.ndarray, n: int, e: int, j: int) -> np.ndarray:
    """Batched float64 psi_j(A, B) for the (n, e) subspaces with Plucker rows
    ``etas``, within :func:`_float_psi_delta` of the exact value."""
    d = a.dim
    t = min(d, e)
    count = len(etas)
    if count == 0:
        return np.zeros(0)
    X = np.array([[float(x) for x in row] for row in a.basis])  # d x n
    if e == 1:
        # lines: one angle; plain matrix products, no batched SVD needed
        Y = etas.astype(np.float64)
        Y /= np.linalg.norm(Y, axis=1)[:, None]
        G = Y @ X.T                      # (count, d)
        cosv = np.linalg.norm(G, axis=1)
        S = Y - G @ X
        sines = np.linalg.norm(S, axis=1)
        return np.where(cosv * cosv >= 0.5, sines,
                        np.sqrt(np.clip(1 - np.clip(cosv, 0, 1) ** 2, 0, 1)))
    # bases from the annihilator kernel x -> x wedge eta, batched
    at_t, at_k, sign, src = _wedge_index(n, e)
    R = math.comb(n, e + 1)
    # per row: the R x n matrix, its R x R and n x n singular vectors, n values
    batch = max(1, _GENERIC_BATCH_BYTES // (8 * (R * n + R * R + n * n + n)))
    out = np.empty(count)
    for lo in range(0, count, batch):
        chunk = etas[lo:lo + batch]
        A = np.zeros((len(chunk), R, n))
        # in floats, so -1 * 0 is -0.0: the SVD's output bits depend on the signs of zeros
        A[:, at_t, at_k] = sign * chunk[:, src].astype(np.float64)
        _, _, Vh = np.linalg.svd(A)
        Y = Vh[:, n - e:, :]  # orthonormal kernel bases, (batch, e, n)
        G = Y @ X.T  # (batch, e, d)
        cosv = np.linalg.svd(G, compute_uv=False)  # descending, t values
        S = Y - G @ X  # component of B off A
        sines_all = np.sort(np.linalg.svd(S, compute_uv=False), axis=1)
        sines = sines_all[:, :t]
        cosv = np.clip(cosv[:, :t], 0, 1)
        alt = np.sqrt(np.clip(1 - cosv * cosv, 0, 1))
        psi = np.where(cosv * cosv >= 0.5, sines, alt)
        out[lo:lo + batch] = np.sort(psi, axis=1)[:, j - 1]
    return out


def _sqrt_err(x: np.ndarray, dx):
    """sqrt(max(x, 0)) rounded to float64, and a bound on its distance from
    sqrt(x') for every x' >= 0 within dx of x: |sqrt(x+) - sqrt(x')| is at
    most sqrt(dx), and at most dx / sqrt(x+), to which the rounding adds u."""
    r = np.sqrt(np.maximum(x, 0))
    err = np.divide(dx, r, out=np.full_like(r, np.inf), where=r > 0)
    np.minimum(err, np.sqrt(dx), out=err)
    err += _U * r
    return r, err


def _psi12_pairing(a: RealSubspace, etas, j: int):
    """psi_j(A, B), j = 1 or 2, for planes A and B in R^4 with Plucker rows
    ``etas`` (integers or their float64 roundings), and a per-row bound on its
    distance from the mp value.

    With principal angles t1 <= t2 and unit Plucker vectors, c = |<a, b>| =
    cos t1 cos t2 and s = |<a, *b>| = sin t1 sin t2, so psi_1^2 and psi_2^2
    are the roots of x^2 - (1 + s^2 - c^2) x + s^2.  Its discriminant is
    (1 - (c+s)^2)(1 - (c-s)^2), and c -+ s = cos(t1 +- t2), so with
    m = sin(t2 - t1) and p = sin(t1 + t2) the larger root is
    psi_2^2 = ((1 - c)(1 + c) + s^2 + p m) / 2, a sum of nonnegative terms,
    and psi_1 = s / psi_2 (0 where psi_2 is 0).  ``*`` is an isometry with
    ** = 1 on planes of R^4, so <a, *b> = <*a, b>.

    The bound, with u = 2^-53 and ^ for a computed value (Higham, ch. 3):

    * c, s: eta rounded to float64 (going-up keys can exceed 2^53) and a,
      the unit mp vector rounded, are within u of exact entry by entry, plus
      a's mp error 2^-prec <= 2^-64.  A 6-term dot is within gamma_6 |eta| |a|
      of its value in any summation order, so within 8 u |eta| of <eta, a>;
      sqrt(sum eta_i^2) is within 5 u of |eta| relatively, and the quotient
      adds u: |c^ - c| and |s^ - s| are below eps = 16 u.
    * m, p: sigma^ = c^ +- s^ is within 2 eps + u of sigma = cos(t1 -+ t2),
      and (1 - sigma^)(1 + sigma^) adds 3 u, so q^ is within dq = 4 eps + 5 u
      of q = 1 - sigma^2 >= 0; :func:`_sqrt_err` gives m and p within
      min(sqrt(dq), dq / m^) + u m^.  Where t1 ~ t2 this is about 8 sqrt(u).
    * psi_2^2: 1 - c^2 and s^2 move by at most 2 c eps and 2 s eps, and
      c + s = cos(t2 - t1) <= 1; |p m - p^ m^| <= p^ dm + m^ dp + dp dm; the
      three products, the two sums of nonnegative terms and the rounding of
      the terms add 5 u psi_2^2.  So dx = eps + (p^ dm + m^ dp + dp dm) / 2 +
      5 u x^, and :func:`_sqrt_err` gives d2 for psi_2.
    * psi_1 = s / psi_2: s^ / psi_2^ - psi_1 = (s^ - s + psi_1 (psi_2 -
      psi_2^)) / psi_2^, and psi_1 <= psi_1^ + d1, so where psi_2^ > d2,
      d1 <= (eps + psi_1^ d2 + u psi_1^ psi_2^) / (psi_2^ - d2).  Always
      0 <= psi_1 <= psi_2 <= psi_2^ + d2, so d1 <= max(psi_1^, psi_2^ + d2).

    These are first-order bounds; doubling them covers the second-order
    terms, which are below 2^-90 or, inside a square root, below a factor
    sqrt(2).  Rows whose bound is wide (a near-double root, or A and B nearly
    equal) simply become mp candidates.
    """
    apl = np.array([float(x) for x in target_plucker(a)])
    eta = np.asarray(etas, dtype=np.float64)
    norm = np.sqrt(np.einsum("ij,ij->i", eta, eta))
    c = np.abs(eta @ apl)
    c /= norm
    s = np.abs(eta @ _hodge_twist(apl, 4, 2))
    s /= norm
    del eta, norm  # a float copy of the rows is the screen's largest temporary
    eps = 16 * _U
    dq = 4 * eps + 5 * _U
    m, dm = _sqrt_err((1 - (c + s)) * (1 + (c + s)), dq)
    p, dp = _sqrt_err((1 - (c - s)) * (1 + (c - s)), dq)
    x = ((1 - c) * (1 + c) + s * s + p * m) / 2
    dx = eps + (p * dm + m * dp + dp * dm) / 2 + 5 * _U * x
    del c, m, p, dm, dp
    psi2, d2 = _sqrt_err(x, dx)
    if j == 2:
        return psi2, 2 * d2
    psi1 = np.divide(s, psi2, out=np.zeros_like(s), where=psi2 > 0)
    gap = psi2 - d2
    d1 = np.divide(eps + psi1 * d2 + _U * psi1 * psi2, gap, out=np.full_like(gap, np.inf),
                   where=gap > 0)
    np.minimum(d1, np.maximum(psi1, psi2 + d2), out=d1)
    return psi1, 2 * d1


def _float_psi(a: RealSubspace, etas, n: int, e: int, j: int):
    """(psi, delta): float64 psi_j(A, B) for the (n, e) subspaces B with
    Plucker rows ``etas`` (integers or their float64 roundings), and a bound
    on |psi - psi_j| against the mp value: per row by
    :func:`_psi12_pairing` for planes against a plane in R^4, else the
    scalar :func:`_float_psi_delta` of :func:`_float_psi_generic`."""
    if (n, e, a.dim) == (4, 2, 2):
        return _psi12_pairing(a, etas, j)
    return _float_psi_generic(a, etas, n, e, j), _float_psi_delta(n, e)


def _contenders(lo: np.ndarray, hi: np.ndarray, starts) -> np.ndarray:
    """Mask of the rows that can be the least of their group and below every
    earlier group, for values known only to lie in [lo, hi] row by row.

    The rows are sorted into groups that begin at ``starts`` (the first at
    0).  Row i is kept iff lo_i <= min hi_j over the rows j of its own group
    and of every earlier one; otherwise some row j there is certainly
    smaller.  Ties are kept.  This is the one rule by which a float screen
    chooses the rows that mpmath refines.
    """
    bound = np.minimum.accumulate(np.minimum.reduceat(hi, starts))
    return lo <= np.repeat(bound, np.diff(starts, append=len(hi)))


def _float_psi_screen(a: RealSubspace, enum: Enumeration, j: int):
    """:func:`_float_psi` over a scan's enumeration; the generic route refuses
    more than ``_GENERIC_LIMIT`` subspaces of dimension > 1."""
    if (enum.n, enum.e, a.dim) != (4, 2, 2) and enum.e > 1 and len(enum) > _GENERIC_LIMIT:
        raise ValueError("scan too large for the generic path (%d subspaces)" % len(enum))
    return _float_psi(a, enum.pluckers, enum.n, enum.e, j)


def scan_target(a: RealSubspace, e: int, j: int, height_max, *,
                enumeration: Enumeration | None = None,
                precision_bits: int | None = None,
                cache_path: str | None = None,
                workers: int = 1) -> ScanResult:
    """Strictly-improving record sequence of psi_j(A, B) over heights <= height_max.

    B enters the sequence iff its psi_j beats every subspace of lower or
    equal height (ties at equal height: smaller psi_j wins, exact ties keep
    the lexicographically smaller key).  A float64 screen proposes record
    candidates (:func:`_contenders` over height groups, with the float error
    bound); each candidate is then recomputed at full precision, so the chain
    itself is decided at `precision_bits`.
    """
    if j < 1 or j > min(a.dim, e):
        raise ValueError("need 1 <= j <= min(dim A, e)")
    prec = precision_bits if precision_bits is not None else a.precision_bits
    if enumeration is None:
        enumeration = enumerate_subspaces(a.n, e, height_max,
                                          cache_path=cache_path, workers=workers)
    if enumeration.n != a.n or enumeration.e != e:
        raise ValueError("enumeration is for (n=%d, e=%d), target needs (n=%d, e=%d)"
                         % (enumeration.n, enumeration.e, a.n, e))
    enum = enumeration.restrict(height_max)
    count = len(enum)
    result = ScanResult(records=[], j=j, truncated=enum.truncated, scanned=count)
    if count == 0:
        return result

    psi_f, delta = _float_psi_screen(a, enum, j)
    h2 = enum.heights_sq
    starts = np.flatnonzero(np.diff(h2, prepend=-1))  # one group per height
    cand = np.flatnonzero(_contenders(psi_f - delta, psi_f + delta, starts))

    zero_tol = _zero_tol(prec)
    running = None
    with mp.workprec(prec):
        for hh, group in itertools.groupby(cand.tolist(), key=lambda i: int(h2[i])):
            best = None  # (psi, coords, record); ties keep the lex-smaller key
            for i in group:
                coords = enum.coords_at(i)
                psi, ph, _ = _refine_psi(a, coords, enum.n, enum.e, j, prec)
                if best is None or psi < best[0] or (psi == best[0] and coords < best[1]):
                    rec = ApproximationRecord(enum.key_at(i), mp.sqrt(mp.mpf(hh)), psi, ph, j)
                    best = (psi, coords, rec)
            if running is None or best[0] < running:
                result.records.append(best[2])
                running = best[0]
                if best[0] < zero_tol:
                    result.rational_target = True
                    break
    if result.rational_target and result.records:
        last = result.records[-1]
        result.records[-1] = ApproximationRecord(last.subspace_key, last.height,
                                                 mp.mpf(0), mp.mpf(0), j)
    return result


def estimate_exponent(records: Sequence[ApproximationRecord]) -> ExponentEstimate:
    """Least-squares slope of log psi_j against log height; beta_hat = -slope."""
    pts = [(float(r.height), float(r.psi_j)) for r in records if float(r.psi_j) > 0]
    heights = sorted({h for h, _ in pts})
    if len(heights) < 2:
        raise ValueError("need at least 2 records with distinct positive heights")
    xs = np.log([h for h, _ in pts])
    ys = np.log([p for _, p in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return ExponentEstimate(float(-slope), tuple(records),
                            float(np.sqrt(np.mean(resid ** 2))))
