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
  attained by a basis, so Minkowski's second theorem in Hermite form,
  lam_1^2 lam_2^2 lam_3^2 <= gamma_3^3 H^2 = 2 H^2, makes the sweep complete.
* e > n - e: the Hodge star maps a saturated lattice to its orthogonal
  complement, which has the same height, so the (n, e) subspaces are the
  (n, n - e) ones with every Plucker row reversed and twisted by Laplace
  signs.

The shards are swept serially, in order, by one loop.
Each shard's rows are deduplicated and sorted by (height^2, lexicographic
key) as the shard finishes, and one final pass merges these sorted runs, so
the result does not depend on which shard emitted a subspace, nor on how
often, and memory grows with the output, not with the tuples swept.  Rows
are kept in the narrowest signed dtype that holds +-floor(height_max) from
the sweep's height filter through the cache round trip to
``Enumeration.pluckers``, and every sum of rows names a dtype that holds
it; no int64 copy of the rows is made.  Completeness for
(n, e) = (4, 2) is cross-checked against an independent sweep of primitive
Plucker vectors on the quadric (see :func:`plucker_sweep_count_4_2`).

Scanning a real target gives the strictly-improving (height, psi_j) records
and a log-log fit of the exponent; :func:`_decide` makes every mp choice.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from mpmath import mp

from .angles import RealSubspace
from .exact import PluckerVec, annihilator, hodge_twist, wedge_terms
from .grassmann import _BLOCK_BYTES, RationalSubspace, from_plucker, refine_psi, relation_values

# first-vector candidates per shard; fixed, so a partial cache's `# swept <k>`
# names the same shards on every run
_SHARD_SIZE = 64
# names the cache layout; a cache of another version is rebuilt, never read
_CACHE_VERSION = "v3"
# the most rows, by Schmidt's estimate, of an enumeration's integer ball or
# output: (4,2,40) and (6,2,10), ~16M rows each and peaking near 0.5 and
# 1 GB, are admitted, and a larger one is refused before the ball is built
MAX_ESTIMATED_ROWS = 1 << 25


class CacheCorruption(ValueError):
    pass


def _height_cap_sq(height_max) -> int:
    if isinstance(height_max, float) and not math.isfinite(height_max):
        raise ValueError("height_max must be finite, got %r" % height_max)
    f = Fraction(height_max)
    if f < 1:
        raise ValueError("height_max must be >= 1")
    return (f * f).numerator // (f * f).denominator


def _signed_dtype(bound: int) -> np.dtype:
    """The narrowest signed dtype that holds +-bound.  A Plucker coordinate
    is at most the height, so an enumeration's rows fit _signed_dtype(
    isqrt(hmax_sq)); no difference or square is taken in that dtype."""
    return np.min_scalar_type(-bound - 1)


def _narrow(a: np.ndarray) -> np.ndarray:
    """a in the narrowest signed dtype that holds +-max|a|."""
    return a.astype(_signed_dtype(max(int(a.max(initial=0)), -int(a.min(initial=0)))), copy=False)


def _row_gcd(rows: np.ndarray) -> np.ndarray:
    """The gcd of each row, >= 0, taken column by column in the rows' dtype."""
    g = np.zeros(len(rows), dtype=rows.dtype)
    for col in rows.T:
        np.gcd(g, col, out=g)
    return g


def _unique_sorted(P: np.ndarray) -> np.ndarray:
    """The distinct rows of P in P's dtype, sorted by (norm^2, lexicographic).
    The norms are summed in int64, and the keys are sorted in the narrowest
    dtypes that hold them, which numpy radix-sorts up to 16 bits; the order
    is the same as on int64.  The rows are gathered once and compared
    column by column, so no N x C bool array is made."""
    Q = _narrow(P)
    h2 = _narrow(np.einsum("ij,ij->i", P, P, dtype=np.int64))
    S = P[np.lexsort(tuple(Q[:, c] for c in range(P.shape[1] - 1, -1, -1)) + (h2,))]
    del Q, h2
    first = np.zeros(len(S), dtype=bool)
    for col in S.T:
        first[1:] |= col[1:] != col[:-1]
    first[:1] = True
    return S if first.all() else S[first]


def _integer_ball(n: int, cap_sq: int) -> np.ndarray:
    """Primitive, sign-canonical integer vectors with 0 < |v|^2 <= cap_sq.

    Sorted by (norm^2, lexicographic), in the narrowest signed dtype that
    holds +-isqrt(cap_sq).  Sign-canonical means the first nonzero
    coordinate is positive, so each line appears once.  Each (leading index,
    lead) chunk is built and filtered in that dtype.
    """
    r = math.isqrt(cap_sq)
    dt = _signed_dtype(r)
    chunks = []
    for k in range(n):  # k leading zeros, then a positive coordinate
        for lead in range(1, r + 1):
            budget = cap_sq - lead * lead
            rng = np.arange(-math.isqrt(budget), math.isqrt(budget) + 1, dtype=dt)
            rest = np.zeros((1, 0), dtype=dt)
            for _ in range(n - k - 1):  # the coordinates after the lead, pruned one at a time
                rest = np.column_stack([np.repeat(rest, len(rng), axis=0), np.tile(rng, len(rest))])
                rest = rest[np.einsum("ij,ij->i", rest, rest, dtype=np.int64) <= budget]
            v = np.zeros((len(rest), n), dtype=dt)
            v[:, k] = lead
            v[:, k + 1:] = rest
            chunks.append(v[_row_gcd(v) == 1])
    return _unique_sorted(np.concatenate(chunks))


def _canonical_sign_rows(W: np.ndarray) -> np.ndarray:
    idx = np.argmax(W != 0, axis=1)
    s = np.sign(np.take_along_axis(W, idx[:, None], 1))[:, 0]
    return W * s[:, None]


@dataclass
class Enumeration:
    """The set of rational subspaces of dimension e and height <= height_max.

    ``pluckers`` holds one canonical primitive Plucker vector per row,
    sorted by (squared height, lexicographic coordinates), in a signed
    integer dtype that holds +-isqrt(height_max_sq): the narrowest one for
    an enumeration built or loaded by :func:`enumerate_subspaces` (int8 up
    to height 127).  A coordinate fits, but a sum or product of them may
    not, so callers widen the rows before any arithmetic on them.
    """

    n: int
    e: int
    height_max_sq: int
    pluckers: np.ndarray
    truncated: bool = False
    pair_count: int = 0

    def __len__(self) -> int:
        return len(self.pluckers)

    @functools.cached_property
    def heights_sq(self) -> np.ndarray:
        """The squared heights, summed in a dtype that holds height_max_sq
        and the rows' own; no N x C temporary."""
        dt = np.promote_types(self.pluckers.dtype, _signed_dtype(self.height_max_sq))
        return np.einsum("ij,ij->i", self.pluckers, self.pluckers, dtype=dt)

    def coords_at(self, i: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.pluckers[i])

    def key_at(self, i: int) -> str:
        return "%d %d : %s" % (self.n, self.e, " ".join(map(str, self.coords_at(i))))

    def subspace_at(self, i: int) -> RationalSubspace:
        return from_plucker(PluckerVec(self.n, self.e, self.coords_at(i)))

    def restrict(self, height_max) -> "Enumeration":
        cap = _height_cap_sq(height_max)
        if cap > self.height_max_sq:
            raise ValueError("cannot restrict to a larger height")
        if cap == self.height_max_sq:
            return self
        keep = self.heights_sq <= cap
        return Enumeration(self.n, self.e, cap, self.pluckers[keep],
                           truncated=self.truncated, pair_count=self.pair_count)


def _product_cap(e: int, hmax_sq: int) -> int:
    """Exact bound on |v_1|^2 ... |v_e|^2 over the bases the sweep needs.

    The product of squared norms is an integer, so flooring the rational
    bound loses nothing.
    """
    if e == 2:
        # reduced pair, |v1| <= |v2| and 2 |<v1, v2>| <= |v1|^2:
        # H^2 = |v1|^2 |v2|^2 - <v1, v2>^2 >= |v1|^2 |v2|^2 - |v1|^4 / 4 >= 3/4 |v1|^2 |v2|^2
        return 4 * hmax_sq // 3
    # Minkowski's second theorem in Hermite form: prod lam_i^2 <= gamma_3^3 H^2,
    # and the Hermite constant gamma_3 is 2^(1/3) (the e = 2 cap is gamma_2^2 = 4/3)
    return 2 * hmax_sq


def _sweep_shard(V, n2, lo, hi, e, prod_cap, hmax_sq):
    """Canonical rows of the subspaces with a swept basis whose first vector
    is V[a], lo <= a < hi, and the number of e-tuples wedged.

    Each later vector comes strictly later in V, so every set of vectors is
    tried once; the last one is vectorised.  V's dtype holds +-2 prod_cap,
    and every dot product, minor and wedge formed here, and every partial sum
    of one, is at most sqrt(prod_cap) in absolute value by Cauchy-Schwarz, so
    none wraps.  Norms are summed in int64, and the rows that pass the
    height filter are kept in the narrow row dtype.
    """
    n = V.shape[1]
    dt = _signed_dtype(math.isqrt(hmax_sq))
    out, pairs = [np.zeros((0, math.comb(n, e)), dtype=dt)], 0
    for a in range(lo, hi):
        v1, k1 = V[a], int(n2[a])
        if e == 2:
            prefixes = [(v1, a, k1)]
        else:  # v3 is no shorter than v2, so k1 k2^2 <= prod_cap
            stop = int(np.searchsorted(n2, math.isqrt(prod_cap // k1), side="right"))
            minors = V[a + 1:stop] @ annihilator(v1, n, 1)
            prefixes = [(minors[b - a - 1], b, k1 * int(n2[b])) for b in range(a + 1, stop)]
        for w, last, prod in prefixes:
            X = V[last + 1:int(np.searchsorted(n2, prod_cap // prod, side="right"))]
            if e == 2:  # Lagrange-Gauss reduced
                X = X[2 * np.abs(X @ v1) <= k1]
            pairs += len(X)
            W = X @ annihilator(w, n, e - 1)  # +-(v1 ^ ... ^ x); the sign is canonicalised
            W = W[np.einsum("ij,ij->i", W, W, dtype=np.int64) <= hmax_sq].astype(dt)
            out.append(W[_row_gcd(W) == 1])
    return _canonical_sign_rows(np.concatenate(out)), pairs


def _log_schmidt_count(n: int, e: int, height_sq: int) -> float:
    """The natural log of Schmidt's asymptotic count c(n, e) H^n of the
    rational e-subspaces of R^n with height H^2 <= height_sq, 1 <= e < n
    (W. M. Schmidt, Duke Math. J. 35, 1968), where with V(k) the volume of
    the unit k-ball and zeta(1) read as 1,
    c(n, e) = C(n, e) / n * prod over i <= e of V(n - e + i) zeta(i) / (V(i) zeta(n - e + i)).
    For e = 1 it counts the primitive sign-canonical vectors of norm^2 <=
    height_sq, an integer ball.  It is symmetric in e and n - e.  At desk
    heights the counts are 0.88-1.03 times it for lines and planes, and
    0.68-0.75 times it for e = 3."""
    def log_v(k):
        return k / 2 * math.log(math.pi) - math.lgamma(k / 2 + 1)

    log_c = math.log(math.comb(n, e) / n)
    for i in range(1, e + 1):
        log_c += (log_v(n - e + i) - log_v(i) - math.log(mp.zeta(n - e + i))
                  + (math.log(mp.zeta(i)) if i > 1 else 0.0))
    return log_c + n / 2 * math.log(height_sq)


def _shard_jobs(n: int, e: int, hmax_sq: int) -> list:
    """One call per shard of the (n, min(e, n - e)) sweep, in shard order;
    each returns (the canonical rows it emits in the narrow row dtype,
    tuples wedged).  Lines, hyperplanes and the whole space are one shard.
    An integer ball or output estimated above MAX_ESTIMATED_ROWS rows raises
    ValueError before anything is allocated."""
    f = min(e, n - e)  # the swept dimension; e > n - e is its Hodge dual
    dt = _signed_dtype(math.isqrt(hmax_sq))
    if f == 0:
        return [lambda: (np.ones((1, 1), dtype=dt), 0)]
    cap = hmax_sq if f == 1 else _product_cap(f, hmax_sq)  # the ball's norm^2
    ball, out = _log_schmidt_count(n, 1, cap), _log_schmidt_count(n, f, hmax_sq)
    if max(ball, out) > math.log(MAX_ESTIMATED_ROWS):
        raise ValueError("the (%d, %d) enumeration's integer ball and output are estimated at "
                         "10^%.1f and 10^%.1f rows, more than MAX_ESTIMATED_ROWS = %d"
                         % (n, e, ball / math.log(10), out / math.log(10), MAX_ESTIMATED_ROWS))
    if f == 1:
        def lines():
            V = _integer_ball(n, hmax_sq)
            return V, len(V)
        return [lines]
    V = _integer_ball(n, cap)
    n2 = np.einsum("ij,ij->i", V, V, dtype=np.int64)
    V = V.astype(_signed_dtype(2 * cap))
    m = int(np.count_nonzero(n2 ** f <= cap))  # candidates for the shortest basis vector
    return [functools.partial(_sweep_shard, V, n2, lo, min(lo + _SHARD_SIZE, m), f, cap, hmax_sq)
            for lo in range(0, m, _SHARD_SIZE)]


def enumerate_subspaces(n: int, e: int, height_max, *, cache_path: str | None = None,
                        max_pairs: int | None = None) -> Enumeration:
    """Every rational subspace of dimension e in R^n with height <= height_max.

    Needs min(e, n - e) <= 3.  The shards are swept one after another, in
    order; each one's rows are Hodge-twisted when e > n - e, deduplicated and
    sorted as it finishes, and one final pass merges these runs, so the
    result is sorted by (height^2, lexicographic key) and downstream
    consumers are independent of enumeration order.  ``max_pairs`` bounds
    the sweep: no shard starts once more than that many tuples have been
    wedged, and a result with a shard left unswept carries
    ``truncated=True`` (never silent).  With ``cache_path`` a complete cache
    is loaded, a partial one resumed after its last swept shard.
    """
    if not (1 <= e <= n):
        raise ValueError("need 1 <= e <= n")
    if min(e, n - e) > 3:
        raise ValueError("enumeration supports min(e, n - e) <= 3 (desk scale)")
    hmax_sq = _height_cap_sq(height_max)

    cached = None
    if cache_path is not None and os.path.exists(cache_path):
        cached = _load_cache(cache_path, n, e, hmax_sq)
        if cached is not None and cached[1] == cached[0]:
            return Enumeration(n, e, hmax_sq, cached[2])

    jobs = _shard_jobs(n, e, hmax_sq)  # builds the integer ball, so only after a complete load
    nshards = len(jobs)
    swept, runs, pairs = 0, [], 0
    if cached and cached[0] == nshards:
        swept, runs = cached[1], [cached[2]]
    while swept < nshards:
        shard, p = jobs[swept]()
        if e > n - e:
            shard = _canonical_sign_rows(hodge_twist(shard, n, e))
        runs.append(_unique_sorted(shard))
        del shard
        swept, pairs = swept + 1, pairs + p
        if max_pairs is not None and pairs > max_pairs:
            break
    del jobs, cached  # the integer ball, held by the shards
    rows = np.concatenate(runs)
    del runs
    rows = _unique_sorted(rows)  # merges the sorted runs
    if cache_path is not None:
        _write_cache(cache_path, n, e, hmax_sq, nshards, swept, rows)
    return Enumeration(n, e, hmax_sq, rows, truncated=swept < nshards, pair_count=pairs)


# ---------------------------------------------------------------------------
# cache format: a header naming the enumeration and its shard count, one line
# `n e : p_1 ... p_N` per subspace in the Enumeration's (height^2, lex) order,
# and a trailer: `# end` once every shard is swept, `# swept <k>` after the
# first k shards of a truncated sweep.
# ---------------------------------------------------------------------------

def _token_table(bound: int) -> np.ndarray:
    """The bytes of `" %d" % v` for v = 0, ..., bound, -bound, ..., -1, one
    row each, right-aligned and padded on the left with zero bytes: row v
    is v's token for v >= 0, and row v, counted from the end as in Python,
    for v < 0."""
    tokens = [b" %d" % v for v in itertools.chain(range(bound + 1), range(-bound, 0))]
    w = max(map(len, tokens))
    return np.frombuffer(b"".join(t.rjust(w, b"\0") for t in tokens), dtype=np.uint8).reshape(-1, w)


def _write_cache(path, n, e, hmax_sq, nshards, swept, rows):
    """Write the sorted rows of the first ``swept`` shards to a sibling temp
    file and move it over path, so a failed write leaves the old file whole.

    Each block of rows is gathered from :func:`_token_table`, between a
    prefix and a newline column, with the padding bytes dropped: the bytes
    of `"%d %d :" + " %d" * C + "\n"` row by row.  A block's padded text,
    its tokens, its mask and the bytes kept fill about ``_BLOCK_BYTES``."""
    table = _token_table(max(int(rows.max(initial=0)), -int(rows.min(initial=0))))
    prefix = np.frombuffer(b"%d %d :" % (n, e), dtype=np.uint8)
    width = len(prefix) + rows.shape[1] * table.shape[1] + 1
    step = max(1, _BLOCK_BYTES // (4 * width))
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"# subapprox-cache %s n=%d e=%d hmax_sq=%d shards=%d\n"
                     % (_CACHE_VERSION.encode(), n, e, hmax_sq, nshards))
            for lo in range(0, len(rows), step):
                block = rows[lo:lo + step]
                text = np.empty((len(block), width), dtype=np.uint8)
                text[:, :len(prefix)] = prefix
                text[:, len(prefix):-1] = np.take(table, block, axis=0).reshape(len(block), -1)
                text[:, -1] = ord("\n")
                fh.write(text[text != 0])
            fh.write(b"# end\n" if swept == nshards else b"# swept %d\n" % swept)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _validate_rows(rows: np.ndarray, n, e, hmax_sq, path):
    """Refuse rows, of any integer dtype, that no complete or partial sweep
    writes.  Every coordinate is bounded before a square is taken, squared
    heights are summed in a dtype that holds C of those squares, and no
    N x C integer temporary is made."""
    if len(rows) == 0:
        return
    # |p_i| <= |p| <= isqrt(hmax_sq); no sweep reaches a coordinate whose
    # square, summed over a row, leaves int64
    bound = math.isqrt(min(hmax_sq, np.iinfo(np.int64).max // rows.shape[1]))
    if int(rows.max()) > bound or int(rows.min()) < -bound:
        raise CacheCorruption("cached subspace out of height range in %s" % path)
    dt = np.promote_types(rows.dtype, _signed_dtype(rows.shape[1] * bound * bound))
    h2 = np.einsum("ij,ij->i", rows, rows, dtype=dt)
    if h2.max() > hmax_sq or h2.min() < 1:
        raise CacheCorruption("cached subspace out of height range in %s" % path)
    if any(v.any() for v in relation_values(rows, n, e)):
        raise CacheCorruption("cached vector fails the Plucker relations in %s" % path)
    if np.any(_row_gcd(rows) != 1):
        raise CacheCorruption("cached vector is not primitive in %s" % path)
    if np.any(np.take_along_axis(rows, np.argmax(rows != 0, axis=1)[:, None], 1) < 0):
        raise CacheCorruption("cached vector is not sign-canonical in %s" % path)
    prev, succ = rows[:-1], rows[1:]
    first = np.argmax(prev != succ, axis=1)[:, None]  # 0 for a repeated row
    lex_up = np.take_along_axis(prev, first, 1) < np.take_along_axis(succ, first, 1)
    dh = np.diff(h2)
    if np.any((dh < 0) | ((dh == 0) & ~lex_up[:, 0])):
        raise CacheCorruption("cached rows are not strictly increasing in (height, key) in %s" % path)


_HEADER = re.compile(rb"# subapprox-cache (v\d+) n=(\d+) e=(\d+) hmax_sq=(\d+) shards=(\d+)")
_TRAILER = re.compile(rb"end|swept (\d+)")
_LINE_BYTES = 256  # read for the header line, and from the end for the trailer


def _load_cache(path, n, e, hmax_sq):
    """(shard count, shards swept, validated rows) of the cache at path, or
    None when it holds another enumeration or is of another version.

    The header line and the trailer, in the last ``_LINE_BYTES``, are read
    first.  The lines between them are counted in blocks of
    ``_BLOCK_BYTES``, so the rows are allocated once, in the row dtype of
    hmax_sq.  Then they are read again in blocks of ``_BLOCK_BYTES`` cut
    after their last newline, and each block is parsed by one loadtxt call
    straight from the bytes read, dropped, and validated together with the
    row before it, which its first row must follow.  So a load holds the
    rows and one block, never the whole file.  Every line must start with
    `n e : ` and hold C(n, e) + 2 spaces, so a long row is refused, as is a
    line longer than a block (a row takes under 1 KiB); a coordinate
    outside the row dtype is a malformed row."""
    ncols, dt = math.comb(n, e), _signed_dtype(math.isqrt(hmax_sq))
    prefix = b"%d %d : " % (n, e)
    with open(path, "rb") as fh:
        header = _HEADER.fullmatch(fh.readline(_LINE_BYTES).strip())
        if header is None:
            raise CacheCorruption("not a subapprox cache: %s" % path)
        version, *fields = header.groups()
        *key, nshards = map(int, fields)
        if version.decode() != _CACHE_VERSION or key != [n, e, hmax_sq]:
            return None
        start = fh.tell()
        end = max(start - 1, fh.seek(0, os.SEEK_END) - _LINE_BYTES)  # at the header's newline or later
        fh.seek(end)
        tail = fh.read()
        at = tail.rfind(b"\n# ")  # the newline before the trailer
        trailer = _TRAILER.fullmatch(tail[at + 3:].strip()) if at >= 0 else None
        swept = int(trailer[1] or nshards) if trailer else None
        if swept is None or swept > nshards:
            raise CacheCorruption("cache %s does not end in `# end` or `# swept <k>`, k <= %d"
                                  % (path, nshards))
        stop = end + at + 1
        fh.seek(start)
        count = sum(fh.read(min(_BLOCK_BYTES, stop - pos)).count(b"\n")
                    for pos in range(start, stop, _BLOCK_BYTES))
        rows, lo = np.empty((count, ncols), dtype=dt), 0
        while start < stop:
            fh.seek(start)
            text = fh.read(min(_BLOCK_BYTES, stop - start))
            cut = text.rfind(b"\n") + 1  # whole lines; the bytes after cut start the next block
            if not cut:
                raise CacheCorruption("malformed row in %s: longer than %d bytes" % (path, _BLOCK_BYTES))
            k = text.count(b"\n", 0, cut)
            if text.startswith(prefix) + text.count(b"\n" + prefix, 0, cut) != k:
                raise CacheCorruption("line in %s is not a `%d %d :` row" % (path, n, e))
            if text.count(b" ", 0, cut) != k * (ncols + 2):
                raise CacheCorruption("malformed row in %s: not %d integers" % (path, ncols))
            try:
                rows[lo:lo + k] = np.loadtxt(io.BytesIO(text), dtype=dt, delimiter=" ",
                                             usecols=range(3, 3 + ncols), comments=None,
                                             ndmin=2, max_rows=k)
            except ValueError as err:
                raise CacheCorruption("malformed row in %s: %s" % (path, err)) from None
            del text
            _validate_rows(rows[max(lo - 1, 0):lo + k], n, e, hmax_sq, path)
            start, lo = start + cut, lo + k
    if lo != count:
        raise CacheCorruption("cache %s changed while it was read" % path)
    return nshards, swept, rows


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

    Counted exactly in int64 by a join over coordinate pairs.  C[p, s] is the
    number of pairs (x, y) with x y = p and x^2 + y^2 <= s, and p3 p4 =
    p2 p5 - p1 p6, so the count is the sum of C[p2 p5 - p1 p6, cap_sq -
    |(p1, p6)|^2 - |(p2, p5)|^2] over the pairs (p1, p6) and (p2, p5), less
    the zero tuple.  Those two pairs are grouped into cells of equal
    (product, norm^2), so the join runs over cells weighted by their sizes.
    """
    r = math.isqrt(cap_sq)
    h = cap_sq // 2  # |x y| <= (x^2 + y^2) / 2, so products lie in [-h, h]
    xs = np.arange(-r, r + 1, dtype=np.int64)
    X, Y = np.meshgrid(xs, xs, indexing="ij", sparse=True)
    S = X * X + Y * Y
    keep = S <= cap_sq
    C = np.zeros((2 * h + 1, cap_sq + 1), dtype=np.int64)  # rows: product + h
    np.add.at(C, ((X * Y)[keep] + h, S[keep]), 1)
    p, s = np.nonzero(C)  # the cells, and their sizes
    w = C[p, s]
    np.cumsum(C, axis=1, out=C)
    dp = p[None, :] - p[:, None] + h  # row of p2 p5 - p1 p6
    ds = cap_sq - s[:, None] - s[None, :]
    ok = (dp >= 0) & (dp <= 2 * h) & (ds >= 0)
    return int((w[:, None] * w[None, :])[ok] @ C[dp[ok], ds[ok]]) - 1


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
    truncated: bool = False
    rational_target: bool = False
    scanned: int = 0


@dataclass(frozen=True)
class ExponentEstimate:
    beta_hat: float
    fit_residual: float


_U = 2.0 ** -53  # unit roundoff of float64


def _wedge_cols(x: np.ndarray, w: np.ndarray, n: int, k: int) -> np.ndarray:
    """x_i ^ w in float64 for each row x_i of x and each column w of the
    grade-k array w, shape (len(x), C(n, k + 1), w.shape[1]).  The table
    :func:`~subapprox.exact.wedge_terms` is viewed as (k + 1, C(n, k + 1))
    arrays: (x ^ w)_T is the sum over p of sign[p, T] x[idx[p, T]] w[src[p, T]]."""
    idx, sign, src = (c.reshape(-1, k + 1).T for c in wedge_terms(n, k)[1:])
    coef = (sign * x[:, idx])[..., None]  # the eta-linear table, (len(x), k + 1, C(n, k + 1), 1)
    out = coef[:, 0] * w[src[0]]
    tmp = np.empty_like(out)
    for p in range(1, k + 1):
        out += np.multiply(coef[:, p], w[src[p]], out=tmp)
    return out


def _sum_sq(rows: np.ndarray) -> np.ndarray:
    """The sum of the squares of the rows, column by column, in row order."""
    acc = np.zeros(rows.shape[1:])
    tmp = np.empty_like(acc)
    for r in rows:
        acc += np.multiply(r, r, out=tmp)
    return acc


def _sqrt_err(x: np.ndarray, dx):
    """sqrt(max(x, 0)) rounded to float64, and a bound on its distance from
    sqrt(x') for every x' >= 0 within dx > 0 of x: |sqrt(x+) - sqrt(x')| is
    at most sqrt(dx), and at most dx / sqrt(x+), to which the rounding adds u."""
    r = np.sqrt(np.maximum(x, 0))
    with np.errstate(divide="ignore"):
        err = dx / r
    np.minimum(err, np.sqrt(dx), out=err)
    err += _U * r
    return r, err


def _float_psi(a: RealSubspace, etas, n: int, e: int, j: int):
    """(psi, delta): float64 psi_j(A, B) for the (n, e) subspaces B with
    Plucker rows ``etas`` (integers or their float64 roundings), and a bound
    on |psi - psi_j| against the mp value, row by row.

    Let x_i be A's orthonormal basis, d = dim A and t = min(d, e).  eta is
    decomposable, so eta -> x ^ eta is |eta| times an isometry on B^perp and
    0 on B: |x_i ^ eta| = |eta| dist(x_i, B).  So the d x C(n, e + 1) matrix
    K = [x_i ^ eta] / |eta| has the singular values of P_B^perp on A, which
    are sin t_1, ..., sin t_t and d - t ones, and their product is
    s = |x_1 ^ (x_2 ^ ... (x_d ^ eta))| / |eta|.  Rows run in batches of
    about ``_BLOCK_BYTES``, and every value is computed column by column in
    one fixed order, so no row's bits depend on the batch.

    * t = 1 (d = 1 or lines): psi_1 = s.
    * d = 2 <= e: T = |K|^2 = sin^2 t_1 + sin^2 t_2, so T +- 2 s =
      (sin t_2 +- sin t_1)^2, psi_2 = (sqrt(T + 2 s) + sqrt(T - 2 s)) / 2
      and psi_1 = s / psi_2 (0 where psi_2 is 0).
    * d >= 3, e >= 2: psi_j is the j-th smallest singular value of K, the
      d - m of a K with m < d columns being 0.

    The bound, with u = 2^-53, N = C(n, e), m = C(n, e + 1), M = C(n, e + d),
    a computed value marked ^ and first-order terms (Higham, ch. 3):

    * X, A's mp basis rounded to float64, has rows within e_x = 2 u of an
      exactly orthonormal basis of A (u for the rounding, and the mp
      basis's own error 2^-prec <= 2^-64 at n <= 7).  eta^ is within u |eta|
      of eta (going-up keys can exceed 2^53), and |eta^|^2, a sum of N
      rounded squares, within (N + 2) u |eta|^2 of |eta|^2.
    * x ^ w for |x| <= 1 and any multivector w is a contraction, and the
      k + 1 terms of each coordinate of grade k + 1 are within gamma_(k+1)
      sum |x_i| |w_S| of their sum, which is at most (k + 1) sqrt(n - k) u |w|
      in norm by Cauchy-Schwarz (each S lies in n - k supersets).  So each
      row x_i ^ eta^ of K^ |eta| is within e_K |eta| of exact, with
      e_K = e_x + (1 + (e + 1) sqrt(n - e)) u, and each further wedge adds
      e_x + (k + 1) sqrt(n - k) u: the wedge of the d vectors is within
      e_s |eta|.  s^ sums M rounded squares, divides by |eta^|^2 and takes
      the root, so it is within ds = e_s + (M + N + 5) u s^ / 2 of s.
    * d = 2: T^ sums 2 m rounded squares and divides by |eta^|^2, so it is
      within dT = 2 sqrt(2 T^) e_K + 2 e_K^2 + (2 m + N + 3) u T^ of T.
      T^ +- 2 s^ is within dq = dT + 2 ds + u (T^ + 2 s^) of
      (sin t_2 +- sin t_1)^2 >= 0, and :func:`_sqrt_err` gives each root
      within e_+-; psi_2 is within d2 = (e_+ + e_-) / 2 + u psi_2^.  Near a
      double root (t_1 ~ t_2) this is about sqrt(dq).  For psi_1 = s / psi_2,
      s^ / psi_2^ - psi_1 = (s^ - s + psi_1 (psi_2 - psi_2^)) / psi_2^, and
      the division adds u s^, so where psi_2^ > d2, d1 <= (ds + psi_1^ d2 +
      u s^) / (psi_2^ - d2); always 0 <= psi_1 <= psi_2 <= psi_2^ + d2, so
      d1 <= max(psi_1^, psi_2^ + d2).
    * d >= 3: ||K^ - K|| <= sqrt(d) e_K, and by Weyl's inequality the
      singular values move by no more.  The SVD is backward stable: its
      values are those of a matrix within p u ||K^|| <= p u sqrt(d) of K^.
      p is the gamma~ of Higham, ch. 19, whose constant the literature (and
      LAPACK's p(m, n)) leaves unspecified; it is assumed to be 4 d m here,
      for the divide-and-conquer gesdd that numpy calls.  This is the one
      assumed constant, and no d <= 2 route depends on it.  Dividing by
      |eta^| adds (N / 2 + 2) u.

    Doubling the first-order bound covers the second-order terms and the
    2^-prec error of the mp value it is compared with.  Rows whose bound is
    wide (a near-double root, or A and B nearly equal) simply become mp
    candidates.
    """
    X = np.array([[float(x) for x in row] for row in a.basis])
    d = len(X)
    N, m = math.comb(n, e), math.comb(n, e + 1)
    e_x = 2 * _U
    e_k = e_x + (1 + (e + 1) * math.sqrt(n - e)) * _U
    psi, delta = np.empty(len(etas)), np.empty(len(etas))
    batch = max(1, _BLOCK_BYTES // (8 * (N + 3 * d * m + 16)))
    for lo in range(0, len(etas), batch):
        rows = slice(lo, lo + batch)
        eta = np.ascontiguousarray(etas[rows].T, dtype=np.float64)  # one column per B
        norm_sq = _sum_sq(eta)
        if d >= 3 and e >= 2:
            K = _wedge_cols(X, eta, n, e).transpose(2, 0, 1)
            sv = np.linalg.svd(K, compute_uv=False)  # descending, min(d, m) values
            psi[rows] = sv[:, d - j] / np.sqrt(norm_sq) if d - j < m else 0.0
            delta[rows] = 2 * (math.sqrt(d) * (e_k + 4 * d * m * _U) + (N / 2 + 2) * _U)
            continue
        K = _wedge_cols(X if e > 1 else X[-1:], eta, n, e)  # lines need only x_d ^ eta
        w, e_s = K[-1], e_k  # x_d ^ eta, then wedged with x_(d-1), ..., x_1
        for i in range(d - 2, -1, -1):
            k = e + d - 1 - i
            w = _wedge_cols(X[i:i + 1], w, n, k)[0]
            e_s += e_x + (k + 1) * math.sqrt(max(n - k, 0)) * _U
        s = np.sqrt(_sum_sq(w) / norm_sq)
        c_s = (len(w) + N + 5) / 2 * _U  # ds = e_s + c_s s
        if d == 1 or e == 1:
            psi[rows] = s
            delta[rows] = 2 * (e_s + c_s * s)
            continue
        T = _sum_sq(K.reshape(-1, K.shape[-1]))
        T /= norm_sq
        # dq = dT + 2 ds + u (T + 2 s)
        dq = (2 * math.sqrt(2) * e_k) * np.sqrt(T) + ((2 * m + N + 4) * _U) * T
        dq += (2 * c_s + 2 * _U) * s + (2 * e_k * e_k + 2 * e_s)
        r_plus, err_plus = _sqrt_err(T + 2 * s, dq)
        r_minus, err_minus = _sqrt_err(T - 2 * s, dq)
        psi2 = (r_plus + r_minus) / 2
        d2 = (err_plus + err_minus) / 2 + _U * psi2
        if j == 2:
            psi[rows], delta[rows] = psi2, 2 * d2
            continue
        psi1 = np.divide(s, psi2, out=np.zeros_like(s), where=psi2 > 0)
        gap = psi2 - d2
        d1 = np.divide(e_s + (c_s + _U) * s + psi1 * d2, gap, out=np.full_like(gap, np.inf),
                       where=gap > 0)
        np.minimum(d1, np.maximum(psi1, psi2 + d2), out=d1)
        psi[rows], delta[rows] = psi1, 2 * d1
    return psi, delta


def _decide(blocks, exact) -> list:
    """The strictly decreasing run of group minima of values known in float64
    to lie in [lo, hi] row by row, decided in mp.

    ``blocks`` yields (lo, hi, starts) for consecutive runs of whole groups;
    a block's groups begin at its rows ``starts`` (the first at 0), and rows
    are counted over all blocks.  Row i is refined unless lo_i > hi_j for a
    row j of its group or an earlier one: then j is certainly smaller.
    ``exact(i)`` gives (value, key, *payload); a group's least (value, key)
    joins the run iff its value is below the run's last, and the run ends
    after a value of 0, drawing no further block.  So the run is the one
    over every row, and ties go to the smaller key.  Only the least hi so
    far and the run pass from block to block, so the run does not depend on
    where the blocks are cut.
    """
    run, least, offset = [], None, 0
    for lo, hi, starts in blocks:
        starts = np.asarray(starts)
        ends = np.append(starts[1:], len(hi))
        group_hi = np.minimum.reduceat(hi, starts)
        if least is not None:  # the least hi of the earlier blocks
            group_hi[0] = min(group_hi[0], least)
        bound = np.minimum.accumulate(group_hi)
        least = bound[-1]
        # only the groups with a kept row, each sliced on its own: no row-length temporary
        for g in np.flatnonzero(np.minimum.reduceat(lo, starts) <= bound).tolist():
            s = int(starts[g])
            kept = np.flatnonzero(lo[s:ends[g]] <= bound[g])
            best = min((exact(offset + s + i) for i in kept.tolist()), key=lambda r: r[:2])
            if not run or best[0] < run[-1][0]:
                run.append(best)
                if best[0] == 0:
                    return run
        offset += len(hi)
    return run


def scan_target(a: RealSubspace, e: int, j: int, height_max, *,
                enumeration: Enumeration | None = None) -> ScanResult:
    """Strictly-improving record sequence of psi_j(A, B) over heights <= height_max.

    B enters the sequence iff its psi_j beats every subspace of lower or
    equal height; exact ties keep the lexicographically smaller key.
    :func:`_decide` screens the height groups with the float psi and its
    error bound and decides the kept rows at A's precision.  The groups are
    screened block by block, each block whole groups of about
    ``_BLOCK_BYTES`` of float bounds (one group if it is larger), so a scan
    holds the rows, their squared heights and one block of floats, and no
    block after a rational hit is screened.  :func:`refine_psi` returns a
    psi_j below the zero tolerance as 0, so a B that meets A ends the scan
    as a rational hit.
    """
    if j < 1 or j > min(a.dim, e):
        raise ValueError("need 1 <= j <= min(dim A, e)")
    if enumeration is None:
        enumeration = enumerate_subspaces(a.n, e, height_max)
    if enumeration.n != a.n or enumeration.e != e:
        raise ValueError("enumeration is for (n=%d, e=%d), target needs (n=%d, e=%d)"
                         % (enumeration.n, enumeration.e, a.n, e))
    enum = enumeration.restrict(height_max)
    result = ScanResult(records=[], truncated=enum.truncated, scanned=len(enum))
    if len(enum) == 0:
        return result

    h2 = enum.heights_sq
    size = max(1, _BLOCK_BYTES // 24)  # rows whose psi, delta and hi fill a block

    def blocks():
        lo = 0
        while lo < len(h2):
            hi = min(lo + size, len(h2))
            if hi < len(h2):  # back to the start of hi's group, or on to the end of lo's
                cut = int(np.searchsorted(h2, h2[hi]))
                hi = cut if cut > lo else int(np.searchsorted(h2, h2[lo], side="right"))
            low, delta = _float_psi(a, enum.pluckers[lo:hi], enum.n, enum.e, j)  # psi, made its lower end
            high = low + delta
            low -= delta
            del delta
            g = h2[lo:hi]
            yield low, high, np.flatnonzero(np.r_[True, g[1:] != g[:-1]])  # one group per height
            lo = hi

    def exact(i):
        psi, ph = refine_psi(a, enum.subspace_at(i), j)
        return psi, enum.coords_at(i), ph, i

    with mp.workprec(a.precision_bits):
        run = _decide(blocks(), exact)
        result.records = [ApproximationRecord(enum.key_at(i), mp.sqrt(mp.mpf(int(h2[i]))), psi, ph, j)
                          for psi, _, ph, i in run]
    result.rational_target = run[-1][0] == 0
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
    return ExponentEstimate(float(-slope), float(np.sqrt(np.mean(resid ** 2))))
