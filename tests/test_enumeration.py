import itertools
import math
import os
import random
import re

import numpy as np
import pytest
from mpmath import mp

from subapprox.angles import RealSubspace
from subapprox.enumeration import (
    CacheCorruption,
    Enumeration,
    _decide,
    _ball,
    _integer_ball,
    _quadric_solutions_4_2,
    _sweep,
    _unique_sorted,
    enumerate_subspaces,
    estimate_exponent,
    plucker_sweep_count_4_2,
    scan_target,
    ApproximationRecord,
)
from subapprox.exact import kernel_int, laplace_sign, subsets
from subapprox.grassmann import from_generators
from oracles import hermite_triple_sweep, plucker_relations_check


def test_lines_in_plane_height_1():
    enum = enumerate_subspaces(2, 1, 1)
    assert [enum.coords_at(i) for i in range(len(enum))] == [(0, 1), (1, 0)]


def test_lines_in_plane_height_2():
    enum = enumerate_subspaces(2, 1, 2)
    got = {enum.coords_at(i) for i in range(len(enum))}
    assert got == {(0, 1), (1, 0), (1, 1), (1, -1)}


def test_lines_count_matches_brute_force():
    # primitive sign-canonical vectors with |v| <= 10 in Z^2, counted directly
    cnt = 0
    for x in range(-10, 11):
        for y in range(-10, 11):
            if (x, y) == (0, 0) or x * x + y * y > 100:
                continue
            if math.gcd(x, y) != 1:
                continue
            if x > 0 or (x == 0 and y > 0):
                cnt += 1
    enum = enumerate_subspaces(2, 1, 10)
    assert len(enum) == cnt


@pytest.mark.parametrize("hmax", [127, 128, 130])
def test_lines_at_the_row_dtype_edges(hmax):
    # rows are int8 up to height 127 and int16 from 128 on, from the sweep
    # to the result; the norms, the order and heights_sq, whose squares
    # reach hmax^2, must not wrap in either
    want = sorted(((x, y) for x in range(hmax + 1) for y in range(-hmax, hmax + 1)
                   if (x > 0 or y > 0) and x * x + y * y <= hmax * hmax and math.gcd(x, y) == 1),
                  key=lambda v: (v[0] ** 2 + v[1] ** 2, v))
    enum = enumerate_subspaces(2, 1, hmax)
    assert enum.pluckers.dtype == (np.int8 if hmax <= 127 else np.int16)
    assert enum.pluckers.tolist() == [list(v) for v in want]
    assert enum.heights_sq.tolist() == [x * x + y * y for x, y in want]


def test_coordinate_planes_height_1():
    enum = enumerate_subspaces(4, 2, 1)
    assert len(enum) == 6
    for i in range(6):
        coords = enum.coords_at(i)
        assert sum(abs(c) for c in coords) == 1


def test_every_emitted_subspace_is_decomposable():
    enum = enumerate_subspaces(4, 2, 5)
    assert len(enum) == 3194  # cross-checked against the quadric sweep
    P = enum.pluckers.astype(np.int64)  # widened before any arithmetic
    rel = P[:, 0] * P[:, 5] - P[:, 1] * P[:, 4] + P[:, 2] * P[:, 3]
    assert not np.any(rel)
    g = np.gcd.reduce(np.abs(P), axis=1)
    assert np.all(g == 1)


def test_counts_match_plucker_sweep():
    for hmax in (3, 5, 8):
        enum = enumerate_subspaces(4, 2, hmax)
        assert len(enum) == plucker_sweep_count_4_2(hmax)


def test_plucker_sweep_against_brute_force():
    # every integer 6-tuple up to norm 4, filtered by the quadric relation
    r = 4
    xs = np.arange(-r, r + 1)
    g = np.meshgrid(*([xs] * 6), indexing="ij")
    V = np.stack([x.ravel() for x in g], 1)
    n2 = (V * V).sum(1)
    V = V[(n2 > 0) & (n2 <= r * r)]
    rel = V[:, 0] * V[:, 5] - V[:, 1] * V[:, 4] + V[:, 2] * V[:, 3]
    V = V[rel == 0]
    gg = np.gcd.reduce(np.abs(V), axis=1)
    expected = int((gg == 1).sum()) // 2
    assert plucker_sweep_count_4_2(4) == expected


def test_quadric_solutions_against_brute_force():
    # the raw count, imprimitive tuples included: every nonzero integer
    # 6-tuple of norm^2 <= cap_sq on p1 p6 - p2 p5 + p3 p4 = 0
    xs = np.arange(-3, 4)
    V = np.stack([x.ravel() for x in np.meshgrid(*([xs] * 6), indexing="ij")], 1)
    V = V[V[:, 0] * V[:, 5] - V[:, 1] * V[:, 4] + V[:, 2] * V[:, 3] == 0]
    n2 = (V * V).sum(1)
    for cap_sq in range(1, 10):
        assert _quadric_solutions_4_2(cap_sq) == int(((n2 > 0) & (n2 <= cap_sq)).sum())


def test_enumeration_5_2():
    enum = enumerate_subspaces(5, 2, 3)
    assert all(plucker_relations_check(enum.coords_at(i), 5, 2) for i in range(len(enum)))
    # coordinate planes of R^5 all have height 1
    h1 = (enum.heights_sq == 1).sum()
    assert h1 == 10


def test_enumeration_e3_round_trip():
    enum = enumerate_subspaces(4, 3, 2)
    assert len(enum) > 4
    for b in map(enum.subspace_at, range(len(enum))):
        assert b.height_sq <= 4
        assert plucker_relations_check(b.plucker.coords, 4, 3)
    # hyperplanes in R^4 correspond to lines by duality: counts must agree
    lines = enumerate_subspaces(4, 1, 2)
    assert len(enum) == len(lines)


# squared Minkowski constants (2^e / V_e)^2; the product bound of the reference sweep
_MINK_SQ = {1: 1.0, 2: 16.0 / math.pi ** 2, 3: 36.0 / math.pi ** 2}


def _enumerate_generic(n: int, e: int, hmax_sq: int):
    """Reference sweep (pure python, exact wedges): the oracle the vectorized
    routes are tested against.  Returns the rows, unsorted, and the number of
    e-tuples wedged.  Each prefix's wedge is carried down the recursion: the
    (k + 1)-minors of (u_1, ..., u_k, v) are the Laplace expansions along v
    of the k-minors of the u's."""
    from subapprox.enumeration import _integer_ball
    from subapprox.exact import normalize_plucker, subset_index

    prod_cap = int(_MINK_SQ[e] * hmax_sq * (1 + 1e-9)) + 1
    V = _integer_ball(n, prod_cap).astype(np.int64)  # widened before any arithmetic
    n2 = [int(x) for x in (V * V).sum(1)]
    vecs = [tuple(int(x) for x in v) for v in V]
    expand = [[[((-1) ** (k + p), S[p], subset_index(n, k)[S[:p] + S[p + 1:]]) for p in range(k + 1)]
               for S in subsets(n, k + 1)] for k in range(e)]
    keys = set()
    pairs = 0

    def rec(start, k, wedge, prod):
        nonlocal pairs
        if k == e:
            pairs += 1
            g = math.gcd(*wedge)  # 0 for dependent vectors
            if g and sum(x * x for x in wedge) <= hmax_sq * g * g:
                keys.add(normalize_plucker(wedge, n, e).coords)
            return
        coefs = [[(c, sign * wedge[j]) for sign, c, j in terms if wedge[j]] for terms in expand[k]]
        for i in range(start, len(vecs)):
            p = prod * n2[i]
            if p > prod_cap:
                break
            v = vecs[i]
            rec(i, k + 1, [sum(v[c] * a for c, a in terms) for terms in coefs], p)

    rec(0, 0, [1], 1)
    P = np.array(sorted(keys), dtype=np.int64) if keys else np.zeros((0, math.comb(n, e)), dtype=np.int64)
    return P, pairs


def test_enumeration_e3_matches_reference_sweep():
    # the reduced-triple sweep, and its Hodge dual, row for row against the
    # Hermite-capped sweep of every increasing triple (the pure-python
    # oracle takes minutes here)
    for n, e, hmax in ((6, 3, 3), (7, 3, 2), (7, 4, 2)):
        fast = enumerate_subspaces(n, e, hmax)
        assert np.array_equal(fast.pluckers, hermite_triple_sweep(n, e, hmax * hmax))


def test_enumeration_e3_duality_with_planes():
    # 3-subspaces of R^5 pair with planes under duality: counts and height
    # multisets agree
    e53 = enumerate_subspaces(5, 3, 3)
    e52 = enumerate_subspaces(5, 2, 3)
    assert len(e53) == len(e52) == 2490
    assert np.array_equal(np.sort(e53.heights_sq), np.sort(e52.heights_sq))


@pytest.mark.parametrize("n, e, hmax", [(4, 2, 4), (4, 2, 6), (5, 2, 3), (5, 2, 4), (6, 2, 2), (6, 3, 1),
                                         (6, 3, 2), (4, 3, 3), (5, 3, 2)])
def test_sweep_matches_reference_sweep(n, e, hmax):
    # the reduced plane sweep, the reduced-triple sweep and the Hodge duals
    # of line and plane sweeps, row for row against the oracle
    from subapprox.enumeration import _unique_sorted

    fast = enumerate_subspaces(n, e, hmax)
    ref, _ = _enumerate_generic(n, e, hmax * hmax)
    assert np.array_equal(fast.pluckers, _unique_sorted(ref))


def _blocks(n, e, hmax):
    """(rows, tuples wedged, next first vector) of each block of the
    (n, e, hmax) sweep, in order, the rows Hodge-twisted as
    :func:`enumerate_subspaces` twists them."""
    from subapprox.enumeration import _canonical_sign_rows
    from subapprox.exact import hodge_twist

    V, n2, m = _ball(n, e, hmax * hmax)
    return [(_canonical_sign_rows(hodge_twist(rows, n, e)) if e > n - e else rows, p, k)
            for rows, p, k in _sweep(V, n2, m, min(e, n - e), hmax * hmax, 0)]


def _block_rows(n, e, hmax):
    """Every row the blocks of the (n, e, hmax) sweep emit, in order."""
    return np.concatenate([rows for rows, _, _ in _blocks(n, e, hmax)])


@pytest.mark.parametrize("n, e, hmax", [(4, 2, 14), (5, 2, 6), (3, 2, 20), (5, 3, 3)])
def test_plane_shards_emit_each_subspace_once(n, e, hmax):
    # the tie rule keeps one reduced basis of each plane, so the rows the
    # blocks of the sweep emit are the enumeration's, none repeated
    rows = _block_rows(n, e, hmax)
    assert len(np.unique(rows, axis=0)) == len(rows) == len(enumerate_subspaces(n, e, hmax))


@pytest.mark.parametrize("basis", [
    [(1, 1, 0, 0), (1, 0, 1, 0)],  # hexagonal: three reduced bases, |v1| = |v2| = |v1 - v2|
    [(1, 1, 0, 0), (1, 0, 1, 1)],  # 2 <v1, v2> = |v1|^2 < |v2|^2: two reduced bases
])
def test_boundary_plane_is_emitted_once(basis):
    from subapprox.exact import normalize_plucker, wedge_plucker

    key = normalize_plucker(wedge_plucker(basis), 4, 2).coords
    rows = _block_rows(4, 2, 3)
    assert int(np.all(rows == np.array(key), axis=1).sum()) == 1


def test_plane_sweep_wedges_about_one_pair_per_plane():
    # the k2 stop and the height filter before the wedge; stopping at
    # 4 H^2 / (3 k1) and filtering after the wedge took 480,260 pairs here
    enum = enumerate_subspaces(4, 2, 14)
    assert enum.pair_count == 258868 and len(enum) == 235946
    assert enum.pair_count / len(enum) <= 1.15


def test_e3_sweep_is_bounded_by_the_hermite_cap():
    # a basis attaining the successive minima has prod |v_i|^2 <= gamma_3^3 H^2
    # = 2 H^2; Minkowski's volume form, 73/20 H^2, swept 432,120 triples here,
    # and wedging every increasing triple under the Hermite cap 66,960.  Only
    # the reduced triples of height <= H are wedged and counted
    from subapprox.enumeration import _product_cap

    assert _product_cap(3, 4) == 8
    assert enumerate_subspaces(6, 3, 2).pair_count == 3940


def test_e3_sweep_wedges_at_most_three_triples_per_subspace():
    # wedging every increasing triple under the Hermite cap took 1,110,060
    # triples here, 69 a subspace
    enum = enumerate_subspaces(6, 3, 3)
    assert len(enum) == 16000
    assert enum.pair_count <= 3 * len(enum)


@pytest.mark.parametrize("n, e, hmax", [(6, 3, 3), (7, 3, 2)])
def test_e3_shards_emit_at_most_three_rows_per_subspace(n, e, hmax):
    # a 3-subspace comes once for each of its reduced triples, which differ
    # only on the boundary of the reduction conditions; the final sort drops
    # the repeats
    rows = _block_rows(n, e, hmax)
    enum = enumerate_subspaces(n, e, hmax)
    assert len(np.unique(enum.pluckers, axis=0)) == len(enum)
    assert len(np.unique(rows, axis=0)) == len(enum)
    assert len(rows) <= 3 * len(enum)


@pytest.mark.parametrize("n, e, hmax, low, high", [
    (4, 2, 12, 0.88, 1.0), (5, 2, 6, 0.88, 1.0), (4, 3, 6, 1.0, 1.05), (6, 3, 2, 0.6, 0.8)])
def test_schmidt_estimate_is_near_the_counts(n, e, hmax, low, high):
    from subapprox.enumeration import _log_schmidt_count

    est = math.exp(_log_schmidt_count(n, min(e, n - e), hmax * hmax))
    assert low <= len(enumerate_subspaces(n, e, hmax)) / est <= high


def test_preflight_admits_16m_rows_and_refuses_more(monkeypatch):
    # (4,2,40) and (6,2,10), and (6,4,10) through its Hodge dual, get as far
    # as building their integer ball; a larger plane, line or e = 3 sweep is
    # refused before it
    import subapprox.enumeration as enumeration

    def ball(n, cap_sq):
        raise LookupError("the integer ball is built")

    monkeypatch.setattr(enumeration, "_integer_ball", ball)
    for n, e, hmax in ((4, 2, 40), (6, 2, 10), (6, 4, 10), (4, 1, 60), (6, 3, 6)):
        with pytest.raises(LookupError):
            enumerate_subspaces(n, e, hmax)
    for n, e, hmax in ((4, 2, 50), (6, 2, 12), (4, 1, 70), (4, 3, 70), (6, 3, 13), (5, 2, 1e200)):
        with pytest.raises(ValueError, match="more than MAX_ESTIMATED_ROWS"):
            enumerate_subspaces(n, e, hmax)


def _hodge_duals(enum):
    """Canonical coordinates of the Hodge duals of an enumeration's rows: the
    reversed Plucker vector twisted by the Laplace signs of the (n-e)-subsets."""
    eps = [laplace_sign(s) for s in subsets(enum.n, enum.n - enum.e)]
    out = set()
    for i in range(len(enum)):
        d = [s * c for s, c in zip(eps, reversed(enum.coords_at(i)))]
        lead = next(x for x in d if x)
        out.add(tuple(x if lead > 0 else -x for x in d))
    return out


def test_enumeration_6_3_closed_under_hodge_star():
    enum = enumerate_subspaces(6, 3, 2)
    assert len(enum) == 1280
    assert _hodge_duals(enum) == {enum.coords_at(i) for i in range(len(enum))}


def test_hyperplanes_are_complements_of_lines():
    # (5,4) comes from the lines through the Hodge star; check it against
    # the exact integer orthogonal complement of every line
    lines = enumerate_subspaces(5, 1, 2)
    hyper = enumerate_subspaces(5, 4, 2)
    want = {from_generators(kernel_int([lines.coords_at(i)], width=5)).plucker.coords
            for i in range(len(lines))}
    assert len(hyper) == len(lines)
    assert {hyper.coords_at(i) for i in range(len(hyper))} == want
    assert _hodge_duals(lines) == want


def test_budget_spent_by_last_shard_is_not_truncation(tmp_path):
    # truncated means some first vector was left unswept, whatever the blocks
    full = enumerate_subspaces(4, 2, 6)
    path = str(tmp_path / "c42.cache")
    enum = enumerate_subspaces(4, 2, 6, max_pairs=full.pair_count - 1, cache_path=path)
    assert not enum.truncated
    assert np.array_equal(enum.pluckers, full.pluckers)
    assert open(path).read().strip().endswith("# end")


def test_blocks_start_until_the_budget_is_exceeded(tmp_path):
    # no block starts once more than max_pairs tuples have been wedged, so a
    # budget that block 0 meets exactly still sweeps block 1; `# swept k`
    # counts the first vectors of the blocks swept
    (_, p0, k1), (_, p1, k2), (_, _, k3) = _blocks(4, 2, 8)[:3]
    for budget, k in ((p0 - 1, k1), (p0, k2), (p0 + p1, k3)):
        path = str(tmp_path / ("c42-%d.cache" % budget))
        assert enumerate_subspaces(4, 2, 8, max_pairs=budget, cache_path=path).truncated
        assert open(path).read().splitlines()[-1] == "# swept %d" % k


def _blocks_merged(order):
    """The (4,2,8) enumeration with the blocks of its sweep taken in the
    given order, each one's rows deduplicated and sorted, and the runs
    merged by one :func:`_unique_sorted`."""
    blocks = _blocks(4, 2, 8)
    runs = [_unique_sorted(blocks[i][0]) for i in order]
    return Enumeration(4, 2, 64, _unique_sorted(np.concatenate(runs)))


# the six (4,2,8) blocks taken backwards and in a shuffled order
_BLOCK_ORDERS = (list(range(5, -1, -1)), random.Random(1).sample(range(6), 6))


def test_rows_invariant_under_block_order():
    # the rows do not depend on the order in which the blocks are emitted
    full = enumerate_subspaces(4, 2, 8)
    assert len(_blocks(4, 2, 8)) == 6
    assert _BLOCK_ORDERS[1] not in (list(range(6)), _BLOCK_ORDERS[0])
    for order in _BLOCK_ORDERS:
        merged = _blocks_merged(order)
        assert merged.pluckers.dtype == full.pluckers.dtype
        assert np.array_equal(merged.pluckers, full.pluckers)


def test_scan_records_invariant_under_block_order():
    # and neither do the scan records, bit for bit (mpf equality is exact)
    a = rnd_plane(42)
    full = enumerate_subspaces(4, 2, 8)
    for j in (1, 2):
        want = scan_target(a, 2, j, 8, enumeration=full)
        assert len(want.records) > 1
        for order in _BLOCK_ORDERS:
            assert scan_target(a, 2, j, 8, enumeration=_blocks_merged(order)) == want


def test_truncation_is_flagged():
    enum = enumerate_subspaces(4, 2, 8, max_pairs=500)
    assert enum.truncated


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "c42.cache")
    e1 = enumerate_subspaces(4, 2, 6, cache_path=path)
    assert not e1.truncated
    e2 = enumerate_subspaces(4, 2, 6, cache_path=path)
    assert np.array_equal(e1.pluckers, e2.pluckers)
    header, *rows, trailer = open(path).read().splitlines()
    assert header == "# subapprox-cache v5 n=4 e=2 hmax_sq=36 rows=%d" % len(e1)
    assert trailer == "# end"
    assert rows == [e1.key_at(i) for i in range(len(e1))]  # row for row, in order


def test_cache_corruption_detected(tmp_path):
    path = str(tmp_path / "c42.cache")
    enumerate_subspaces(4, 2, 4, cache_path=path)
    lines = open(path).read().splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("4 2 :"):
            lines[i] = "4 2 : 1 0 0 0 0 1"  # fails the quadric relation
            break
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(CacheCorruption):
        enumerate_subspaces(4, 2, 4, cache_path=path)


def _write_cache_per_row(path, n, e, hmax_sq, swept, rows):
    """A per-row cache writer: the bulk one's oracle."""
    from subapprox.enumeration import _CACHE_VERSION

    prefix = "%d %d : " % (n, e)
    with open(path, "w") as fh:
        fh.write("# subapprox-cache %s n=%d e=%d hmax_sq=%d rows=%d\n"
                 % (_CACHE_VERSION, n, e, hmax_sq, len(rows)))
        fh.writelines(prefix + " ".join(map(str, r)) + "\n" for r in rows.tolist())
        fh.write("# end\n" if swept is None else "# swept %d\n" % swept)


def _load_cache_per_line(path, n, e, hmax_sq):
    """A per-line cache reader: the bulk one's oracle."""
    from subapprox.enumeration import _CACHE_VERSION, _validate_rows

    with open(path) as fh:
        header, *lines, trailer = fh.read().splitlines()
    header = header.split()
    if header[:2] != ["#", "subapprox-cache"]:
        raise CacheCorruption("not a subapprox cache: %s" % path)
    parts = dict(p.split("=") for p in header[3:])
    if header[2] != _CACHE_VERSION or \
            (int(parts["n"]), int(parts["e"]), int(parts["hmax_sq"])) != (n, e, hmax_sq):
        return None
    if len(lines) != int(parts["rows"]):
        raise CacheCorruption("cache %s does not hold the rows its header counts" % path)
    swept = None if trailer == "# end" else int(trailer.removeprefix("# swept "))
    rows = []
    for line in lines:
        head, _, tail = line.partition(":")
        if tuple(map(int, head.split())) != (n, e):
            raise CacheCorruption("mixed dimensions in cache %s" % path)
        rows.append([int(x) for x in tail.split()])
    P = np.array(rows, dtype=np.int64).reshape(len(rows), math.comb(n, e))
    _validate_rows(P, n, e, hmax_sq, path)
    return swept, P


def _assert_loads_like_per_line(path, n, e, hmax_sq):
    from subapprox.enumeration import _load_cache, _signed_dtype

    got, want = _load_cache(path, n, e, hmax_sq), _load_cache_per_line(path, n, e, hmax_sq)
    assert got[0] == want[0]
    # the rows parse straight into the narrow row dtype, not int64
    assert got[1].dtype == _signed_dtype(math.isqrt(hmax_sq)) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("n, e, hmax, max_pairs", [
    (4, 2, 6, None), (5, 2, 4, None), (5, 3, 3, None), (6, 3, 2, None), (4, 2, 8, 2000)])
def test_cache_io_matches_per_row_oracles(tmp_path, monkeypatch, n, e, hmax, max_pairs):
    # the bulk writer's bytes and the bulk loader's rows equal the per-row
    # writer's and per-line reader's, also for a truncated and resumed cache;
    # (5, 3) takes the Hodge-dual route
    import subapprox.enumeration as enumeration

    monkeypatch.setattr(enumeration, "_BLOCK_BYTES", 2000)  # several blocks of text
    paths = {}
    for name, writer in (("bulk", enumeration._write_cache), ("per_row", _write_cache_per_row)):
        monkeypatch.setattr(enumeration, "_write_cache", writer)
        paths[name] = path = str(tmp_path / ("%s.cache" % name))
        if max_pairs is not None:
            assert enumerate_subspaces(n, e, hmax, max_pairs=max_pairs, cache_path=path).truncated
            assert open(path).read().splitlines()[-1].startswith("# swept ")
            _assert_loads_like_per_line(path, n, e, hmax * hmax)
        assert not enumerate_subspaces(n, e, hmax, cache_path=path).truncated
    monkeypatch.undo()
    text = open(paths["bulk"], "rb").read()
    assert text == open(paths["per_row"], "rb").read()
    assert text.endswith(b"\n# end\n")
    _assert_loads_like_per_line(paths["bulk"], n, e, hmax * hmax)
    rows = _load_cache_per_line(paths["bulk"], n, e, hmax * hmax)[1]
    assert np.array_equal(rows, enumerate_subspaces(n, e, hmax).pluckers)


def _corrupt_first_row(lines, row):
    i = next(i for i, ln in enumerate(lines) if ln.startswith("4 2 :"))
    return lines[:i] + [row] + lines[i + 1:]


def _header_rows(header, delta):
    """The header with its rows= count moved by delta."""
    return re.sub(r"rows=(\d+)", lambda m: "rows=%d" % (int(m[1]) + delta), header)


def _insert_after(lines, row, new):
    i = lines.index(row) + 1
    return lines[:i] + [new] + lines[i:]


_CORRUPTIONS = [
    lambda lines: _corrupt_first_row(lines, "4 2 : 1 0 0 0 0"),  # ragged
    lambda lines: _corrupt_first_row(lines, "4 2 : 1 0 x 0 0 1"),  # not an integer
    lambda lines: _corrupt_first_row(lines, "4 2 : 1 0 0 0 0 1 0"),  # a column too many
    lambda lines: _corrupt_first_row(lines, "5 2 : 1 0 0 0 0 0 0 0 0 0"),  # another dimension
    lambda lines: _corrupt_first_row(lines, "1 0 0 0 0 0"),  # no `n e :` prefix
    lambda lines: lines[:100] + [lines[100][:9]],  # cut inside a row, before `# end`
    lambda lines: lines[:3] + ["# end"] + lines[3:],  # `# end` among the rows
    lambda lines: lines[:-4] + ["# end"] + lines[-4:-1],  # `# end` before the last rows
    lambda lines: lines[:1] + [lines[2], lines[1]] + lines[3:],  # two rows of one height swapped
    lambda lines: lines[:2] + lines[1:],  # a row twice
    lambda lines: lines[1:],  # no header
    lambda lines: [lines[0].split(" e=")[0]] + lines[1:],  # header without e, hmax_sq, rows
    # a coordinate of 2^32, whose int64 square wraps to 0: height 1 if squared first
    lambda lines: _insert_after(lines, "4 2 : 1 0 0 0 0 0", "4 2 : 1 0 0 0 4294967296 0"),
    lambda lines: _corrupt_first_row(lines, "4 2 : 0 0 0 0 0 -1"),  # first nonzero negative
    lambda lines: lines[:5] + [lines[5] + " 0"] + lines[6:],  # a column too many on a valid row
    lambda lines: lines[:len(lines) // 2] + lines[len(lines) // 2 + 1:],  # a middle row lost, trailer intact
    lambda lines: [_header_rows(lines[0], 1)] + lines[1:],  # rows= one more than the rows
    lambda lines: [_header_rows(lines[0], -1)] + lines[1:],  # rows= one fewer than the rows
    lambda lines: [re.sub(r"rows=\d+", "rows=1000000000000000", lines[0])] + lines[1:],  # forged
    lambda lines: [re.sub(r" rows=\d+", "", lines[0])] + lines[1:],  # a v5 header without rows=
    lambda lines: lines[:7] + ["5" + lines[7][1:]] + lines[8:],  # `5 2 : ` and six coordinates
    lambda lines: lines[:7] + [lines[7].replace(" : ", " :: ")] + lines[8:],  # `4 2 :: ...`
    lambda lines: lines[:7] + [lines[7][::-1].replace(" ", "\t", 1)[::-1]] + lines[8:],  # a tab for a space
    lambda lines: lines[:7] + [""] + lines[8:],  # a blank line for a row
    # bytes the writer never writes, which loadtxt reads as the same integers
    lambda lines: lines[:7] + [lines[7].replace(" : ", " : +")] + lines[8:],  # `+0` or `+1`
    lambda lines: lines[:7] + [lines[7] + "\t"] + lines[8:],  # a trailing tab
    lambda lines: [line + "\r" for line in lines],  # `\r\n` line ends
]
_CORRUPTION_IDS = ["ragged", "non_integer", "long_row", "other_dimension", "no_prefix", "no_trailer",
                   "end_inside_rows", "end_before_last_shard", "rows_out_of_order", "repeated_row",
                   "no_header", "short_header", "coordinate_2_pow_32", "negated_row", "extra_column",
                   "lost_middle_row", "rows_one_more", "rows_one_fewer", "rows_forged", "no_rows_count",
                   "other_n", "double_colon", "tab_for_space", "blank_for_row", "plus_sign", "trailing_tab",
                   "crlf"]


@pytest.mark.parametrize("corrupt", _CORRUPTIONS, ids=_CORRUPTION_IDS)
def test_corrupt_cache_raises_and_exits_3(tmp_path, capsys, corrupt):
    from subapprox.cli import main

    path = str(tmp_path / "c42.cache")
    enumerate_subspaces(4, 2, 8, cache_path=path)
    lines = open(path).read().splitlines()
    assert lines[-1] == "# end"
    open(path, "w").write("\n".join(corrupt(lines)) + "\n")
    with pytest.raises(CacheCorruption, match=re.escape(path)):
        enumerate_subspaces(4, 2, 8, cache_path=path)
    capsys.readouterr()
    assert main(["scan", "--target", "r4", "--e", "2", "--hmax", "8", "--cache", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and path in err


def _rows_a_block(monkeypatch, path, rows):
    """Blocks of text that hold ``rows`` of the longest row of the cache at
    path: one row, or a few."""
    import subapprox.enumeration as enumeration

    with open(path, "rb") as fh:
        longest = max(len(line) for line in fh if not line.startswith(b"#"))
    monkeypatch.setattr(enumeration, "_BLOCK_BYTES", rows * longest)


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("n, e, hmax, max_pairs", [(4, 2, 8, None), (5, 3, 3, None), (4, 2, 8, 2000)],
                         ids=["complete", "hodge_dual", "truncated"])
def test_load_cache_is_the_same_at_every_block_size(tmp_path, monkeypatch, rows, n, e, hmax, max_pairs):
    # a complete cache, a Hodge-dual one and a truncated `# swept k` one load
    # the per-line reader's rows, however the text is cut into blocks
    path = str(tmp_path / "c.cache")
    assert enumerate_subspaces(n, e, hmax, max_pairs=max_pairs, cache_path=path).truncated == \
        (max_pairs is not None)
    _rows_a_block(monkeypatch, path, rows)
    _assert_loads_like_per_line(path, n, e, hmax * hmax)


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("corrupt", _CORRUPTIONS, ids=_CORRUPTION_IDS)
def test_corrupt_cache_raises_at_every_block_size(tmp_path, monkeypatch, corrupt, rows):
    from subapprox.enumeration import _load_cache

    path = str(tmp_path / "c42.cache")
    enumerate_subspaces(4, 2, 8, cache_path=path)
    lines = open(path).read().splitlines()
    open(path, "w").write("\n".join(corrupt(lines)) + "\n")
    _rows_a_block(monkeypatch, path, rows)
    with pytest.raises(CacheCorruption, match=re.escape(path)):
        _load_cache(path, 4, 2, 64)


@pytest.mark.parametrize("extra", [1, 10 ** 15])
def test_forged_row_count_is_refused_before_the_rows_are_allocated(tmp_path, extra):
    # a row takes at least len("4 2 : ") + 2 * 6 = 18 bytes, so a header that
    # counts more rows than the file's rows can hold is refused with nothing
    # allocated for them: the traced peak stays far below those rows' bytes
    import tracemalloc

    from subapprox.enumeration import _load_cache

    path = str(tmp_path / "c42.cache")
    enumerate_subspaces(4, 2, 8, cache_path=path)
    header, *lines, trailer = open(path).read().splitlines()
    most = sum(len(line) + 1 for line in lines) // 18
    header = re.sub(r"rows=\d+", "rows=%d" % (most + extra), header)
    open(path, "w").write("\n".join([header] + lines + [trailer]) + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(CacheCorruption, match=re.escape(path)):
            _load_cache(path, 4, 2, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024 < most * 6


def test_line_longer_than_a_block_raises(tmp_path, monkeypatch):
    # a block smaller than a row holds no whole line: the cache is refused
    import subapprox.enumeration as enumeration

    path = str(tmp_path / "c42.cache")
    enumerate_subspaces(4, 2, 8, cache_path=path)
    _rows_a_block(monkeypatch, path, 1)
    enumeration._load_cache(path, 4, 2, 64)
    monkeypatch.setattr(enumeration, "_BLOCK_BYTES", 8)
    with pytest.raises(CacheCorruption, match=re.escape(path)):
        enumeration._load_cache(path, 4, 2, 64)


@pytest.mark.parametrize("corrupt", [
    lambda row: row.rsplit(" ", 1)[0],
    lambda row: row.rsplit(" ", 1)[0] + " x",
    lambda row: row + " 0",
    lambda row: "5" + row[1:] + " 0 0 0 0",
    lambda row: "4 2 : " + " ".join(str(-int(x)) for x in row.split()[3:]),
    lambda row: row.rsplit(" ", 1)[0] + " 4294967296",
], ids=["ragged", "non_integer", "extra_column", "other_dimension", "negated_row", "coordinate_2_pow_32"])
def test_bad_row_across_a_block_boundary_raises(tmp_path, monkeypatch, corrupt):
    # the first block read ends inside a bad row in the middle of the rows,
    # which the second block reads again from its start; with the good row
    # in its place the same blocks load every row
    import subapprox.enumeration as enumeration

    path = str(tmp_path / "c42.cache")
    enumerate_subspaces(4, 2, 8, cache_path=path)
    header, *lines = open(path).read().splitlines()
    k = len(lines) // 2
    bad = corrupt(lines[k])
    first = sum(len(line) + 1 for line in lines[:k])  # bytes of the rows before row k
    monkeypatch.setattr(enumeration, "_BLOCK_BYTES", first + len(bad) // 2)
    _assert_loads_like_per_line(path, 4, 2, 64)
    open(path, "w").write("\n".join([header] + lines[:k] + [bad] + lines[k + 1:]) + "\n")
    with pytest.raises(CacheCorruption, match=re.escape(path)):
        enumeration._load_cache(path, 4, 2, 64)


@pytest.mark.parametrize("failure", ["midway", "replace"])
def test_failed_write_leaves_the_previous_cache(tmp_path, monkeypatch, failure):
    # a write that fails after its first block of rows, or at the final move,
    # leaves the previous cache byte-identical and loadable, and no temp file
    import builtins

    import subapprox.enumeration as enumeration
    from subapprox.enumeration import _load_cache

    path, fresh = str(tmp_path / "c42.cache"), str(tmp_path / "fresh.cache")
    assert enumerate_subspaces(4, 2, 8, max_pairs=2000, cache_path=path).truncated
    before = open(path, "rb").read()

    def open_failing(file, mode="r"):
        fh = builtins.open(file, mode)
        if "w" in mode:
            write, calls = fh.write, []

            def write_then_fail(text):
                calls.append(text)
                if len(calls) > 2:  # the header, then the first block of rows
                    raise OSError("disk full")
                return write(text)
            fh.write = write_then_fail
        return fh

    def fail(*args):
        raise OSError("disk full")

    if failure == "midway":
        monkeypatch.setattr(enumeration, "_BLOCK_BYTES", 2000)
        monkeypatch.setattr(enumeration, "open", open_failing, raising=False)
    else:
        monkeypatch.setattr(enumeration.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        enumerate_subspaces(4, 2, 8, cache_path=path)
    monkeypatch.undo()
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["c42.cache"]
    assert _load_cache(path, 4, 2, 64)[0] == _blocks(4, 2, 8)[0][2]
    assert not enumerate_subspaces(4, 2, 8, cache_path=path).truncated
    enumerate_subspaces(4, 2, 8, cache_path=fresh)
    assert open(path, "rb").read() == open(fresh, "rb").read()


def _unique_sorted_int64(P):
    """The dedup on int64 keys that the narrow-key one replaced: its oracle."""
    order = np.lexsort(tuple(P[:, c] for c in range(P.shape[1] - 1, -1, -1)) + ((P * P).sum(1),))
    S = P[order]
    first = np.ones(len(S), dtype=bool)
    first[1:] = np.any(S[1:] != S[:-1], axis=1)
    return S[first]


@pytest.mark.parametrize("edge", [2, 127, 128, 32767, 32768, 2 ** 31 - 1, 2 ** 31])
def test_unique_sorted_matches_int64_oracle(edge):
    # shuffled rows with duplicates, one coordinate per row at most at +-edge
    # or +-(edge - 1), so the squared norms still fit in int64
    from subapprox.enumeration import _unique_sorted

    rng = np.random.default_rng(edge)
    pool = rng.integers(-1, 2, size=(300, 4))
    big = rng.random(300) < 0.4
    pool[big, rng.integers(0, 4, big.sum())] = rng.choice([-edge, edge, 1 - edge, edge - 1], big.sum())
    P = pool[rng.integers(0, len(pool), 2000)]
    assert np.abs(P).max() == edge
    rows = _unique_sorted(P)
    assert rows.dtype == np.int64 and np.array_equal(rows, _unique_sorted_int64(P))


@pytest.mark.parametrize("values, dtype", [
    ([127, -127], np.int8), ([-128], np.int16), ([128], np.int16), ([32767], np.int16),
    ([32768], np.int32), ([2 ** 31 - 1], np.int32), ([-2 ** 31], np.int64), ([], np.int8)])
def test_narrow_keys_hold_plus_and_minus_max(values, dtype):
    from subapprox.enumeration import _narrow

    assert _narrow(np.array(values, dtype=np.int64)).dtype == dtype


@pytest.mark.parametrize("bound, dtype", [
    (127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32)])
def test_row_dtype_holds_plus_and_minus_the_bound(bound, dtype):
    from subapprox.enumeration import _signed_dtype

    dt = _signed_dtype(bound)
    assert dt == dtype
    assert np.array([bound, -bound], dtype=np.int64).astype(dt).tolist() == [bound, -bound]


def test_validate_rows_compares_narrow_rows_without_wrapping():
    # in int8, 100 - (-100) wraps to -56: a difference would call these two
    # lines of one height out of order
    from subapprox.enumeration import _validate_rows

    rows = np.array([[1, -100], [1, 100]], dtype=np.int8)
    _validate_rows(rows, 2, 1, 10001, "lines.cache")
    with pytest.raises(CacheCorruption, match="lines.cache"):
        _validate_rows(rows[::-1], 2, 1, 10001, "lines.cache")


def test_memory_grows_with_the_output(tmp_path):
    # a cold build holds its blocks' rows narrow, each plane once, its peak
    # stated in bytes of the rows as int64, which no step copies them into;
    # a load holds the narrow rows it parses and one block of text or of
    # validation at a time, whose checks run in blocks of their own
    import tracemalloc

    from subapprox.enumeration import _BLOCK_BYTES, _load_cache

    path = str(tmp_path / "c42.cache")
    tracemalloc.start()
    try:
        enum = enumerate_subspaces(4, 2, 12, cache_path=path)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        size = tracemalloc.get_traced_memory()[0]
        loaded = _load_cache(path, 4, 2, 144)
        load = tracemalloc.get_traced_memory()[1] - size
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded[1], enum.pluckers)
    int64_bytes = len(enum) * math.comb(4, 2) * 8
    assert build <= int64_bytes
    assert load <= enum.pluckers.nbytes + 2 * _BLOCK_BYTES


def test_cold_scan_memory_stays_below_its_int64_rows(tmp_path, capsys):
    # a cold (4, 2, 14) scan that writes its cache holds its 235,946 rows
    # narrow from the sweep to the float screen: its whole traced peak stays
    # below the bytes those rows take as int64 (11.3 MB)
    import tracemalloc

    from subapprox.cli import main

    argv = ["scan", "--target", "r4", "--e", "2", "--j", "1", "--hmax", "14",
            "--cache", str(tmp_path / "c42.cache"), "--workers", "1"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "scanned=235946" in capsys.readouterr().out
    assert peak <= 235946 * math.comb(4, 2) * 8


def test_cache_resume_from_truncation(tmp_path):
    path, fresh = str(tmp_path / "c42.cache"), str(tmp_path / "fresh.cache")
    part = enumerate_subspaces(4, 2, 8, max_pairs=2000, cache_path=path)
    assert part.truncated
    assert open(path).read().endswith("\n# swept %d\n" % _blocks(4, 2, 8)[0][2])
    full = enumerate_subspaces(4, 2, 8, cache_path=path)
    assert not full.truncated and full.pair_count > 0
    assert np.array_equal(full.pluckers, enumerate_subspaces(4, 2, 8, cache_path=fresh).pluckers)
    assert open(path, "rb").read() == open(fresh, "rb").read()


def test_unfinished_shard_of_a_partial_cache_is_ignored_and_rebuilt(tmp_path):
    # an interrupted resume leaves the rows of its unfinished blocks in the
    # sibling temp file, its last line cut: they are not loaded, and the next
    # resume sweeps those blocks again and writes over the temp file
    from subapprox.enumeration import _load_cache

    path, fresh = str(tmp_path / "c42.cache"), str(tmp_path / "fresh.cache")
    assert enumerate_subspaces(4, 2, 8, max_pairs=2000, cache_path=path).truncated
    partial = open(path).read()
    k = _blocks(4, 2, 8)[0][2]
    with open(path + ".tmp", "w") as fh:
        fh.write(partial.replace("# swept %d\n" % k, "") + "4 2 : 0 0 0 0 0 1\n5 2 : 0 0 0 1")
    swept, rows = _load_cache(path, 4, 2, 64)
    assert swept == k and len(rows) == partial.count("\n4 2 : ")
    full = enumerate_subspaces(4, 2, 8, cache_path=path)
    assert not full.truncated and full.pair_count > 0
    assert np.array_equal(full.pluckers, enumerate_subspaces(4, 2, 8, cache_path=fresh).pluckers)
    assert open(path, "rb").read() == open(fresh, "rb").read()
    assert sorted(os.listdir(tmp_path)) == ["c42.cache", "fresh.cache"]
    assert np.array_equal(enumerate_subspaces(4, 2, 8, cache_path=path).pluckers, full.pluckers)


@pytest.mark.parametrize("pattern, repl", [
    (r" v\d+ ", " v1 "), pytest.param(r" v\d+ (.*) rows=", r" v4 \1 shards=3 rows=", id="v4_with_shards")])
def test_partial_cache_of_another_layout_is_rebuilt(tmp_path, pattern, repl):
    # a partial cache of another version (v1, or v4 with its count of
    # 64-vector shards) counts other first vectors as swept: resuming it
    # would lose the rows left out of its first ones here
    path = str(tmp_path / "c42.cache")
    assert enumerate_subspaces(4, 2, 8, max_pairs=2000, cache_path=path).truncated
    header, *lines = open(path).read().splitlines()
    rows = [ln for ln in lines if not ln.startswith("#")][:3]
    header = re.sub(r"rows=\d+", "rows=3", re.sub(pattern, repl, header))
    open(path, "w").write("\n".join([header] + rows + ["# swept 1"]) + "\n")
    full = enumerate_subspaces(4, 2, 8, cache_path=path)
    assert not full.truncated
    assert np.array_equal(full.pluckers, enumerate_subspaces(4, 2, 8).pluckers)
    assert open(path).read().strip().endswith("# end")


@pytest.mark.parametrize("version", ["v1", "v2", "v3", "v4"])
def test_cache_of_another_version_is_rebuilt(tmp_path, version):
    # a complete cache of an older layout (v1-v3: rows grouped by shard, each
    # group closed by a marker, a header without rows=; v4: a header with
    # shards=) is swept again and overwritten, never read
    from subapprox.enumeration import _CACHE_VERSION

    path, fresh = str(tmp_path / "c42.cache"), str(tmp_path / "fresh.cache")
    want = enumerate_subspaces(4, 2, 6, cache_path=fresh)
    header, *rows, trailer = open(fresh).read().splitlines()
    header = header.replace(" %s " % _CACHE_VERSION, " %s " % version)
    if version == "v4":
        old = [header.replace(" rows=", " shards=2 rows=")] + rows + [trailer]
    else:
        old = [re.sub(r" rows=\d+", "", header)] + rows[::-1] + ["# shard 0 done", trailer]
    open(path, "w").write("\n".join(old) + "\n")
    rebuilt = enumerate_subspaces(4, 2, 6, cache_path=path)
    assert rebuilt.pair_count == want.pair_count > 0  # swept again, not read
    assert np.array_equal(rebuilt.pluckers, want.pluckers)
    assert open(path, "rb").read() == open(fresh, "rb").read()


def test_dual_cache_resume_from_truncation(tmp_path):
    # the (5,2,4) sweep under the Hodge dual runs in four blocks: the cut
    # one sweeps the first 10 first vectors and wedges 4,052 pairs, and the
    # resumed ones wedge 6,928; at height 3 the sweep is one block
    path, fresh = str(tmp_path / "c53.cache"), str(tmp_path / "fresh.cache")
    assert enumerate_subspaces(5, 3, 4, max_pairs=100, cache_path=path).truncated
    full = enumerate_subspaces(5, 3, 4, cache_path=path)
    assert not full.truncated and full.pair_count > 0
    assert np.array_equal(full.pluckers, enumerate_subspaces(5, 3, 4, cache_path=fresh).pluckers)
    text = open(path).read()
    assert text == open(fresh).read() and text.endswith("\n# end\n")
    assert len([ln for ln in text.splitlines() if ln.startswith("5 3 :")]) == len(full)


@pytest.mark.parametrize("n, e, hmax, block_bytes", [
    (4, 2, 8, None), (5, 3, 4, None), (6, 3, 3, None), (4, 1, 6, 16 * 8 * 300)])
def test_cut_and_resumed_at_every_resume_point(tmp_path, monkeypatch, n, e, hmax, block_bytes):
    # a budget that the blocks through block i just exceed cuts the sweep
    # after block i, whose next first vector `# swept k` names; resumed, the
    # cache's bytes are the fresh one's.  A block that wedges no tuple
    # cannot exceed a budget, so its end is no resume point.  The lines run
    # in blocks of 300 here; the sweep's own blocks hold 8,192 lines in R^4
    import subapprox.enumeration as enumeration

    if block_bytes:
        monkeypatch.setattr(enumeration, "_BLOCK_BYTES", block_bytes)
    fresh = str(tmp_path / "fresh.cache")
    enumerate_subspaces(n, e, hmax, cache_path=fresh)
    want = open(fresh, "rb").read()
    blocks, budget, cuts = _blocks(n, e, hmax), -1, 0
    assert len(blocks) >= 4
    for _, p, k in blocks[:-1]:
        budget += p
        if not p:
            continue
        path = str(tmp_path / ("cut-%d.cache" % k))
        assert enumerate_subspaces(n, e, hmax, max_pairs=budget, cache_path=path).truncated
        assert open(path, "rb").read().endswith(b"\n# swept %d\n" % k)
        assert not enumerate_subspaces(n, e, hmax, cache_path=path).truncated
        assert open(path, "rb").read() == want
        cuts += 1
    assert cuts == sum(1 for _, p, _ in blocks[:-1] if p) >= 3


@pytest.mark.parametrize("n, e, hmax", [(4, 2, 14), (6, 3, 4), (4, 1, 14)])
def test_resume_points_are_at_most_a_tenth_of_the_sweep_apart(n, e, hmax):
    # a plane block closes at about _BLOCK_BYTES of slab pairs, a 3-subspace
    # block after each first vector and a line block at 8,192 lines in R^4;
    # 64-vector shards held 44%, 99.5% and 100% of these sweeps' tuples
    tuples = [p for _, p, _ in _blocks(n, e, hmax)]
    assert max(tuples) <= 0.1 * sum(tuples)


@pytest.mark.parametrize("n, hmax", [(2, 130), (4, 14), (5, 6)])
def test_lines_are_the_integer_ball_sorted_once(monkeypatch, n, hmax):
    # a line sweep's rows are the ball's own rows, already in (norm^2, lex)
    # order and distinct, so the ball's sort is the only one
    import subapprox.enumeration as enumeration

    sorted_rows = []
    monkeypatch.setattr(enumeration, "_unique_sorted",
                        lambda P: sorted_rows.append(len(P)) or _unique_sorted(P))
    lines = enumerate_subspaces(n, 1, hmax)
    assert sorted_rows == [len(lines)]
    monkeypatch.undo()
    assert np.array_equal(lines.pluckers, _integer_ball(n, hmax * hmax))


@pytest.mark.parametrize("past", [0, 1, 10 ** 6])
def test_partial_cache_swept_through_the_last_first_vector_raises(tmp_path, capsys, past):
    # `# swept k` names the first k first vectors of a cut sweep, so k is
    # below their number m (a sweep through all m writes `# end`); the
    # loader reads k, and the sweep, which knows m, refuses it
    from subapprox.cli import main
    from subapprox.enumeration import _load_cache

    path = str(tmp_path / "c42.cache")
    assert enumerate_subspaces(4, 2, 8, max_pairs=2000, cache_path=path).truncated
    m = _ball(4, 2, 64)[2]
    text = re.sub(r"# swept \d+\n$", "# swept %d\n" % (m + past), open(path).read())
    open(path, "w").write(text)
    assert _load_cache(path, 4, 2, 64)[0] == m + past
    with pytest.raises(CacheCorruption, match=re.escape(path)):
        enumerate_subspaces(4, 2, 8, cache_path=path)
    capsys.readouterr()
    assert main(["scan", "--target", "r4", "--e", "2", "--hmax", "8", "--cache", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and path in err
    assert open(path).read() == text


def rnd_plane(seed, n=4, d=2, prec=128):
    rng = random.Random(seed)
    return RealSubspace.from_vectors(
        [[rng.gauss(0, 1) for _ in range(n)] for _ in range(d)], precision_bits=prec)


def test_scan_rational_target_flagged():
    a = RealSubspace.from_vectors([(1, 0, 0, 0), (0, 1, 0, 0)])
    res = scan_target(a, 2, 1, 3)
    assert res.rational_target
    assert float(res.records[-1].psi_j) == 0


def test_scan_records_strictly_decreasing():
    a = rnd_plane(1234)
    res = scan_target(a, 2, 1, 8)
    assert not res.rational_target
    assert res.records
    psis = [float(r.psi_j) for r in res.records]
    hs = [float(r.height) for r in res.records]
    assert all(x > y for x, y in zip(psis, psis[1:]))
    assert all(x <= y for x, y in zip(hs, hs[1:]))
    assert all(p > 0 for p in psis)
    assert all(float(r.phi) > 0 for r in res.records)


def _exhaustive_records(a, enum, js):
    """The record chains of psi_j, j in js, over the rows of enum, every row
    refined in mp at A's precision prec up to the first psi below 2^-(prec/2):
    the scan with no float screen.  Rows are sorted by (H^2, key), so the first least psi of a height
    wins."""
    from subapprox.angles import canonical_angles
    from subapprox.grassmann import real_view

    prec = a.precision_bits
    tol = mp.mpf(2) ** -(prec // 2)
    chains, running = {j: [] for j in js}, {}
    with mp.workprec(prec):
        for h2, rows in itertools.groupby(range(len(enum)), key=lambda i: int(enum.heights_sq[i])):
            profs = [(enum.key_at(i), canonical_angles(a, real_view(enum.subspace_at(i), prec)))
                     for i in rows]
            for j in js:
                if running.get(j, 1) < tol:
                    continue
                key, prof = min(profs, key=lambda kp: kp[1].sines[j - 1])
                psi = prof.sines[j - 1]
                if j not in running or psi < running[j]:
                    running[j] = psi
                    phi = prof.phi
                    if psi < tol:  # a rational hit, reported as 0; the chain ends
                        psi = phi = mp.mpf(0)
                    chains[j].append((key, mp.sqrt(mp.mpf(h2)), psi, phi))
            if all(running[j] < tol for j in js):
                break
    return chains


def _records(res):
    return [(r.subspace_key, r.height, r.psi_j, r.phi) for r in res.records]


def test_scan_matches_direct_minimum():
    # the record chain must agree with a straightforward full scan in mp
    a = rnd_plane(77)
    enum = enumerate_subspaces(4, 2, 4)
    res = scan_target(a, 2, 1, 4, enumeration=enum)
    assert _records(res) == _exhaustive_records(a, enum, (1,))[1]


def _oracle_target(name, n):
    if name == "symmetric":
        # span(v, Jv) for the integer isometry J(x) = (x2, -x1, x4, -x3), so B and
        # J(B) tie exactly; it meets no rational plane B, since that needs
        # b13^2 + b14^2 = 24 k^2 with b12 = 3 k, a sum of two squares only at k = 0
        with mp.workprec(128):
            r2, r3, r5 = mp.sqrt(2), mp.sqrt(3), mp.sqrt(5)
            return RealSubspace.from_vectors([(1, r2, r3, r5), (r2, -1, r5, -r3)])
    if name == "rational":  # minors with a zero column
        return RealSubspace.from_vectors([(1, 0, 0, 0), (0, 1, 0, 1)])
    # a random plane, line or 3-space
    return rnd_plane(n, n=n, d={"random": 2, "random-line": 1, "random-3-space": 3}[name])


@pytest.mark.parametrize("name,n,e,h,js", [
    ("symmetric", 4, 2, 6, (1, 2)), ("rational", 4, 2, 6, (1,)), ("random", 5, 2, 3, (1, 2)),
    ("random", 5, 3, 2, (1, 2)), ("random", 6, 2, 2, (1, 2)), ("random-line", 5, 2, 3, (1,)),
    ("random-3-space", 5, 2, 3, (1, 2)), ("random-3-space", 6, 3, 1, (1, 2, 3)),
], ids=lambda v: v if isinstance(v, str) else str(v).replace(" ", ""))
def test_scan_matches_exhaustive_oracle(name, n, e, h, js):
    # records (key, height, psi, phi, as mpf) equal those of refining every row,
    # on every route of the float screen (d = 1, d = 2 and the d = 3 SVD); the
    # symmetric target's records at H^2 = 5, 19, 29 (j = 1) tie with 3 to 7
    # other rows up to mp rounding
    a = _oracle_target(name, n)
    enum = enumerate_subspaces(n, e, h)
    want = _exhaustive_records(a, enum, js)
    for j in js:
        res = scan_target(a, e, j, h, enumeration=enum)
        assert _records(res) == want[j], (name, j)
        assert res.rational_target == (name == "rational")


@pytest.mark.parametrize("block_bytes", [1, 120])
def test_scan_is_the_same_at_every_block_size(monkeypatch, block_bytes):
    # blocks of one row, so each is one whole height group, and of five rows,
    # cut back to whole groups, refine the rows the default blocks refine, in
    # the same order, and give the same records, on every route of the float
    # screen; a rational hit ends the scan before later blocks are screened
    import subapprox.enumeration as enumeration

    screened, refined = [], []
    float_psi, refine_psi = enumeration._float_psi, enumeration.refine_psi

    def counting_float_psi(a, etas, *args):
        screened.append(len(etas))
        return float_psi(a, etas, *args)

    def recording_refine_psi(a, b, j):
        refined.append(b.plucker.coords)
        return refine_psi(a, b, j)

    monkeypatch.setattr(enumeration, "refine_psi", recording_refine_psi)
    cases = []
    for name, n, e, h, js in [("symmetric", 4, 2, 6, (1, 2)), ("rational", 4, 2, 6, (1,)),
                              ("random", 5, 3, 2, (1, 2)), ("random-line", 5, 2, 3, (1,)),
                              ("random-3-space", 5, 2, 3, (1, 2))]:
        a, enum = _oracle_target(name, n), enumerate_subspaces(n, e, h)
        for j in js:
            refined.clear()
            cases.append((a, e, j, h, enum, scan_target(a, e, j, h, enumeration=enum), refined[:]))
    monkeypatch.setattr(enumeration, "_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(enumeration, "_float_psi", counting_float_psi)
    for a, e, j, h, enum, want, want_refined in cases:
        screened.clear()
        refined.clear()
        got = scan_target(a, e, j, h, enumeration=enum)
        assert refined == want_refined
        assert got.records and got.records == want.records
        assert (got.rational_target, got.scanned, got.truncated) == \
            (want.rational_target, want.scanned, want.truncated)
        assert (sum(screened) < len(enum)) == got.rational_target


def _rational(rng, rows):
    """from_generators(rows()), drawn again while the rows are dependent."""
    while True:
        try:
            return from_generators(rows())
        except ValueError:
            continue


class _FloatPsiCheck:
    """Checks |psi - psi_mp| <= delta, row by row and for every j, of _float_psi,
    and keeps the largest error / delta seen on each route (t = 1 for lines and
    d = 1, d = 2 <= e, and the d >= 3 SVD)."""

    def __init__(self):
        self.worst = {}

    def __call__(self, a, subspaces):
        from subapprox.angles import canonical_angles
        from subapprox.enumeration import _float_psi
        from subapprox.grassmann import real_view

        n, e, d = a.n, subspaces[0].e, a.dim
        etas = np.array([b.plucker.coords for b in subspaces], dtype=np.float64)
        # at 256 bits: at 128, the mp orthonormal basis of a B with entries near
        # 2^56 keeps only about 20 bits
        a256 = RealSubspace.from_vectors(a.basis, precision_bits=256)
        exact = [canonical_angles(a256, real_view(b, 256)).sines for b in subspaces]
        route = "t = 1" if min(d, e) == 1 else "d = 2" if d == 2 else "d >= 3"
        for j in range(1, min(d, e) + 1):
            psi, delta = _float_psi(a, etas, n, e, j)
            err = np.abs(psi - np.array([float(s[j - 1]) for s in exact]))
            assert np.all(err <= delta), (n, e, d, j, np.flatnonzero(err > delta))
            self.worst[route] = max(self.worst.get(route, 0.0), float((err / delta).max()))
        return exact

    def report(self, capsys, what):
        with capsys.disabled():
            print("\nfloat psi screen, %s, largest |psi_float - psi_mp| / delta: " % what
                  + ", ".join("%s: %.3g" % kv for kv in sorted(self.worst.items())))


def _tilted(rng, vecs, size):
    with mp.workprec(128):
        return RealSubspace.from_vectors([[x + mp.mpf(rng.uniform(-1, 1)) * size for x in v]
                                          for v in vecs])


def test_psi12_pairing_bound_is_sound(capsys):
    # the (4,2) cases of the float psi bound, j = 1, 2: the R^4 witnesses,
    # random targets, a near-isoclinic target, targets within 1e-12 of a
    # rational plane and of a rational line, and one within 1e-8 of a rational
    # plane (psi_2 < 1e-6); B also has Plucker entries near 2^80
    from subapprox.witness import witness_r4

    rng = random.Random(4242)
    check = _FloatPsiCheck()
    enum = enumerate_subspaces(4, 2, 5)
    sample = [enum.subspace_at(i) for i in rng.sample(range(len(enum)), 40)]
    big = 2 ** 40
    huge = from_generators([(big + 3, 5 * big - 1, 7, -(3 * big + 11)),
                            (2 * big + 1, -big, big + 9, 4)])
    plane = [(1, 2, 0, -1), (0, 1, 3, 1)]
    line = (1, -1, 2, 0)
    with mp.workprec(128):
        t = mp.mpf("0.3")
        targets = [
            (witness_r4("sqrt2"), []),
            (witness_r4("sqrt5-1"), []),
            (rnd_plane(1), []),
            (rnd_plane(2), []),
            # isoclinic to e1 ^ e2 but for 1e-9: t1 ~ t2 there
            (RealSubspace.from_vectors([(mp.cos(t), 0, mp.sin(t), 0),
                                        (0, mp.cos(t + mp.mpf(10) ** -9), 0, mp.sin(t + mp.mpf(10) ** -9))]),
             [[(1, 0, 0, 0), (0, 1, 0, 0)]]),
            (_tilted(rng, plane, mp.mpf(10) ** -12), [plane]),
            (_tilted(rng, [line] + [[rng.gauss(0, 1) for _ in range(4)]], mp.mpf(10) ** -12),
             [[line, (0, 1, 1, 5)]]),
            (_tilted(rng, plane, mp.mpf(10) ** -8), [plane]),
        ]
    smallest_psi2, closest_pair = 1.0, 1.0
    for a, extra in targets:
        exact = check(a, sample + [huge] + [from_generators(g) for g in extra])
        smallest_psi2 = min(smallest_psi2, float(exact[-1][1]))
        closest_pair = min(closest_pair, float(exact[-1][1] - exact[-1][0]))
    assert smallest_psi2 < 1e-6 and closest_pair < 1e-8
    check.report(capsys, "R^4 planes")


def test_float_psi_delta_is_sound(capsys):
    # the float psi bound on every route and shape: random targets and one
    # within 1e-12 of a rational subspace that the first B contains, B with
    # entries up to 10^4, and a B with Plucker entries beyond 2^53
    rng = random.Random(2024)
    check = _FloatPsiCheck()

    def beyond_2_53(n, e):
        big = 2 ** 56
        b = _rational(rng, lambda: [[rng.randint(-5, 5) * big + rng.randint(-99, 99) for _ in range(n)]
                                    for _ in range(e)])
        assert max(abs(x) for x in b.plucker.coords) > 2 ** 53
        return b

    for n, e, d in ((4, 1, 2), (6, 1, 3), (5, 2, 1), (4, 2, 2), (5, 2, 2), (5, 3, 2), (6, 2, 2),
                    (7, 2, 2), (4, 3, 2), (6, 3, 3), (7, 2, 3), (4, 2, 3)):
        t = min(d, e)
        base = _rational(rng, lambda: [[rng.randint(-3, 3) for _ in range(n)] for _ in range(t)])
        base = [list(v) for v in base.lattice_basis]
        near = _tilted(rng, base + [[rng.gauss(0, 1) for _ in range(n)] for _ in range(d - t)],
                       mp.mpf(10) ** -12)
        targets = [near] + [rnd_plane(rng.randrange(10 ** 6), n=n, d=d) for _ in range(2)]
        subspaces = [_rational(rng, lambda: base + [[rng.randint(-3, 3) for _ in range(n)]
                                                    for _ in range(e - t)]),
                     beyond_2_53(n, e)]
        while len(subspaces) < 32 * len(targets):
            bound = rng.choice((2, 9, 10 ** 4))
            subspaces.append(_rational(rng, lambda: [[rng.randint(-bound, bound) for _ in range(n)]
                                                     for _ in range(e)]))
        for i, a in enumerate(targets):
            exact = check(a, subspaces[i::len(targets)])
            if i == 0:
                assert float(exact[0][t - 1]) < 1e-11, (n, e, d)
    assert set(check.worst) == {"t = 1", "d = 2", "d >= 3"}
    check.report(capsys, "every shape")


def test_target_plucker_with_a_zero_pivot_column():
    # A = span(e1, e2, e3 + e5): the minor on rows (2, 3, 4) has the zero
    # column e1, which mpmath's LU decomposition cannot pivot
    from subapprox.witness import target_plucker

    gens = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 1)]
    got = target_plucker(RealSubspace.from_vectors(gens))
    want = from_generators(gens).plucker.coords
    assert 0 in want
    with mp.workprec(128):
        nrm = mp.sqrt(sum(c * c for c in want))
        sign = 1 if got[want.index(max(want, key=abs))] * max(want, key=abs) > 0 else -1
        assert max(abs(g - sign * w / nrm) for g, w in zip(got, want)) < mp.mpf(2) ** -120


def test_contenders_keeps_every_possible_group_minimum(screened):
    # groups [0, 1, 2], [3, 4], [5]
    lo = np.array([1.0, 2.0, 3.0, 0.5, 1.8, 1.6])
    hi = np.array([2.0, 2.5, 4.0, 1.5, 3.0, 1.7])
    # row 1 ties the group's least upper end (kept); row 4 lies above row 3,
    # and row 5 alone in its group lies above the earlier row 3
    assert screened(lo, hi, [0, 3, 5]) == [0, 1, 3]
    # one group of exact values: the argmin, with its ties
    v = np.array([3.0, 1.0, 2.0, 1.0])
    assert screened(v, v, [0]) == [1, 3]
    # each row its own group: the running minimum, with ties
    assert screened(v, v, np.arange(4)) == [0, 1, 3]


def _run_of_group_minima(values, keys, starts):
    """The strictly decreasing run of group minima over every row, unscreened:
    ties go to the smaller key, and the run ends after a value of 0."""
    run = []
    for lo, hi in zip(starts, list(starts[1:]) + [len(values)]):
        best = min((values[i], keys[i], i) for i in range(lo, hi))
        if not run or best[0] < run[-1][0]:
            run.append(best)
            if best[0] == 0:
                break
    return run


def test_decide_is_the_unscreened_run_of_group_minima():
    # exact values drawn from a few integers, so that groups tie and meet 0,
    # each inside a random float interval [lo, hi] around it
    for seed in range(500):
        rng = random.Random(seed)
        rows = rng.randint(1, 30)
        values = [rng.choice((0, 1, 1, 2, 3, 5, 8)) for _ in range(rows)]
        keys = rng.sample(range(100), rows)
        lo = np.array([v - rng.choice((0, rng.random() * 3)) for v in values])
        hi = np.array([v + rng.choice((0, rng.random() * 3)) for v in values])
        starts = [0] + sorted(rng.sample(range(1, rows), rng.randint(0, rows - 1)))
        group = np.searchsorted(starts, np.arange(rows), side="right")
        possible = {i for i in range(rows) if lo[i] <= hi[group <= group[i]].min()}

        called = []

        def exact(i):
            assert i in possible, "seed %d: refined a row the screen rules out" % seed
            called.append(i)
            return values[i], keys[i], i

        got = _decide([(lo, hi, starts)], exact)
        assert got == _run_of_group_minima(values, keys, starts), seed
        if got[-1][0] == 0:  # no group after the one that reached 0 is refined
            assert group[max(called)] == group[got[-1][2]], seed


def test_estimate_exponent_two_points():
    recs = [
        ApproximationRecord("k1", mp.mpf(10), mp.mpf("1e-3"), mp.mpf("1e-3"), 1),
        ApproximationRecord("k2", mp.mpf(100), mp.mpf("1e-6"), mp.mpf("1e-6"), 1),
    ]
    est = estimate_exponent(recs)
    assert abs(est.beta_hat - 3.0) < 1e-12
    assert est.fit_residual < 1e-12


def test_estimate_exponent_flat():
    recs = [
        ApproximationRecord("k1", mp.mpf(10), mp.mpf("0.5"), mp.mpf("0.5"), 1),
        ApproximationRecord("k2", mp.mpf(100), mp.mpf("0.5"), mp.mpf("0.5"), 1),
    ]
    assert abs(estimate_exponent(recs).beta_hat) < 1e-12


def test_estimate_exponent_needs_two():
    with pytest.raises(ValueError):
        estimate_exponent([ApproximationRecord("k", mp.mpf(2), mp.mpf("0.5"), mp.mpf("0.5"), 1)])


def test_float_psi_is_independent_of_the_batch(monkeypatch):
    # every row is computed on its own: batches of one row give the same
    # floats and bounds, bit for bit, as one batch, on every route, and no
    # SVD sees more than one matrix
    import subapprox.enumeration as enumeration

    cases = []
    for n, e, h, d in ((4, 1, 4, 2), (5, 2, 3, 1), (5, 2, 3, 2), (6, 3, 2, 3)):
        enum = enumerate_subspaces(n, e, h)
        a = rnd_plane(10 * n + d, n=n, d=d)
        for j in range(1, min(d, e) + 1):
            cases.append((a, enum.pluckers, n, e, j, enumeration._float_psi(a, enum.pluckers, n, e, j)))
    svd, stacks = np.linalg.svd, []

    def recording_svd(m, *args, **kwargs):
        stacks.append(len(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(enumeration, "_BLOCK_BYTES", 1)
    for a, etas, n, e, j, (psi, delta) in cases:
        got_psi, got_delta = enumeration._float_psi(a, etas, n, e, j)
        assert np.array_equal(got_psi, psi) and np.array_equal(got_delta, delta), (n, e, a.dim, j)
    assert stacks and max(stacks) == 1
