import itertools
import math
import random
import re

import numpy as np
import pytest
from mpmath import mp

from subapprox.angles import RealSubspace
from subapprox.enumeration import (
    CacheCorruption,
    enumerate_subspaces,
    estimate_exponent,
    plucker_sweep_count_4_2,
    scan_target,
    ApproximationRecord,
)
from subapprox.exact import kernel_int, laplace_sign, subsets
from subapprox.grassmann import from_generators, plucker_relations_check


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


def test_coordinate_planes_height_1():
    enum = enumerate_subspaces(4, 2, 1)
    assert len(enum) == 6
    for i in range(6):
        coords = enum.coords_at(i)
        assert sum(abs(c) for c in coords) == 1


def test_every_emitted_subspace_is_decomposable():
    enum = enumerate_subspaces(4, 2, 5)
    assert len(enum) == 3194  # cross-checked against the quadric sweep
    P = enum.pluckers
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


def test_enumeration_5_2():
    enum = enumerate_subspaces(5, 2, 3)
    assert all(plucker_relations_check(enum.coords_at(i), 5, 2) for i in range(len(enum)))
    # coordinate planes of R^5 all have height 1
    h1 = (enum.heights_sq == 1).sum()
    assert h1 == 10


def test_enumeration_e3_round_trip():
    enum = enumerate_subspaces(4, 3, 2)
    assert len(enum) > 4
    for b in enum.subspaces():
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
    e-tuples wedged."""
    from subapprox.enumeration import _integer_ball
    from subapprox.exact import IntMat, normalize_plucker, wedge_plucker

    prod_cap = int(_MINK_SQ[e] * hmax_sq * (1 + 1e-9)) + 1
    V = _integer_ball(n, prod_cap)
    n2 = (V * V).sum(1)
    vecs = [tuple(int(x) for x in v) for v in V]
    keys = set()
    pairs = 0

    def rec(start, chosen, prod):
        nonlocal pairs
        if len(chosen) == e:
            pairs += 1
            try:
                raw = wedge_plucker(IntMat.from_columns(chosen))
            except ValueError:
                return
            pl = normalize_plucker(raw, n, e)
            if pl.norm_sq <= hmax_sq:
                keys.add(pl.coords)
            return
        for i in range(start, len(vecs)):
            p = prod * int(n2[i])
            if p > prod_cap:
                break
            rec(i, chosen + [vecs[i]], p)

    rec(0, [], 1)
    P = np.array(sorted(keys), dtype=np.int64) if keys else np.zeros((0, math.comb(n, e)), dtype=np.int64)
    return P, pairs


def test_enumeration_e3_matches_reference_sweep():
    from subapprox.enumeration import _unique_sorted

    for (n, hmax) in ((4, 3), (5, 2)):
        fast = enumerate_subspaces(n, 3, hmax)
        ref, _ = _enumerate_generic(n, 3, hmax * hmax)
        assert np.array_equal(fast.pluckers, _unique_sorted(ref)[0])


def test_enumeration_e3_duality_with_planes():
    # 3-subspaces of R^5 pair with planes under duality: counts and height
    # multisets agree
    e53 = enumerate_subspaces(5, 3, 3)
    e52 = enumerate_subspaces(5, 2, 3)
    assert len(e53) == len(e52) == 2490
    assert np.array_equal(np.sort(e53.heights_sq), np.sort(e52.heights_sq))


@pytest.mark.parametrize("n, e, hmax", [(4, 2, 4), (5, 2, 3), (6, 2, 2), (6, 3, 1)])
def test_sweep_matches_reference_sweep(n, e, hmax):
    # the reduced plane sweep and the e=3 sweep, row for row against the oracle
    from subapprox.enumeration import _unique_sorted

    fast = enumerate_subspaces(n, e, hmax)
    ref, _ = _enumerate_generic(n, e, hmax * hmax)
    assert np.array_equal(fast.pluckers, _unique_sorted(ref)[0])


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
    want = {from_generators(kernel_int([lines.coords_at(i)])).plucker.coords
            for i in range(len(lines))}
    assert len(hyper) == len(lines)
    assert {hyper.coords_at(i) for i in range(len(hyper))} == want
    assert _hodge_duals(lines) == want


def test_budget_spent_by_last_shard_is_not_truncation(tmp_path):
    # truncated means some shard was left unswept, whatever the shard layout
    full = enumerate_subspaces(4, 2, 6)
    path = str(tmp_path / "c42.cache")
    enum = enumerate_subspaces(4, 2, 6, max_pairs=full.pair_count - 1, cache_path=path)
    assert not enum.truncated
    assert np.array_equal(enum.pluckers, full.pluckers)
    assert open(path).read().strip().endswith("# end")


def test_workers_and_order_invariance():
    e1 = enumerate_subspaces(4, 2, 6, workers=1)
    e2 = enumerate_subspaces(4, 2, 6, workers=4)
    assert np.array_equal(e1.pluckers, e2.pluckers)


def test_scan_records_invariant_under_shard_order():
    a = rnd_plane(42)
    e1 = enumerate_subspaces(4, 2, 6, workers=1)
    e2 = enumerate_subspaces(4, 2, 6, workers=3)
    r1 = scan_target(a, 2, 1, 6, enumeration=e1)
    r2 = scan_target(a, 2, 1, 6, enumeration=e2)
    assert [(r.subspace_key, float(r.psi_j)) for r in r1.records] == \
           [(r.subspace_key, float(r.psi_j)) for r in r2.records]


def test_truncation_is_flagged():
    enum = enumerate_subspaces(4, 2, 8, max_pairs=500)
    assert enum.truncated


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "c42.cache")
    e1 = enumerate_subspaces(4, 2, 6, cache_path=path)
    assert not e1.truncated
    e2 = enumerate_subspaces(4, 2, 6, cache_path=path)
    assert np.array_equal(e1.pluckers, e2.pluckers)
    text = open(path).read()
    assert text.strip().endswith("# end")
    assert "# shard 0 done" in text


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


def _write_cache_per_row(path, n, e, hmax_sq, nshards, rows, shard_of, start, stop):
    """The per-row cache writer the bulk one replaced: its oracle.  It appends
    without dropping an unfinished shard's rows."""
    from subapprox.enumeration import _CACHE_VERSION

    order = np.argsort(shard_of, kind="stable")
    bounds = np.searchsorted(shard_of[order], np.arange(stop + 1))
    prefix = "%d %d : " % (n, e)
    with open(path, "a" if start else "w") as fh:
        if not start:
            fh.write("# subapprox-cache %s n=%d e=%d hmax_sq=%d shards=%d\n"
                     % (_CACHE_VERSION, n, e, hmax_sq, nshards))
        for i in range(start, stop):
            part = rows[order[bounds[i]:bounds[i + 1]]].tolist()
            fh.writelines(prefix + " ".join(map(str, r)) + "\n" for r in part)
            fh.write("# shard %d done\n" % i)
        if stop == nshards:
            fh.write("# end\n")


def _load_cache_per_line(path, n, e, hmax_sq):
    """The per-line cache reader the bulk one replaced: its oracle."""
    import io

    from subapprox.enumeration import _CACHE_VERSION, _validate_rows

    with open(path) as fh:
        header = fh.readline().split()
        if header[:2] != ["#", "subapprox-cache"]:
            raise CacheCorruption("not a subapprox cache: %s" % path)
        parts = dict(p.split("=") for p in header[3:])
        if (int(parts["n"]), int(parts["e"]), int(parts["hmax_sq"])) != (n, e, hmax_sq):
            return None, [], False
        shards, rows, heads, complete = [], [], set(), False
        for line in fh:
            if line.startswith("# shard"):
                if int(line.split()[2]) != len(shards):
                    raise CacheCorruption("non-contiguous shard markers in %s" % path)
                shards.append(rows)
                rows = []
            elif line.strip() == "# end":
                complete = True
            elif line.strip():
                head, _, tail = line.partition(":")
                heads.add(head)
                rows.append(tail)
    if any(tuple(map(int, h.split())) != (n, e) for h in heads):
        raise CacheCorruption("mixed dimensions in cache %s" % path)
    nshards = int(parts["shards"])
    if complete and len(shards) != nshards:
        raise CacheCorruption("cache %s ends before its last shard" % path)
    if not complete and header[2] != _CACHE_VERSION:
        return None, [], False
    ncols = math.comb(n, e)
    arrays = [np.loadtxt(io.StringIO("".join(r)), dtype=np.int64, ndmin=2).reshape(len(r), ncols)
              if r else np.zeros((0, ncols), dtype=np.int64) for r in shards]
    if arrays:
        _validate_rows(np.concatenate(arrays), n, e, hmax_sq, path)
    return nshards, arrays, complete


def _assert_loads_like_per_line(path, n, e, hmax_sq):
    from subapprox.enumeration import _load_cache

    got, want = _load_cache(path, n, e, hmax_sq), _load_cache_per_line(path, n, e, hmax_sq)
    assert (got[0], len(got[1]), got[2]) == (want[0], len(want[1]), want[2])
    for a, b in zip(got[1], want[1]):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("n, e, hmax, max_pairs", [
    (4, 2, 6, None), (5, 2, 4, None), (5, 3, 3, None), (6, 3, 2, None), (4, 2, 8, 2000)])
def test_cache_io_matches_per_row_oracles(tmp_path, monkeypatch, n, e, hmax, max_pairs):
    # the bulk writer's bytes and the bulk loader's per-shard arrays equal the
    # per-row writer's and per-line reader's, also for a truncated and resumed
    # cache; (5, 3) takes the Hodge-dual route
    import subapprox.enumeration as enumeration

    paths = {}
    for name, writer in (("bulk", enumeration._write_cache), ("per_row", _write_cache_per_row)):
        monkeypatch.setattr(enumeration, "_write_cache", writer)
        paths[name] = path = str(tmp_path / ("%s.cache" % name))
        if max_pairs is not None:
            assert enumerate_subspaces(n, e, hmax, max_pairs=max_pairs, cache_path=path).truncated
            _assert_loads_like_per_line(path, n, e, hmax * hmax)
        assert not enumerate_subspaces(n, e, hmax, cache_path=path).truncated
    monkeypatch.undo()
    text = open(paths["bulk"], "rb").read()
    assert text == open(paths["per_row"], "rb").read()
    assert text.endswith(b"# end\n") and text.count(b" done\n") > (max_pairs is not None)
    _assert_loads_like_per_line(paths["bulk"], n, e, hmax * hmax)


def _corrupt_first_row(lines, row):
    i = next(i for i, ln in enumerate(lines) if ln.startswith("4 2 :"))
    return lines[:i] + [row] + lines[i + 1:]


def _move_end_before_last_shard(lines):
    last = max(i for i, ln in enumerate(lines) if ln.startswith("# shard"))
    prev = max(i for i, ln in enumerate(lines[:last]) if ln.startswith("# shard"))
    return lines[:prev + 1] + ["# end"]


@pytest.mark.parametrize("corrupt", [
    lambda lines: _corrupt_first_row(lines, "4 2 : 1 0 0 0 0"),  # ragged
    lambda lines: _corrupt_first_row(lines, "4 2 : 1 0 x 0 0 1"),  # not an integer
    lambda lines: _corrupt_first_row(lines, "4 2 : 1 0 0 0 0 1 0"),  # a column too many
    lambda lines: _corrupt_first_row(lines, "5 2 : 1 0 0 0 0 0 0 0 0 0"),  # another dimension
    lambda lines: _corrupt_first_row(lines, "1 0 0 0 0 0"),  # no `n e :` prefix
    lambda lines: [ln.replace("# shard 1 done", "# shard 2 done") for ln in lines],  # non-contiguous
    _move_end_before_last_shard,
    lambda lines: lines[:3] + ["# end"] + lines[3:],  # `# end` inside a shard
    lambda lines: lines[1:],  # no header
    lambda lines: [lines[0].split(" e=")[0]] + lines[1:],  # header without e, hmax_sq, shards
], ids=["ragged", "non_integer", "long_row", "other_dimension", "no_prefix",
        "non_contiguous_markers", "end_before_last_shard", "end_inside_shard", "no_header",
        "short_header"])
def test_corrupt_cache_raises_and_exits_3(tmp_path, capsys, corrupt):
    from subapprox.cli import main

    path = str(tmp_path / "c42.cache")
    enumerate_subspaces(4, 2, 8, cache_path=path)
    lines = open(path).read().splitlines()
    assert sum(ln.startswith("# shard") for ln in lines) == 3
    open(path, "w").write("\n".join(corrupt(lines)) + "\n")
    with pytest.raises(CacheCorruption, match=re.escape(path)):
        enumerate_subspaces(4, 2, 8, cache_path=path)
    capsys.readouterr()
    assert main(["scan", "--target", "r4", "--e", "2", "--hmax", "8", "--cache", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and path in err


def test_unfinished_shard_of_a_partial_cache_is_ignored_and_rebuilt(tmp_path):
    # rows after the last marker (an interrupted shard, its last line cut) are
    # not loaded, and the resumed file drops them before it appends the shard
    from subapprox.enumeration import _load_cache

    path, fresh = str(tmp_path / "c42.cache"), str(tmp_path / "fresh.cache")
    assert enumerate_subspaces(4, 2, 8, max_pairs=2000, cache_path=path).truncated
    with open(path, "a") as fh:
        fh.write("4 2 : 0 0 0 0 0 1\n5 2 : 0 0 0 1")
    nshards, done, complete = _load_cache(path, 4, 2, 64)
    assert (nshards, len(done), complete) == (3, 1, False)
    full = enumerate_subspaces(4, 2, 8, cache_path=path)
    assert not full.truncated and full.pair_count > 0
    assert np.array_equal(full.pluckers, enumerate_subspaces(4, 2, 8, cache_path=fresh).pluckers)
    assert open(path, "rb").read() == open(fresh, "rb").read()
    assert np.array_equal(enumerate_subspaces(4, 2, 8, cache_path=path).pluckers, full.pluckers)


def _unique_sorted_int64(P):
    """The dedup on int64 keys that the narrow-key one replaced: its oracle."""
    order = np.lexsort(tuple(P[:, c] for c in range(P.shape[1] - 1, -1, -1)) + ((P * P).sum(1),))
    S = P[order]
    first = np.ones(len(S), dtype=bool)
    first[1:] = np.any(S[1:] != S[:-1], axis=1)
    return S[first], order[first]


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
    rows, first = _unique_sorted(P)
    want_rows, want_first = _unique_sorted_int64(P)
    assert rows.dtype == np.int64 and np.array_equal(rows, want_rows)
    assert np.array_equal(first, want_first)


@pytest.mark.parametrize("values, dtype", [
    ([127, -127], np.int8), ([-128], np.int16), ([128], np.int16), ([32767], np.int16),
    ([32768], np.int32), ([2 ** 31 - 1], np.int32), ([-2 ** 31], np.int64), ([], np.int8)])
def test_narrow_keys_hold_plus_and_minus_max(values, dtype):
    from subapprox.enumeration import _narrow

    assert _narrow(np.array(values, dtype=np.int64)).dtype == dtype


def test_cache_resume_from_truncation(tmp_path):
    path = str(tmp_path / "c42.cache")
    part = enumerate_subspaces(4, 2, 8, max_pairs=2000, cache_path=path)
    assert part.truncated
    assert "# end" not in open(path).read()
    full = enumerate_subspaces(4, 2, 8, cache_path=path)
    assert not full.truncated
    fresh = enumerate_subspaces(4, 2, 8)
    assert np.array_equal(full.pluckers, fresh.pluckers)
    assert open(path).read().strip().endswith("# end")


@pytest.mark.parametrize("pattern, repl", [(r"shards=\d+", "shards=999"), (r" v\d+ ", " v1 ")])
def test_partial_cache_of_another_layout_is_rebuilt(tmp_path, pattern, repl):
    # a partial cache with another shard count, or written before the
    # reduced sweep (v1), holds other shards: resuming it would lose the rows
    # left out of its shard 0 here
    path = str(tmp_path / "c42.cache")
    assert enumerate_subspaces(4, 2, 8, max_pairs=2000, cache_path=path).truncated
    header, *lines = open(path).read().splitlines()
    rows = [ln for ln in lines if not ln.startswith("#")][:3]
    open(path, "w").write("\n".join([re.sub(pattern, repl, header)] + rows + ["# shard 0 done"]) + "\n")
    full = enumerate_subspaces(4, 2, 8, cache_path=path)
    assert not full.truncated
    assert np.array_equal(full.pluckers, enumerate_subspaces(4, 2, 8).pluckers)
    assert open(path).read().strip().endswith("# end")


def test_complete_v1_cache_loads(tmp_path):
    path = str(tmp_path / "c42.cache")
    fresh = enumerate_subspaces(4, 2, 6, cache_path=path)
    text = open(path).read()
    open(path, "w").write(re.sub(r" v\d+ ", " v1 ", text, count=1))
    loaded = enumerate_subspaces(4, 2, 6, cache_path=path)
    assert loaded.pair_count == 0  # read back, not swept again
    assert np.array_equal(loaded.pluckers, fresh.pluckers)


def test_dual_cache_resume_from_truncation(tmp_path):
    path = str(tmp_path / "c53.cache")
    assert enumerate_subspaces(5, 3, 3, max_pairs=100, cache_path=path).truncated
    full = enumerate_subspaces(5, 3, 3, cache_path=path)
    assert not full.truncated and full.pair_count > 0
    assert np.array_equal(full.pluckers, enumerate_subspaces(5, 3, 3).pluckers)
    text = open(path).read()
    assert text.strip().endswith("# end")
    assert len([ln for ln in text.splitlines() if ln.startswith("5 3 :")]) == len(full)


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


def _exhaustive_records(a, enum, js, prec=128):
    """The record chains of psi_j, j in js, over the rows of enum, every row
    refined in mp up to the first psi below 2^-(prec/2): the scan with no float
    screen.  Rows are sorted by (H^2, key), so the first least psi of a height
    wins."""
    from subapprox.angles import canonical_angles
    from subapprox.grassmann import real_view

    tol = mp.mpf(2) ** -(prec // 2)
    chains, running = {j: [] for j in js}, {}
    with mp.workprec(prec):
        for h2, rows in itertools.groupby(range(len(enum)), key=lambda i: int(enum.heights_sq[i])):
            profs = [(enum.key_at(i), canonical_angles(a, real_view(enum.subspace_at(i), prec),
                                                       precision_bits=prec)) for i in rows]
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
    return rnd_plane(n, n=n)


@pytest.mark.parametrize("name,n,e,h,js", [
    ("symmetric", 4, 2, 6, (1, 2)), ("rational", 4, 2, 6, (1,)), ("random", 5, 2, 3, (1, 2)),
    ("random", 5, 3, 2, (1, 2)), ("random", 6, 2, 2, (1, 2)),
], ids=lambda v: v if isinstance(v, str) else str(v).replace(" ", ""))
def test_scan_matches_exhaustive_oracle(name, n, e, h, js):
    # records (key, height, psi, phi, as mpf) equal those of refining every row;
    # the symmetric target's records at H^2 = 5, 19, 29 (j = 1) tie with 3 to 7
    # other rows up to mp rounding
    a = _oracle_target(name, n)
    enum = enumerate_subspaces(n, e, h)
    want = _exhaustive_records(a, enum, js)
    for j in js:
        res = scan_target(a, e, j, h, enumeration=enum)
        assert _records(res) == want[j], (name, j)
        assert res.rational_target == (name == "rational")


def test_psi12_pairing_bound_is_sound(capsys):
    # |psi - psi_mp| <= the per-row bound of the (4,2) pairing route, j = 1, 2,
    # for R^4 witnesses, random targets, a near-isoclinic target, targets within
    # 1e-12 of a rational plane and of a rational line, and one within 1e-8 of
    # a rational plane (psi_2 < 1e-6); B also has entries beyond 2^53
    from subapprox.angles import canonical_angles
    from subapprox.enumeration import _psi12_pairing
    from subapprox.exact import PluckerVec
    from subapprox.grassmann import from_plucker, real_view
    from subapprox.witness import witness_r4

    rng = random.Random(4242)
    enum = enumerate_subspaces(4, 2, 5)
    sample = [enum.coords_at(i) for i in rng.sample(range(len(enum)), 40)]
    big = 2 ** 40
    huge = from_generators([(big + 3, 5 * big - 1, 7, -(3 * big + 11)),
                            (2 * big + 1, -big, big + 9, 4)]).plucker.coords
    plane = [(1, 2, 0, -1), (0, 1, 3, 1)]
    line = (1, -1, 2, 0)
    with mp.workprec(128):
        def tilted(vecs, size):
            return [[x + mp.mpf(rng.uniform(-1, 1)) * size for x in v] for v in vecs]

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
            (RealSubspace.from_vectors(tilted(plane, mp.mpf(10) ** -12)), [plane]),
            (RealSubspace.from_vectors(tilted([line], mp.mpf(10) ** -12) + [[rng.gauss(0, 1) for _ in range(4)]]),
             [[line, (0, 1, 1, 5)]]),
            (RealSubspace.from_vectors(tilted(plane, mp.mpf(10) ** -8)), [plane]),
        ]
    worst, smallest_psi2, closest_pair = 0.0, 1.0, 1.0
    for a, extra in targets:
        keys = sample + [huge] + [from_generators(g).plucker.coords for g in extra]
        exact = [canonical_angles(a, real_view(from_plucker(PluckerVec(4, 2, k)), 128)).sines for k in keys]
        for j in (1, 2):
            psi, delta = _psi12_pairing(a, np.array(keys, dtype=np.float64), j)
            err = np.abs(psi - np.array([float(s[j - 1]) for s in exact]))
            assert np.all(err <= delta), (j, np.flatnonzero(err > delta))
            worst = max(worst, float((err / delta).max()))
        smallest_psi2 = min(smallest_psi2, float(exact[-1][1]))
        closest_pair = min(closest_pair, float(exact[-1][1] - exact[-1][0]))
    assert smallest_psi2 < 1e-6 and closest_pair < 1e-8
    with capsys.disabled():
        print("\n(4,2) pairing screen: largest |psi_float - psi_mp| / delta = %.3g" % worst)


def test_target_plucker_with_a_zero_pivot_column():
    # A = span(e1, e2, e3 + e5): the minor on rows (2, 3, 4) has the zero
    # column e1, which mpmath's LU decomposition cannot pivot
    from subapprox.enumeration import target_plucker

    gens = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 1)]
    got = target_plucker(RealSubspace.from_vectors(gens))
    want = from_generators(gens).plucker.coords
    assert 0 in want
    with mp.workprec(128):
        nrm = mp.sqrt(sum(c * c for c in want))
        sign = 1 if got[want.index(max(want, key=abs))] * max(want, key=abs) > 0 else -1
        assert max(abs(g - sign * w / nrm) for g, w in zip(got, want)) < mp.mpf(2) ** -120


def test_contenders_keeps_every_possible_group_minimum():
    from subapprox.enumeration import _contenders

    # groups [0, 1, 2], [3, 4], [5]
    lo = np.array([1.0, 2.0, 3.0, 0.5, 1.8, 1.6])
    hi = np.array([2.0, 2.5, 4.0, 1.5, 3.0, 1.7])
    keep = _contenders(lo, hi, [0, 3, 5])
    # row 1 ties the group's least upper end (kept); row 4 lies above row 3,
    # and row 5 alone in its group lies above the earlier row 3
    assert keep.tolist() == [True, True, False, True, False, False]
    # one group of exact values: the argmin, with its ties
    v = np.array([3.0, 1.0, 2.0, 1.0])
    assert _contenders(v, v, [0]).tolist() == [False, True, False, True]
    # each row its own group: the running minimum, with ties
    assert _contenders(v, v, np.arange(4)).tolist() == [True, True, False, True]


def test_scan_generic_path_agrees_with_pairing_path():
    # (5,2) target uses the batched generic screen; spot-check vs direct values
    rng = random.Random(5)
    a = RealSubspace.from_vectors(
        [[rng.gauss(0, 1) for _ in range(5)] for _ in range(3)])
    res = scan_target(a, 2, 1, 3)
    assert res.records
    psis = [float(r.psi_j) for r in res.records]
    assert all(x > y for x, y in zip(psis, psis[1:]))


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


def test_float_psi_delta_is_sound(capsys):
    # |psi_float - psi_mp| <= delta over 1,024 subspaces of four shapes, for
    # random targets and a target within 1e-12 of a rational plane
    from subapprox.angles import canonical_angles
    from subapprox.enumeration import _float_psi_delta, _float_psi_generic
    from subapprox.grassmann import real_view

    rng = random.Random(2024)
    worst = 0.0
    for n, e in ((4, 2), (5, 2), (5, 3), (6, 2)):
        plane = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
        with mp.workprec(128):
            tilt = [[x + mp.mpf(rng.uniform(-1, 1)) * mp.mpf(10) ** -12 for x in row]
                    for row in plane]
        targets = [RealSubspace.from_vectors(tilt)] + [
            RealSubspace.from_vectors([[rng.gauss(0, 1) for _ in range(n)] for _ in range(2)])
            for _ in range(3)]
        # the first subspace contains the rational plane the first target is near
        subspaces = [from_generators(plane + [[rng.randint(-3, 3) for _ in range(n)]
                                              for _ in range(e - 2)])]
        while len(subspaces) < 256:
            bound = rng.choice((2, 9, 10 ** 4))
            try:
                subspaces.append(from_generators(
                    [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(e)]))
            except ValueError:
                continue
        delta = _float_psi_delta(n, e)
        for t, a in enumerate(targets):
            mine = subspaces[t::len(targets)]
            etas = np.array([b.plucker.coords for b in mine], dtype=np.float64)
            exact = [canonical_angles(a, real_view(b, 128)).sines for b in mine]
            if t == 0:
                assert float(exact[0][1]) < 1e-11
            for j in (1, 2):
                psi = _float_psi_generic(a, etas, n, e, j)
                err = np.abs(psi - np.array([float(s[j - 1]) for s in exact]))
                assert err.max() <= delta, (n, e, j, err.max(), delta)
                worst = max(worst, err.max() / delta)
    with capsys.disabled():
        print("\nfloat psi screen: largest |psi_float - psi_mp| / delta = %.3g" % worst)


def test_float_psi_generic_is_independent_of_the_batch(monkeypatch):
    # the batched SVD treats each matrix alone: batches of 2 rows give the
    # same floats, bit for bit, as one batch, and no SVD sees more rows
    import subapprox.enumeration as enumeration

    enum = enumerate_subspaces(5, 2, 3)
    a = RealSubspace.from_vectors([[1, 0.5, -2, 0.25, 3], [0, 1, 1.5, -1, 0.75]])
    one = enumeration._float_psi_generic(a, enum.pluckers, 5, 2, 1)
    svd, stacks = np.linalg.svd, []

    def recording_svd(m, *args, **kwargs):
        stacks.append(len(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(enumeration, "_GENERIC_BATCH_BYTES", 2 * 8 * (10 * 5 + 100 + 25 + 5))
    assert np.array_equal(enumeration._float_psi_generic(a, enum.pluckers, 5, 2, 1), one)
    assert len(enum) > 2 and max(stacks) == 2


def test_generic_scan_refuses_more_than_the_limit(monkeypatch):
    import subapprox.enumeration as enumeration

    enum = enumerate_subspaces(5, 2, 2)
    a = RealSubspace.from_vectors([[1, 0.5, -2, 0.25, 3], [0, 1, 1.5, -1, 0.75]])
    monkeypatch.setattr(enumeration, "_GENERIC_LIMIT", len(enum) - 1)
    with pytest.raises(ValueError, match="too large"):
        scan_target(a, 2, 1, 2, enumeration=enum)
