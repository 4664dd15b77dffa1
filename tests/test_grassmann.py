import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from subapprox.exact import (PluckerVec, clear_denominators, gram_det_sq, kernel_int,
                             normalize_plucker, subset_index, wedge_plucker)
from subapprox.grassmann import (
    from_generators,
    from_plucker,
    parse_key,
    plucker_relations,
    real_view,
    relation_values,
)
from subapprox.angles import canonical_angles

from oracles import plucker_relations_check


def test_from_generators_basics():
    assert from_generators([(1, 0)]).height_sq == 1
    b = from_generators([(1, 0, 1, 0), (0, 1, 0, 1)])
    assert b.height_sq == 4
    assert b.plucker.coords == (1, 0, 1, -1, 0, 1)


def test_from_generators_full_space_via_fractions():
    b = from_generators([(Fraction(1, 2), 0), (0, 3)])
    assert b.height_sq == 1
    assert b.plucker.coords == (1,)


def test_from_generators_dependent_rejected():
    with pytest.raises(ValueError):
        from_generators([(1, 2, 3), (2, 4, 6)])
    with pytest.raises(ValueError, match="3 vectors in Q\\^2 are dependent"):
        from_generators([(1, 2), (3, 4), (5, 6)])


def _saturate(gens):
    """span_Q(gens) cap Z^n as the integer kernel of the integer kernel (the
    double orthogonal complement over Z), HNF-canonical; raises on dependent
    input.  An oracle independent of the Plucker route."""
    n = len(gens[0])
    basis = kernel_int(kernel_int(gens, width=n), width=n)
    if len(basis) != len(gens):
        raise ValueError("dependent generators (rank %d < %d)" % (len(basis), len(gens)))
    return tuple(basis)


def test_from_generators_matches_kernel_of_kernel_oracle():
    rng = random.Random(2024)
    dependent = 0
    for i in range(2000):
        n = rng.randint(1, 7)
        e = rng.randint(1, n + (i % 10 == 0))  # a few sets with more vectors than Q^n holds
        bound = rng.choice((1, 2, 5, 20, 10 ** 7))
        gens = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(e)]
        if i % 7 == 0 and 2 <= e <= n:  # a combination of two others
            gens[-1] = [2 * a - 3 * b for a, b in zip(gens[0], gens[1 % (e - 1)])]
        if i % 5 == 0:
            gens = [[Fraction(x, rng.randint(1, 6)) for x in g] for g in gens]
        try:
            want = _saturate([clear_denominators(g) for g in gens])
        except ValueError:
            dependent += 1
            with pytest.raises(ValueError):
                from_generators(gens)
            continue
        b = from_generators(gens)
        assert b.lattice_basis == want
        assert b.plucker == normalize_plucker(wedge_plucker(want), n, e)
    assert dependent > 200  # the dependent branch is well exercised


def test_basis_independence():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 6)
        e = rng.randint(1, min(3, n))
        gens = [tuple(rng.randint(-7, 7) for _ in range(n)) for _ in range(e)]
        try:
            b1 = from_generators(gens)
        except ValueError:
            continue
        # rescale and recombine the generators; the subspace is unchanged
        gens2 = [tuple(Fraction(x, 3) for x in gens[0])] + [
            tuple(a + 2 * b for a, b in zip(g, gens[0])) for g in gens[1:]
        ]
        b2 = from_generators(gens2)
        assert b1.plucker == b2.plucker
        assert b1.lattice_basis == b2.lattice_basis


def test_height_identity_random():
    rng = random.Random(23)
    done = 0
    while done < 80:
        n = rng.randint(2, 6)
        e = rng.randint(1, min(3, n))
        gens = [tuple(rng.randint(-20, 20) for _ in range(n)) for _ in range(e)]
        try:
            b = from_generators(gens)
        except ValueError:
            continue
        assert b.height_sq == gram_det_sq(b.lattice_basis)
        assert b.height_sq == b.plucker.norm_sq
        done += 1


def test_relations_42_explicit_form():
    rels = plucker_relations(4, 2)
    assert len(rels) == 1
    # p1*p6 - p2*p5 + p3*p4 = 0 up to overall sign, in 0-based indices
    (rel,) = rels
    assert sorted((i, j) for _, i, j in rel) == [(0, 5), (1, 4), (2, 3)]
    coeff = {(i, j): c for c, i, j in rel}
    s = coeff[(0, 5)]
    assert coeff[(1, 4)] == -s and coeff[(2, 3)] == s


def test_relations_53_match_known_system():
    # the five quadrics for 3-subspaces of R^5, 0-based index pairs
    expected = {
        ((0, 5, -1), (1, 4, 1), (2, 3, -1)),
        ((0, 8, -1), (1, 7, 1), (2, 6, -1)),
        ((0, 9, -1), (3, 7, 1), (4, 6, -1)),
        ((1, 9, -1), (3, 8, 1), (5, 6, -1)),
        ((2, 9, -1), (4, 8, 1), (5, 7, -1)),
    }
    got = set()
    for rel in plucker_relations(5, 3):
        canon = tuple(sorted((i, j, c) for c, i, j in rel))
        lead = canon[0][2]
        if lead > 0:
            canon = tuple((i, j, -c) for i, j, c in canon)
        got.add(canon)
    assert got == expected


def _relations_oracle(n, e):
    """The relations derived from subset positions: for each (e-1)-subset
    alpha and (e+1)-subset beta, the sum over b in beta, b not in alpha, of
    (-1)^(pos + inv) p[alpha + b] p[beta - b], where pos is b's position in
    beta and inv counts the a in alpha above b; normalized and deduplicated
    as plucker_relations documents."""
    if e in (0, 1) or e >= n - 1:
        return ()
    idx = subset_index(n, e)
    rels, seen = [], set()
    for alpha in itertools.combinations(range(n), e - 1):
        for beta in itertools.combinations(range(n), e + 1):
            acc = {}
            for pos, b in enumerate(beta):
                if b in alpha:
                    continue
                inv = sum(1 for a in alpha if a > b)
                i = idx[tuple(sorted(alpha + (b,)))]
                j = idx[tuple(x for x in beta if x != b)]
                pair = (min(i, j), max(i, j))
                acc[pair] = acc.get(pair, 0) + (-1) ** (pos + inv)
            terms = sorted((i, j, c) for (i, j), c in acc.items() if c != 0)
            if not terms:
                continue
            g = math.gcd(*(abs(c) for _, _, c in terms))
            terms = [(i, j, c // g) for i, j, c in terms]
            if terms[0][2] < 0:
                terms = [(i, j, -c) for i, j, c in terms]
            if tuple(terms) not in seen:
                seen.add(tuple(terms))
                rels.append(tuple((c, i, j) for i, j, c in terms))
    return tuple(rels)


def test_relations_match_the_subset_oracle():
    # the table's (iota_alpha p) ^ p against the derivation from subset positions
    for n in range(1, 10):
        for e in range(1, n + 1):
            assert plucker_relations(n, e) == _relations_oracle(n, e), (n, e)


def test_relations_check_examples():
    assert plucker_relations_check((1, 0, 0, 0, 0, 0), 4, 2)
    assert plucker_relations_check((1, 0, 1, -1, 0, 1), 4, 2)
    assert not plucker_relations_check((1, 0, 0, 0, 0, 1), 4, 2)
    with pytest.raises(ValueError):
        plucker_relations_check((1, 0), 4, 2)


def test_relations_hold_for_random_wedges():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(4, 6)
        e = rng.randint(2, n - 2)
        gens = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(e)]
        try:
            b = from_generators(gens)
        except ValueError:
            continue
        assert plucker_relations_check(b.plucker.coords, n, e)


def _rows_for_relations(rng, n, e):
    """Plucker rows of (n, e): four wedges of random generators, which satisfy
    every relation, then four random integer vectors, which mostly do not.
    The wedges' coordinates are minors of a +-1, 0 matrix, at most 48 in
    absolute value while e <= 5, so they fit int8 wherever relations exist."""
    rows = []
    while len(rows) < 4:
        gens = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(e)]
        try:
            rows.append(list(wedge_plucker(gens)))
        except ValueError:
            continue
    rows += [[rng.randint(-9, 9) for _ in range(math.comb(n, e))] for _ in range(4)]
    return rows


def _relation_columns(P, n, e):
    """relation_values' blocks stacked, as one list of values per relation."""
    return [list(col) for col in zip(*(row for block in relation_values(P, n, e)
                                       for row in block.tolist()))]


@pytest.mark.parametrize("block_bytes", [1, 1 << 20])
@pytest.mark.parametrize("n", range(1, 8))
def test_relation_values_over_int8_big_ints_and_mpfs(n, block_bytes, monkeypatch):
    # relation_values against each relation summed term by term in Python
    # ints, over narrow int8 rows, object rows beyond 2^63 and mpf rows, in
    # blocks of one row and of many, and against plucker_relations_check,
    # for 1 <= e <= n <= 7
    import subapprox.grassmann as g

    monkeypatch.setattr(g, "_BLOCK_BYTES", block_bytes)
    rng = random.Random(n)
    big = 2 ** 40  # a product of two scaled coordinates exceeds 2^80
    for e in range(1, n + 1):
        rows = [r for r in _rows_for_relations(rng, n, e) if max(map(abs, r)) <= 127]
        want = [[sum(c * r[i] * r[j] for c, i, j in rel) for r in rows]
                for rel in plucker_relations(n, e)]
        assert _relation_columns(np.array(rows, dtype=np.int8), n, e) == want, (n, e)
        scaled = np.array([[x * big for x in r] for r in rows], dtype=object)
        wide = _relation_columns(scaled, n, e)
        assert wide == [[w * big * big for w in ws] for ws in want], (n, e)
        assert all(type(x) is int for ws in wide for x in ws)
        with mp.workprec(64):
            quarters = np.array([[mp.mpf(x) / 4 for x in r] for r in rows], dtype=object)
            values = _relation_columns(quarters, n, e)
            assert [[x * 16 for x in v] for v in values] == want, (n, e)
        for k, r in enumerate(rows):
            assert plucker_relations_check(r, n, e) == all(ws[k] == 0 for ws in want), (n, e, r)
        if e in (1, n - 1, n):
            assert want == []
        else:
            assert all(ws[k] == 0 for ws in want for k in range(4))  # the wedges
            assert any(ws[k] != 0 for ws in want for k in range(4, len(rows)))


def test_from_plucker_examples():
    b = from_plucker(PluckerVec(4, 2, (1, 0, 0, 0, 0, 0)))
    assert sorted(b.lattice_basis) == [(0, 1, 0, 0), (1, 0, 0, 0)]
    b = from_plucker(PluckerVec(4, 2, (1, 0, 1, -1, 0, 1)))
    assert sorted(b.lattice_basis) == [(0, 1, 0, 1), (1, 0, 1, 0)]
    with pytest.raises(ValueError):
        from_plucker(PluckerVec(4, 2, (1, 0, 0, 0, 0, 1)))


def test_from_plucker_round_trip():
    rng = random.Random(17)
    done = 0
    while done < 60:
        n = rng.randint(2, 6)
        e = rng.randint(1, min(3, n))
        gens = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(e)]
        try:
            b = from_generators(gens)
        except ValueError:
            continue
        b2 = from_plucker(b.plucker)
        assert b2.plucker == b.plucker
        assert b2.lattice_basis == b.lattice_basis
        done += 1


def test_real_view_self_angle():
    b = from_generators([(1, 1)])
    rv = real_view(b, 128)
    x = rv.basis[0]
    assert abs(float(x[0]) - 0.7071067811865476) < 1e-15
    prof = canonical_angles(rv, rv)
    assert all(float(s) < 1e-30 for s in prof.sines)


def test_real_view_coordinate_plane():
    b = from_generators([(1, 0, 0, 0), (0, 1, 0, 0)])
    rv = real_view(b, 128)
    prof = canonical_angles(rv, rv)
    assert all(float(s) < 1e-30 for s in prof.sines)


def test_key_round_trip():
    b = from_generators([(1, 0, 1, 0), (0, 1, 0, 1)])
    assert b.key == "4 2 : 1 0 1 -1 0 1"
    v = parse_key(b.key)
    assert v == b.plucker
    with pytest.raises(ValueError):
        parse_key("nonsense")
