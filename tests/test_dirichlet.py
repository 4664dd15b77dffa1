import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from subapprox.angles import RealSubspace, canonical_angles
from subapprox.dirichlet import (
    DirichletApproximant,
    build_approximant,
    direct_sum_angle_bound,
    flag_basis,
    going_up_search,
    line_decomposition,
    lll_reduce,
    simultaneous_approx,
    unit_chord_bound,
)
from subapprox.grassmann import from_generators, real_view


def rnd_subspace(seed, n, d, prec=128):
    rng = random.Random(seed)
    return RealSubspace.from_vectors(
        [[rng.gauss(0, 1) for _ in range(n)] for _ in range(d)], precision_bits=prec)


# --------------------------------------------------------------------- flags

def test_flag_basis_coordinate_plane():
    f = RealSubspace.from_vectors([(1, 0, 0, 0), (0, 1, 0, 0)])
    fb = flag_basis(f, 2)
    assert fb.vanish_pattern == ((3,), ())
    assert fb.retained_counts == (3, 4)
    # forced zeros are exact
    assert fb.vectors[0][3] == 0


def test_flag_basis_random_patterns():
    for seed in range(6):
        f = rnd_subspace(seed, 4, 2)
        fb = flag_basis(f, 1)
        assert fb.vanish_pattern == ((3,),)
        assert fb.total_retained == 3
        assert fb.vectors[0][3] == 0
        # the flag vector lies in F and is unit within precision
        assert float(f.contains_residual(fb.vectors[0])) < 1e-32
        nrm = float(mp.fsum(a * a for a in fb.vectors[0]))
        assert abs(nrm - 1) < 1e-30


def test_flag_basis_full_j():
    for (n, d) in ((4, 2), (5, 3), (6, 3)):
        f = rnd_subspace(10 * n + d, n, d)
        fb = flag_basis(f, d)
        # N <= d n - d^2 + d^2/2 + d/2
        assert fb.total_retained <= d * n - d * d + (d * d + d) // 2
        with mp.workprec(128):
            for a in range(d):
                for b in range(d):
                    ip = float(mp.fsum(x * y for x, y in zip(fb.vectors[a], fb.vectors[b])))
                    assert abs(ip - (1 if a == b else 0)) < 1e-28
        for ell, pat in enumerate(fb.vanish_pattern, start=1):
            assert len(pat) == d - ell
            for i in pat:
                assert fb.vectors[ell - 1][i] == 0


# ------------------------------------------------------- simultaneous approx

def test_simultaneous_approx_sqrt2():
    with mp.workprec(128):
        recs = simultaneous_approx([mp.sqrt(2)], 10)
    qs = {r.q: r.p for r in recs}
    assert 5 in qs and qs[5] == (7,)
    for r in recs:
        assert float(r.quality) <= 1
    errs = [float(r.err) for r in recs]
    assert all(x > y for x, y in zip(errs, errs[1:]))


def test_simultaneous_approx_rational_hits_zero():
    recs = simultaneous_approx([Fraction(3, 7)], 10)
    assert recs[-1].q == 7
    assert float(recs[-1].err) == 0
    assert float(recs[-1].quality) == 0


def test_simultaneous_approx_pair_quality():
    with mp.workprec(128):
        recs = simultaneous_approx([mp.sqrt(2), mp.sqrt(3)], 3000)
    assert recs
    for r in recs:
        assert float(r.quality) <= 1
        assert math.gcd(r.q, *r.p) == 1
    # Dirichlet guarantee: a record with quality <= 1 exists for every q_max
    assert recs[0].q == 1


def test_simultaneous_approx_exhaustive_oracle():
    # brute-force errors over all q <= 60 must reproduce the record chain
    with mp.workprec(128):
        x = [mp.sqrt(5) - 1, mp.pi / 4]
        recs = simultaneous_approx(x, 60)
        best = None
        expect = []
        for q in range(1, 61):
            p = [int(mp.nint(q * v)) for v in x]
            err = max(abs(v - mp.mpf(pi) / q) for v, pi in zip(x, p))
            if best is None or err < best:
                best = err
                if float(err * mp.mpf(q) ** mp.mpf(1.5)) <= 1:
                    expect.append((q, tuple(p)))
    assert [(r.q, r.p) for r in recs] == expect


def test_approximant_must_be_primitive():
    DirichletApproximant(3, (2, 1), 0, 0)
    with pytest.raises(ValueError):
        DirichletApproximant(2, (4, 6), 0, 0)


def test_lll_reduce_shortens():
    basis = [[Fraction(101), Fraction(0)], [Fraction(100), Fraction(1)]]
    red, _ = lll_reduce(basis)
    norms = sorted(sum(x * x for x in row) for row in red)
    assert norms[0] <= 2  # (1, -1) or shorter


def _textbook_lll(basis, delta=Fraction(99, 100)):
    """Textbook LLL over exact rationals, with the full Gram-Schmidt recomputed
    after every step: the oracle for the Gram-matrix route."""
    b = [list(map(Fraction, row)) for row in basis]
    k_dim = len(b)
    U = [[Fraction(1 if i == j else 0) for j in range(k_dim)] for i in range(k_dim)]

    def dot(u, v):
        return sum(a * c for a, c in zip(u, v))

    def gso():
        star = []
        mu = [[Fraction(0)] * k_dim for _ in range(k_dim)]
        for i in range(k_dim):
            v = list(b[i])
            for j in range(i):
                mu[i][j] = dot(b[i], star[j]) / dot(star[j], star[j])
                v = [a - mu[i][j] * c for a, c in zip(v, star[j])]
            star.append(v)
        return star, mu

    star, mu = gso()
    k = 1
    while k < k_dim:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [a - q * c for a, c in zip(b[k], b[j])]
                U[k] = [a - q * c for a, c in zip(U[k], U[j])]
                star, mu = gso()
        if dot(star[k], star[k]) >= (delta - mu[k][k - 1] ** 2) * dot(star[k - 1], star[k - 1]):
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            U[k], U[k - 1] = U[k - 1], U[k]
            star, mu = gso()
            k = max(k - 1, 1)
    return b, U


def test_lll_reduce_matches_textbook_lll():
    rng = random.Random(41)
    for _ in range(50):
        k = rng.randint(2, 5)
        width = k + rng.randint(0, 2)
        basis = [[Fraction(rng.randint(-60, 60), rng.choice((1, 1, 2, 3))) for _ in range(width)]
                 for _ in range(k)]
        assert lll_reduce(basis) == _textbook_lll(basis)


def test_simultaneous_approx_lll_route():
    with mp.workprec(192):
        recs = simultaneous_approx([mp.sqrt(2), mp.sqrt(3)], 200_000)  # q_max > 10^5: LLL
    assert recs
    for r in recs:
        assert float(r.quality) <= 1


def _exact_records(xv, q_max):
    """Record denominators of the exact rationals xv (mp floats), in
    Fractions: the q whose max_i |q x_i - round(q x_i)| / q is below that of
    every smaller q, with their errors."""
    xs = [Fraction(int(m)) * Fraction(2) ** int(ex) for m, ex in (v.man_exp for v in xv)]
    out = []
    for q in range(1, q_max + 1):
        err = max(abs(q * x - round(q * x)) for x in xs) / q
        if not out or err < out[-1][1]:
            out.append((q, err))
    return out


_SWEEP_TARGETS = {
    "golden": lambda: [(1 + mp.sqrt(5)) / 2],
    "dyadic": lambda: [mp.mpf(3) / 8],
    "third": lambda: [mp.mpf(1) / 3],
    "large": lambda: [mp.pi * 10 ** 6],
    "sqrt2_sqrt3": lambda: [mp.sqrt(2), mp.sqrt(3)],
    "equal": lambda: [mp.sqrt(2), mp.sqrt(2)],
    "sevenths": lambda: [mp.mpf(1) / 7, mp.mpf(-2) / 7],
    "mixed": lambda: [-mp.sqrt(7), mp.mpf("12345.678")],
    # float64 keeps 8 to 11 bits of these fractions, and the float errors put
    # an exact record (q = 40, 47) above an earlier error: only the bound's
    # 3 u max|x_i| term keeps it
    "huge": lambda: [mp.mpf("3484708533876.5733827024912899680830769")],
    "huge_pair": lambda: [mp.mpf("25780496928252.46932014088919372062080893"),
                          mp.mpf("29848748742972.61481071629817679157631316")],
}


@pytest.mark.parametrize("name", sorted(_SWEEP_TARGETS))
def test_record_candidates_sweep_keeps_every_exact_record(name):
    # the float screen's candidates hold every exact record, and the records
    # simultaneous_approx returns are exactly those with quality <= 1
    from subapprox.dirichlet import _record_candidates_sweep

    q_max = 3000
    with mp.workprec(128):
        xv = _SWEEP_TARGETS[name]()
    records = _exact_records(xv, q_max)
    assert {q for q, _ in records} <= set(_record_candidates_sweep(xv, q_max))
    n = len(xv)
    want = [q for q, err in records if (err * q) ** n * q <= 1]
    assert [r.q for r in simultaneous_approx(xv, q_max)] == want


# ----------------------------------------------------------- approximant -> B

def test_build_approximant_line():
    f = rnd_subspace(3, 4, 2)
    fb = flag_basis(f, 1)
    x = fb.approximation_vector()
    recs = simultaneous_approx(x, 500)
    skipped = 0
    prev_psi = None
    for r in recs:
        b = build_approximant(fb, r)
        if b is None:
            skipped += 1
            continue
        assert b.e == 1
        # H(B) <= |p| <= c q
        assert b.height_sq <= sum(p * p for p in r.p)
        psi = canonical_angles(f, real_view(b, 128)).sines[0]
        # psi_1(F, B) <= err * sqrt(N): B is spanned by q f + O(q err)
        assert float(psi) <= float(r.err) * math.sqrt(3) * 1.001 + 1e-25
    assert skipped == 0


def test_build_approximant_rational_target_exact():
    f = RealSubspace.from_vectors([(1, 2, 3, 0), (0, 1, 1, 1)])
    fb = flag_basis(f, 1)
    x = fb.approximation_vector()
    recs = simultaneous_approx(x, 3000)
    b = build_approximant(fb, recs[-1])
    if float(recs[-1].err) == 0 and b is not None:
        psi = canonical_angles(f, real_view(b, 128)).sines[0]
        assert float(psi) < 1e-30


# ------------------------------------------------------------- angle algebra

def test_direct_sum_bound_identical_parts():
    f1 = RealSubspace.from_vectors([(1, 0, 0, 0)])
    f2 = RealSubspace.from_vectors([(0, 1, 0, 0)])
    res = direct_sum_angle_bound([f1, f2], [f1, f2])
    assert float(res.lhs) < 1e-30
    assert float(res.rhs) < 1e-30


def test_direct_sum_bound_single_part_equality():
    a = rnd_subspace(8, 5, 2)
    b = rnd_subspace(9, 5, 2)
    res = direct_sum_angle_bound([a], [b])
    assert abs(float(res.lhs) - float(res.rhs)) < 1e-25


def test_direct_sum_bound_random_split():
    rng = random.Random(55)
    for t in range(25):
        f1 = rnd_subspace(rng.randint(0, 10 ** 6), 4, 1)
        f2 = rnd_subspace(rng.randint(0, 10 ** 6), 4, 1)
        b1 = rnd_subspace(rng.randint(0, 10 ** 6), 4, 1)
        b2 = rnd_subspace(rng.randint(0, 10 ** 6), 4, 1)
        res = direct_sum_angle_bound([f1, f2], [b1, b2])
        assert float(res.lhs) <= float(res.constant_bound) * float(res.rhs) + 1e-25


def test_line_decomposition_identical():
    d = rnd_subspace(4, 5, 2)
    res = line_decomposition(d, d)
    assert all(float(s) < 1e-30 for s in res.line_sines)


def test_line_decomposition_k1_equalities():
    d = rnd_subspace(1, 4, 1)
    e = rnd_subspace(2, 4, 1)
    res = line_decomposition(d, e)
    assert abs(float(res.sum_lines) - float(res.psi_k)) < 1e-30


def test_line_decomposition_sandwich_random():
    rng = random.Random(91)
    for _ in range(30):
        d = rnd_subspace(rng.randint(0, 10 ** 6), 4, 2)
        e = rnd_subspace(rng.randint(0, 10 ** 6), 4, 2)
        res = line_decomposition(d, e)
        k = 2
        assert float(res.psi_k) <= float(res.sum_lines) + 1e-25
        assert float(res.sum_lines) <= k * float(res.psi_k) + 1e-25


def test_unit_chord_examples():
    s, c = unit_chord_bound((1, 0), (0, 1))
    assert float(s) == 1 and abs(float(c) - math.sqrt(2)) < 1e-30
    r2 = 1 / math.sqrt(2)
    s, c = unit_chord_bound((1, 0), (r2, r2))
    assert float(s) <= 0.7072
    assert float(s) >= math.sqrt(2) / 2 * float(c) - 1e-15
    with pytest.raises(ValueError):
        unit_chord_bound((1, 0), (-1, 0))
    with pytest.raises(ValueError):
        unit_chord_bound((2, 0), (0, 1))


def test_unit_chord_random_bound():
    rng = random.Random(14)
    for _ in range(50):
        v = [rng.gauss(0, 1) for _ in range(4)]
        w = [rng.gauss(0, 1) for _ in range(4)]
        nv = math.sqrt(sum(a * a for a in v))
        nw = math.sqrt(sum(a * a for a in w))
        v = [a / nv for a in v]
        w = [a / nw for a in w]
        if sum(a * b for a, b in zip(v, w)) < 0:
            w = [-a for a in w]
        s, c = unit_chord_bound(v, w)
        assert float(s) >= math.sqrt(2) / 2 * float(c) - 1e-12


# ------------------------------------------------------------------ going up

def test_going_up_trivial_extension():
    a = rnd_subspace(1, 4, 2)
    b = from_generators([(1, 0, 0, 0)])
    # pure height minimization: a coordinate plane through e1 wins
    res = going_up_search(a, b, 1, budget=1, weight=0)
    assert res.c.e == 2
    assert res.c.height_sq == 1
    assert res.contained
    assert float(res.psi_after) <= float(res.psi_before) + 1e-25
    # default objective trades height against proximity but keeps containment
    res1 = going_up_search(a, b, 1, budget=1)
    assert res1.contained
    assert float(res1.psi_after) <= float(res.psi_before) + 1e-25


def test_going_up_random_lines():
    rng = random.Random(21)
    for _ in range(10):
        a = rnd_subspace(rng.randint(0, 10 ** 6), 4, 2)
        vec = tuple(rng.randint(-20, 20) for _ in range(4))
        if not any(vec):
            continue
        b = from_generators([vec])
        res = going_up_search(a, b, 1, budget=2)
        assert res.contained
        assert res.c.height_sq >= 1
        assert float(res.psi_after) <= float(res.psi_before) + 1e-20
        # exponent shape: H(C) <= kappa H(B)^(2/3) with a small constant
        assert res.height_ratio <= 4.0


def test_going_up_rejects_full_dim():
    a = rnd_subspace(5, 4, 2)
    b = from_generators([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    with pytest.raises(ValueError):
        going_up_search(a, b, 1)


def test_exponent_transfer_under_chained_going_up():
    # raising the record lines of a fixed target by one dimension rescales
    # the empirical exponent by at least (n - l)/(n - e), minus desk slack
    from subapprox.enumeration import (
        ApproximationRecord,
        enumerate_subspaces,
        estimate_exponent,
        scan_target,
    )
    from subapprox.exact import PluckerVec
    from subapprox.grassmann import from_plucker

    enum1 = enumerate_subspaces(4, 1, 30)
    for seed in (5, 6, 7):
        a = rnd_subspace(seed, 4, 2)
        res_b = scan_target(a, 1, 1, 30, enumeration=enum1)
        est_b = estimate_exponent(res_b.records)
        raised = []
        for r in res_b.records:
            coords = tuple(int(x) for x in r.subspace_key.split(":")[1].split())
            line = from_plucker(PluckerVec(4, 1, coords))
            res = going_up_search(a, line, 1, budget=2)
            raised.append((float(mp.sqrt(res.c.height_sq)), float(res.psi_after), res.c.key))
        raised.sort()
        chain, best = [], None
        for h, p, k in raised:
            if best is None or p < best:
                chain.append(ApproximationRecord(k, mp.mpf(h), mp.mpf(p), mp.mpf(p), 1))
                best = p
        est_c = estimate_exponent(chain)
        assert est_c.beta_hat >= 1.5 * est_b.beta_hat - 0.3


# ------------------------------------- going up: screened against exhaustive

def _exhaustive_table(a, b, j, budget, prec=128):
    """Every going-up candidate key of (A, B), with its squared height and its
    psi_j refined in mp, 0 below 2^-(prec/2): the search with no float screen."""
    from itertools import product

    from subapprox.dirichlet import _lll_gram, _projected_gram
    from subapprox.exact import (IntMat, PluckerVec, complete_to_unimodular,
                                 normalize_plucker, wedge_plucker)
    from subapprox.grassmann import from_plucker

    n, e = b.n, b.e
    cols = list(b.basis_vectors())
    extras = complete_to_unimodular(b.lattice_basis)
    U = _lll_gram(_projected_gram(cols, extras))
    reduced = [tuple(sum(c * u[i] for c, u in zip(row, extras)) for i in range(n)) for row in U]
    heights = {}
    for coeffs in product(range(-budget, budget + 1), repeat=len(reduced)):
        if not any(coeffs) or next(c for c in coeffs if c) < 0:
            continue
        v = tuple(sum(c * r[i] for c, r in zip(coeffs, reduced)) for i in range(n))
        try:
            raw = wedge_plucker(IntMat.from_columns(cols + [v]))
        except ValueError:
            continue
        pl = normalize_plucker(raw, n, e + 1)
        heights.setdefault(pl.coords, pl.norm_sq)
    tol = mp.mpf(2) ** -(prec // 2)

    def psi(c):
        s = canonical_angles(a, real_view(c, prec), precision_bits=prec).sines[j - 1]
        return s if s >= tol else mp.mpf(0)

    table = {key: (heights[key], psi(from_plucker(PluckerVec(n, e + 1, key))))
             for key in sorted(heights)}
    return table, psi(b)


def _exhaustive_pick(table, weight, prec=128):
    """The minimal (score, key) over the whole table, score = H psi^weight."""
    best = None
    with mp.workprec(prec):
        for key, (hsq, psi) in table.items():
            if psi == 0 and weight < 0:
                score = mp.inf
            else:
                score = mp.sqrt(mp.mpf(hsq)) * psi ** mp.mpf(weight) if weight else mp.sqrt(mp.mpf(hsq))
            if best is None or score < best[0] or (score == best[0] and key < best[1]):
                best = (score, key, psi)
    return best


def _assert_screen_matches_exhaustive(a, b, j, budget, weights=(0, 0.5, 1, 2)):
    table, psi_before = _exhaustive_table(a, b, j, budget)
    picks = []
    for w in weights:
        _, key, psi = _exhaustive_pick(table, w)
        res = going_up_search(a, b, j, budget=budget, weight=w)
        assert res.c.plucker.coords == key, (w, res.c.key, key)
        assert res.psi_after == psi  # mpf equality: bit for bit
        assert res.psi_before == psi_before
        picks.append(key)
    return table, picks


@pytest.mark.parametrize("n,e,j,budget", [
    (4, 1, 1, 2), (4, 2, 1, 2), (4, 2, 2, 2),
    (5, 1, 1, 1), (5, 2, 1, 2), (5, 2, 2, 2),
    (6, 1, 1, 1), (6, 2, 1, 1), (6, 2, 2, 1),
])
def test_going_up_screen_matches_exhaustive(n, e, j, budget):
    rng = random.Random(1000 * n + 100 * e + j)
    a = rnd_subspace(rng.randint(0, 10 ** 6), n, 2)
    while True:
        try:
            b = from_generators([[rng.randint(-6, 6) for _ in range(n)] for _ in range(e)])
            break
        except ValueError:
            continue
    _assert_screen_matches_exhaustive(a, b, j, budget)


def test_going_up_screen_rational_line_in_target():
    # every C contains B, a rational line of A, so every psi_1 is 0 up to mp
    # rounding and no candidate may be screened out
    with mp.workprec(128):
        a = RealSubspace.from_vectors([(1, 2, 0, 1), (0, mp.sqrt(2), 1, 0)])
    b = from_generators([(1, 2, 0, 1)])
    table, _ = _assert_screen_matches_exhaustive(a, b, 1, 2)
    assert max(float(psi) for _, psi in table.values()) < 1e-30


def test_going_up_screen_symmetric_ties_keep_smaller_key():
    # A is fixed by swapping x1 and x2 and contains the rational line e4, so
    # several extensions of B = <e1 + e2> meet A and score exactly 0
    with mp.workprec(128):
        a = RealSubspace.from_vectors([(1, 1, mp.sqrt(2), 0), (0, 0, 0, 1)])
    b = from_generators([(1, 1, 0, 0)])
    table, picks = _assert_screen_matches_exhaustive(a, b, 1, 2, weights=(0.5, 1, 2))
    tied = sorted(k for k, (_, psi) in table.items() if psi == 0)
    assert len(tied) > 1
    assert picks == [tied[0]] * 3


def test_going_up_screen_is_not_refused_like_a_large_scan(monkeypatch):
    # going-up screens more candidates than a scan may hold, in batches of a
    # few rows, and picks the same C as with one batch
    import subapprox.enumeration as enumeration

    a = rnd_subspace(3, 5, 2)
    b = from_generators([(2, -1, 3, 0, 1)])
    want = going_up_search(a, b, 1, budget=1)
    monkeypatch.setattr(enumeration, "_GENERIC_LIMIT", 7)
    monkeypatch.setattr(enumeration, "_GENERIC_BATCH_BYTES", 3000)
    got = going_up_search(a, b, 1, budget=1)
    assert got.candidates > 7
    assert (got.c.key, got.psi_after) == (want.c.key, want.psi_after)


def test_going_up_screen_scores_in_the_underflow_range(monkeypatch):
    # Float psi 0.5 at H = 1 and 0.499 at H = 100: with weight 1074 the scores
    # are about 4.9e-324 and 5.7e-323, but 0.499^1074 alone underflows to 0;
    # with weight -1074 both overflow.  Compared as logs, the smaller score is
    # kept and the larger one dropped.
    import numpy as np

    import subapprox.dirichlet as dirichlet
    from subapprox.enumeration import _float_psi_delta

    keys = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)]
    heights = {keys[0]: 1, keys[1]: 100 ** 2}
    monkeypatch.setattr(dirichlet, "_float_psi",
                        lambda *args: (np.array([0.5, 0.499]), _float_psi_delta(4, 2)))
    a = rnd_subspace(0, 4, 2)
    assert dirichlet._screen_candidates(a, keys, heights, 4, 2, 1, 1074.0, 128) == keys[:1]
    assert dirichlet._screen_candidates(a, keys, heights, 4, 2, 1, -1074.0, 128) == keys[:1]


def test_going_up_screen_matches_exhaustive_at_huge_weight():
    # weights at which the least scores H psi^weight, about 2e-348 and 3e-872,
    # lie below the float range
    rng = random.Random(5201)
    a = rnd_subspace(rng.randint(0, 10 ** 6), 5, 2)
    b = from_generators([(3, -1, 4, 1, -5), (0, 2, -6, 5, 3)])
    _assert_screen_matches_exhaustive(a, b, 1, 2, weights=(160, 400))


def test_going_up_negative_weight_scores_psi_zero_as_infinite():
    # B lies in A, so every C meets A: psi_1 is exactly 0 in mp for some C and
    # rounding-level for the rest, which counts as 0 too; 0^-1 is +inf, not a
    # ZeroDivisionError, so every score ties and the smallest key wins
    with mp.workprec(128):
        a = RealSubspace.from_vectors([(1, 1, 0, 0), (0, 0, 0, 1)])
    b = from_generators([(1, 1, 0, 0)])
    table, picks = _assert_screen_matches_exhaustive(a, b, 1, 1, weights=(-1, -0.5))
    assert all(psi == 0 for _, psi in table.values())
    assert picks == [min(table)] * 2


def test_going_up_screen_counts_psi_near_the_tolerance_as_zero(monkeypatch):
    # float psi 1.5 * 2^-64 above delta at H = 1: its exact psi may lie below
    # the zero tolerance 2^-64 and score +inf at weight -1, so its float score
    # (about e^44) may not drop a key of score 2e20 (psi 0.5 at H = 1e20)
    import numpy as np

    import subapprox.dirichlet as dirichlet
    from subapprox.enumeration import _float_psi_delta

    keys = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)]
    heights = {keys[0]: 1, keys[1]: 10 ** 40}
    near_zero = _float_psi_delta(4, 2) + 1.5 * 2.0 ** -64
    monkeypatch.setattr(dirichlet, "_float_psi",
                        lambda *args: (np.array([near_zero, 0.5]), _float_psi_delta(4, 2)))
    a = rnd_subspace(0, 4, 2)
    assert dirichlet._screen_candidates(a, keys, heights, 4, 2, 1, -1.0, 128) == keys
    assert dirichlet._screen_candidates(a, keys, heights, 4, 2, 1, 1.0, 128) == keys[:1]


def test_going_up_wedge_is_exact_beyond_int64():
    # B's entries exceed 2^40, so its Plucker vector eta exceeds 2^63 and so do
    # the raw wedges v ^ eta before their gcd is divided out: the pick must
    # still equal the exact (Bareiss) oracle's
    big = 2 ** 40
    a = rnd_subspace(17, 4, 2)
    b = from_generators([(big + 3, 5 * big - 1, 7, -(3 * big + 11)),
                         (2 * big + 1, -big, big + 9, 4)])
    assert max(abs(x) for x in b.plucker.coords) > 2 ** 63
    _assert_screen_matches_exhaustive(a, b, 1, 2, weights=(1,))
