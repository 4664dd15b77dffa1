import random

import numpy as np
import pytest
from mpmath import mp

from subapprox.exact import (
    annihilator,
    clear_denominators,
    complete_to_unimodular,
    det_int,
    gram_det_sq,
    hnf_rows,
    kernel_int,
    laplace_sign,
    normalize_plucker,
    subsets,
    wedge_plucker,
)
from subapprox.grassmann import from_generators


def test_gram_det_orthonormal_columns():
    assert gram_det_sq([(1, 0, 0, 0), (0, 1, 0, 0)]) == 1


def test_gram_det_single_column_is_squared_norm():
    assert gram_det_sq([(3, 4)]) == 25


def test_gram_det_hand_2x2():
    # Gram [[2,0],[0,2]] -> 4, worked by hand
    assert gram_det_sq([(1, 0, 1, 0), (0, 1, 0, 1)]) == 4


def test_gram_det_dimension_mismatch():
    with pytest.raises(ValueError):
        gram_det_sq([(1, 0), (0, 1), (1, 1)])


def test_gram_det_negative_determinant_raises(monkeypatch):
    # the check survives python -O, unlike the assert it replaces
    monkeypatch.setattr("subapprox.exact.det_int", lambda m: -1)
    with pytest.raises(ArithmeticError):
        gram_det_sq([(1, 0), (0, 1)])


def test_wedge_identity_minors():
    assert wedge_plucker([(1, 0, 0, 0), (0, 1, 0, 0)]) == (1, 0, 0, 0, 0, 0)


def test_wedge_hand_example():
    # (e1+e3) wedge (e2+e4), worked by hand over the lex pairs
    assert wedge_plucker([(1, 0, 1, 0), (0, 1, 0, 1)]) == (1, 0, 1, -1, 0, 1)


def test_wedge_dependent_columns_rejected():
    with pytest.raises(ValueError):
        wedge_plucker([(1, 2, 3), (2, 4, 6)])


def test_cauchy_binet_random():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 6)
        e = rng.randint(1, min(3, n))
        m = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(e)]
        try:
            w = wedge_plucker(m)
        except ValueError:
            continue
        assert sum(x * x for x in w) == gram_det_sq(m)


def test_normalize_plucker_gcd_and_sign():
    assert normalize_plucker((2, 0, 4, -2, 0, 2), 4, 2).coords == (1, 0, 2, -1, 0, 1)
    assert normalize_plucker((-1, 0, 0, 0, 0, 0), 4, 2).coords == (1, 0, 0, 0, 0, 0)
    assert normalize_plucker((1, 0, 1, -1, 0, 1), 4, 2).coords == (1, 0, 1, -1, 0, 1)


def test_normalize_plucker_zero_rejected():
    with pytest.raises(ValueError):
        normalize_plucker((0, 0, 0, 0, 0, 0), 4, 2)


def test_saturate_gcd_division():
    assert from_generators([(2, 0)]).lattice_basis == ((1, 0),)


def test_saturate_contains_expected_vector():
    # span{(1,0,0),(0,2,2)} meets Z^3 in Z(1,0,0)+Z(0,1,1); worked via Smith form
    got = from_generators([(1, 0, 0), (0, 2, 2)]).lattice_basis
    assert (0, 1, 1) in got
    assert len(got) == 2


def test_saturate_index_two_sublattice():
    # (1,1),(1,-1) has determinant 2; saturation is all of Z^2
    got = from_generators([(1, 1), (1, -1)]).lattice_basis
    assert sorted(got) == [(0, 1), (1, 0)]


def test_saturate_dependent_rejected():
    with pytest.raises(ValueError):
        from_generators([(1, 2), (2, 4)])


def test_saturate_idempotent_and_basis_invariant():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 5)
        e = rng.randint(1, min(3, n - 1))
        gens = [tuple(rng.randint(-8, 8) for _ in range(n)) for _ in range(e)]
        try:
            b1 = from_generators(gens).lattice_basis
        except ValueError:
            continue
        b2 = from_generators(b1).lattice_basis
        assert hnf_rows(b1) == hnf_rows(b2)
        w1 = normalize_plucker(wedge_plucker(b1), n, e)
        w2 = normalize_plucker(wedge_plucker(b2), n, e)
        assert w1.coords == w2.coords
        # mixing generators (unimodular combinations) changes nothing
        if e == 2:
            u, v = b1
            mixed = from_generators([tuple(3 * a + b for a, b in zip(u, v)), v]).lattice_basis
            assert hnf_rows(mixed) == hnf_rows(b1)


def test_kernel_int_simple():
    assert kernel_int([(1, 0, 0)], width=3) == [(0, 1, 0), (0, 0, 1)]
    assert kernel_int([(1, 1, 1)], width=3) == [(1, 0, -1), (0, 1, -1)]


def test_kernel_int_is_saturated():
    # kernel of (2, -4): contains (2,1), saturated basis must be (2,1) itself
    assert kernel_int([(2, -4)], width=2) == [(2, 1)]


def test_kernel_int_rank_mismatch_raises(monkeypatch):
    import subapprox.exact as exact

    real = exact._echelon
    monkeypatch.setattr(exact, "_echelon", lambda m, width: real(m, width) + 1)
    with pytest.raises(ArithmeticError):
        kernel_int([(1, 0, 0)], width=3)


def test_laplace_expansion_identity():
    # det M = sum_S sign(S) * minor(first e cols, S) * minor(rest, S complement)
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(2, 6)
        e = rng.randint(1, n - 1)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        subs_e = subsets(n, e)
        total = 0
        for s in subs_e:
            comp = tuple(i for i in range(n) if i not in s)
            m1 = det_int([m[i][:e] for i in s])
            m2 = det_int([m[i][e:] for i in comp])
            total += laplace_sign(s) * m1 * m2
        assert total == det_int(m)


def test_laplace_pairing_reverses_lex_order():
    # complement of the i-th e-subset is the (N+1-i)-th (n-e)-subset in lex order
    for n, e in ((4, 2), (5, 2), (5, 3), (6, 3)):
        subs_e = subsets(n, e)
        subs_c = subsets(n, n - e)
        big = len(subs_e)
        for i, s in enumerate(subs_e):
            comp = tuple(x for x in range(n) if x not in s)
            assert subs_c[big - 1 - i] == comp


def test_complete_to_unimodular():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 5)
        e = rng.randint(1, n - 1)
        try:
            gens = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(e)]
            basis = from_generators(gens).lattice_basis
        except ValueError:
            continue
        extra = complete_to_unimodular(basis)
        full = list(basis) + extra
        assert abs(det_int([[full[j][i] for j in range(n)] for i in range(n)])) == 1


def test_clear_denominators():
    from fractions import Fraction

    assert clear_denominators([Fraction(1, 2), Fraction(0), Fraction(3)]) == (1, 0, 6)
    assert clear_denominators([1, 2]) == (1, 2)


def _minors(vectors):
    """The reference wedge: the Bareiss e x e minor of each lex-ordered subset."""
    n = len(vectors[0])
    return [det_int([[v[i] for i in sub] for v in vectors]) for sub in subsets(n, len(vectors))]


@pytest.mark.parametrize("n,e", [(4, 1), (4, 2), (5, 2), (5, 3), (6, 2), (6, 3)])
def test_annihilator_is_the_wedge_with_the_blade(n, e):
    # v @ annihilator(eta) is v ^ eta, the minors of B's basis and v up to the
    # sign (-1)^e of moving v to the front: in int64, in object arrays of
    # Python ints beyond 2^63, and for an mpf eta, whose entries are +-eta[S]
    rng = random.Random(100 * n + e)
    for _ in range(10):
        basis = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(e)]
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        eta = _minors(basis)
        if not any(eta):
            continue
        M = annihilator(np.array(eta), n, e)
        assert M.dtype == np.int64
        assert (np.array(v) @ M).tolist() == [(-1) ** e * w for w in _minors(basis + [v])]
        narrow = annihilator(np.array(eta, dtype=np.int16), n, e)
        assert narrow.dtype == np.int16 and (narrow == M).all()

        big_basis = [tuple(x * (2 ** 64 + 3) for x in basis[0]), *basis[1:]]
        big_v = tuple(x * 2 ** 65 for x in v)
        big = annihilator(np.array(_minors(big_basis), dtype=object), n, e)
        got = (np.array(big_v, dtype=object) @ big).tolist()
        assert got == [(-1) ** e * w for w in _minors(big_basis + [big_v])]
        assert all(type(x) is int for x in got) and (not any(got) or max(map(abs, got)) >= 2 ** 63)

        with mp.workprec(96):
            scaled = [mp.mpf(w) * mp.pi for w in eta]
            real = annihilator(np.array(scaled, dtype=object), n, e)
            assert real.dtype == object
            assert all(isinstance(x, mp.mpf) or x == 0 for x in real.flat)
            assert [[x * mp.pi for x in row] for row in M.tolist()] == real.tolist()


def test_wedge_plucker_is_the_bareiss_minors():
    # the table wedge v_1 ^ (v_2 ^ ...) against det_int per subset, for every
    # e <= n <= 7, with entries beyond 2^63; dependent sets still raise
    rng = random.Random(44)
    for n in range(1, 8):
        for e in range(1, n + 1):
            for _ in range(6):
                basis = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(e)]
                want = _minors(basis)
                if not any(want):
                    with pytest.raises(ValueError):
                        wedge_plucker(basis)
                    continue
                assert wedge_plucker(basis) == tuple(want)
                big = [tuple(x << 64 for x in basis[0]), *basis[1:]]
                assert wedge_plucker(big) == tuple(w << 64 for w in want)
                if e >= 2:  # the last vector a combination of the others
                    last = tuple(3 * a - 2 * b for a, b in zip(basis[0], basis[-2]))
                    with pytest.raises(ValueError):
                        wedge_plucker([*basis[:-1], last])
            with pytest.raises(ValueError):
                wedge_plucker([(1,) * n] * (n + 1))
