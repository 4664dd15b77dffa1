import math
import random

import pytest
from mpmath import mp

from subapprox.angles import (
    AngleProfile,
    RealSubspace,
    canonical_angles,
    phi_via_det,
    principal_pairs,
    sin_angle,
)
from subapprox.grassmann import from_generators, real_view

from oracles import gram_residual


def rs(*vectors, prec=128):
    return RealSubspace.from_vectors(vectors, precision_bits=prec)


def random_subspace(rng, n, d, prec=128):
    return RealSubspace.from_vectors(
        [[rng.gauss(0, 1) for _ in range(n)] for _ in range(d)], precision_bits=prec
    )


def test_sin_angle_basics():
    assert float(sin_angle((1, 0), (0, 1))) == 1
    assert abs(float(sin_angle((1, 0), (1, 1))) - math.sqrt(2) / 2) < 1e-30
    assert float(sin_angle((1, 2, 3), (-2, -4, -6))) < 1e-35
    with pytest.raises(ValueError):
        sin_angle((0, 0), (1, 0))


def test_sin_angle_symmetric_and_scale_invariant():
    rng = random.Random(2)
    for _ in range(30):
        x = [rng.gauss(0, 1) for _ in range(4)]
        y = [rng.gauss(0, 1) for _ in range(4)]
        a = sin_angle(x, y)
        b = sin_angle(y, x)
        # powers of two scale floats exactly
        c = sin_angle([4 * v for v in x], [-8 * v for v in y])
        with mp.workprec(200):
            assert abs(a - b) < 1e-35
            assert abs(a - c) < 1e-35


def test_orthonormalization_residual():
    rng = random.Random(5)
    for prec in (128, 256):
        a = random_subspace(rng, 5, 3, prec)
        assert float(gram_residual(a)) < 2.0 ** (-prec + 8)


def test_canonical_angles_identical_subspaces():
    a = rs((1, 0, 0, 0), (0, 1, 0, 0))
    prof = canonical_angles(a, a)
    assert all(float(s) < 1e-30 for s in prof.sines)
    assert float(prof.phi) < 1e-30


def test_canonical_angles_orthogonal_planes():
    a = rs((1, 0, 0, 0), (0, 1, 0, 0))
    b = rs((0, 0, 1, 0), (0, 0, 0, 1))
    prof = canonical_angles(a, b)
    assert [float(s) for s in prof.sines] == [1.0, 1.0]
    assert float(prof.phi) == 1.0


def test_canonical_angles_consistent_with_sin_angle():
    a = rs((1, 0))
    b = rs((1, 1))
    prof = canonical_angles(a, b)
    assert abs(prof.sines[0] - sin_angle((1, 0), (1, 1))) < 1e-35


def test_profile_monotone_and_lemma_bound():
    # psi_j >= phi^(1/j) for every j, and the profile ascends
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 6)
        d = rng.randint(1, n - 1)
        e = rng.randint(1, n - d)
        a = random_subspace(rng, n, d)
        b = random_subspace(rng, n, e)
        prof = canonical_angles(a, b)
        s = [float(x) for x in prof.sines]
        assert all(x <= y + 1e-30 for x, y in zip(s, s[1:]))
        ph = float(prof.phi)
        for j, sj in enumerate(s, start=1):
            assert sj >= ph ** (1.0 / j) - 1e-12


def test_basis_invariance():
    # exact rational vectors so that recombining stays in the same span
    from fractions import Fraction

    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(3, 6)
        d = rng.randint(2, n - 1)
        vecs = [[Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(n)]
                for _ in range(d)]
        a1 = RealSubspace.from_vectors(vecs)
        mixed = [[x + Fraction(1, 2) * y for x, y in zip(vecs[0], vecs[-1])]] + vecs[1:]
        a2 = RealSubspace.from_vectors(mixed)
        b = random_subspace(rng, n, rng.randint(1, n - d))
        p1 = canonical_angles(a1, b)
        p2 = canonical_angles(a2, b)
        with mp.workprec(200):
            for s1, s2 in zip(p1.sines, p2.sines):
                assert abs(s1 - s2) < 1e-33


def test_containment_monotonicity():
    # B inside C brings C at least as close to A, for j <= dim B
    rng = random.Random(13)
    for _ in range(25):
        n = 5
        a = random_subspace(rng, n, 2)
        v1 = [rng.gauss(0, 1) for _ in range(n)]
        v2 = [rng.gauss(0, 1) for _ in range(n)]
        b = RealSubspace.from_vectors([v1])
        c = RealSubspace.from_vectors([v1, v2])
        pb = canonical_angles(a, b)
        pc = canonical_angles(a, c)
        assert float(pc.sines[0]) <= float(pb.sines[0]) + 1e-30


def test_small_angle_relative_accuracy():
    # a plane tilted by 1e-12 from a coordinate plane: sine must come out
    # with full relative accuracy, not sqrt(1-cos^2) noise
    t = mp.mpf("1e-12")
    a = rs((1, 0, 0, 0), (0, 1, 0, 0))
    b = RealSubspace.from_vectors([(1, 0, 0, 0), (0, 1, t, 0)])
    prof = canonical_angles(a, b)
    expected = t / mp.sqrt(1 + t * t)
    assert abs(prof.sines[-1] - expected) / expected < 1e-20
    assert float(prof.sines[0]) < 1e-30


def test_phi_via_det_hand_examples():
    a = rs((1, 0))
    b = from_generators([(1, 1)])
    got = phi_via_det(a, b.lattice_basis)
    with mp.workprec(200):
        assert abs(got - mp.sqrt(2) / 2) < 1e-30
    b2 = from_generators([(0, 1)])
    with mp.workprec(200):
        assert abs(phi_via_det(a, b2.lattice_basis) - 1) < 1e-30


def test_phi_matches_det_route():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(2, 5)
        e = rng.randint(1, n - 1)
        d = n - e
        a = random_subspace(rng, n, d)
        gens = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(e)]
        try:
            b = from_generators(gens)
        except ValueError:
            continue
        p1 = canonical_angles(a, real_view(b, 128)).phi
        p2 = phi_via_det(a, b.lattice_basis)
        assert abs(p1 - p2) < 1e-25


def test_phi_via_det_dimension_guard():
    a = rs((1, 0, 0), (0, 1, 0))
    b = from_generators([(0, 0, 1), (0, 1, 0)])
    with pytest.raises(ValueError):
        phi_via_det(a, b.lattice_basis)


def test_angle_profile_rejects_descending_sines():
    AngleProfile((0.1, 0.5), 0.05)
    AngleProfile((0.5, 0.5), 0.25)
    with pytest.raises(ValueError):
        AngleProfile((0.5, 0.1), 0.05)


def test_principal_pairs_biorthogonal():
    rng = random.Random(4)
    for _ in range(15):
        n = rng.randint(3, 6)
        k = rng.randint(1, n // 2)
        a = random_subspace(rng, n, k)
        b = random_subspace(rng, n, k)
        pairs, prof = principal_pairs(a, b)
        with mp.workprec(200):
            for i, (x, y) in enumerate(pairs):
                for i2, (x2, y2) in enumerate(pairs):
                    if i != i2:
                        assert abs(mp.fsum(p * q for p, q in zip(x, y2))) < 1e-30
                c = float(mp.fsum(p * q for p, q in zip(x, y)))
                s = math.sqrt(max(0.0, 1 - c * c))
                assert abs(s - float(prof.sines[i])) < 1e-12
