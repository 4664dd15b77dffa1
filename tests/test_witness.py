import itertools
import math
import random

import numpy as np
import pytest
from mpmath import mp

from subapprox.angles import canonical_angles, phi_via_det
from subapprox.enumeration import enumerate_subspaces
from subapprox.exact import hodge_twist
from subapprox.grassmann import from_generators, real_view
from subapprox.witness import (
    _R5_SEARCH_QUADRICS,
    _square_roots,
    _float_values,
    _screen_values,
    lower_bound_check,
    parse_param,
    r4_irrationality_certificate,
    r5_plucker_coords,
    r5_relation_residuals,
    r5_trivial_solution_search,
    target_plucker,
    witness_r4,
    r4_vectors,
    witness_r5,
    _r5_zetas,
)

from oracles import gram_residual, r4_search_cube, r5_search_loop

# the benchmark's witness parameters (perfbench/workloads.py): no rational
# plane meets these R^4 witnesses, and every R^5 one meets span(e1, e4 - e5)
R4_PARAMS = ("sqrt2", "sqrt5", "sqrt3+1/4", "sqrt2+1/3", "sqrt5-1", "sqrt3-1/2",
             "sqrt2-1/5", "sqrt5+1/7")
R5_PARAMS = ("sqrt3+1/4", "3/2", "2", "sqrt2", "7/4", "sqrt3", "sqrt5", "5/2")


def test_parse_param():
    with mp.workprec(128):
        assert abs(parse_param("sqrt2") - mp.sqrt(2)) < 1e-35
        assert parse_param("3/2") == 1.5
        assert parse_param("1.25") == 1.25
        assert abs(parse_param("sqrt3+1/4") - (mp.sqrt(3) + 0.25)) < 1e-35
        assert parse_param(5) == 5
    # the value is evaluated at the working precision
    for prec in (64, 256):
        with mp.workprec(prec):
            assert parse_param("sqrt2") == mp.sqrt(2)
    with pytest.raises(ValueError):
        parse_param("nope")


def test_r4_vectors_are_orthogonal_norm_8():
    v1, v2 = r4_vectors("sqrt2", 128)
    with mp.workprec(128):
        ip = mp.fsum(a * b for a, b in zip(v1, v2))
        assert abs(ip) < 1e-36
        assert abs(mp.fsum(a * a for a in v1) - 8) < 1e-35
        assert abs(mp.fsum(a * a for a in v2) - 8) < 1e-35
        # for x = sqrt2 the second radical is sqrt5
        assert abs(v1[3] - mp.sqrt(5)) < 1e-35


def test_r4_out_of_range():
    with pytest.raises(ValueError):
        witness_r4("3")  # 3 > sqrt(7)


def test_r4_self_angles_zero():
    a = witness_r4("sqrt2")
    prof = canonical_angles(a, a)
    assert all(float(s) < 1e-30 for s in prof.sines)


def test_r4_irrationality_certificate():
    cert = r4_irrationality_certificate(50)
    assert cert["passed"]
    assert cert["nonzero_solutions"] == []
    assert cert["mod4_all_even"]
    assert (0, 0, 0) in cert["mod4_classes"]


def test_r4_quadric_has_near_solutions_catchable():
    # sanity: the search is real; the analogous quadric b^2+c^2=2a^2 has
    # plenty of solutions, so an all-zero result is not vacuous
    rng = np.arange(-10, 11)
    A, B, C = np.meshgrid(rng, rng, rng, indexing="ij")
    assert ((B * B + C * C == 2 * A * A) & (A != 0)).any()


def _r4_det_pairing(xi, eta, precision_bits=128):
    """The 4x4 determinant det[X1 X2 Y1 Y2] via the Laplace pairing
    -n6 + n5 x - n4 s - n3 s - n2 x + 7 n1, with s = sqrt(7 - x^2)."""
    with mp.workprec(precision_bits):
        x = parse_param(xi)
        s = mp.sqrt(7 - x * x)
        n1, n2, n3, n4, n5, n6 = [mp.mpf(v) for v in eta]
        return -n6 + n5 * x - n4 * s - n3 * s - n2 * x + 7 * n1


def test_r4_det_identity_against_direct_determinant():
    # Laplace pairing value == det of the stacked 4x4 matrix, for random planes
    rng = random.Random(42)
    checked = 0
    while checked < 100:
        gens = [tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(2)]
        try:
            b = from_generators(gens)
        except ValueError:
            continue
        v1, v2 = r4_vectors("sqrt2", 192)
        with mp.workprec(192):
            m = mp.matrix(4, 4)
            for i in range(4):
                m[i, 0] = v1[i]
                m[i, 1] = v2[i]
                y1, y2 = b.lattice_basis
                m[i, 2] = y1[i]
                m[i, 3] = y2[i]
            direct = mp.det(m)
            pairing = _r4_det_pairing("sqrt2", b.plucker.coords, 192)
            assert abs(direct - pairing) < 1e-40 * max(1, abs(direct))
        checked += 1


def test_r5_zeta_closed_forms_at_3_half():
    z1, z2, z4, z5 = _r5_zetas(mp.mpf(3) / 2, 128)
    with mp.workprec(128):
        assert abs(z5 - mp.mpf(3) / 10) < 1e-35
        assert abs(z4 - mp.mpf(27) / 10) < 1e-35


def test_r5_residuals_tiny_and_scaling():
    # residuals of the built coordinates track 2^-prec as precision doubles
    for tok in ("3/2", "sqrt3+1/4", "5"):
        res128 = r5_relation_residuals(r5_plucker_coords(tok, 128), precision_bits=1200)
        res256 = r5_relation_residuals(r5_plucker_coords(tok, 256), precision_bits=1200)
        res512 = r5_relation_residuals(r5_plucker_coords(tok, 512), precision_bits=1200)
        with mp.workprec(600):
            m128 = max(abs(r) for r in res128)
            m256 = max(abs(r) for r in res256)
            m512 = max(abs(r) for r in res512)
            assert m128 < mp.mpf(2) ** -100
            assert m256 < mp.mpf(2) ** -100
            assert m256 < m128 / mp.mpf(2) ** 60 or m256 == 0
            assert m512 < m256 / mp.mpf(2) ** 60 or m512 == 0


def test_r5_param_guard():
    with pytest.raises(ValueError):
        r5_plucker_coords("1", 128)


def test_witness_r5_recovery():
    spec, sub = witness_r5("3/2", 128)
    assert sub.n == 5 and sub.dim == 3
    assert float(gram_residual(sub)) < 1e-30
    # the recovered subspace reproduces the Plucker direction
    with mp.workprec(128):
        got = target_plucker(sub)
        want = spec.derived
        nrm = mp.sqrt(mp.fsum(c * c for c in want))
        want = [c / nrm for c in want]
        sign = 1 if got[0] * want[0] > 0 else -1
        for g, w in zip(got, want):
            assert abs(g - sign * w) < 1e-30
    assert float(spec.annihilator_residual) < 1e-30
    with mp.workprec(200):
        assert max(abs(r) for r in spec.relation_residuals) < mp.mpf(2) ** -100


def _r5_tolerance_from(monkeypatch, bits):
    """Make witness_r5's residual check fail below ``bits`` bits."""
    import subapprox.witness as w

    tol = w.r5_residual_tol
    monkeypatch.setattr(w, "r5_residual_tol",
                        lambda coords, prec: tol(coords, prec) if prec >= bits else mp.mpf(-1))


def test_witness_r5_escalates_to_twice_the_precision(monkeypatch, tmp_path):
    import json

    from subapprox.cli import main

    _r5_tolerance_from(monkeypatch, 256)
    spec, sub = witness_r5("sqrt3+1/4", 128)
    assert spec.precision_bits == sub.precision_bits == 256
    # the escalated witness is scanned and lower-bounded at 256 bits; it still
    # meets the rational plane span(e1, e4 - e5)
    out = tmp_path / "r5.json"
    assert main(["witness", "r5", "--lower-bound", "--hmax", "3", "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["lower_bound"]["rational_target"] is True


def test_witness_r5_fails_at_both_precisions(monkeypatch, capsys):
    from subapprox.cli import main

    _r5_tolerance_from(monkeypatch, 1 << 20)
    assert main(["witness", "r5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    with mp.workprec(256):
        worst = max(abs(r) for r in r5_relation_residuals(r5_plucker_coords("sqrt3+1/4", 256)))
        assert mp.nstr(worst, 8) in err  # the residual that failed, by value


def test_r5_trivial_solution_search():
    cert = r5_trivial_solution_search(12)
    assert cert["passed"]
    assert cert["nonzero_solutions"] == []


def test_r5_witness_meets_a_small_rational_plane():
    # Pins observed behavior: the ten assembled coordinates have x7 = -z and
    # x8 = +z, so the pairing against the plane span(e1, e4 - e5) cancels
    # identically and the witness contains a direction of that plane for
    # every parameter.  Proximity scans against it must flag a rational hit.
    b0 = from_generators([(1, 0, 0, 0, 0), (0, 0, 0, 1, -1)])
    assert b0.height_sq == 2
    for tok in ("3/2", "sqrt3+1/4"):
        coords = r5_plucker_coords(tok, 128)
        with mp.workprec(128):
            assert abs(coords[6] + coords[7]) < mp.mpf(2) ** -100
        spec, sub = witness_r5(tok, 128)
        prof = canonical_angles(sub, real_view(b0, 128))
        assert float(prof.sines[0]) < 1e-30
        assert float(prof.sines[-1]) > 0.9


def test_r5_search_catches_planted_solution(monkeypatch):
    # dropping one quadric from the system admits nonzero solutions, so the
    # search machinery itself is exercised
    import subapprox.witness as w

    rng = np.arange(-6, 7, dtype=np.int64)
    B, C, D = np.meshgrid(rng, rng, rng, indexing="ij")
    found = False
    for a in rng:
        ok = np.ones(B.shape, dtype=bool)
        for q in w._R5_SEARCH_QUADRICS[1:]:
            ok &= q(a, B, C, D) == 0
        ok &= (a != 0) | (B != 0) | (C != 0) | (D != 0)
        if ok.any():
            found = True
            break
    assert found
    # and with a^2 - b^2 planted in the first quadric's place, the search
    # finds exactly the nonzero solutions of a plain loop, in order
    system = (lambda a, b, c, d: a * a - b * b, *w._R5_SEARCH_QUADRICS[1:])
    want = [v for v in itertools.product(range(-6, 7), repeat=4)
            if any(v) and all(q(*v) == 0 for q in system)]
    monkeypatch.setattr(w, "_R5_SEARCH_QUADRICS", system)
    assert len(want) == 24 and w.r5_trivial_solution_search(6)["nonzero_solutions"] == want


@pytest.mark.parametrize("bound", range(1, 7))
def test_r5_search_matches_the_loop_oracle(bound):
    import subapprox.witness as w

    want = r5_search_loop(w._R5_SEARCH_QUADRICS, bound)
    assert r5_trivial_solution_search(bound)["nonzero_solutions"] == want


_Q = _R5_SEARCH_QUADRICS
PLANTED = [  # a system whose first quadric is a^2 + g, and its nonzero solutions at bound 6
    ((lambda a, b, c, d: a * a - b * b, *_Q[1:]), 24),
    ((lambda a, b, c, d: a * a - b * b + c * d, lambda a, b, c, d: a * c - b * d), 48),
    ((lambda a, b, c, d: a * a - b * b - c * c + d * d - 2 * b * c, lambda a, b, c, d: a * d - b * c), 96),
    ((_Q[0], lambda a, b, c, d: a - b), 56),
    ((lambda a, b, c, d: a * a - c * c,), 4224),  # g omits b and d
    ((lambda a, b, c, d: a * a,), 2196),  # g = 0: every root is a = 0
]


@pytest.mark.parametrize("system,count", PLANTED, ids=["system%d" % i for i in range(len(PLANTED))])
def test_r5_search_matches_the_loop_oracle_on_planted_systems(monkeypatch, system, count):
    import subapprox.witness as w

    want = r5_search_loop(system, 6)
    assert len(want) == count
    assert any(v[0] for v in want) == (count != 2196)
    monkeypatch.setattr(w, "_R5_SEARCH_QUADRICS", system)
    assert w.r5_trivial_solution_search(6)["nonzero_solutions"] == want


def test_r5_first_quadric_is_a_squared_plus_g():
    # two quadratics that agree on {0, 1, 2}^4 are equal
    first = _R5_SEARCH_QUADRICS[0]
    for a, b, c, d in itertools.product(range(3), repeat=4):
        assert first(a, b, c, d) == a * a + first(0, b, c, d)
    # g's coefficients sum to 7 in absolute value, so |g| <= 7 * 107^2 fits
    # int32 at the largest bound a search admits
    unit = np.eye(3, dtype=int).tolist()
    g = lambda x: first(0, *x)
    coefs = [g(unit[i]) if i == j else g(np.add(unit[i], unit[j]).tolist()) - g(unit[i]) - g(unit[j])
             for i in range(3) for j in range(i, 3)]
    assert sum(map(abs, coefs)) == 7 and 7 * 107 ** 2 < 2 ** 31
    assert r5_trivial_solution_search(107)["passed"]
    with pytest.raises(ValueError, match="more than"):
        r5_trivial_solution_search(108)


def test_square_roots_of_planted_arrays():
    q = np.array([[0, -1, -4], [2, 25, 26], [36, 9, 3]], dtype=np.int32)
    at, a = _square_roots(q, 5)
    # 0 once, 25 = 5^2 at the bound as +-5, 9 as +-3; not 36 = 6^2 above it
    assert sorted(zip(at.tolist(), a.tolist())) == [(0, 0), (4, -5), (4, 5), (7, -3), (7, 3)]
    big = 46340 ** 2  # the largest square below 2^31
    at, a = _square_roots(np.array([big - 1, big, big + 1, -big], dtype=np.int32), 46340)
    assert sorted(zip(at.tolist(), a.tolist())) == [(1, -46340), (1, 46340)]
    assert _square_roots(np.array([big]), 46339)[0].size == 0


def test_r4_search_matches_the_cube():
    for bound in range(1, 61):
        assert r4_irrationality_certificate(bound)["nonzero_solutions"] == r4_search_cube(bound)


def test_lower_bound_check_coordinate_planes():
    a = witness_r4("sqrt2")
    enum = enumerate_subspaces(4, 2, 1)
    rep = lower_bound_check(a, 2, 3.0, 1, enumeration=enum)
    assert rep.count == 6
    assert rep.passed()
    # min over the six coordinate planes of |pairing| is 1/8 (H = 1)
    with mp.workprec(128):
        assert abs(rep.c_min - mp.mpf(1) / 8) < 1e-30


def test_lower_bound_check_exponent_zero_is_min_phi():
    a = witness_r4("sqrt2")
    enum = enumerate_subspaces(4, 2, 3)
    rep = lower_bound_check(a, 2, 0.0, 3, enumeration=enum)
    assert 0 < float(rep.c_min) <= 1


def test_lower_bound_check_rational_target_flagged():
    from subapprox.angles import RealSubspace

    a = RealSubspace.from_vectors([(1, 0, 0, 0), (0, 1, 0, 0)])
    enum = enumerate_subspaces(4, 2, 2)
    rep = lower_bound_check(a, 2, 3.0, 2, enumeration=enum)
    assert rep.rational_target
    assert not rep.passed()


def test_lower_bound_matches_phi_via_det():
    # the vectorized pairing agrees with the per-subspace determinant route
    a = witness_r4("sqrt2")
    enum = enumerate_subspaces(4, 2, 2)
    rep = lower_bound_check(a, 2, 3.0, 2, enumeration=enum)
    best = None
    for b in map(enum.subspace_at, range(len(enum))):
        with mp.workprec(128):
            v = phi_via_det(a, b.lattice_basis) * mp.mpf(b.height_sq) ** (mp.mpf(3) / 2)
        if best is None or v < best:
            best = v
    with mp.workprec(128):
        assert abs(best - rep.c_min) < 1e-25


def _unscreened_min(a, enum, exponent):
    """(least mp value, its key) over every row of ``enum``, by
    lower_bound_check's formula |<a, *eta>| H^2^((exponent - 1) / 2) and
    without its float screen; exact ties keep the lexicographically smaller key."""
    apl = target_plucker(a)
    rows, h2 = enum.pluckers.tolist(), enum.heights_sq.tolist()
    twisted = hodge_twist(enum.pluckers, enum.n, a.dim).tolist()
    with mp.workprec(a.precision_bits):
        p = (mp.mpf(exponent) - 1) / 2
        power = {h: mp.mpf(h) ** p for h in set(h2)}
        v, row = min((abs(mp.fsum(x * t for x, t in zip(apl, tw))) * power[h], row)
                     for tw, h, row in zip(twisted, h2, rows))
    return v, "%d %d : %s" % (enum.n, enum.e, " ".join(map(str, row)))


@pytest.mark.parametrize("kind, param, hmax", [
    ("r4", "sqrt2", 8), ("r4", "sqrt5-1", 8), ("r4", "sqrt3+1/4", 8),
    # the least value is one of many exact zero pairings: the float argmin
    # and its near-ties once missed it
    ("r5", "5/2", 5),
])
def test_lower_bound_is_the_least_mp_value_of_every_row(kind, param, hmax):
    a = witness_r4(param) if kind == "r4" else witness_r5(param)[1]
    enum = enumerate_subspaces(a.n, a.n - a.dim, hmax)
    rep = lower_bound_check(a, a.n - a.dim, 3.0, hmax, enumeration=enum)
    assert (rep.c_min, rep.argmin_key) == _unscreened_min(a, enum, 3.0)


def _exact_ratios(a, enum):
    """|v - v_mp| / (delta / 2) for every row of _float_values at exponent 3,
    exactly: v_mp = |<a, *eta>| H^2 for A's mp unit Plucker vector a is a
    dyadic rational, so v, v_mp and delta / 2 are compared as integers
    scaled by one power of two."""
    apl = target_plucker(a)
    values, delta = _float_values(apl, enum.pluckers, enum.n, enum.e, 3.0)
    low = min(x.man_exp[1] for x in apl)
    scaled_a = np.array([int(mp.ldexp(x, -low)) for x in apl], dtype=object)
    twisted = hodge_twist(enum.pluckers, enum.n, a.dim).astype(object)
    exact = np.abs(twisted @ scaled_a) * enum.heights_sq.astype(object)  # v_mp 2^-low
    mv, ev = np.frexp(values)
    md, ed = np.frexp(delta)
    shift = max(-low, 53 - int(ev.min()), 54 - int(ed.min()))

    def scaled(m, e, bits):  # m 2^e 2^shift as an integer, for m in [1/2, 1) or 0
        return (m * 2.0 ** 53).astype(np.int64).astype(object) << (e - bits + shift).astype(object)

    err = np.abs(scaled(mv, ev, 53) - (exact << (shift + low)))
    return (err / scaled(md, ed, 54)).astype(np.float64)


def _mp_ratios(a, enum, exponent):
    """|v - v_mp| / (delta / 2) for every row of _float_values, with v_mp at
    256 bits."""
    apl = target_plucker(a)
    values, delta = _float_values(apl, enum.pluckers, enum.n, enum.e, exponent)
    twisted = hodge_twist(enum.pluckers, enum.n, a.dim).tolist()
    h2 = enum.heights_sq.tolist()
    with mp.workprec(256):
        p = (mp.mpf(exponent) - 1) / 2
        power = {h: mp.mpf(h) ** p for h in set(h2)}
        return np.array([float(abs(v - abs(mp.fsum(x * t for x, t in zip(apl, tw))) * power[h])
                               / (mp.mpf(dl) / 2))
                         for tw, h, v, dl in zip(twisted, h2, values.tolist(), delta.tolist())])


def test_lower_bound_screen_bound_is_sound(enum_4_2_25, enum_5_2_10, capsys):
    # |v - v_mp| <= delta / 2 on every row, at exponent 3 for every benchmark
    # witness over (4,2,12) and (5,2,5), and at other exponents (integer,
    # half-integer and fractional p = (k - 1) / 2) over smaller enumerations
    worst = {}
    e42, e52 = enum_4_2_25.restrict(12), enum_5_2_10.restrict(5)
    for params, witness, enum in ((R4_PARAMS, witness_r4, e42),
                                  (R5_PARAMS, lambda z: witness_r5(z)[1], e52)):
        for param in params:
            worst["exponent 3"] = max(worst.get("exponent 3", 0.0),
                                      float(_exact_ratios(witness(param), enum).max()))
    small = (witness_r4("sqrt2"), e42.restrict(4)), (witness_r5("5/2")[1], e52.restrict(3))
    for a, enum in small:
        for k in (-20.0, 0.0, 2.5, 1 / 3, 7.0):
            worst["other exponents"] = max(worst.get("other exponents", 0.0),
                                           float(_mp_ratios(a, enum, k).max()))
    assert max(worst.values()) <= 1, worst
    with capsys.disabled():
        print("\nlower-bound screen, largest |v - v_mp| / (delta / 2): "
              + ", ".join("%s: %.3g" % kv for kv in sorted(worst.items())))


# block byte budgets of the lower bound's float rows: 64 rows, the fewest, and
# 128 (4, 2) or 64 (5, 2) rows; None keeps the default
_LB_BLOCKS = [1, 64 * 8 * 6 * 2, None]


@pytest.mark.parametrize("block_bytes", _LB_BLOCKS)
@pytest.mark.parametrize("kind, hmax", [("r4", 12), ("r5", 5)])
def test_screen_values_are_the_one_shot_values_bit_for_bit(enum_4_2_25, enum_5_2_10, monkeypatch,
                                                           kind, hmax, block_bytes):
    # the values formed block by block, the rows kept and their ends equal
    # those of one product over all rows, bit for bit, at an integer, a
    # negative and a half-integer exponent
    import subapprox.witness as witness

    a = witness_r4("sqrt2") if kind == "r4" else witness_r5("sqrt3+1/4")[1]
    enum = (enum_4_2_25 if kind == "r4" else enum_5_2_10).restrict(hmax)
    apl = target_plucker(a)
    if block_bytes is not None:
        monkeypatch.setattr(witness, "_BLOCK_BYTES", block_bytes)
    for exponent in (3.0, -20.0, 6.5):
        v, delta = _float_values(apl, enum.pluckers, enum.n, enum.e, exponent)
        kept = np.flatnonzero(v - delta <= (v + delta).min())
        got = _screen_values(apl, enum, exponent)
        want = v, kept, (v - delta)[kept], (v + delta)[kept]
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (kind, exponent)


@pytest.mark.parametrize("block_bytes", _LB_BLOCKS[:2])
def test_lower_bound_is_the_same_at_every_block_size(monkeypatch, block_bytes):
    # two R^4 witnesses, which meet no rational plane, and two R^5 ones,
    # rational hits among many exact zero pairings, give the default blocks'
    # report
    import subapprox.witness as witness

    cases = [(witness_r4("sqrt2"), 8, 3.0), (witness_r4("sqrt5-1"), 8, -20.0),
             (witness_r5("5/2")[1], 5, 3.0), (witness_r5("sqrt3+1/4")[1], 4, 6.5)]
    want = []
    for a, hmax, exponent in cases:
        enum = enumerate_subspaces(a.n, a.n - a.dim, hmax)
        want.append(lower_bound_check(a, a.n - a.dim, exponent, hmax, enumeration=enum))
    monkeypatch.setattr(witness, "_BLOCK_BYTES", block_bytes)
    for (a, hmax, exponent), w in zip(cases, want):
        enum = enumerate_subspaces(a.n, a.n - a.dim, hmax)
        assert lower_bound_check(a, a.n - a.dim, exponent, hmax, enumeration=enum) == w
    assert [w.rational_target for w in want] == [False, False, True, True]


def test_warm_lower_bound_memory_is_the_rows_and_one_value_a_row(tmp_path):
    # a (4,2,12) lower bound from its cache holds the narrow rows, one float64
    # value a row for the quantiles, and blocks: the load's text or checks,
    # or the float rows of a block and their values, delta and ends
    import tracemalloc

    from subapprox.enumeration import _BLOCK_BYTES

    path = str(tmp_path / "c42.cache")
    enumerate_subspaces(4, 2, 12, cache_path=path)
    a = witness_r4("sqrt2")
    tracemalloc.start()
    try:
        enum = enumerate_subspaces(4, 2, 12, cache_path=path)
        rep = lower_bound_check(a, 2, 3.0, 12, enumeration=enum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.count == len(enum) == 120986
    assert peak <= enum.pluckers.nbytes + 8 * len(enum) + 2 * _BLOCK_BYTES


@pytest.mark.parametrize("exponent, claimed_c", [(float("nan"), None), (float("inf"), None),
                                                  (3.0, float("nan")), (1e6, None)])
def test_lower_bound_refuses_values_outside_float64(exponent, claimed_c):
    with pytest.raises(ValueError):
        lower_bound_check(witness_r4("sqrt2"), 2, exponent, 3,
                          enumeration=enumerate_subspaces(4, 2, 3), claimed_c=claimed_c)


@pytest.mark.parametrize("kind, n, e, hmax", [("r4", 4, 2, 12), ("r5", 5, 2, 6)])
def test_narrow_rows_scan_and_bound_like_their_int64_copy(kind, n, e, hmax):
    # an int8 enumeration and its int64 copy give the same floats, records,
    # minimum, argmin and quantiles, bit for bit; r5 takes the Hodge twist of
    # (5, 2) rows
    from subapprox.enumeration import Enumeration, _float_psi, scan_target

    narrow = enumerate_subspaces(n, e, hmax)
    wide = Enumeration(n, e, narrow.height_max_sq, narrow.pluckers.astype(np.int64))
    assert narrow.pluckers.dtype == np.int8
    a = witness_r4("sqrt2") if kind == "r4" else witness_r5("sqrt3+1/4")[1]
    apl = target_plucker(a)
    for got, want in zip(_float_values(apl, narrow.pluckers, n, e, 3.0),
                         _float_values(apl, wide.pluckers, n, e, 3.0)):
        assert np.array_equal(got, want)
    got, want = (lower_bound_check(a, e, 3.0, hmax, enumeration=enum) for enum in (narrow, wide))
    assert (got.c_min, got.argmin_key, got.quantiles, got.rational_target) == \
        (want.c_min, want.argmin_key, want.quantiles, want.rational_target)
    for j in range(1, min(a.dim, e) + 1):
        for got, want in zip(_float_psi(a, narrow.pluckers, n, e, j), _float_psi(a, wide.pluckers, n, e, j)):
            assert np.array_equal(got, want)
        got, want = (scan_target(a, e, j, hmax, enumeration=enum) for enum in (narrow, wide))
        assert got.records and got.records == want.records
        assert (got.rational_target, got.scanned) == (want.rational_target, want.scanned)


# the five (5,3) quadrics as p_a p_b - p_c p_d - p_e p_f, typed by hand from
# the Grassmann-Plucker relations, 0-based coordinate indices: the oracle for
# the relations read off the wedge table and for r5_relation_residuals
_R5_QUADRICS = (
    ((1, 4), (2, 3), (0, 5)),
    ((1, 7), (2, 6), (0, 8)),
    ((3, 7), (4, 6), (0, 9)),
    ((3, 8), (5, 6), (1, 9)),
    ((4, 8), (5, 7), (2, 9)),
)


def test_r5_relations_are_the_grassmann_plucker_relations():
    # each hand-typed quadric is -1 times the matching (5, 3) relation read
    # off the wedge table, term for term
    from subapprox.grassmann import plucker_relations

    rels = plucker_relations(5, 3)
    assert len(rels) == len(_R5_QUADRICS)
    for (ab, cd, ef), rel in zip(_R5_QUADRICS, rels):
        typed = sorted([(1, *ab), (-1, *cd), (-1, *ef)], key=lambda t: t[1:])
        assert typed == [(-c, i, j) for c, i, j in rel]
    # at 4 prec every product and sum of prec-bit coordinates is exact, so the
    # residuals equal the hand-typed quadrics bit for bit
    for prec in (64, 128, 256):
        for tok in R5_PARAMS:
            coords = r5_plucker_coords(tok, prec)
            got = r5_relation_residuals(coords, precision_bits=4 * prec)
            with mp.workprec(4 * prec):
                want = [coords[a] * coords[b] - coords[c] * coords[d] - coords[e] * coords[f]
                        for (a, b), (c, d), (e, f) in _R5_QUADRICS]
            assert [r._mpf_ for r in got] == [w._mpf_ for w in want], (tok, prec)
