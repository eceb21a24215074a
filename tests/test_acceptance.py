"""End-to-end acceptance checks: one test per criterion.

Criteria 1-6 pin the worked examples (golden values frozen in fixtures);
criteria 7-9 are the randomized property suites, each with at least 500
exact-rational cases.
"""

import json
import random
import time
from fractions import Fraction

import mpmath
import pytest

from dynbraid.braid import BraidWord, parse_braid
from dynbraid.coords import DynnikovVector
from dynbraid.regions import (
    PREC,
    dynnikov_matrices,
    enumerate_regions_n3,
    find_unstable_direction,
)
from dynbraid.spectral import char_poly, dilatation, isospectral_up_to
from dynbraid.traintrack import (
    Measure,
    TrainPath,
    _path_measure_generic,
    catalan,
    change_of_coords,
    diagonal_extensions_count,
    enumerate_diagonal_extensions,
    load_track,
    load_transition_matrix,
    pinch_punctured,
    pinch_unpunctured,
    solve_completion,
    transition_pf,
    verify_conjugacy,
)
from dynbraid.update import apply_braid, apply_generator, traced_apply

from conftest import (
    block_lift,
    det_fraction,
    example_track_measure,
    fraction_matrix,
    int_matrix,
    load_fixture,
    mat_vec,
    poly_mul,
    random_rational,
    random_triangleish,
    random_vector,
    random_word,
    scaled,
    switch_balanced,
)

from test_regions import (
    B4_WORD,
    D1_N5,
    D2_N5,
    GAMMA_WORD,
    GOLDEN_N3,
    S3_WORD,
    SIX_N3,
    _penner_word,
)
from test_spectral import charpoly_cofactor, rand_matrix
from test_traintrack import cycle_track_doc, merge_docs, uniform_measure


def test_criterion_1_three_letter_action():
    v = DynnikovVector.from_flat(4, [-1, -1, 0, -1])
    out = apply_braid(v, parse_braid("-3 2 -1", 4))
    assert out.flat() == (2, -3, -1, 0)
    assert all(isinstance(x, int) for x in out.flat())


def test_criterion_2_three_strand_example():
    w = parse_braid("1 -2", 3)
    mats = dynnikov_matrices(w)
    assert [m.matrix for m in mats] == [GOLDEN_N3]
    lam = dilatation(mats[0].matrix_list())
    with mpmath.workdps(40):
        assert abs(lam - (3 + mpmath.sqrt(5)) / 2) < mpmath.mpf("1e-12")
    arcs = enumerate_regions_n3(w)
    assert {m for _, m in arcs} == SIX_N3
    assert len(arcs) == 6
    total = sum(float(hi - lo) for (lo, hi), _ in arcs)
    assert abs(total - 2 * 3.141592653589793) < 1e-8


def test_criterion_3_five_strand_example():
    w = parse_braid("1 2 3 -4", 5)
    mats = dynnikov_matrices(w)
    assert {m.matrix for m in mats} == {D1_N5, D2_N5}
    radii = [dilatation(m.matrix_list()) for m in mats]
    assert abs(radii[0] - radii[1]) < 1e-12 * radii[0]
    u = [Fraction(x, 1 << PREC) for x in find_unstable_direction(w).u]
    assert all(x <= 1e-12 for x in u)
    assert abs(u[1] - (u[0] + u[3])) < 1e-9


def test_criterion_4_four_strand_word():
    w = parse_braid(B4_WORD, 4)
    mats = dynnikov_matrices(w)
    D = int_matrix("mat_b4_D.json")
    assert [m.matrix_list() for m in mats] == [D]
    T = load_transition_matrix(load_fixture("tm_b4_word.json"))
    assert char_poly(D).coeffs == char_poly(T.main_block()).coeffs
    lam = dilatation(D)
    assert abs(float(lam) - 4.61158) < 5e-6
    _, v = transition_pf(T)
    printed = (0.50135, 0.59215, 0.41871, 0.47190)
    for x, y in zip(v, printed):
        assert abs(float(x) - y) < 5e-5


def test_criterion_5_gamma_word():
    w = parse_braid(GAMMA_WORD, 4)
    mats = dynnikov_matrices(w)
    D = int_matrix("mat_gamma_D.json")
    assert [m.matrix_list() for m in mats] == [D]
    T = load_transition_matrix(load_fixture("tm_gamma_T.json"))
    rep = isospectral_up_to(D, T.main_block(), "eigenvalues_one")
    assert rep.isospectral
    # D carries exactly one more eigenvalue-1 factor than T
    assert rep.factors_left == (("x-1", 2),)
    assert rep.factors_right == (("x-1", 1),)
    lam, v = transition_pf(T)
    with mpmath.workdps(40):
        assert abs(lam - (17 + 12 * mpmath.sqrt(2))) < mpmath.mpf("1e-9")
        ratio = 1 + mpmath.sqrt(2)
        assert abs(v[1] / v[0] - ratio) < 1e-12
        assert abs(v[2] / v[0] - ratio) < 1e-12
    Tp = load_transition_matrix(load_fixture("tm_gamma_Tp.json"))
    Tp_rows = [list(r) for r in Tp.matrix]
    for name in ("mat_gamma_L1.json", "mat_gamma_L2.json"):
        L = fraction_matrix(name)
        assert verify_conjugacy(D, L, Tp_rows)
        Mi, A = solve_completion(D, L, 3)
        assert Mi == Tp_rows
        assert A == [[2, 3, 1]]


def test_criterion_6_high_entropy_word_under_10s():
    start = time.monotonic()
    w = parse_braid(S3_WORD, 4)
    mats = dynnikov_matrices(w)
    D = int_matrix("mat_s3_D.json")
    assert [m.matrix_list() for m in mats] == [D]
    lam = dilatation(D)
    assert abs(mpmath.log(lam) - 34.38) < 0.01
    assert time.monotonic() - start < 10.0


# proven minimum dilatations, each the largest real root of a quartic:
# x^4 - 2x^3 - 2x + 1 on 4 strands (Ko, Los and Song, "Entropies of braids",
# 2002) and x^4 - x^3 - x^2 - x + 1 on 5 strands (Ham and Song, 2007)
MINIMUM_DILATATION = {
    4: ("1 2 -3", (1, -2, 0, -2, 1), "2.29663026289"),
    5: ("1 2 3 4 1 2", (1, -1, -1, -1, 1), "1.72208380574"),
}


def test_minimum_dilatation_oracle():
    rng = random.Random(31)
    for n, (word, quartic, printed) in MINIMUM_DILATATION.items():
        lam = dynnikov_matrices(parse_braid(word, n))[0].dilatation
        assert mpmath.nstr(lam, 12) == printed
        with mpmath.workdps(40):
            root = mpmath.findroot(lambda x: mpmath.polyval(list(quartic), x), lam)
            floor = root - mpmath.mpf(10) ** -25  # the bisection width
            assert abs(lam - root) < mpmath.mpf(10) ** -25
            for _ in range(20):
                w = parse_braid(_penner_word(rng, n, rng.randint(n - 1, 12)), n)
                assert dynnikov_matrices(w)[0].dilatation >= floor, w.render()


def test_criterion_7_action_property_suite():
    rng = random.Random(2024)
    # involution
    for _ in range(500):
        n = rng.randint(3, 7)
        v = random_vector(rng, n)
        i = rng.randint(1, n - 1)
        s = rng.choice((1, -1))
        assert apply_generator(apply_generator(v, i, s), i, -s) == v
    # positive homogeneity
    for _ in range(500):
        n = rng.randint(3, 6)
        v = random_vector(rng, n)
        w = random_word(rng, n, rng.randint(1, 8))
        lam = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        assert apply_braid(scaled(v, lam), w) == scaled(apply_braid(v, w), lam)
    # local linearity at signature-preserving rational perturbations
    checked = 0
    while checked < 500:
        n = rng.randint(3, 6)
        v = random_vector(rng, n)
        w = random_word(rng, n, rng.randint(1, 6))
        tr = traced_apply(v, w)
        if tr.signature.has_ties:
            continue
        flat = v.flat()
        delta = [
            Fraction(rng.randint(-50, 50), 10**4) for _ in flat
        ]
        p = [x + d for x, d in zip(flat, delta)]
        if not any(p):
            continue
        if any(sum(c * x for c, x in zip(row, p)) <= 0 for row in tr.constraints):
            continue
        u = DynnikovVector.from_flat(n, p)
        assert apply_braid(u, w) == mat_vec(tr.matrix, u)
        checked += 1
    # elementary matrices have determinant +-1
    checked = 0
    while checked < 500:
        n = rng.randint(3, 7)
        v = random_vector(rng, n)
        tr = traced_apply(v, BraidWord(n, ((rng.randint(1, n - 1), rng.choice((1, -1))),)))
        if tr.signature.has_ties:
            continue
        assert abs(det_fraction(tr.matrix)) == 1
        checked += 1


def test_criterion_8_spectral_property_suite():
    rng = random.Random(2025)
    # cofactor oracle up to size 6
    for _ in range(250):
        M = rand_matrix(rng, rng.randint(1, 5))
        assert char_poly(M).coeffs == charpoly_cofactor(M)
    for _ in range(30):
        M = rand_matrix(rng, 6)
        assert char_poly(M).coeffs == charpoly_cofactor(M)
    # double cover identity on 200 random pairs
    for _ in range(200):
        n = rng.randint(1, 4)
        A = rand_matrix(rng, n)
        B = rand_matrix(rng, n)
        lhs = char_poly(block_lift(A, B)).coeffs
        plus = char_poly([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)])
        minus = char_poly([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)])
        assert lhs == poly_mul(plus.coeffs, minus.coeffs)
    # strip idempotence and construct-strip round trips are exercised in
    # test_spectral; re-check the round trip on fresh samples here
    from dynbraid.spectral import CharPoly, cyclotomic, strip_trivial_factors

    for _ in range(60):
        base = (rng.randint(2, 9), rng.randint(-5, 5), 1)
        p = (0,) * rng.randint(0, 2) + base
        for d in (1, 2, 3, 4, 6):
            for _ in range(rng.randint(0, 1)):
                p = poly_mul(p, cyclotomic(d))
        stripped, factors = strip_trivial_factors(
            CharPoly(p), "roots_of_unity_and_zeros"
        )
        rebuilt = stripped.coeffs
        for label, mult in factors:
            if label == "x":
                rebuilt = (0,) * mult + rebuilt
            else:
                for _ in range(mult):
                    rebuilt = poly_mul(rebuilt, cyclotomic(int(label.split("_")[1])))
        assert rebuilt == p
        again, extra = strip_trivial_factors(stripped, "roots_of_unity_and_zeros")
        assert again == stripped and extra == []


def test_criterion_9_train_track_property_suite():
    rng = random.Random(2026)
    # psi-maps preserve switch conditions and positivity; rank +1 per pinch
    square = load_track(json.dumps(cycle_track_doc(4, False)))
    base = load_track(load_fixture("track_gamma_base.json"))
    for _ in range(50):
        w = Fraction(rng.randint(1, 40))
        new, psi = pinch_unpunctured(square, "e1")
        assert new.rank == square.rank + 1
        mu = psi(uniform_measure(square, w))
        assert switch_balanced(new, mu)
        assert all(x >= 0 for x in mu.weights.values())
        x, y = Fraction(rng.randint(1, 30)), Fraction(rng.randint(1, 30))
        mu0 = Measure(
            {
                "a": 2 * x, "ma": x, "ma2": x,
                "b": x + y, "mb": (x + y) / 2,
                "c": x + y, "mc": (x + y) / 2,
                "p": x, "q": y,
            }
        )
        assert switch_balanced(base, mu0)
        new2, psi2 = pinch_punctured(base, "p")
        assert new2.rank == base.rank + 1 and new2.is_complete
        mu2 = psi2(mu0)
        assert switch_balanced(new2, mu2)
        assert all(v >= 0 for v in mu2.weights.values())
    # extension counts match the Catalan product for all polygon multisets
    # with at most 6 vertices total per polygon
    singles = [(3, False), (4, False), (5, False), (6, False), (2, True), (3, True)]
    expect = {
        (3, False): catalan(1),
        (4, False): catalan(2),
        (5, False): catalan(3),
        (6, False): catalan(4),
        (2, True): 2 * catalan(1),
        (3, True): 3 * catalan(2),
    }
    for t, punct in singles:
        track = load_track(json.dumps(cycle_track_doc(t, punct)))
        assert diagonal_extensions_count(track) == expect[(t, punct)]
        assert len(enumerate_diagonal_extensions(track)) == expect[(t, punct)]
    for (t1, p1), (t2, p2) in [
        ((4, False), (2, True)),
        ((5, False), (3, True)),
        ((4, False), (4, False)),
        ((3, False), (3, True)),
    ]:
        doc = merge_docs(
            cycle_track_doc(t1, p1, prefix="x"), cycle_track_doc(t2, p2, prefix="y")
        )
        track = load_track(json.dumps(doc))
        want = expect[(t1, p1)] * expect[(t2, p2)]
        assert diagonal_extensions_count(track) == want
        assert len(enumerate_diagonal_extensions(track)) == want
    # path measures and the closed-form chart change on the worked example
    track = load_track(load_fixture("track_b4_complete.json"))
    p1 = TrainPath((("m2", -1), ("b", 1), ("m6", 1)))
    p2 = TrainPath((("d", -1), ("m3", -1)))
    for _ in range(100):
        a, b, c, d = random_triangleish(rng)
        mu = example_track_measure(a, b, c, d)
        assert _path_measure_generic(track, p1, mu, min, max, 0) == min(mu["m2"], mu["m6"])
        assert _path_measure_generic(track, p2, mu, min, max, 0) == min(mu["d"], mu["m3"])
        v = change_of_coords(track, mu)
        assert v.a == ((max(a, c) - b) / 2, max(-c, -d) / 2)
        assert v.b == ((a - c) / 2, (c - d) / 2)
