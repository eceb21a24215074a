import random
import time
from fractions import Fraction

import mpmath
import pytest

from dynbraid.braid import parse_braid
from dynbraid.errors import DynbraidError, NoDominantRealRoot
from dynbraid.regions import dynnikov_matrices
import dynbraid.spectral as spectral
from dynbraid.spectral import (
    CharPoly,
    Root,
    char_poly,
    cyclotomic,
    dilatation,
    eigenvector,
    euler_phi,
    isospectral_up_to,
    mat_mul,
    poly_divides,
    poly_divmod,
    strip_trivial_factors,
)

from conftest import block_lift, poly_at, poly_mul, root_value


def rand_matrix(rng, n, span=9):
    return [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]


def charpoly_cofactor(M):
    """Oracle: det(xI - M) by Laplace expansion over polynomial entries."""
    n = len(M)
    P = [
        [((-M[i][j], 1) if i == j else (-M[i][j],)) for j in range(n)]
        for i in range(n)
    ]

    def det(rows, cols):
        if len(cols) == 1:
            return P[rows[0]][cols[0]]
        acc = (0,)
        for k, c in enumerate(cols):
            entry = P[rows[0]][c]
            if any(entry):
                sub = det(rows[1:], cols[:k] + cols[k + 1 :])
                term = poly_mul(entry, sub)
                if k % 2:
                    term = tuple(-x for x in term)
                size = max(len(acc), len(term))
                acc = tuple(
                    (acc[i] if i < len(acc) else 0) + (term[i] if i < len(term) else 0)
                    for i in range(size)
                )
        return acc

    p = det(tuple(range(n)), tuple(range(n)))
    return tuple(p) + (0,) * (n + 1 - len(p))


# ---------------------------------------------------------------------------
# polynomial helpers


def test_poly_mul():
    assert poly_mul((1, 1), (-1, 1)) == (-1, 0, 1)
    assert poly_mul((2,), (3, 4)) == (6, 8)


def test_poly_divmod_exact_and_remainder():
    quot, rem = poly_divmod((-1, 0, 1), (1, 1))
    assert quot == (-1, 1) and rem == (0,)
    quot, rem = poly_divmod((1, 0, 1), (1, 1))
    assert rem != (0,)


def test_poly_divides():
    assert poly_divides((-1, 0, 1), (-1, 1)) == (1, 1)
    assert poly_divides((1, 0, 1), (-1, 1)) is None
    # rational quotient is rejected
    assert poly_divides((1, 1), (2,)) is None


def test_cyclotomic_known():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_is_x_d_minus_1():
    for d in (1, 2, 3, 4, 6, 8, 12):
        prod = (1,)
        for e in range(1, d + 1):
            if d % e == 0:
                prod = poly_mul(prod, cyclotomic(e))
        expect = (-1,) + (0,) * (d - 1) + (1,)
        assert prod == expect


def test_euler_phi():
    assert [euler_phi(d) for d in range(1, 9)] == [1, 1, 2, 2, 4, 2, 6, 4]


# ---------------------------------------------------------------------------
# characteristic polynomial


def test_char_poly_known():
    assert char_poly([[2, 1], [1, 1]]).coeffs == (1, -3, 1)
    assert char_poly([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).coeffs == (-1, 3, -3, 1)
    assert char_poly([[0]]).coeffs == (0, 1)


def test_char_poly_cofactor_oracle():
    rng = random.Random(59)
    for _ in range(300):
        n = rng.randint(1, 5)
        M = rand_matrix(rng, n)
        assert char_poly(M).coeffs == charpoly_cofactor(M)
    for _ in range(40):
        M = rand_matrix(rng, 6)
        assert char_poly(M).coeffs == charpoly_cofactor(M)


def test_char_poly_big_integers():
    M = [[10**20, 1], [1, 10**20]]
    p = char_poly(M)
    assert p.coeffs == (10**40 - 1, -2 * 10**20, 1)


# ---------------------------------------------------------------------------
# dilatation


def test_dilatation_golden():
    lam = root_value(dilatation([[2, 1], [1, 1]]))
    with mpmath.workdps(45):
        expect = (3 + mpmath.sqrt(5)) / 2
        assert abs(lam - expect) < mpmath.mpf("1e-25")


def test_dilatation_is_polynomial_root():
    M = [[5, -2, 3, 1], [3, 0, 1, -2], [1, -1, 1, 1], [1, 1, 0, -2]]
    assert dilatation(M).sign(char_poly(M).coeffs) == 0


def test_dilatation_rejects_identity_and_rotation():
    with pytest.raises(NoDominantRealRoot):
        dilatation([[1, 0], [0, 1]])
    with pytest.raises(NoDominantRealRoot):
        dilatation([[0, -1], [1, 0]])


def test_dilatation_rejects_complex_dominance():
    # eigenvalues 2 and 1 +- 2i (modulus sqrt 5 > 2)
    M = [[2, 0, 0], [0, 1, -2], [0, 2, 1]]
    with pytest.raises(NoDominantRealRoot, match="larger-modulus"):
        dilatation(M)


def test_dilatation_rejects_negative_dominance():
    # eigenvalues -3 and 2: dominant modulus is not a real root > 1
    M = [[-3, 0], [0, 2]]
    with pytest.raises(NoDominantRealRoot, match="larger-modulus"):
        dilatation(M)


def test_dilatation_rejects_complex_pair_of_equal_modulus():
    # (x - 2)(x^2 + 4): 2 and +-2i all have modulus exactly 2
    M = [[2, 0, 0], [0, 0, -4], [0, 1, 0]]
    with pytest.raises(NoDominantRealRoot, match="has the modulus of the dominant"):
        dilatation(M)


def test_dilatation_rejects_opposite_roots():
    # companion of x^2 - 9: roots 3 and -3
    with pytest.raises(NoDominantRealRoot, match="has the modulus of the dominant"):
        dilatation([[0, 9], [1, 0]])


def test_dilatation_refuses_opposite_dominant_roots_at_once():
    # -d beside 3..d: the coarsest bracket already shows that every zero of
    # modulus near d pairs with its negative, so no 2^-100 retry runs
    start = time.monotonic()
    for d in (21, 17):
        D = [[v * (i == j) for j in range(d - 1)] for i, v in enumerate([-d, *range(3, d + 1)])]
        with pytest.raises(NoDominantRealRoot, match="has the modulus of the dominant"):
            dilatation(D)
    assert time.monotonic() - start < 1.0


def test_dilatation_certifies_a_root_beside_a_close_opposite_pair():
    # 30 and +-sqrt 899 = +-29.983...: the coarse bracket around 30 also holds
    # sqrt 899, whose negative is a zero, but 30 strictly dominates
    root = dilatation([[30, 0, 0], [0, 0, 899], [0, 1, 0]])
    assert root_value(root) == 30


def test_dilatation_rejects_double_root():
    # (x - 3)^2
    with pytest.raises(NoDominantRealRoot, match="not simple"):
        dilatation([[3, 1], [0, 3]])


def test_dilatation_rejects_complex_roots_only():
    # companion of x^2 + x + 3: roots (-1 +- i sqrt 11) / 2
    with pytest.raises(NoDominantRealRoot):
        dilatation([[0, -3], [1, -1]])


def test_dilatation_returns_a_dyadic_root_exactly():
    # the bisection lands on the zero 2 and keeps it as the midpoint
    assert root_value(dilatation([[2]])) == 2
    assert root_value(dilatation([[1, 1], [1, 1]])) == 2


def test_dilatation_certifies_high_degree():
    # twenty real roots 2..21: the root counts run nineteen transforms deep
    D = [[(i + 2) * (i == j) for j in range(20)] for i in range(20)]
    assert root_value(dilatation(D)) == 21


def _reference_dilatation(M):
    """("accept", λ), ("reject", None) or None (undecided), from polyroots at 100 digits.

    Undecided when the largest real root and the largest modulus among the
    other roots are within a relative 1e-6 of each other.
    """
    with mpmath.workdps(100):
        coeffs = [mpmath.mpf(c) for c in reversed(char_poly(M).coeffs)]
        try:
            roots = mpmath.polyroots(coeffs, maxsteps=100, extraprec=100)
        except mpmath.libmp.NoConvergence:
            return None
        real = [r.real for r in roots if abs(r.imag) <= mpmath.mpf("1e-50") * max(1, abs(r))]
        if not real or max(real) <= 1:
            return "reject", None
        lam = max(real)
        others = sorted(roots, key=lambda r: abs(r - lam))[1:]
        mu = max((abs(r) for r in others), default=0)
        if abs(lam - mu) <= mpmath.mpf("1e-6") * lam:
            return None
        return ("accept", lam) if lam > mu else ("reject", None)


def test_dilatation_agrees_with_polyroots_oracle():
    rng = random.Random(20140)
    decided = {"accept": 0, "reject": 0}
    for _ in range(300):
        M = rand_matrix(rng, rng.randint(2, 8), span=3)
        ref = _reference_dilatation(M)
        if ref is None:
            continue
        verdict, lam = ref
        decided[verdict] += 1
        if verdict == "accept":
            with mpmath.workdps(50):
                assert abs(root_value(dilatation(M)) - lam) < mpmath.mpf("1e-25") * lam, M
        else:
            with pytest.raises(NoDominantRealRoot):
                dilatation(M)
    assert decided["accept"] >= 50 and decided["reject"] >= 150, decided


def test_root_sign_is_exact():
    # sqrt 2 is the zero of x^4 - 5x^2 + 6 = (x^2 - 2)(x^2 - 3) in [11/8, 12/8]
    root = Root((6, 0, -5, 0, 1), 11, 12, 3)
    assert root.sign((-2, 0, 1)) == 0
    assert root.sign((-3, 0, 1)) == -1
    assert root.sign((-1, 0, 1)) == 1
    assert root.sign((-141421356, 100000000)) == 1  # sqrt 2 = 1.41421356237...
    two = dilatation([[2]])  # an exact dyadic zero
    assert [two.sign((c, 1)) for c in (-2, -3, -1)] == [0, -1, 1]
    big = dilatation([[10**15, 0], [1, 1]])
    # x - 10^15 + 1 is 1 at the zero, 1e-15 relative to x
    assert [big.sign((c, 1)) for c in (-(10**15), -(10**15) + 1, -(10**15) - 1)] == [0, 1, -1]


def _sign_by_gcd(root, p):
    """The sign of p at the Root by the gcd test, then enclose, and no interval."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    if not p:
        return 0
    g = spectral._poly_gcd(root.f, p)
    if spectral._sign_at(g, root.a, root.k) * spectral._sign_at(g, root.b, root.k) < 0:
        return 0
    return 1 if root.enclose(p, 0)[0] > 0 else -1


def test_root_sign_tries_the_interval_first(monkeypatch):
    rng = random.Random(41)
    roots = [
        dilatation([[2, 1], [1, 1]]),
        dilatation([[5, -2, 3, 1], [3, 0, 1, -2], [1, -1, 1, 1], [1, 1, 0, -2]]),
        dilatation([[2]]),
    ]
    roots.append(roots[1].refine(100))
    cases = []
    for root in roots:
        mid = sum(root.enclose((0, 1), 30)) / 2  # x - mid is small at the zero
        for p in [(), (0, 0), root.f + (0,), (-mid.numerator, mid.denominator)]:
            cases.append((root, p))
        for _ in range(40):
            p = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 6)))
            cases.append((root, p + (0,) * rng.randint(0, 2)))
            cases.append((root, poly_mul(root.f, p)))  # 0 at the zero
    expect = [_sign_by_gcd(root, p) for root, p in cases]
    assert 0 in expect and 1 in expect and -1 in expect
    calls = []
    plain = spectral._poly_gcd
    monkeypatch.setattr(spectral, "_poly_gcd", lambda a, b: calls.append(1) or plain(a, b))
    for (root, p), sign in zip(cases, expect):
        del calls[:]
        assert root.sign(p) == sign, (root, p)
        lo, hi = spectral._horner(p, root.a, root.b, root.k)
        assert bool(calls) == (lo <= 0 <= hi and any(p)), (root, p)


def test_eigenvector_is_the_adjugate_times_y():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(1, 5)
        M = rand_matrix(rng, n)
        y = [rng.randint(-9, 9) for _ in range(n)]
        v = eigenvector(M, y)
        p = char_poly(M).coeffs
        # (M - xI) adj(xI - M) y = -det(xI - M) y, coefficient by coefficient
        for row, vi, yi in zip(M, v, y):
            Mv = [sum(a * q[j] for a, q in zip(row, v)) for j in range(n)] + [0]
            assert [a - b for a, b in zip(Mv, (0, *vi))] == [-c * yi for c in p]


def test_root_enclose_is_tight_and_holds_the_value():
    root = dilatation([[2, 1], [1, 1]])  # (3 + sqrt 5) / 2
    for bits in (0, 10, 50, 120):
        lo, hi = root.enclose((-3, 1), bits)  # (sqrt 5 - 3) / 2 < 0
        assert lo <= hi < 0 and (hi - lo) * 2**bits <= -hi
        assert (2 * lo + 3) ** 2 <= 5 <= (2 * hi + 3) ** 2


def block_sum(A, B):
    n, m = len(A), len(B)
    return [list(r) + [0] * m for r in A] + [[0] * n + list(r) for r in B]


def identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def test_dilatation_ignores_repeated_trivial_factors():
    # companion matrix of x^4 - 9x^3 + 21x^2 - 9x + 1 plus I_4: its char poly
    # carries (x-1)^4 beside the factor of λ
    C = [[0, 0, 0, -1], [1, 0, 0, 9], [0, 1, 0, -21], [0, 0, 1, 9]]
    M = block_sum(C, identity(4))
    lam = root_value(dilatation(M))
    assert mpmath.nstr(lam, 12) == "5.43400775144"
    p = char_poly(M).coeffs
    x, eps = Fraction(mpmath.nstr(lam, 40)), Fraction(1, 10**25)
    assert poly_at(p, x - eps) * poly_at(p, x + eps) < 0


def test_dilatation_rejects_repeated_dominant_root_beside_trivial_factors():
    A = [[2, 1], [1, 1]]
    with pytest.raises(NoDominantRealRoot, match="not simple"):
        dilatation(block_sum(A, block_sum(A, identity(2))))


def test_dilatation_never_calls_polyroots(monkeypatch):
    def stall(*args, **kwargs):
        raise mpmath.libmp.NoConvergence("Didn't converge in maxsteps=200 steps.")

    monkeypatch.setattr(mpmath, "polyroots", stall)
    lam = root_value(dilatation([[2, 1], [1, 1]]))
    with mpmath.workdps(45):
        assert abs(lam - (3 + mpmath.sqrt(5)) / 2) < mpmath.mpf("1e-25")


# ---------------------------------------------------------------------------
# factor stripping


def test_strip_exact_mode_is_identity():
    p = CharPoly((0, -1, 0, 1))
    stripped, factors = strip_trivial_factors(p, "exact")
    assert stripped == p and factors == []


def test_strip_eigenvalues_one():
    base = (1, 1, 1)  # x^2 + x + 1, no root at 1
    p = base
    for _ in range(3):
        p = poly_mul(p, (-1, 1))
    stripped, factors = strip_trivial_factors(CharPoly(p), "eigenvalues_one")
    assert stripped.coeffs == base
    assert factors == [("x-1", 3)]


def test_strip_roots_of_unity_and_zeros_planted():
    rng = random.Random(61)
    for _ in range(60):
        # base polynomial with no cyclotomic or zero factors
        base = (rng.randint(2, 7), rng.randint(-5, 5), 1)
        ok = True
        for d in range(1, 19):
            if euler_phi(d) <= 2 and poly_divides(base, cyclotomic(d)):
                ok = False
        if not ok:
            continue
        p = base
        k = rng.randint(0, 2)
        p = (0,) * k + p
        planted = {}
        for d in rng.sample((1, 2, 3, 4, 6), rng.randint(0, 3)):
            mult = rng.randint(1, 2)
            planted[d] = mult
            for _ in range(mult):
                p = poly_mul(p, cyclotomic(d))
        stripped, factors = strip_trivial_factors(
            CharPoly(p), "roots_of_unity_and_zeros"
        )
        assert stripped.coeffs == base
        got = dict()
        for label, mult in factors:
            if label == "x":
                assert mult == k
            else:
                got[int(label.split("_")[1])] = mult
        assert got == planted


def test_strip_is_idempotent():
    rng = random.Random(67)
    for mode in ("roots_of_unity_and_zeros", "eigenvalues_one"):
        for _ in range(40):
            p = char_poly(rand_matrix(rng, rng.randint(2, 4)))
            once, _ = strip_trivial_factors(p, mode)
            twice, extra = strip_trivial_factors(once, mode)
            assert twice == once and extra == []


def test_strip_reconstructs_input():
    rng = random.Random(71)
    for _ in range(40):
        p = char_poly(rand_matrix(rng, rng.randint(2, 5)))
        stripped, factors = strip_trivial_factors(p, "roots_of_unity_and_zeros")
        rebuilt = stripped.coeffs
        for label, mult in factors:
            if label == "x":
                rebuilt = (0,) * mult + rebuilt
            else:
                d = int(label.split("_")[1])
                for _ in range(mult):
                    rebuilt = poly_mul(rebuilt, cyclotomic(d))
        assert rebuilt == p.coeffs


def test_strip_unknown_mode():
    with pytest.raises(DynbraidError, match="unknown mode"):
        strip_trivial_factors(CharPoly((1, 1)), "bogus")


# ---------------------------------------------------------------------------
# isospectrality, double cover, powers


def test_isospectral_reflexive_and_symmetric():
    rng = random.Random(73)
    for _ in range(20):
        M1 = rand_matrix(rng, 3)
        M2 = rand_matrix(rng, 3)
        for mode in ("exact", "roots_of_unity_and_zeros", "eigenvalues_one"):
            assert isospectral_up_to(M1, M1, mode).isospectral
            r12 = isospectral_up_to(M1, M2, mode)
            r21 = isospectral_up_to(M2, M1, mode)
            assert r12.isospectral == r21.isospectral


def test_isospectral_strips_before_comparing():
    M = [[2, 1], [1, 1]]
    # pad with an eigenvalue-1 block: equal after stripping (x-1), not before
    P = [[2, 1, 0], [1, 1, 0], [0, 0, 1]]
    assert not isospectral_up_to(P, M, "exact").isospectral
    rep = isospectral_up_to(P, M, "eigenvalues_one")
    assert rep.isospectral
    assert rep.factors_left == (("x-1", 1),)
    assert rep.factors_right == ()


def test_spectrum_report_json():
    rep = isospectral_up_to([[2, 1], [1, 1]], [[2, 1], [1, 1]], "exact")
    import json

    doc = json.loads(rep.to_json())
    assert doc["isospectral"] is True
    assert doc["stripped_left"] == ["1", "-3", "1"]


def test_double_cover_identity():
    rng = random.Random(79)
    for _ in range(200):
        n = rng.randint(1, 4)
        A = rand_matrix(rng, n)
        B = rand_matrix(rng, n)
        lhs = char_poly(block_lift(A, B)).coeffs
        plus = char_poly([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)])
        minus = char_poly([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)])
        assert lhs == poly_mul(plus.coeffs, minus.coeffs)


def test_compare_power_golden():
    w = parse_braid("1 -2", 3)
    T = [[2, 1], [1, 1]]
    for m, Tm in ((1, T), (2, mat_mul(T, T))):
        D = [list(r) for r in dynnikov_matrices(w**m)[0].matrix]
        assert isospectral_up_to(D, Tm, "eigenvalues_one").isospectral
