import math
import random
import re
from fractions import Fraction

import mpmath
import pytest

from dynbraid.braid import identity_word, inverse, parse_braid
from dynbraid.coords import DynnikovVector
from dynbraid.errors import NonConvergence
import dynbraid.regions as regions
from dynbraid.regions import (
    PREC,
    _in_interior,
    _probe_directions,
    dynnikov_matrices,
    enumerate_regions_n3,
    find_unstable_direction,
    fixed_lamination,
)
from dynbraid.spectral import dilatation
from dynbraid.update import apply_braid, traced_apply

from conftest import mat_vec

GOLDEN_N3 = ((2, 1), (1, 1))
SIX_N3 = {
    ((1, -1), (1, 0)),
    ((1, -1), (-1, 2)),
    ((0, 1), (-1, 2)),
    ((2, -1), (1, 0)),
    ((0, 1), (-1, 1)),
    ((2, 1), (1, 1)),
}
D1_N5 = (
    (-1, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, 1, 0),
    (0, 0, 2, -1, -1, 1),
    (0, 0, 0, 0, 1, 0),
    (-1, 0, 1, -1, -1, 1),
    (0, 0, 1, 0, 0, 1),
)
D2_N5 = (
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 1, 1, 0),
    (0, 0, 2, -1, -1, 1),
    (-1, 1, 0, -1, 1, 0),
    (0, -1, 1, 0, -1, 1),
    (0, 0, 1, 0, 0, 1),
)

# high-entropy 4-strand word: a wall passes within the probe radius of its centre
S3_WORD = " ".join(
    ["-1"]
    + ["-2"] * 3
    + ["-3"] * 5
    + ["1"] * 4
    + ["-2"] * 2
    + ["-3", "1", "2", "-3", "-3"]
    + ["2", "-3", "-3"] * 19
    + ["-1"] * 8
    + ["-3", "-1", "-1", "2", "2", "-3", "-1", "2", "3", "1", "-2", "-3"]
)

B4_WORD = "1 -2 3 3 3 2 1 -2"
GAMMA_WORD = "1 1 2 2 1 2 3 3 2 1 1 1 1 2 1 1 3 3 2 1"

# the pseudo-Anosov words of the acceptance criteria and the CLI examples
ACCEPTANCE_WORDS = (
    ("1 -2", 3),
    ("1 2 3 -4", 5),
    (B4_WORD, 4),
    (GAMMA_WORD, 4),
    (S3_WORD, 4),
    ("-2 5 3 -4 5 1", 6),
    ("5 3 -4 -4 3 1 -2", 6),
)

PERIODIC_WORDS = (("1 2 3 4", 5), ("1 2", 3), ("1 2 3 1", 4), ("-2 1 2 3 2", 4))


def _direction(w):
    """find_unstable_direction(w) as mpf: the direction u / 2^PREC and growth / 2^PREC.

    Call it inside mpmath.workprec(2 * PREC), where both are exact.
    """
    d = find_unstable_direction(w)
    return [mpmath.ldexp(x, -PREC) for x in d.u], mpmath.ldexp(d.growth, -PREC)


def test_unstable_direction_golden():
    w = parse_braid("1 -2", 3)
    d = find_unstable_direction(w)
    assert max(abs(x) for x in d.u) == 1 << PREC
    with mpmath.workprec(2 * PREC):
        (a, b), lam = _direction(w)
        expect = (3 + mpmath.sqrt(5)) / 2
        assert abs(lam - expect) < 1e-12
        # attracting direction is -(1, (sqrt 5 - 1) / 2) up to positive scale
        assert a < 0 and b < 0
        assert abs(b / a - (mpmath.sqrt(5) - 1) / 2) < 1e-10


def test_unstable_direction_is_fixed_by_action():
    w = parse_braid("1 -2", 3)
    u = find_unstable_direction(w).u
    image = apply_braid(DynnikovVector.from_flat(3, u), w).flat()
    with mpmath.workprec(2 * PREC):
        ni, npt = max(map(abs, image)), max(map(abs, u))
        err = max(abs(mpmath.mpf(x) / ni - mpmath.mpf(y) / npt) for x, y in zip(image, u))
        assert err < 1e-12


def test_stable_direction():
    # for this word the contracting direction is the antipode of the
    # expanding one: same line, opposite sign on the circle of directions
    w = parse_braid("1 -2", 3)
    with mpmath.workprec(2 * PREC):
        s, s_lam = _direction(inverse(w))
        u, u_lam = _direction(w)
        assert abs(s_lam - u_lam) < 1e-10  # same stretch factor
        assert all(x > 0 for x in s)
        assert all(x < 0 for x in u)


def test_identity_word_has_no_direction():
    with pytest.raises(NonConvergence):
        find_unstable_direction(identity_word(3))


def test_non_pseudo_anosov_raises():
    with pytest.raises(NonConvergence):
        find_unstable_direction(parse_braid("1", 3))


def test_dynnikov_matrices_golden_n3():
    mats = dynnikov_matrices(parse_braid("1 -2", 3))
    assert [m.matrix for m in mats] == [GOLDEN_N3]
    assert dilatation(mats[0].matrix_list())  # spectral radius > 1 exists


def test_dynnikov_matrices_two_regions_n5():
    w = parse_braid("1 2 3 -4", 5)
    mats = dynnikov_matrices(w)
    assert {m.matrix for m in mats} == {D1_N5, D2_N5}
    radii = [dilatation(m.matrix_list()) for m in mats]
    assert abs(radii[0] - radii[1]) < 1e-12 * radii[0]


def test_fixed_direction_on_wall_n5():
    w = parse_braid("1 2 3 -4", 5)
    with mpmath.workprec(2 * PREC):
        flat, _ = _direction(w)
        assert all(x <= 1e-12 for x in flat)
        a1, a2, _, b1, _, _ = flat
        assert abs(a2 - (a1 + b1)) < 1e-9


def test_region_matrices_reproduce_action_exactly():
    """Exact rational points inside each returned region map by its matrix."""
    w = parse_braid("1 2 3 -4", 5)
    mats = dynnikov_matrices(w)
    u = find_unstable_direction(w).u
    centre = [Fraction(round(Fraction(x, 1 << PREC), 9)) for x in u]
    rng = random.Random(83)
    for m in mats:
        hits = 0
        attempts = 0
        while hits < 5 and attempts < 4000:
            attempts += 1
            p = [
                c + Fraction(rng.randint(-1000, 1000), 10**7) for c in centre
            ]
            if not any(p):
                continue
            if any(
                sum(c * x for c, x in zip(row, p)) <= 0 for row in m.region
            ):
                continue
            v = DynnikovVector.from_flat(5, p)
            assert apply_braid(v, w) == mat_vec(m.matrix, v)
            hits += 1
        assert hits == 5


def _penner_word(rng, n, length):
    """Every generator, odd ones positive and even ones negative: pseudo-Anosov."""
    letters = list(range(1, n)) + [rng.randrange(1, n) for _ in range(length - n + 1)]
    rng.shuffle(letters)
    return " ".join(str(g if g % 2 else -g) for g in letters)


def _penner_words(seed, count):
    rng = random.Random(seed)
    words = []
    for k in range(count):
        n = 4 + k % 3
        words.append(parse_braid(_penner_word(rng, n, rng.randint(n - 1, 14)), n))
    return words


def _exact(x):
    """The exact dyadic value of an mpf, from its (sign, mantissa, exponent)."""
    sign, man, exp, _ = x._mpf_
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def _reference_matrices(w):
    """Trace every probe direction at the mpf centre, keep regions whose closure
    holds the centre: the probing that the single integer trace replaces."""
    found = {}
    with mpmath.workprec(2 * PREC):
        centre, _ = _direction(w)
        delta = mpmath.mpf(1e-6)
        for dirn in _probe_directions(len(centre)):
            flat = [_exact(c + delta * x) for c, x in zip(centre, dirn)]
            tr = traced_apply(DynnikovVector.from_flat(w.strands, flat), w)
            if not tr.signature.has_ties and tr.matrix not in found:
                rows = {tuple(c // math.gcd(*r) for c in r) for r in tr.constraints}
                found[tr.matrix] = tuple(sorted(rows))
        sup = max(abs(x) for x in centre)
        return {
            (m, region)
            for m, region in found.items()
            if all(
                sum(c * x for c, x in zip(row, centre))
                >= -mpmath.mpf("1e-25") * max(abs(c) for c in row) * sup
                for row in region
            )
        }


def _counting_traces(monkeypatch):
    calls = []
    plain = regions.traced_apply

    def counting(v, w):
        calls.append(1)
        return plain(v, w)

    monkeypatch.setattr(regions, "traced_apply", counting)
    return calls


def test_single_trace_matches_full_probing(monkeypatch):
    calls = _counting_traces(monkeypatch)
    fast = 0
    slow_words = [parse_braid("1 2 3 -4", 5), parse_braid(S3_WORD, 4)]
    for w in _penner_words(11, 30) + slow_words:
        del calls[:]
        got = {(m.matrix, m.region) for m in dynnikov_matrices(w)}
        fast += len(calls) == 1
        assert got == _reference_matrices(w), w.render()
    assert fast == 30  # short Penner words never leave the centre's region


def test_two_region_word_takes_slow_path(monkeypatch):
    calls = _counting_traces(monkeypatch)
    mats = dynnikov_matrices(parse_braid("1 2 3 -4", 5))
    assert len(calls) == 1 + len(_probe_directions(6))
    assert {m.matrix for m in mats} == {D1_N5, D2_N5}


def test_fast_path_needs_margin_to_every_wall():
    # at (100, 10) sigma_1 has walls a = 0, a = b, b = 0: c.X = 100, 90, 10
    w = parse_braid("1", 3)
    X = [100, 10]
    tr = traced_apply(DynnikovVector.from_flat(3, X), w)
    assert _in_interior(tr, X, 9)
    assert not _in_interior(tr, X, 10)  # the ball reaches b = 0
    X = [10, 10]  # on the wall a = b: a tie
    assert not _in_interior(traced_apply(DynnikovVector.from_flat(3, X), w), X, 0)


def test_penner_words_never_fail_fast():
    # 50 words on each of 4, 5 and 6 strands
    words = _penner_words(5, 150)
    words += [parse_braid(text, n) for text, n in ACCEPTANCE_WORDS]
    for w in words:
        assert fixed_lamination(w) is None, w.render()


def _fixes(w, p, c):
    v = DynnikovVector.from_flat(w.strands, c)
    for _ in range(p):
        v = apply_braid(v, w)
    return v.flat() == tuple(c)


def _assert_certified(w):
    found = fixed_lamination(w)
    assert found is not None, w.render()
    p, c = found
    assert p >= 1 and any(c) and all(isinstance(x, int) for x in c)
    assert _fixes(w, p, c), w.render()
    return p, c


def test_periodic_words_fail_fast():
    for text, n in PERIODIC_WORDS:
        w = parse_braid(text, n)
        p, _ = _assert_certified(w)
        assert p in (n - 1, n)
        with pytest.raises(NonConvergence, match=f"power {p} of the word fixes the integral"):
            find_unstable_direction(w)


def _multitwist(rng, n):
    """Powers of two commuting generators, conjugated (a reducible word)."""
    i = rng.randint(1, n - 3)
    j = rng.randint(i + 2, n - 1)
    total = rng.randint(2, 6)
    a = rng.randint(1, total - 1)
    core = [i * rng.choice((1, -1))] * a + [j * rng.choice((1, -1))] * (total - a)
    g = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 8))]
    return parse_braid(" ".join(map(str, g + core + [-x for x in reversed(g)])), n)


def test_multitwists_are_certified():
    rng = random.Random(17)
    for k in range(60):
        _assert_certified(_multitwist(rng, 4 + k % 3))


def test_certificate_is_confirmed_before_it_is_returned(monkeypatch):
    # with every confirmation refused, no word is certified: the orbit
    # patterns only propose candidates
    monkeypatch.setattr(regions, "_fixes", lambda w, p, c: False)
    for text, n in PERIODIC_WORDS + (("3 -3 1 -3 -3 3 -3", 4), ("1 1 1", 4)):
        assert fixed_lamination(parse_braid(text, n)) is None


def test_failure_scan_is_bounded(monkeypatch):
    # a pA word on 9 strands: {-1, 0, 1}^14 has 4.8 million vectors
    w = parse_braid("1 -2 3 -4 5 -6 7 -8", 9)
    monkeypatch.setattr(regions, "MAX_ITERS", 1)
    with pytest.raises(NonConvergence, match="no attracting direction after 1 iterations"):
        find_unstable_direction(w)
    calls = []
    plain = regions._fixes
    monkeypatch.setattr(regions, "_fixes", lambda w, p, c: calls.append(c) or plain(w, p, c))
    assert regions._small_fixed_lamination(w) is None
    assert len(set(calls)) == len(calls) == regions.SCAN_VECTORS


def test_centre_is_the_exact_iterate(monkeypatch):
    # the centre once went through a 53-bit float: ties in its trace, and
    # entries with hundreds of trailing zero bits
    w = parse_braid("-3 -3 -2 1 1 1 3 -1 3", 4)
    points = []
    plain = regions.traced_apply

    def recording(v, word):
        points.append(v.flat())
        return plain(v, word)

    monkeypatch.setattr(regions, "traced_apply", recording)
    dynnikov_matrices(w)
    centre = tuple(x << PREC for x in find_unstable_direction(w).u)
    assert points[0] == centre
    assert not plain(DynnikovVector.from_flat(4, centre), w).signature.has_ties


@pytest.mark.parametrize(
    "n, word, curve",
    [
        (4, "1 -2", (0, 0, 0, 1)),
        (6, "-3 1 -1 3 -4 -2 1 1 5 1", (0, 0, 0, 0, 0, 1, 0, 0)),
        (6, "5 2 2 -3 -4 4 3 -1 5 -3 1 5", (0, 0, 0, 0, -1, 0, 0, 0)),
    ],
)
def test_unused_generator_is_refused(n, word, curve):
    # each word converges to a direction, but leaves a generator unused once
    # sigma_i sigma_i^-1 cancel: a round curve is fixed
    w = parse_braid(word, n)
    assert not regions._uses_every_generator(w)
    message = f"power 1 of the word fixes the integral lamination {curve}"
    with pytest.raises(NonConvergence, match=re.escape(message)):
        find_unstable_direction(w)


def test_free_reduction_cancels_adjacent_inverses():
    assert regions._uses_every_generator(parse_braid("1 2 -2 2", 3))
    assert not regions._uses_every_generator(parse_braid("1 2 -2", 3))
    assert not regions._uses_every_generator(parse_braid("1 2 3 -3 -2 2", 4))
    # every generator of the 5-strand ROADMAP word survives: it is still answered
    assert regions._uses_every_generator(parse_braid("-1 -1 3 -3 3 -4 2 3 -2 -1 -1 4", 5))


# ---------------------------------------------------------------------------
# circle decomposition (3 strands)


def test_regions_n3_six_arcs():
    arcs = enumerate_regions_n3(parse_braid("1 -2", 3))
    assert len(arcs) == 6
    assert {m for _, m in arcs} == SIX_N3
    total = sum(float(hi - lo) for (lo, hi), _ in arcs)
    assert abs(total - 2 * 3.141592653589793) < 1e-8
    for (lo, hi), _ in arcs:
        assert float(hi - lo) > 0


def test_regions_n3_identity():
    arcs = enumerate_regions_n3(identity_word(3))
    assert len(arcs) == 1
    assert arcs[0][1] == ((1, 0), (0, 1))


def test_regions_n3_rejects_other_strand_counts():
    with pytest.raises(ValueError):
        enumerate_regions_n3(parse_braid("1", 4))


NARROW_N3 = "-1 2 -1 1 -2 2 2 -1 2 -1 -1 -1"  # three arcs narrower than 0.01


def _circle_words(seed):
    """One random 3-strand word of each length 2 to 30."""
    rng = random.Random(seed)
    return [
        parse_braid(" ".join(str(rng.choice((1, -1, 2, -2))) for _ in range(n)), 3)
        for n in range(2, 31)
    ]


def test_regions_n3_finds_narrow_arcs():
    assert len(enumerate_regions_n3(parse_braid(NARROW_N3, 3))) == 8


def test_regions_n3_arc_ends_follow_exact_action():
    """Each matrix is the exact action just inside both ends of its arc."""
    words = [parse_braid(NARROW_N3, 3), parse_braid("1 -2", 3)] + _circle_words(7)
    with mpmath.workdps(60):
        for w in words:
            arcs = enumerate_regions_n3(w)
            for (lo, hi), m in arcs:
                eps = min((hi - lo) / 4, mpmath.mpf("1e-30"))
                for theta in (lo + eps, hi - eps):
                    # a rational point within 1e-60 of the angle
                    v = DynnikovVector(
                        3, (Fraction(str(mpmath.cos(theta))),), (Fraction(str(mpmath.sin(theta))),)
                    )
                    assert apply_braid(v, w) == mat_vec(m, v), w.render()
            # contiguous, once round the circle, a new matrix at every end
            nexts = arcs[1:] + [((arcs[0][0][0] + 2 * mpmath.pi, None), arcs[0][1])]
            for ((_, hi), m), ((lo, _), m2) in zip(arcs, nexts):
                assert abs(hi - lo) < 1e-50, w.render()
                assert len(arcs) == 1 or m != m2, w.render()


def test_regions_n3_traces_per_arc(monkeypatch):
    """About one integer trace per cone: at most 3 per arc over the seeded words.

    A single word can take more, because a wall of one trace's cone need not
    change the matrix: the half twist "1 2 1" is linear, one arc, six cones.
    """
    calls = _counting_traces(monkeypatch)
    arcs = sum(len(enumerate_regions_n3(w)) for s in (1, 2, 3) for w in _circle_words(s))
    assert len(calls) <= 3 * arcs


def test_regions_n3_pointwise_oracle():
    """Arc lookup agrees with an independent traced evaluation on a grid."""
    w = parse_braid("1", 3)
    arcs = enumerate_regions_n3(w)
    with mpmath.workprec(80):
        two_pi = 2 * mpmath.pi
        for k in range(1500):
            theta = two_pi * k / 1500 + mpmath.mpf("1e-7")
            v = DynnikovVector(3, (_exact(mpmath.cos(theta)),), (_exact(mpmath.sin(theta)),))
            tr = traced_apply(v, w)
            if tr.signature.has_ties:
                continue
            hit = None
            for (lo, hi), m in arcs:
                t = theta
                if lo <= t < hi or lo <= t + two_pi < hi:
                    hit = m
                    break
            assert hit == tr.matrix, f"angle {float(theta)}"
