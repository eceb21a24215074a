import random
from fractions import Fraction

import mpmath
import pytest

from dynbraid.braid import BraidWord, compose, inverse, parse_braid
from dynbraid.coords import DynnikovVector
from dynbraid.errors import BraidFormatError, CoordinateError
from dynbraid.update import apply_braid, apply_generator, traced_apply

from conftest import det_fraction, mat_vec, random_rational, random_vector, random_word, scaled


def test_three_letter_oracle():
    v = DynnikovVector.from_flat(4, [-1, -1, 0, -1])
    w = parse_braid("-3 2 -1", 4)
    assert apply_braid(v, w).flat() == (2, -3, -1, 0)


def test_leftmost_letter_acts_first():
    v = DynnikovVector.from_flat(4, [-1, -1, 0, -1])
    w = parse_braid("-3 2 -1", 4)
    step = apply_generator(v, 3, -1)
    step = apply_generator(step, 2, 1)
    step = apply_generator(step, 1, -1)
    assert apply_braid(v, w) == step


def test_single_generator_small_case():
    # sigma_1 on 3 strands at (a, b) = (-2, -1):
    # a' = a + b - max(a, 0, b) = -3, b' = max(0, b) - a = 2
    v = DynnikovVector(3, (-2,), (-1,))
    assert apply_generator(v, 1, 1).flat() == (-3, 2)


def test_generator_index_validation():
    v = DynnikovVector(3, (1,), (1,))
    with pytest.raises(BraidFormatError):
        apply_generator(v, 3, 1)
    with pytest.raises(BraidFormatError):
        apply_braid(v, parse_braid("1", 4))
    with pytest.raises(BraidFormatError):
        traced_apply(v, parse_braid("1", 4))


@pytest.mark.parametrize("entry", [0.5, mpmath.mpf("0.5")])
def test_traced_apply_rejects_inexact_input(entry):
    # a tie is exact equality, so a rounded input has no well-defined trace
    v = DynnikovVector(3, (entry,), (1,))
    with pytest.raises(CoordinateError):
        traced_apply(v, parse_braid("1", 3))


def test_involution_small():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(3, 7)
        v = random_vector(rng, n)
        i = rng.randint(1, n - 1)
        s = rng.choice((1, -1))
        assert apply_generator(apply_generator(v, i, s), i, -s) == v


def test_locality():
    """sigma_i only changes coordinates a_{i-1}, a_i, b_{i-1}, b_i."""
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(4, 8)
        v = random_vector(rng, n)
        i = rng.randint(1, n - 1)
        out = apply_generator(v, i, rng.choice((1, -1)))
        touched = {k for k in (i - 2, i - 1) if 0 <= k < n - 2}
        for k in range(n - 2):
            if k not in touched:
                assert out.a[k] == v.a[k]
                assert out.b[k] == v.b[k]


def test_integer_inputs_stay_integer():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(3, 6)
        flat = [rng.randint(-9, 9) for _ in range(2 * n - 4)]
        if not any(flat):
            continue
        v = DynnikovVector.from_flat(n, flat)
        out = apply_braid(v, random_word(rng, n, 8))
        assert all(isinstance(x, int) for x in out.flat())


def test_traced_matches_plain():
    rng = random.Random(37)
    for _ in range(100):
        n = rng.randint(3, 6)
        v = random_vector(rng, n)
        w = random_word(rng, n, rng.randint(0, 10))
        tr = traced_apply(v, w)
        assert tr.value == apply_braid(v, w)
        assert mat_vec(tr.matrix, v) == tr.value


def test_traced_identity_word():
    v = DynnikovVector.from_flat(4, [1, 2, 3, 4])
    tr = traced_apply(v, BraidWord(4, ()))
    assert tr.value == v
    assert tr.matrix == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert tr.constraints == ()
    assert tr.signature.letters == ()
    assert not tr.signature.has_ties


def test_constraints_hold_at_basepoint():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(3, 6)
        v = random_vector(rng, n)
        w = random_word(rng, n, 6)
        tr = traced_apply(v, w)
        flat = v.flat()
        for row in tr.constraints:
            assert sum(c * x for c, x in zip(row, flat)) >= 0


def test_tie_flag_set_on_wall():
    # at (2, 2), sigma_1 evaluates max(a, 0, b) with a tying b
    v = DynnikovVector(3, (2,), (2,))
    tr = traced_apply(v, parse_braid("1", 3))
    assert tr.signature.has_ties


def test_tie_flag_clear_off_wall():
    v = DynnikovVector(3, (-2,), (-1,))
    tr = traced_apply(v, parse_braid("1", 3))
    assert not tr.signature.has_ties


def test_signature_choices_shape():
    v = DynnikovVector.from_flat(5, [1, -2, 3, -1, 2, -3])
    w = parse_braid("1 2 -3 4", 5)
    tr = traced_apply(v, w)
    assert len(tr.signature.letters) == len(w)
    assert all(len(c) == len(t) for c, t in tr.signature.letters)


def test_matrix_composes_over_words():
    """Matrix of a concatenation is the product of the step matrices."""
    rng = random.Random(43)
    for _ in range(50):
        n = rng.randint(3, 5)
        v = random_vector(rng, n)
        w1 = random_word(rng, n, 4)
        w2 = random_word(rng, n, 4)
        tr1 = traced_apply(v, w1)
        tr2 = traced_apply(tr1.value, w2)
        tr = traced_apply(v, compose(w1, w2))
        product = [
            [
                sum(tr2.matrix[i][k] * tr1.matrix[k][j] for k in range(2 * n - 4))
                for j in range(2 * n - 4)
            ]
            for i in range(2 * n - 4)
        ]
        assert [list(r) for r in tr.matrix] == product


def test_elementary_matrix_det():
    rng = random.Random(47)
    checked = 0
    while checked < 100:
        n = rng.randint(3, 6)
        v = random_vector(rng, n)
        i = rng.randint(1, n - 1)
        tr = traced_apply(v, BraidWord(n, ((i, rng.choice((1, -1))),)))
        if tr.signature.has_ties:
            continue
        assert abs(det_fraction(tr.matrix)) == 1
        checked += 1


def test_homogeneity_small():
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randint(3, 6)
        v = random_vector(rng, n)
        w = random_word(rng, n, 6)
        lam = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        assert apply_braid(scaled(v, lam), w) == scaled(apply_braid(v, w), lam)
