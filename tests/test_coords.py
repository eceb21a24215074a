from fractions import Fraction

import pytest

from dynbraid.coords import DynnikovVector
from dynbraid.errors import CoordinateError


def test_zero_vector_rejected():
    with pytest.raises(CoordinateError):
        DynnikovVector(3, (0,), (0,))


def test_length_mismatch_rejected():
    with pytest.raises(CoordinateError):
        DynnikovVector(4, (1,), (1, 1))
    with pytest.raises(CoordinateError):
        DynnikovVector.from_flat(4, [1, 2, 3])


def test_flat_round_trip():
    v = DynnikovVector.from_flat(4, [1, 2, 3, 4])
    assert v.a == (1, 2) and v.b == (3, 4)
    assert v.flat() == (1, 2, 3, 4)


def test_json_round_trip_exact():
    v = DynnikovVector(4, (Fraction(1, 3), -2), (0, Fraction(-7, 5)))
    u = DynnikovVector.from_json(v.to_json())
    assert u == v
    assert u.is_exact()


def test_json_round_trip_float():
    v = DynnikovVector(3, (0.5,), (-1.25,))
    u = DynnikovVector.from_json(v.to_json())
    assert u.flat() == (0.5, -1.25)
    assert not u.is_exact()
