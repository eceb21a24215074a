from fractions import Fraction

import pytest

from dynbraid.coords import DynnikovVector, exact_number, json_int, load_json
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
    assert all(type(x) in (int, Fraction) for x in u.flat())


def test_json_round_trip_float():
    # a decimal literal means its decimal value, not the nearest binary float
    u = DynnikovVector.from_json('{"n": 3, "a": [0.5], "b": [-1.25]}')
    assert u.flat() == (Fraction(1, 2), Fraction(-5, 4))
    assert DynnikovVector.from_json(u.to_json()) == u


@pytest.mark.parametrize(
    "text, value",
    [
        ("0.1", Fraction(1, 10)),
        ("2.0", 2),
        ("-0.0", 0),
        ("1e3", 1000),
        ("-1.5E-3", Fraction(-3, 2000)),
        ("100e-2", 1),
        ("-1/2", Fraction(-1, 2)),
        ("4/2", 2),
        ("1e4299", 10**4299),
        ("1e-4299", Fraction(1, 10**4299)),
    ],
)
def test_exact_number(text, value):
    x = exact_number(text)
    assert x == value and type(x) is type(value)


@pytest.mark.parametrize(
    "text",
    ["", ".", "e5", "1e", "abc", "1/2.5", "1/0", "1/-2", "1e4300", "1e-4300", "1e999999999",
     "1" * 4301, "1/" + "1" * 4301],
)
def test_exact_number_refuses_non_numbers_and_too_many_digits(text):
    with pytest.raises(ValueError):
        exact_number(text)


def test_load_json_is_exact_and_refuses_constants():
    assert load_json("[0.1, 2.0, 3]", CoordinateError, "x") == [Fraction(1, 10), 2, 3]
    assert type(load_json("2.0", CoordinateError, "x")) is int
    for text in ("NaN", "[Infinity]", "-Infinity", "1e-999999999", "1" * 4301):
        with pytest.raises(CoordinateError, match="x is not valid JSON"):
            load_json(text, CoordinateError, "x")


def test_json_int_refuses_bools_and_fractions():
    assert json_int(load_json("2.0", CoordinateError, "x"), "n") == 2
    for x in (True, Fraction(3, 2), "3", None):
        with pytest.raises(TypeError, match="n must be an integer"):
            json_int(x, "n")
