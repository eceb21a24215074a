"""Points of the coordinate space S_n = R^{2n-4} \\ {0} and their JSON form.

A point is a pair of lists (a_1..a_{n-2}, b_1..b_{n-2}) of exact scalars (int
/ Fraction): ``load_json`` decodes every JSON number exactly, at the one
boundary where input enters, and the update rules keep the scalars exact.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CoordinateError

# the digits json allows in an int literal, and so in any decoded number
MAX_DIGITS = 4300

# a sign, then a decimal (integer digits, fraction digits, exponent) or a fraction
_NUMBER = re.compile(r"([-+]?)(?:(\d*)(?:\.(\d*))?(?:[eE]([-+]?\d+))?|(\d+)/(0*[1-9]\d*))")


def exact_number(text: str):
    """The exact value of a decimal ("-2", "0.25", "1e3") or a fraction
    ("-1/2"): an int when it is one, else a Fraction.

    ValueError when text is neither, or when its digits as written (without
    leading zeros) and its exponent would make a numerator or a denominator
    of more than MAX_DIGITS digits; that is checked before anything is built.
    """
    m = _NUMBER.fullmatch(text)
    if m is None or not (m[2] or m[3] or m[5]):
        raise ValueError(f"expected a decimal or a fraction, got {text[:40]!r}")
    if m[5]:
        num, den, exp = m[5], m[6], 0
    else:
        num, den, exp = m[2] + (m[3] or ""), "1", int(m[4] or 0) - len(m[3] or "")
    num, den = num.lstrip("0") or "0", den.lstrip("0")
    if len(num) + max(exp, 0) > MAX_DIGITS or len(den) + max(-exp, 0) > MAX_DIGITS:
        raise ValueError(f"{text[:40]!r} has more than {MAX_DIGITS} digits")
    x = Fraction(int(m[1] + num) * 10 ** max(exp, 0), int(den) * 10 ** max(-exp, 0))
    return x.numerator if x.denominator == 1 else x


def load_json(text: str, error: type, what: str):
    """The JSON document in text with every number exact (exact_number);
    a malformed one, NaN or Infinity raises error naming what."""
    try:
        return json.loads(text, parse_float=exact_number, parse_constant=exact_number)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None


def json_int(x, what: str) -> int:
    """x when it is an integer (a bool is not); TypeError naming what otherwise,
    for the loader to report as a malformed document."""
    if type(x) is not int:
        raise TypeError(f"{what} must be an integer, got {x!r}")
    return x


def decode_rational(x):
    """A JSON entry as a scalar: a decimal or rational string ("3", "-1/2",
    "0.25") is read by exact_number, an int or a Fraction is returned as it
    is, and anything else raises CoordinateError."""
    if isinstance(x, str):
        try:
            return exact_number(x)
        except ValueError:
            raise CoordinateError(
                f"expected a rational string of at most {MAX_DIGITS} digits, got {x[:40]!r}"
            ) from None
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise CoordinateError(f"expected a number or a rational string, got {x!r}")
    return x


@dataclass(frozen=True)
class DynnikovVector:
    """A nonzero point (a, b) of S_n."""

    strands: int
    a: tuple
    b: tuple

    def __post_init__(self) -> None:
        m = self.strands - 2
        if len(self.a) != m or len(self.b) != m:
            raise CoordinateError(
                f"expected {m} entries in each of a, b for {self.strands} strands"
            )
        if all(x == 0 for x in self.flat()):
            raise CoordinateError("the zero vector is not a point of S_n")

    def flat(self) -> tuple:
        return self.a + self.b

    @classmethod
    def from_flat(cls, strands: int, entries: Sequence) -> "DynnikovVector":
        m = strands - 2
        if len(entries) != 2 * m:
            raise CoordinateError(f"expected {2 * m} entries, got {len(entries)}")
        return cls(strands, tuple(entries[:m]), tuple(entries[m:]))

    def to_json(self) -> str:
        """The exact entries as rational strings."""
        enc = [str(x) for x in self.flat()]
        m = self.strands - 2
        return json.dumps({"n": self.strands, "a": enc[:m], "b": enc[m:]})

    @classmethod
    def from_json(cls, text: str) -> "DynnikovVector":
        doc = load_json(text, CoordinateError, "vector document")
        if not (
            isinstance(doc, dict)
            and type(doc.get("n")) is int
            and isinstance(doc.get("a"), list)
            and isinstance(doc.get("b"), list)
        ):
            raise CoordinateError(
                f'a vector document is {{"n": <int>, "a": [...], "b": [...]}}, got {text!r}'
            )
        n = doc["n"]
        return cls(
            n,
            tuple(decode_rational(x) for x in doc["a"]),
            tuple(decode_rational(x) for x in doc["b"]),
        )
