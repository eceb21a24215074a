"""Points of the coordinate space S_n = R^{2n-4} \\ {0} and their JSON form.

A point is a pair of lists (a_1..a_{n-2}, b_1..b_{n-2}).  Scalars may be exact
(int / Fraction), arbitrary-precision binary floats (mpmath.mpf) or machine
floats; operations are generic over the scalar kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CoordinateError

def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def decode_rational(x):
    """A JSON entry as a scalar: a decimal or rational string ("3", "-1/2",
    "0.25") becomes an int or a Fraction; a number is returned as it is,
    and anything else raises CoordinateError."""
    if isinstance(x, str):
        f = Fraction(x)
        return f.numerator if f.denominator == 1 else f
    if isinstance(x, bool) or not isinstance(x, (int, float)):
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

    def is_exact(self) -> bool:
        return all(_is_exact(x) for x in self.flat())

    def to_json(self) -> str:
        if self.is_exact():
            enc = [str(Fraction(x)) for x in self.flat()]
        else:
            enc = [float(x) for x in self.flat()]
        m = self.strands - 2
        return json.dumps({"n": self.strands, "a": enc[:m], "b": enc[m:]})

    @classmethod
    def from_json(cls, text: str) -> "DynnikovVector":
        doc = json.loads(text)
        if not (
            isinstance(doc, dict)
            and isinstance(doc.get("n"), int)
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
