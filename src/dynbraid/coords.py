"""Points of the coordinate space S_n = R^{2n-4} \\ {0} and conversions.

A point is a pair of lists (a_1..a_{n-2}, b_1..b_{n-2}).  Scalars may be exact
(int / Fraction), arbitrary-precision binary floats (mpmath.mpf) or machine
floats; operations are generic over the scalar kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath

from .errors import CoordinateError

Scalar = object  # int | Fraction | float | mpmath.mpf


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

    def sup_norm(self):
        return max(abs(x) for x in self.flat())

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


@dataclass(frozen=True)
class TriangleCoords:
    """Nonnegative measures of the arcs alpha_1..alpha_{2n-4}, beta_1..beta_{n-1}."""

    alpha: tuple
    beta: tuple

    def __post_init__(self) -> None:
        if len(self.alpha) % 2 != 0 or len(self.alpha) < 2:
            raise CoordinateError("alpha must have even length 2n-4 >= 2")
        if len(self.beta) != len(self.alpha) // 2 + 1:
            raise CoordinateError("beta must have length n-1")
        if any(x < 0 for x in self.alpha + self.beta):
            raise CoordinateError("arc measures must be nonnegative")

    @property
    def strands(self) -> int:
        return len(self.alpha) // 2 + 2


def from_triangle(t: TriangleCoords) -> DynnikovVector:
    """Halved differences: a_i = (alpha_{2i} - alpha_{2i-1})/2, b_i = (beta_i - beta_{i+1})/2."""

    def half(x):
        if _is_exact(x):
            h = Fraction(x) / 2
            return int(h) if h.denominator == 1 else h
        return x / 2

    a = tuple(half(t.alpha[2 * i + 1] - t.alpha[2 * i]) for i in range(len(t.alpha) // 2))
    b = tuple(half(t.beta[i] - t.beta[i + 1]) for i in range(len(t.beta) - 1))
    if all(x == 0 for x in a + b):
        raise CoordinateError("degenerate arc measures: all coordinates vanish")
    return DynnikovVector(t.strands, a, b)


def scale(v: DynnikovVector, lam) -> DynnikovVector:
    if lam <= 0:
        raise CoordinateError("scale factor must be positive")
    return DynnikovVector(
        v.strands, tuple(x * lam for x in v.a), tuple(x * lam for x in v.b)
    )


def positive_normalize(v: DynnikovVector) -> DynnikovVector:
    """Divide by the sup norm only.

    The braid action commutes with positive scaling but not with negation,
    so iteration toward a fixed direction must never flip the sign.
    """
    norm = v.sup_norm()
    return DynnikovVector.from_flat(v.strands, [x / norm for x in v.flat()])


def normalize(v: DynnikovVector) -> DynnikovVector:
    """Canonical projective representative: sup norm 1, first nonzero entry > 0."""
    norm = v.sup_norm()
    entries = [x / norm for x in v.flat()]
    for x in entries:
        if x != 0:
            if x < 0:
                entries = [-y for y in entries]
            break
    return DynnikovVector.from_flat(v.strands, entries)


def projective_distance(v1: DynnikovVector, v2: DynnikovVector):
    """sup distance between sup-normalized representatives, minimized over sign."""
    if v1.strands != v2.strands:
        raise CoordinateError("strand mismatch")
    u1 = normalize(v1).flat()
    u2 = normalize(v2).flat()
    d_plus = max(abs(x - y) for x, y in zip(u1, u2))
    d_minus = max(abs(x + y) for x, y in zip(u1, u2))
    return min(d_plus, d_minus)


def to_mpf(v: DynnikovVector) -> DynnikovVector:
    """Convert entries to mpmath floats at the current working precision."""
    conv = lambda x: mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mpmath.mpf(x)
    return DynnikovVector(v.strands, tuple(conv(x) for x in v.a), tuple(conv(x) for x in v.b))
