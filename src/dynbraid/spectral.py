"""Exact integer characteristic polynomials and spectrum comparison.

Characteristic polynomials are computed division-free (Berkowitz), so all
arithmetic stays in Python integers no matter how large the entries get.
Dilatations are located on the exact integer factor left after stripping
zeros and roots of unity: a float estimate brackets the dominant real root,
then rational bisection refines it to the requested precision.  Stripping
loses nothing, since every stripped root has modulus at most 1 and so can
neither be the dominant root nor compete with it, while the repeated trivial
factors it removes (such as (x-1)^4) are what stalls the float root finder.
"Isospectral up to ..." comparisons are decided on exact integer polynomials
after stripping the designated trivial factors, never on floating spectra.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import gcd

import mpmath

from .errors import CoordinateError, NoDominantRealRoot, NonConvergence

Mode = str  # "exact" | "roots_of_unity_and_zeros" | "eigenvalues_one"
MODES = ("exact", "roots_of_unity_and_zeros", "eigenvalues_one")


# ---------------------------------------------------------------------------
# polynomials: integer coefficient tuples, lowest degree first


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                out[i + j] += x * y
    return tuple(out)


def poly_divmod(p, q):
    """Polynomial division over the rationals; exact when entries are ints."""
    p = list(p)
    dq = len(q) - 1
    lead = q[-1]
    quot = [0] * max(len(p) - dq, 1)
    for k in range(len(p) - 1 - dq, -1, -1):
        c = p[k + dq]
        if c == 0:
            continue
        f = Fraction(c, lead) if c % lead else c // lead
        quot[k] = f
        for j, y in enumerate(q):
            p[k + j] -= f * y
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return tuple(quot), tuple(p)


def poly_divides(p, q):
    """If q divides p exactly with integer quotient, return it, else None."""
    quot, rem = poly_divmod(p, q)
    if any(rem) or any(isinstance(c, Fraction) for c in quot):
        return None
    return quot


@cache
def cyclotomic(d: int):
    """Coefficients of the d-th cyclotomic polynomial, lowest degree first."""
    p = [0] * d + [1]
    p[0] = -1  # x^d - 1
    p = tuple(p)
    for e in range(1, d):
        if d % e == 0:
            p = poly_divides(p, cyclotomic(e))
    return p


def euler_phi(d: int) -> int:
    count = 0
    for k in range(1, d + 1):
        if gcd(k, d) == 1:
            count += 1
    return count


@dataclass(frozen=True)
class CharPoly:
    """Monic integer polynomial; coefficients lowest degree first."""

    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json(self) -> str:
        return json.dumps({"coeffs": [str(c) for c in self.coeffs]})

    @classmethod
    def from_json(cls, text: str) -> "CharPoly":
        doc = json.loads(text)
        return cls(tuple(int(c) for c in doc["coeffs"]))


# ---------------------------------------------------------------------------
# characteristic polynomial (Berkowitz, division-free)


def char_poly(M) -> CharPoly:
    """Exact char poly det(xI - M) of a square integer/rational matrix."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise CoordinateError("matrix is not square")
    coeffs = [1]  # highest degree first while building
    for size in range(1, n + 1):
        i = size - 1
        A = [row[:i] for row in M[:i]]
        R = list(M[i][:i])
        C = [M[j][i] for j in range(i)]
        toep = [1, -M[i][i]]
        v = C[:]
        for _ in range(size - 1):
            toep.append(-sum(r * x for r, x in zip(R, v)))
            v = [sum(A[r][c] * v[c] for c in range(i)) for r in range(i)]
        new = [0] * (size + 1)
        for k in range(size + 1):
            for j in range(size):
                if 0 <= k - j <= size:
                    new[k] += toep[k - j] * coeffs[j]
        coeffs = new
    return CharPoly(tuple(reversed(coeffs)))


# ---------------------------------------------------------------------------
# dilatation


def _all_roots(p: CharPoly):
    # mpmath wants highest degree first
    with mpmath.workdps(60):
        try:
            return mpmath.polyroots(
                [mpmath.mpf(c) for c in reversed(p.coeffs)], maxsteps=200, extraprec=200
            )
        except mpmath.libmp.NoConvergence as exc:
            raise NonConvergence(
                f"root finder did not converge on a degree-{p.degree} polynomial"
            ) from exc


def dilatation(M, tol=Fraction(1, 10**30)):
    """The dominant real eigenvalue > 1, refined on the exact polynomial.

    Roots are found and bisected on the char poly with its zeros and roots of
    unity stripped.  That is exact: the stripped roots have modulus at most
    1, so the dominance, off-axis and simplicity checks decide the same on
    the factor as on the full polynomial, and on (1, oo) the two have the
    same sign, so bisection brackets the same root.  The root is bisected to
    relative width tol and returned with enough digits to show it (at least
    45).

    Raises NoDominantRealRoot when no real root > 1 strictly dominates the
    modulus of every other root (relative margin 1e-9), and NonConvergence
    when the float root finder fails.
    """
    p, _ = strip_trivial_factors(char_poly(M), "roots_of_unity_and_zeros")
    roots = _all_roots(p)  # none when p is constant (identity, rotations)
    best = None
    for r in roots:
        if abs(mpmath.im(r)) < 1e-20 * max(1, abs(r)) and mpmath.re(r) > 1:
            if best is None or mpmath.re(r) > best:
                best = mpmath.re(r)
    if best is None:
        raise NoDominantRealRoot("no real eigenvalue exceeding 1")
    for r in roots:
        if abs(abs(r) - best) < 1e-12 * best and abs(mpmath.re(r) - best) > 1e-9 * best:
            raise NoDominantRealRoot("dominant modulus attained off the real axis")
        if abs(r) > best * (1 + 1e-9):
            raise NoDominantRealRoot("a larger-modulus eigenvalue exists")
    # count roots equal to best (multiplicity) -- refuse non-simple dominance
    near = [r for r in roots if abs(r - best) < 1e-9 * best]
    if len(near) != 1:
        raise NoDominantRealRoot("dominant real root is not simple")
    # exact bisection around the estimate
    est = Fraction(mpmath.nstr(best, 40))
    width = Fraction(1, 10**20) * max(1, est)
    lo, hi = est - width, est + width
    while p(lo) * p(hi) > 0:
        width *= 2
        lo, hi = est - width, est + width
        if width > max(1, est):
            raise NoDominantRealRoot("failed to bracket the dominant root")
    if p(lo) > 0:
        lo, hi = hi, lo  # keep p(lo) < 0 <= p(hi)
    while abs(hi - lo) > tol * max(1, est):
        mid = (lo + hi) / 2
        if p(mid) < 0:
            lo = mid
        else:
            hi = mid
    mid = (lo + hi) / 2
    with mpmath.workdps(max(45, len(str(Fraction(tol).denominator)) + 5)):
        return mpmath.mpf(mid.numerator) / mid.denominator


# ---------------------------------------------------------------------------
# factor stripping and isospectrality


def strip_trivial_factors(p: CharPoly, mode: Mode):
    """Remove designated trivial factors; returns (stripped, factor list).

    Factor list entries are (label, multiplicity) with labels "x", "x-1" or
    "cyclotomic_<d>".
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact":
        return p, []
    coeffs = p.coeffs
    factors = []
    if mode == "eigenvalues_one":
        count = 0
        while len(coeffs) > 1:
            quot = poly_divides(coeffs, (-1, 1))
            if quot is None:
                break
            coeffs = quot
            count += 1
        if count:
            factors.append(("x-1", count))
        return CharPoly(coeffs), factors
    # roots_of_unity_and_zeros
    k = 0
    while len(coeffs) > 1 and coeffs[0] == 0:
        coeffs = coeffs[1:]
        k += 1
    if k:
        factors.append(("x", k))
    deg = len(coeffs) - 1
    d = 1
    while d <= 2 * deg * deg and len(coeffs) > 1:
        if euler_phi(d) <= len(coeffs) - 1:
            phi = cyclotomic(d)
            count = 0
            while len(coeffs) > 1:
                quot = poly_divides(coeffs, phi)
                if quot is None:
                    break
                coeffs = quot
                count += 1
            if count:
                factors.append((f"cyclotomic_{d}", count))
        d += 1
    return CharPoly(coeffs), factors


@dataclass(frozen=True)
class SpectrumReport:
    mode: Mode
    stripped_left: CharPoly
    stripped_right: CharPoly
    factors_left: tuple
    factors_right: tuple
    isospectral: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "mode": self.mode,
                "isospectral": self.isospectral,
                "stripped_left": [str(c) for c in self.stripped_left.coeffs],
                "stripped_right": [str(c) for c in self.stripped_right.coeffs],
                "factors_left": [list(f) for f in self.factors_left],
                "factors_right": [list(f) for f in self.factors_right],
            }
        )


def isospectral_up_to(M1, M2, mode: Mode) -> SpectrumReport:
    """Strip both char polys per mode; isospectral iff they agree exactly."""
    p1, f1 = strip_trivial_factors(char_poly(M1), mode)
    p2, f2 = strip_trivial_factors(char_poly(M2), mode)
    return SpectrumReport(mode, p1, p2, tuple(f1), tuple(f2), p1.coeffs == p2.coeffs)


# ---------------------------------------------------------------------------
# double cover and matrix powers


def double_cover_lift(A, B):
    """Block matrix [[A, B], [B, A]]."""
    k = len(A)
    if len(B) != k or any(len(r) != k for r in A) or any(len(r) != k for r in B):
        raise CoordinateError("A and B must be square of the same size")
    top = [list(ra) + list(rb) for ra, rb in zip(A, B)]
    bot = [list(rb) + list(ra) for ra, rb in zip(A, B)]
    return top + bot


def mat_mul(A, B):
    return [
        [sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A
    ]


def mat_pow(A, m: int):
    n = len(A)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    base = [list(r) for r in A]
    while m:
        if m & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        m >>= 1
    return out


# ---------------------------------------------------------------------------
# matrix JSON (entries as decimal strings; values can exceed 64 bits)


def matrix_to_json(M) -> str:
    return json.dumps({"matrix": [[str(x) for x in row] for row in M]})


def matrix_from_json(text: str):
    doc = json.loads(text)
    return [[int(x) for x in row] for row in doc["matrix"]]
