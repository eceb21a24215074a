"""Exact integer characteristic polynomials and spectrum comparison.

Characteristic polynomials are computed division-free (Berkowitz), so all
arithmetic stays in Python integers no matter how large the entries get.
Dilatations are certified on the exact integer factor left after stripping
zeros and roots of unity, which loses nothing: every stripped root has
modulus at most 1 and so can neither be the dominant root nor compete with
it.  A float Newton step only seeds a dyadic bracket; the signs that bisect
it and the Schur-Cohn root counts that prove its root real, simple and
strictly dominant are all computed on integers, so no float margin decides.
A dilatation is kept as that bracket, a Root, and read and compared on it.
"Isospectral up to ..." comparisons are decided on exact integer polynomials
after stripping the designated trivial factors, never on approximate roots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import gcd, lcm, ldexp

from .errors import CoordinateError, DynbraidError, NoDominantRealRoot

Mode = str  # "exact" | "roots_of_unity_and_zeros" | "eigenvalues_one"
MODES = ("exact", "roots_of_unity_and_zeros", "eigenvalues_one")


# ---------------------------------------------------------------------------
# polynomials: integer coefficient tuples, lowest degree first


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


@cache
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


def eigenvector(M, y):
    """adj(xI - M) y = sum_j x^(m-1-j) B_j y as integer polynomials, lowest degree
    first, with B_0 = I, B_j = M B_(j-1) + c_j I and det(xI - M) = sum_j c_j x^(m-j)."""
    c = char_poly(M).coeffs[::-1]
    b = [list(y)]  # B_j y, for j = 0 .. m-1
    for j in range(1, len(M)):
        b.append([sum(x * z for x, z in zip(row, b[-1])) + c[j] * t for row, t in zip(M, y)])
    return list(zip(*reversed(b)))


# ---------------------------------------------------------------------------
# dilatation: located, certified and refined on integers


def _primitive(p):
    """p divided by the gcd of its coefficients, with leading coefficient > 0."""
    g = gcd(*p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def _poly_gcd(a, b):
    """Primitive gcd of nonzero integer polynomials, by pseudo-remainders.

    Scaling a by lead(b)^(deg a - deg b + 1) keeps the division integral.
    """
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        scale = b[-1] ** (len(a) - len(b) + 1)
        _, r = poly_divmod([x * scale for x in a], b)
        if not any(r):
            return _primitive(b)
        a, b = b, _primitive(list(r))
    return [1]


def _horner(p, a, b, k):
    """lo <= hi around 2^(k*deg) p on [a/2^k, b/2^k], 0 < a <= b, by interval Horner."""
    lo = hi = 0
    for i, c in enumerate(reversed(p)):
        c <<= k * i
        lo, hi = lo * (a if lo > 0 else b) + c, hi * (b if hi > 0 else a) + c
    return lo, hi


def _sign_at(f, a, k):
    """Sign of f at a / 2^k: Horner on 2^(k*deg) * f(a / 2^k), in integers."""
    acc = 0
    for i, c in enumerate(reversed(f)):
        acc = acc * a + (c << (k * i))
    return (acc > 0) - (acc < 0)


def _zeros_in_unit_disc(p):
    """Zeros of the real polynomial p in |z| < 1, with multiplicity.

    The Schur-Cohn test (Marden, *Geometry of Polynomials*, sec. 43): the
    transform q = p(0) p - lead(p) p* has degree below p's, and by Rouche on
    the unit circle p has as many zeros inside as q when
    delta = p(0)^2 - lead(p)^2 = q(0) > 0, and deg p minus as many when
    delta < 0.  Returns None when some delta is 0: p may then have zeros on
    the circle or symmetric about it, and the count is not decided.

    Dividing a transform by a nonzero integer leaves the count alone.  From
    the third transform on, each is divisible by the constant term of the
    polynomial two steps back, as in a fraction-free remainder sequence;
    dividing it out keeps the coefficients growing linearly.  Where that
    division is not exact the content is divided out instead.
    """
    count, sign, step, back = 0, 1, 0, None
    p = _primitive(p)
    while len(p) > 1:
        n, a0, an = len(p) - 1, p[0], p[-1]
        delta = a0 * a0 - an * an
        if delta == 0:
            return None
        if delta < 0:
            count, sign = count + sign * n, -sign
        q = [a0 * p[i] - an * p[n - i] for i in range(n)]
        while q[-1] == 0:  # q[0] = delta is not
            q.pop()
        if step >= 2:  # back, a constant term after a transform, is not 0
            q = _primitive(q) if any(c % back for c in q) else [c // back for c in q]
        p, back, step = q, a0, step + 1
    return count


def _zeros_within(f, a, k):
    """Zeros of f in |x| < a / 2^k, as those of 2^(k*deg) f(a z / 2^k) in |z| < 1."""
    d, power, p = len(f) - 1, 1, []
    for j, c in enumerate(f):
        p.append((c * power) << (k * (d - j)))
        power *= a
    return _zeros_in_unit_disc(p)


def _newton_from_above(f):
    """Estimate c / 2^k (k >= 0, about 40 bits) of the largest real zero of f.

    2^e bounds every zero (Fujiwara), so f(2^e y) / (lead * 2^(e*deg)) has
    coefficients of modulus at most 1 and floats cannot overflow.  When a
    real zero strictly dominates, every zero has smaller real part, so by
    Gauss-Lucas every derivative is positive beyond it and Newton in floats
    from y = 1 decreases monotonically to it.  None when the steps run out
    or leave that pattern, or the estimate is not above 1.
    """
    d, lead = len(f) - 1, f[-1]
    e = 1
    for i in range(1, d + 1):
        if f[d - i]:
            bits = f[d - i].bit_length() - lead.bit_length() + 1
            e = max(e, -(-bits // i) + 1)  # |f[d-i] / lead| <= 2^(i(e-1))
    g = [c / (lead << (e * (d - j))) for j, c in enumerate(f)]
    y = 1.0
    for _ in range(64 + 8 * d * d.bit_length()):
        v = dv = 0.0
        for c in reversed(g):
            dv = dv * y + v
            v = v * y + c
        if not v > 0:  # at the zero up to rounding
            break
        if not dv > 0:
            return None
        step = v / dv
        y -= step
        if step <= y * 2.0**-50:
            break
    else:
        return None
    if not y > 0:
        return None
    c, k = round(ldexp(y, 40)), 40 - e
    if k < 0:
        c, k = c << -k, 0
    return (c, k) if c > 1 << k else None


def _failure(f, g, a, b, k):
    """Why [a/2^k, b/2^k] fails to certify a dominant zero of f; None if not.

    f is squarefree and has a real zero strictly between the ends.  It is
    simple and strictly dominant exactly when f has deg - 1 zeros in
    |x| < a/2^k and deg in |x| < b/2^k: the one zero left in the annulus is
    then the real one.  It is a simple zero of f * g (g being f's repeated
    part, whose zeros are f's) when g has all its zeros in |x| < a/2^k.  A
    larger modulus or a repeated zero raises at once, and so does a second
    zero in the annulus when f / gcd(f(x), f(-x)) has all its zeros in
    |x| < a/2^k, since a pair x, -x then has the largest modulus; else that
    second zero, or an undecided count, gives the reason.
    """
    d = len(f) - 1
    above = _zeros_within(f, b, k)
    if above is not None and above < d:
        raise NoDominantRealRoot("a larger-modulus eigenvalue exists")
    below = _zeros_within(f, a, k)
    if above is None or below is None:
        return "failed to certify the dominant root"
    if below < d - 1:
        reason = "another eigenvalue has the modulus of the dominant real root"
        h = poly_divides(f, _poly_gcd(f, [(-1) ** j * c for j, c in enumerate(f)]))
        if _zeros_within(h, a, k) == len(h) - 1:
            raise NoDominantRealRoot(reason)
        return reason
    repeated = _zeros_within(g, a, k)
    if repeated is None:
        return "failed to certify the dominant root"
    if repeated < len(g) - 1:
        raise NoDominantRealRoot("dominant real root is not simple")
    return None


CERTIFY_BITS = 100  # relative width 2^-100 of the last bracket tried


@dataclass(frozen=True)
class Root:
    """The one zero of the squarefree integer polynomial f (a coefficient tuple,
    lowest degree first) in [a/2^k, b/2^k], 0 < a < b, where f changes sign."""

    f: tuple
    a: int
    b: int
    k: int

    def refine(self, bits):
        """The same zero on a bracket of relative width at most 2^-bits, by bisection."""
        f, a, b, k = self.f, self.a, self.b, self.k
        sign_a = _sign_at(f, a, k)
        while (b - a) << bits > a:
            a, b, k = 2 * a, 2 * b, k + 1
            mid = (a + b) // 2
            s = _sign_at(f, mid, k)
            if s == 0:  # an exact zero: it stays the midpoint from now on
                a, b = mid - 1, mid + 1
            elif s == sign_a:
                a = mid
            else:
                b = mid
        return Root(f, a, b, k)

    def enclose(self, p, bits):
        """Fractions lo, hi of one sign around the integer polynomial p at the zero,
        hi - lo <= 2^-bits min(|lo|, |hi|), by interval Horner; p(zero) != 0."""
        root, need = self, bits
        while True:
            root = root.refine(need)
            lo, hi = _horner(p, root.a, root.b, root.k)
            small = lo if lo > 0 else -hi  # > 0 when lo and hi share a sign
            if small > 0 and (hi - lo) << bits <= small:
                return tuple(Fraction(x, 1 << root.k * (len(p) - 1)) for x in (lo, hi))
            need = 2 * need + 8

    def sign(self, p):
        """The exact sign of the integer polynomial p at the zero: by interval
        Horner on the bracket when that misses 0, else 0 when p is 0 or
        gcd(f, p) changes sign on the bracket, else by enclose."""
        lo, hi = _horner(p, self.a, self.b, self.k)
        if lo > 0 or hi < 0 or not any(p):
            return (lo > 0) - (hi < 0)
        p = p[: max(i for i, c in enumerate(p) if c) + 1]  # no trailing zeros
        g = _poly_gcd(self.f, p)
        if _sign_at(g, self.a, self.k) * _sign_at(g, self.b, self.k) < 0:
            return 0
        return 1 if self.enclose(p, 0)[0] > 0 else -1


def dilatation(M) -> Root:
    """The dominant real eigenvalue > 1 of M, certified on integers, as a Root.

    Everything runs on the char poly with its zeros and roots of unity
    stripped.  That is exact: the stripped roots have modulus at most 1, so
    they can neither be the dominant root nor compete with it.  The stripped
    factor is split into its squarefree part f and repeated part g =
    gcd(f, f').  Newton in floats estimates the largest real zero of f; a
    dyadic bracket around it is widened until f changes sign at its ends,
    with every sign taken on integers.  The Schur-Cohn root count then
    proves that a bracket holds exactly one zero of the modulus found, real
    and simple, and that all others are smaller in modulus: an 8-bit bracket,
    else the Newton bracket, else that one refined to CERTIFY_BITS.

    Raises NoDominantRealRoot when no real root > 1 is proved simple and
    strictly larger in modulus than every other root.
    """
    p, _ = strip_trivial_factors(char_poly(M), "roots_of_unity_and_zeros")
    if p.degree < 1:  # identity, rotations
        raise NoDominantRealRoot("no real eigenvalue exceeding 1")
    den = lcm(*(Fraction(c).denominator for c in p.coeffs))  # M may be rational
    f = tuple(int(c * den) for c in p.coeffs)
    g = _poly_gcd(f, [j * c for j, c in enumerate(f)][1:])
    if len(g) > 1:
        f = poly_divides(f, g)
    estimate = _newton_from_above(f)
    if estimate is None:
        raise NoDominantRealRoot("no real eigenvalue exceeding 1 dominates")
    c, k = estimate
    w = 1  # widen the bracket [a/2^k, b/2^k] until f changes sign
    while True:
        a, b = c - w, c + w
        if a <= 1 << k:
            raise NoDominantRealRoot("failed to bracket the dominant root")
        if _sign_at(f, a, k) * _sign_at(f, b, k) < 0:
            break
        w *= 2
    newton = Root(f, a, b, k)
    m = max(0, min(k, a.bit_length() - 8))  # a coarse bracket, a >> m of 8 bits
    for root in (Root(f, a >> m, (b >> m) + 1, k - m), newton, None):
        root = root or newton.refine(CERTIFY_BITS)  # built only if both fail
        reason = _failure(f, g, root.a, root.b, root.k)
        if reason is None:
            return root
    raise NoDominantRealRoot(reason)


# ---------------------------------------------------------------------------
# factor stripping and isospectrality


def strip_trivial_factors(p: CharPoly, mode: Mode):
    """Remove designated trivial factors; returns (stripped, factor list).

    Factor list entries are (label, multiplicity) with labels "x", "x-1" or
    "cyclotomic_<d>".
    """
    if mode not in MODES:
        raise DynbraidError(f"unknown mode {mode!r}")
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
# matrix product


def mat_mul(A, B):
    return [
        [sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A
    ]
