"""Piecewise-linear action of the Artin generators on Dynnikov coordinates.

Each generator acts by explicit formulas combining +, - and max; once the
winning argument of every max node is fixed, the action is linear with integer
coefficients.  The plain entry points just compute values, on any scalars; the
traced entry points additionally record which max arguments won (a branch
signature), the resulting integer matrix, and the linear inequalities that cut
out the region on which that matrix is valid.

Tracing takes exact (int or Fraction) coordinates only, so a tie is plain
equality of two arguments with different rows.  The update rules are
positively homogeneous, so a direction is traced exactly by scaling it to an
integer point.  The jet and the recorder behind tracing (a value with its
gradient row, and max/min that record winners, ties and constraints) are the
package's one exact linearization: the train-track chart change is linearized
with them too.

Only the coordinates with index in {i-1, i} are touched by sigma_i^{+-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord
from .coords import DynnikovVector
from .errors import BraidFormatError

# ---------------------------------------------------------------------------
# generic one-letter engine


def _apply_letter(a, b, i, sign, mx, zero):
    """Apply sigma_i^sign in place to coordinate lists a, b.

    mx is a max function (it may record the attained argument); zero is the
    additive-zero scalar of whatever kind is in use.  Entries are any objects
    supporting + and -.
    """
    n = len(a) + 2
    if not 1 <= i <= n - 1:
        raise BraidFormatError(f"generator index {i} out of range for {n} strands")
    if i == 1:
        a1, b1 = a[0], b[0]
        if sign > 0:
            a[0] = a1 + b1 - mx(a1, zero, b1)
            b[0] = mx(zero, b1) - a1
        else:
            a[0] = mx(zero, a1, a1 + b1) - b1
            b[0] = a1 + mx(zero, b1)
    elif i == n - 1:
        am, bm = a[-1], b[-1]
        if sign > 0:
            a[-1] = mx(am + mx(zero, bm), bm)
            b[-1] = bm - am - mx(zero, bm)
        else:
            a[-1] = am - mx(am + bm, zero, bm)
            b[-1] = am + bm - mx(zero, bm)
    else:
        # interior letter: touches a_{i-1}, a_i, b_{i-1}, b_i
        p, q = i - 2, i - 1
        ap, aq, bp, bq = a[p], a[q], b[p], b[q]
        if sign > 0:
            hp = mx(zero, bp)
            hq = mx(zero, bq)
            big = mx(ap + hp + hq, aq + bp)
            a[p] = mx(ap + hp, aq + bp)
            b[p] = aq + bp + bq - big
            a[q] = ap + aq + bq - mx(ap + hq, aq)
            b[q] = big - aq
        else:
            hp = mx(zero, bp)
            hq = mx(zero, bq)
            big = mx(ap + bp, aq + hp + hq)
            a[p] = ap + aq - mx(ap + bp, aq + hp)
            b[p] = ap + bp + bq - big
            a[q] = mx(ap, aq + hq) - bq
            b[q] = big - ap


# ---------------------------------------------------------------------------
# plain application


def apply_generator(v: DynnikovVector, i: int, sign: int) -> DynnikovVector:
    """Act by sigma_i (sign=+1) or sigma_i^{-1} (sign=-1) on v."""
    a, b = list(v.a), list(v.b)
    _apply_letter(a, b, i, sign, max, 0)
    return DynnikovVector(v.strands, tuple(a), tuple(b))


def apply_braid(v: DynnikovVector, w: BraidWord) -> DynnikovVector:
    """Left fold of apply_generator over the letters, leftmost letter first."""
    if v.strands != w.strands:
        raise BraidFormatError(f"strand mismatch: vector has {v.strands}, word has {w.strands}")
    a, b = list(v.a), list(v.b)
    for idx, sign in w:
        _apply_letter(a, b, idx, sign, max, 0)
    return DynnikovVector(v.strands, tuple(a), tuple(b))


# ---------------------------------------------------------------------------
# traced application


@dataclass(frozen=True)
class BranchSignature:
    """Per letter, the winning argument index and tie flag of each max node."""

    letters: tuple  # tuple of (choices: tuple[int,...], ties: tuple[bool,...])

    @property
    def has_ties(self) -> bool:
        return any(any(t) for _, t in self.letters)


class Jet:
    """A value together with its gradient row: a linear function near a point."""

    __slots__ = ("val", "row")

    def __init__(self, val, row):
        self.val = val
        self.row = row

    def __add__(self, other):
        return Jet(self.val + other.val, tuple(x + y for x, y in zip(self.row, other.row)))

    def __sub__(self, other):
        return Jet(self.val - other.val, tuple(x - y for x, y in zip(self.row, other.row)))

    def __rmul__(self, c):
        return Jet(c * self.val, tuple(c * x for x in self.row))


class Recorder:
    """max and min of jets that record the winner, ties and region constraints.

    A tie is two arguments with equal values and different rows: there the
    winner, and so the linear piece, changes.  Each losing argument whose row
    differs from the winner's adds the constraint row c with c.x >= 0 on the
    region where the same argument keeps winning.
    """

    def __init__(self):
        self.choices = []
        self.ties = []
        self.constraints = []

    def mx(self, *jets):
        best = 0
        for k in range(1, len(jets)):
            if jets[k].val > jets[best].val:
                best = k
        return self._take(jets, best, False)

    def mn(self, *jets):
        best = 0
        for k in range(1, len(jets)):
            if jets[k].val < jets[best].val:
                best = k
        return self._take(jets, best, True)

    def _take(self, jets, best, is_min):
        win = jets[best]
        tie = False
        for k, jet in enumerate(jets):
            if k == best:
                continue
            row = tuple(x - y for x, y in zip(win.row, jet.row))
            if any(row):
                tie = tie or jet.val == win.val
                self.constraints.append(tuple(-x for x in row) if is_min else row)
        self.choices.append(best)
        self.ties.append(tie)
        return win


@dataclass(frozen=True)
class TraceResult:
    value: DynnikovVector
    signature: BranchSignature
    matrix: tuple  # rows of the integer matrix, output = matrix . input
    constraints: tuple  # integer rows c with c . x >= 0 on the region

    def matrix_list(self) -> list:
        return [list(r) for r in self.matrix]


def traced_apply(v: DynnikovVector, w: BraidWord) -> TraceResult:
    """Apply w to v recording signature, local matrix and region constraints.

    v must have exact (int or Fraction) entries, so that a tie is plain
    equality; whenever the signature is tie-free, the returned matrix
    reproduces apply_braid on a neighborhood of v.
    """
    if v.strands != w.strands:
        raise BraidFormatError(f"strand mismatch: vector has {v.strands}, word has {w.strands}")
    flat = v.flat()
    dim = len(flat)
    rec = Recorder()
    zero = Jet(0, (0,) * dim)
    jets = [Jet(x, tuple(1 if j == k else 0 for j in range(dim))) for k, x in enumerate(flat)]
    m = v.strands - 2
    a, b = jets[:m], jets[m:]
    per_letter = []
    for idx, sign in w:
        start = len(rec.choices)
        _apply_letter(a, b, idx, sign, rec.mx, zero)
        per_letter.append((tuple(rec.choices[start:]), tuple(rec.ties[start:])))
    out = DynnikovVector(v.strands, tuple(j.val for j in a), tuple(j.val for j in b))
    matrix = tuple(j.row for j in a + b)
    return TraceResult(out, BranchSignature(tuple(per_letter)), matrix, tuple(rec.constraints))
