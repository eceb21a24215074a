import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures() -> Path:
    return FIXTURES


def load_fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


def fraction_matrix(name: str):
    doc = json.loads(load_fixture(name))
    return [[Fraction(x) for x in row] for row in doc["matrix"]]


def int_matrix(name: str):
    doc = json.loads(load_fixture(name))
    return [[int(x) for x in row] for row in doc["matrix"]]


def random_rational(rng: random.Random, span: int = 30) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 7))


def random_vector(rng: random.Random, strands: int):
    from dynbraid.coords import DynnikovVector

    while True:
        flat = [random_rational(rng) for _ in range(2 * strands - 4)]
        if any(flat):
            return DynnikovVector.from_flat(strands, flat)


def random_word(rng: random.Random, strands: int, length: int):
    from dynbraid.braid import BraidWord

    letters = tuple(
        (rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(length)
    )
    return BraidWord(strands, letters)


def det_fraction(M) -> Fraction:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    A = [[Fraction(x) for x in row] for row in M]
    n = len(A)
    det = Fraction(1)
    for col in range(n):
        piv = next((k for k in range(col, n) if A[k][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        inv = 1 / A[col][col]
        for k in range(col + 1, n):
            if A[k][col]:
                f = A[k][col] * inv
                A[k] = [x - f * y for x, y in zip(A[k], A[col])]
    return det


def example_track_measure(a, b, c, d):
    """Switch-balanced measure of the complete 4-strand example track."""
    from dynbraid.traintrack import Measure

    return Measure(
        {
            "a": a,
            "b": b,
            "c": c,
            "d": d,
            "m1": Fraction(a, 2),
            "m2": Fraction(b, 2),
            "m3": Fraction(c + d, 2),
            "m4": Fraction(d, 2),
            "m5": Fraction(a + b - c, 2),
            "m6": Fraction(b + c - a, 2),
            "m7": Fraction(a + c - b, 2),
        }
    )


def random_triangleish(rng: random.Random):
    """a, b, c satisfying all triangle-style positivity constraints, plus d."""
    x, y, z = (Fraction(rng.randint(1, 40)) for _ in range(3))
    return y + z, x + z, x + y, Fraction(rng.randint(1, 60))


def pinched_track_measure(a, b, c, d):
    """Switch-balanced measure of the pinched track fixture."""
    from dynbraid.traintrack import Measure

    return Measure(
        {
            "a": a,
            "b": b,
            "c": c,
            "d": d,
            "g": a + b,
            "ma": Fraction(a, 2),
            "mg": Fraction(a + b, 2),
            "u": b - d,
            "v": c - d,
            "x": Fraction(b + c, 2) - d,
            "mc": Fraction(c, 2),
        }
    )


def mat_vec(matrix, v):
    """The vector matrix . v, as a DynnikovVector on v's strands."""
    from dynbraid.coords import DynnikovVector

    flat = v.flat()
    return DynnikovVector.from_flat(
        v.strands, [sum(c * x for c, x in zip(row, flat)) for row in matrix]
    )


def scaled(v, lam):
    """v times the positive scalar lam."""
    from dynbraid.coords import DynnikovVector

    assert lam > 0
    return DynnikovVector(v.strands, tuple(x * lam for x in v.a), tuple(x * lam for x in v.b))


def block_lift(A, B):
    """The block matrix [[A, B], [B, A]] (the double-cover lift)."""
    top = [list(ra) + list(rb) for ra, rb in zip(A, B)]
    bot = [list(rb) + list(ra) for ra, rb in zip(A, B)]
    return top + bot


def poly_mul(p, q):
    """Product of coefficient tuples, lowest degree first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return tuple(out)


def poly_at(p, x):
    """The coefficient tuple p, lowest degree first, at x, by Horner."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def switch_balanced(track, mu) -> bool:
    """Whether mu satisfies the switch condition at every switch of track."""
    return all(
        sum(mu[b] for b in s.sideA) == sum(mu[b] for b in s.sideB) for s in track.switches
    )


def derive_alpha_1(ann: dict, depth: int, diamond: bool) -> None:
    """Rebuild the arc alpha_1 of the annotations ann through depth derived arcs.

    d0 is the old alpha_1 and "zero" measures 0; d_k is max(d_{k-1}, x) minus
    zero, with x = d_{k-1} (a diamond) or zero (a chain), so every d_k, and
    alpha_1 = d_depth, keeps the old measure of alpha_1.
    """
    ann["d0"], ann["zero"] = ann["alpha_1"], {}
    for k in range(1, depth + 1):
        prev = f"d{k - 1}"
        ann[f"d{k}"] = {"derived_max_of": [prev, prev if diamond else "zero"], "minus": "zero"}
    ann["alpha_1"] = ann.pop(f"d{depth}")


def root_value(root, p=(0, 1)):
    """The integer polynomial p at a spectral.Root, as an mpf of 210 bits."""
    import mpmath

    mid = sum(root.enclose(p, 200)) / 2
    with mpmath.workprec(210):
        return mpmath.mpf(mid.numerator) / mid.denominator


def pf_vector(root, v):
    """The eigenvector v of traintrack.transition_pf at its Root, of Euclidean norm 1."""
    import mpmath

    xs = [root_value(root, p) for p in v]
    with mpmath.workprec(210):
        norm = mpmath.sqrt(sum(x * x for x in xs))
        return [x / norm for x in xs]
