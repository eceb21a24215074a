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


def switch_balanced(track, mu) -> bool:
    """Whether mu satisfies the switch condition at every switch of track."""
    return all(
        sum(mu[b] for b in s.sideA) == sum(mu[b] for b in s.sideB) for s in track.switches
    )
