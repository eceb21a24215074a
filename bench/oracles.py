"""Exact answer checks for benchmark ops.

None of these use ``dynbraid.regions`` or ``dynbraid.spectral``.  They use
golden values frozen in ``fixtures/``, the plain and traced update rules of
``dynbraid.update`` on exact integers and rationals, and exact linear algebra
written here.  Each check takes (op, exit code, stdout) and returns ``None``
when the answer is right, else a one-line reason.  ``corrupt`` makes a wrong
answer from a right one, so that the self-test can show each check rejects
it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from dynbraid.braid import parse_braid
from dynbraid.coords import DynnikovVector
from dynbraid.update import apply_braid, traced_apply

from workloads import FIXTURES, GOLDEN

# printed values carry 12 significant digits
PRINTED_REL = Fraction(1, 10**10)


# ---------------------------------------------------------------------------
# exact linear algebra


def mat_vec(M, x):
    return [sum(c * v for c, v in zip(row, x)) for row in M]


def mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def charpoly(M) -> list:
    """det(xI - M), lowest degree first, by Faddeev-LeVerrier in exact arithmetic."""
    n = len(M)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    N = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        N = [[N_ij + (coeffs[n - k + 1] if i == j else 0) for j, N_ij in enumerate(row)]
             for i, row in enumerate(N)]
        N = mat_mul(M, N)
        coeffs[n - k] = -Fraction(sum(N[i][i] for i in range(n)), k)
    return coeffs


def poly_eval(p, t):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def has_root_near(p, lam: Fraction) -> bool:
    """A sign change of p brackets lam to the printed precision."""
    lo, hi = lam * (1 - PRINTED_REL), lam * (1 + PRINTED_REL)
    return poly_eval(p, lo) * poly_eval(p, hi) < 0


def strip_eigenvalue_one(p):
    """Divide out (x - 1) as often as it divides p; returns (quotient, count)."""
    count = 0
    while len(p) > 1 and sum(p) == 0:
        quot, acc = [], Fraction(0)
        for c in reversed(p[1:]):
            acc = acc + c
            quot.append(acc)
        p = list(reversed(quot))
        count += 1
    return p, count


def fraction_matrix(path: str):
    doc = json.loads(Path(path).read_text())
    return [[Fraction(x) for x in row] for row in doc["matrix"]]


# ---------------------------------------------------------------------------
# exact iteration toward the attracting direction


def attracting_iterate(n: int, word: str, max_steps: int = 600):
    """Exact integer iterates of the word from a fixed start vector.

    Each step applies the word exactly; the image is then shifted right to
    about 256 bits, which moves the point by a relative 2^-256 and keeps the
    integers small.  Stops once the exact one-step growth ratio has settled
    to 1e-14 for five steps and the point is off every wall of its linear
    piece.  Returns (x, image of x, growth ratio, local trace at x) or None.
    """
    w = parse_braid(word, n)
    m = n - 2
    x = [(-1) ** k * (k + 2) for k in range(m)] + [-(7 + 3 * k) for k in range(m)]
    prev, settled = None, 0
    for _ in range(max_steps):
        y = list(apply_braid(DynnikovVector.from_flat(n, x), w).flat())
        top = max(abs(v) for v in y)
        ratio = Fraction(top, max(abs(v) for v in x))
        if prev is not None and abs(ratio - prev) <= ratio * Fraction(1, 10**14):
            settled += 1
        else:
            settled = 0
        prev = ratio
        if settled >= 5:
            tr = traced_apply(DynnikovVector.from_flat(n, x), w)
            if not tr.signature.has_ties:
                return x, y, ratio, tr
        shift = top.bit_length() - 256
        x = [v >> shift for v in y] if shift > 0 else y
    return None


# ---------------------------------------------------------------------------
# checks


def _parse(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _golden_matrices(key):
    if key in GOLDEN["matrices"]:
        return {tuple(tuple(r) for r in m) for m in GOLDEN["matrices"][key]}
    doc = json.loads((FIXTURES / f"mat_{key}_D.json").read_text())
    return {tuple(tuple(int(x) for x in r) for r in doc["matrix"])}


def check_matrix(op, rc, stdout):
    doc = _parse(stdout)
    if rc != 0 or not doc or not doc.get("matrices"):
        return f"exit {rc} or no matrices"
    mats = [(tuple(tuple(int(x) for x in r) for r in m["matrix"]),
             [[int(x) for x in r] for r in m["region"]]) for m in doc["matrices"]]
    key = op.info.get("golden")
    if key and {m for m, _ in mats} != _golden_matrices(key):
        return "matrices differ from the golden set"
    it = attracting_iterate(op.info["n"], op.info["word"])
    if it is None:
        return "oracle: exact iteration did not settle"
    x, y, _, _ = it
    containing = 0
    for M, region in mats:
        if all(sum(c * v for c, v in zip(row, x)) >= 0 for row in region):
            containing += 1
            if mat_vec(M, x) != y:
                return "M.x != beta(x) at an integer iterate inside the region"
    if containing == 0:
        return "no returned region contains the attracting integer iterate"
    return None


# (3 + sqrt 5)/2 and 17 + 12 sqrt 2 are exact; B4 is known to six digits and
# S3_WORD's entropy to 0.01, hence the looser relative tolerances
GOLDEN_DILATATION = {
    "n3": (3 + math.sqrt(5)) / 2,
    "gamma": 17 + 12 * math.sqrt(2),
    "b4": 4.61158,
    "s3": math.exp(34.38),
}
GOLDEN_DILATATION_REL = {"n3": 1e-11, "gamma": 1e-11, "b4": 2e-6, "s3": 0.01}


def check_dilatation(op, rc, stdout):
    doc = _parse(stdout)
    if rc != 0 or not doc or "dilatation" not in doc:
        return f"exit {rc} or no dilatation"
    try:
        lam = Fraction(doc["dilatation"])
        log = float(doc["log"])
    except (ValueError, KeyError):
        return "unparsable dilatation"
    key = op.info.get("golden")
    if key and abs(float(lam) / GOLDEN_DILATATION[key] - 1) > GOLDEN_DILATATION_REL[key]:
        return "dilatation differs from the golden value"
    if abs(log - math.log(lam)) > 1e-10 * max(1.0, abs(log)):
        return "log does not match the dilatation"
    it = attracting_iterate(op.info["n"], op.info["word"])
    if it is None:
        return "oracle: exact iteration did not settle"
    _, _, ratio, tr = it
    if abs(ratio - lam) > lam * Fraction(1, 10**6):
        return f"growth rate {float(ratio):.12g} of the exact iterate differs"
    if not has_root_near(charpoly(tr.matrix), lam):
        return "not an eigenvalue of the local matrix at the exact iterate"
    return None


def check_compare(op, rc, stdout):
    doc = _parse(stdout)
    if rc != 0 or not doc:
        return f"exit {rc} or no report"
    D = [[Fraction(x) for x in r] for r in next(iter(_golden_matrices(op.info["golden"])))]
    T = json.loads((FIXTURES / op.info["transition"]).read_text())
    m = T.get("m", len(T["matrix"]))
    T = [[Fraction(x) for x in r[:m]] for r in T["matrix"][:m]]
    left, right = charpoly(D), charpoly(T)
    factors_left, factors_right = [], []
    if op.info["mode"] == "eigenvalues_one":
        left, k_left = strip_eigenvalue_one(left)
        right, k_right = strip_eigenvalue_one(right)
        factors_left = [["x-1", k_left]] if k_left else []
        factors_right = [["x-1", k_right]] if k_right else []
    want = {
        "mode": op.info["mode"],
        "isospectral": left == right,
        "stripped_left": [str(c) for c in left],
        "stripped_right": [str(c) for c in right],
        "factors_left": factors_left,
        "factors_right": factors_right,
    }
    return None if doc == want else "spectrum report differs from the exact char polys"


def check_non_pa(op, rc, stdout):
    return None if rc == 3 and stdout == "" else f"exit {rc} with output {stdout[:40]!r}"


def check_circle(op, rc, stdout):
    doc = _parse(stdout)
    if rc != 0 or not doc:
        return f"exit {rc} or no arcs"
    arcs = [(float(a["arc"][0]), float(a["arc"][1]), [[int(x) for x in r] for r in a["matrix"]])
            for a in doc]
    if abs(sum(hi - lo for lo, hi, _ in arcs) - 2 * math.pi) > 1e-9:
        return "arcs do not cover 2 pi"
    for (lo, hi, M), (lo2, _, M2) in zip(arcs, arcs[1:] + arcs[:1]):
        if not lo < hi:
            return "empty arc"
        gap = (lo2 - hi) % (2 * math.pi)
        if len(arcs) > 1 and min(gap, 2 * math.pi - gap) > 1e-9:
            return "arcs are not contiguous"
        if len(arcs) > 1 and M == M2:
            return "adjacent arcs carry the same matrix"
    key = op.info.get("golden")
    if key and ({tuple(tuple(r) for r in M) for _, _, M in arcs}
                != {tuple(tuple(r) for r in m) for m in GOLDEN["circle_n3"]} or len(arcs) != 6):
        return "arcs differ from the golden six"
    w = parse_braid(op.info["word"], 3)
    for lo, hi, M in arcs:
        mid = (lo + hi) / 2
        v = (Fraction(math.cos(mid)), Fraction(math.sin(mid)))
        if list(apply_braid(DynnikovVector(3, v[:1], v[1:]), w).flat()) != mat_vec(M, v):
            return "arc matrix differs from the exact action at the arc midpoint"
    return None


def check_extend(op, rc, stdout):
    want = op.info["count"]
    return None if rc == 0 and _parse(stdout) == {"count": want, "enumerated": want} else (
        f"expected {want} extensions")


def check_pf(op, rc, stdout):
    doc = _parse(stdout)
    if rc != 0 or not doc:
        return f"exit {rc} or no eigen data"
    M = op.info["matrix"]
    lam = Fraction(doc["lambda"])
    v = [Fraction(x) for x in doc["eigenvector"]]
    if len(v) != len(M) or min(v) <= 0:
        return "eigenvector is not positive"
    if max(abs(y - lam * x) for x, y in zip(v, mat_vec(M, v))) > lam * max(v) * Fraction(1, 10**9):
        return "M.v != lambda.v"
    return None if has_root_near(charpoly(M), lam) else "lambda is not a root of det(xI - M)"


def check_pinch(op, rc, stdout):
    i = op.info
    rank = i["rank"] + 1
    want = {"rank": rank, "complete": rank == 2 * i["n"] - 4,
            "branches": i["branches"] + 3, "switches": i["switches"] + 2}
    return None if rc == 0 and _parse(stdout) == want else "pinched track has the wrong shape"


def check_coords(op, rc, stdout):
    a, b, c, d = op.info["abcd"]
    want = {"n": 4, "a": [Fraction(max(a, c) - b, 2), Fraction(max(-c, -d), 2)],
            "b": [Fraction(a - c, 2), Fraction(c - d, 2)]}
    doc = _parse(stdout)
    if rc != 0 or not doc:
        return f"exit {rc} or no coordinates"
    got = {"n": doc.get("n"), "a": [Fraction(x) for x in doc.get("a", ())],
           "b": [Fraction(x) for x in doc.get("b", ())]}
    return None if got == want else "coordinates differ from the closed form"


def check_conjugacy(op, rc, stdout):
    D, L, Tp = (fraction_matrix(f) for f in op.info["files"])
    ok = mat_mul(D, L) == mat_mul(L, Tp)
    want_rc = 0 if ok else 4
    return None if rc == want_rc and _parse(stdout) == {"conjugate": ok} else (
        f"expected conjugate={ok} with exit {want_rc}")


CHECKS = {
    "matrix": check_matrix,
    "dilatation": check_dilatation,
    "compare": check_compare,
    "non_pa": check_non_pa,
    "circle": check_circle,
    "extend": check_extend,
    "pf": check_pf,
    "pinch": check_pinch,
    "coords": check_coords,
    "conjugacy": check_conjugacy,
}


def check(op, rc, stdout):
    try:
        return CHECKS[op.kind](op, rc, stdout)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed answer ({type(exc).__name__}: {exc})"


# ---------------------------------------------------------------------------
# corrupted answers for the self-test


def _bump_scalar(s: str) -> str:
    return repr(float(Fraction(s)) * (1 + 1e-6))


def corrupt(op, rc, stdout):
    """A wrong answer derived from a right one, as (exit code, stdout)."""
    doc = _parse(stdout)
    if op.kind == "matrix":
        # change the entry that multiplies the largest coordinate of the
        # iterate in every returned matrix
        x = attracting_iterate(op.info["n"], op.info["word"])[0]
        j = max(range(len(x)), key=lambda k: abs(x[k]))
        for m in doc["matrices"]:
            m["matrix"][0][j] = str(int(m["matrix"][0][j]) + 1)
    elif op.kind == "dilatation":
        doc["dilatation"] = _bump_scalar(doc["dilatation"])
        doc["log"] = repr(math.log(float(doc["dilatation"])))
    elif op.kind == "compare":
        doc["isospectral"] = not doc["isospectral"]
    elif op.kind == "non_pa":
        return 0, "2.61803398875  (log 0.962423650119)\n"
    elif op.kind == "circle":
        row = doc[0]["matrix"][0]
        row[0] = str(int(row[0]) + 1)
    elif op.kind == "extend":
        doc["count"] += 1
        doc["enumerated"] += 1
    elif op.kind == "pf":
        doc["lambda"] = _bump_scalar(doc["lambda"])
    elif op.kind == "pinch":
        doc["rank"] += 1
    elif op.kind == "coords":
        doc["a"][0] = str(Fraction(doc["a"][0]) + 1)
    elif op.kind == "conjugacy":
        doc["conjugate"] = not doc["conjugate"]
    return rc, json.dumps(doc) + "\n"
