"""Attracting directions, Dynnikov matrices, and the n=3 circle decomposition.

The projectivized action of a pseudo-Anosov word has a unique attracting
fixed direction; projective power iteration finds it.  Probing a small sphere
around the fixed direction with the traced update rules discovers every
linear piece (region) meeting it; candidates are verified against the fixed
direction and by their shared spectral radius.

Both the iteration and the probing run on Python integers.  The update rules
are positively homogeneous with integer coefficients, so a direction scaled
by 2^PREC and rounded to an integer vector is a fixed-point number with PREC
fraction bits, and acting on it is exact: no rounding inside the word, and a
tie in a max is plain equality.  The only rounding is the renormalization
between iterations; the last iterate is traced as it is, shifted left.

Before the iteration, a word is checked for an exact certificate that it is
not pseudo-Anosov: an integral lamination c (a nonzero integer vector) with
w^p(c) = c, found on the integer orbit of (0..0, 1..1) and confirmed by exact
application (fixed_lamination).  The vectors with entries in {-1, 0, 1} are
scanned for one that w fixes (_small_fixed_lamination) when a generator is
unused after free reduction, when the iteration fails, or when the matrix it
leads to has no dominant real root.  Either certificate is reported as
NonConvergence naming p and c.

For n = 3 the whole circle of directions is decomposed exactly.  Every wall
is a line c.x = 0 with an integer row c, so every arc endpoint is an integer
ray, and a counterclockwise walk finds them one cone at a time: an integer
point just past the current ray is traced, and integer cross products order
the walls of its cone.  Angles are computed only for output.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NoReturn

import mpmath

from .braid import BraidWord
from .coords import DynnikovVector
from .errors import DynbraidError, NoDominantRealRoot, NonConvergence, VerificationFailed
from .spectral import dilatation
from .update import BranchSignature, apply_braid, traced_apply


# fraction bits of the iterate, iteration cap, and seed of the start vector
# (the probe directions use SEED + 1)
PREC = 256
MAX_ITERS = 5000
SEED = 2023

# random probe directions per coordinate, beside the 2*dim axis directions
RANDOM_PROBES_PER_DIM = 8


@dataclass(frozen=True)
class UnstableDirection:
    u: tuple  # integer iterate of sup norm 2^PREC: the direction u / 2^PREC
    growth: int  # max|w(v)| for the iterate v before u: the dilatation times 2^PREC


@dataclass(frozen=True)
class DynnikovMatrix:
    matrix: tuple  # integer rows
    region: tuple  # integer rows c, region closure is {x : c.x >= 0}
    signature: BranchSignature
    dilatation: object  # certified spectral radius > 1, an mpmath mpf

    def matrix_list(self) -> list:
        return [list(r) for r in self.matrix]


def _seed_vector(strands: int, seed: int) -> DynnikovVector:
    """a = 0, b = -1, plus a deterministic integer perturbation."""
    rng = random.Random(seed)
    m = strands - 2
    a = tuple(rng.randint(-3, 3) for _ in range(m))
    b = tuple(-8 + rng.randint(-2, 2) for _ in range(m))
    return DynnikovVector(strands, a, b)


# the orbit check gives up (and the iteration decides) after this many steps, or
# once an orbit entry needs more bits: a pA orbit grows exponentially and
# passes the bound within a few dozen steps, a multitwist's grows linearly
ORBIT_STEPS = 200
ORBIT_BITS = 64


def _fixes(w: BraidWord, p: int, c: tuple) -> bool:
    """True when w^p(c) = c, by exact integer application."""
    v = DynnikovVector.from_flat(w.strands, c)
    for _ in range(p):
        v = apply_braid(v, w)
    return v.flat() == c


def _not_pseudo_anosov(p: int, c: tuple) -> NonConvergence:
    return NonConvergence(
        f"power {p} of the word fixes the integral lamination {c}: "
        "word is not pseudo-Anosov"
    )


def fixed_lamination(w: BraidWord):
    """(p, c) with w^p(c) = c for a nonzero integer vector c, or None.

    Dynnikov coordinates biject integral laminations with the nonzero integer
    vectors, and a power of a pseudo-Anosov braid is pseudo-Anosov and fixes
    none, so a result proves that w is not pseudo-Anosov.  The candidates come
    from the exact orbit u_k = w^k(E) of E = (0..0, 1..1): a return u_k = u_j
    gives c = u_j and p = k - j (every periodic word returns, at p = n - 1 or
    n), and an arithmetic progression u_k - u_(k-p) = u_(k-p) - u_(k-2p) with
    p <= 2n, as the orbits of conjugated multitwists make within a few steps,
    gives that difference divided by its gcd.  Every candidate is confirmed
    by applying w^p to it exactly.  None means only that the check gave up,
    after ORBIT_STEPS steps or once an entry of the orbit passes ORBIT_BITS
    bits.
    """
    m = w.strands - 2
    orbit = [(0,) * m + (1,) * m]
    seen = {orbit[0]: 0}
    for k in range(1, ORBIT_STEPS + 1):
        u = apply_braid(DynnikovVector.from_flat(w.strands, orbit[-1]), w).flat()
        if max(abs(x) for x in u).bit_length() > ORBIT_BITS:
            return None
        orbit.append(u)
        j = seen.setdefault(u, k)
        if j < k and _fixes(w, k - j, orbit[j]):
            return k - j, orbit[j]
        for p in range(1, min(2 * w.strands, k // 2) + 1):
            mid, low = orbit[k - p], orbit[k - 2 * p]
            step = [x - y for x, y in zip(u, mid)]
            if any(step) and all(d == y - z for d, y, z in zip(step, mid, low)):
                g = gcd(*step)
                c = tuple(d // g for d in step)
                if _fixes(w, p, c):
                    return p, c
    return None


# vectors the failure-path scan tries at most: all of {-1, 0, 1}^8, the whole
# space of 6 strands, in about 0.1 s; more strands see the sparsest vectors
SCAN_VECTORS = 3**8


def _small_vectors(dim: int):
    """The nonzero vectors of {-1, 0, 1}^dim, fewest nonzero entries first."""
    for size in range(1, dim + 1):
        for support in itertools.combinations(range(dim), size):
            for signs in itertools.product((1, -1), repeat=size):
                c = [0] * dim
                for i, sign in zip(support, signs):
                    c[i] = sign
                yield tuple(c)


def _small_fixed_lamination(w: BraidWord):
    """A nonzero c with entries in {-1, 0, 1} and w(c) = c, or None.

    The scan tries up to SCAN_VECTORS such vectors, so it runs only on a
    word that leaves a generator unused or that the iteration failed on.
    It catches reducible words with a pseudo-Anosov piece, whose orbit grows
    too fast for fixed_lamination.
    """
    vectors = itertools.islice(_small_vectors(2 * w.strands - 4), SCAN_VECTORS)
    return next((c for c in vectors if _fixes(w, 1, c)), None)


def _certify_failure(w: BraidWord, exc: DynbraidError) -> NoReturn:
    """Raise exc, or a certified NonConvergence when w fixes a small vector."""
    c = _small_fixed_lamination(w)
    if c is not None:
        raise _not_pseudo_anosov(1, c) from exc
    raise exc


def _uses_every_generator(w: BraidWord) -> bool:
    """Whether every sigma_i occurs in w once adjacent sigma_i sigma_i^-1 cancel.

    A word that leaves sigma_i out splits the strands at i, so the round
    curve around the strands on one side of the split is fixed.
    """
    reduced = []
    for idx, sign in w:
        if reduced and reduced[-1] == (idx, -sign):
            reduced.pop()
        else:
            reduced.append((idx, sign))
    return len({idx for idx, _ in reduced}) == w.strands - 1


def find_unstable_direction(w: BraidWord) -> UnstableDirection:
    """Projective power iteration toward the attracting direction of w.

    The iterate is an integer vector u of sup norm 2^PREC, that is the
    direction u / 2^PREC in fixed point with PREC fraction bits.  The action
    is positively homogeneous with integer coefficients, so apply_braid on u
    is exact, and renormalizing by floor((y << PREC) / max|y|) costs under
    one unit in the last place.  Converges within MAX_ITERS steps when
    successive iterates are closer than 10^(-PREC/8) and the growth max|y|
    has changed by at most 1e-13 (relative) three times running.

    A word that fixed_lamination certifies as not pseudo-Anosov is rejected
    before the iteration, and so is a word that leaves a generator unused
    after free reduction when _small_fixed_lamination finds its curve; when
    the iteration does not converge, _small_fixed_lamination is tried before
    the plain NonConvergence is raised.  Either certificate raises
    NonConvergence naming the power and the fixed lamination.
    """
    if len(w) == 0:
        raise NonConvergence("the identity word has no attracting direction")
    fixed = fixed_lamination(w)
    if fixed is not None:
        raise _not_pseudo_anosov(*fixed)
    if not _uses_every_generator(w):
        c = _small_fixed_lamination(w)
        if c is not None:
            raise _not_pseudo_anosov(1, c)
    seed = _seed_vector(w.strands, SEED).flat()
    seed_norm = max(abs(x) for x in seed)
    tol = (1 << PREC) // 10 ** (PREC // 8)
    u = [(x << PREC) // seed_norm for x in seed]
    growth = None
    stable = 0
    for _ in range(MAX_ITERS):
        y = apply_braid(DynnikovVector.from_flat(w.strands, u), w).flat()
        norm = max(abs(x) for x in y)
        un = [(x << PREC) // norm for x in y]
        dist = min(
            max(abs(x - z) for x, z in zip(un, u)),
            max(abs(x + z) for x, z in zip(un, u)),
        )
        if growth is not None and abs(norm - growth) * 10**13 <= growth:
            stable += 1
        else:
            stable = 0
        growth = norm
        u = un
        if dist < tol and stable >= 3:
            break
    else:
        _certify_failure(
            w,
            NonConvergence(
                f"no attracting direction after {MAX_ITERS} iterations at {PREC} bits"
            ),
        )
    if growth * 10**6 <= (10**6 + 1) << PREC:
        with mpmath.workprec(PREC):
            lam = mpmath.ldexp(growth, -PREC)
            raise NonConvergence(
                f"growth factor {mpmath.nstr(lam, 8)} is not > 1: "
                "word is not pseudo-Anosov at this precision"
            )
    return UnstableDirection(tuple(u), growth)


def _normalize_row(row):
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else row


def _probe_directions(dim: int):
    """The 2*dim axis directions +-e_k, then RANDOM_PROBES_PER_DIM * dim seeded ones."""
    axes = [(k, s) for k in range(dim) for s in (1.0, -1.0)]
    dirs = [tuple(s if j == k else 0.0 for j in range(dim)) for k, s in axes]
    rng = random.Random(SEED + 1)
    for _ in range(RANDOM_PROBES_PER_DIM * dim):
        dirs.append(tuple(rng.uniform(-1, 1) for _ in range(dim)))
    return dirs


def _in_interior(tr, X, R) -> bool:
    """True when the sup-ball of radius R around X is strictly inside tr's region.

    Every point P with max|P - X| <= R has c.P >= c.X - R*|c|_1 for each
    constraint row c.  A tie at X is a constraint with c.X = 0, so it fails.
    """
    return all(
        sum(c * x for c, x in zip(row, X)) > R * sum(abs(c) for c in row)
        for row in tr.constraints
    )


def dynnikov_matrices(w: BraidWord) -> list:
    """All verified Dynnikov matrices of w (regions meeting the fixed direction).

    The integer iterate u of find_unstable_direction is traced exactly as
    the centre X = u << PREC, with 2*PREC fraction bits, and the probe radius
    is R = round(1e-6 * 2^(2*PREC)).  The update is positively homogeneous,
    so tracing an integer point is exact and a tie is plain equality.  X is
    traced once: when every region constraint c of that trace has
    c.X > R*|c|_1, the whole sup-ball of radius R lies strictly inside X's
    region, so every probe would follow the same branches and find the same
    matrix and region, which is then the only candidate.  Otherwise the
    sphere of radius R is probed at the integer points X + round(R*d), as
    many as ``_probe_directions`` gives.  Tie-free candidates are deduped by
    exact matrix and verified in mpf at 2*PREC bits: the fixed direction is
    an eigenvector with eigenvalue growth / 2^PREC, it lies in the region's
    closure, and all candidates share their spectral radius, which each
    returned matrix carries as its ``dilatation``.
    """
    # Regions can pass within ~1e-13 of the fixed direction (high-entropy words
    # with huge dilatation), so the direction must be located far more
    # accurately than the probe radius before probing.
    direction = find_unstable_direction(w)
    X = [x << PREC for x in direction.u]
    R = round(Fraction(1e-6) * 2 ** (2 * PREC))

    def trace(point):
        return traced_apply(DynnikovVector.from_flat(w.strands, point), w)

    centre_trace = trace(X)
    if _in_interior(centre_trace, X, R):
        traces = [centre_trace]
    else:  # traced one at a time: a long word's trace is large
        traces = (
            trace([x + round(R * Fraction(t)) for x, t in zip(X, d)])
            for d in _probe_directions(len(X))
        )
    found = {}
    for tr in traces:
        if not tr.signature.has_ties and tr.matrix not in found:
            region = tuple(sorted({_normalize_row(r) for r in tr.constraints}))
            found[tr.matrix] = (region, tr.signature)
    with mpmath.workprec(2 * PREC):
        centre = [mpmath.ldexp(x, -PREC) for x in direction.u]
        if not found:
            raise VerificationFailed("no tie-free signature found near the fixed direction")
        lam = mpmath.ldexp(direction.growth, -PREC)
        sup = max(abs(x) for x in centre)
        verified = []
        for key in sorted(found):
            region, _ = found[key]
            # probes can step across a wall passing arbitrarily close to the
            # fixed direction; a candidate whose region closure misses the
            # direction is such an artifact and is dropped, not an error
            if any(
                sum(c * x for c, x in zip(row, centre))
                < -mpmath.mpf("1e-25") * (max(abs(c) for c in row) * sup)
                for row in region
            ):
                continue
            image = [sum(c * x for c, x in zip(row, centre)) for row in key]
            err = max(abs(y - lam * x) for x, y in zip(centre, image))
            if err > 1e-8 * lam * sup:
                raise VerificationFailed(
                    "fixed direction is not an eigenvector of a candidate matrix"
                )
            verified.append(key)
        if not verified:
            raise VerificationFailed(
                "no candidate's region closure contains the fixed direction"
            )
        try:
            results = [
                DynnikovMatrix(key, *found[key], dilatation([list(r) for r in key]))
                for key in verified
            ]
        except NoDominantRealRoot as exc:
            _certify_failure(w, exc)
        radius = results[0].dilatation
        for m in results[1:]:
            if abs(m.dilatation - radius) > 1e-12 * radius:
                raise VerificationFailed("candidate matrices disagree on spectral radius")
    return results


# ---------------------------------------------------------------------------
# full decomposition of the circle of directions for n = 3


def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _perp(v) -> tuple:
    """v turned a quarter counterclockwise."""
    return (-v[1], v[0])


def _lower(v) -> bool:
    """True when the angle of v, taken in [0, 2*pi), is at least pi."""
    return v[1] < 0 or (v[1] == 0 and v[0] < 0)


def _cone_after(w: BraidWord, r: tuple):
    """The cone just counterclockwise of the integer ray r: (matrix, end ray).

    Traces q = N*r + perp(r) and accepts it when q is tie-free (it is inside
    its cone) and r satisfies every constraint (r is in the cone's closure),
    so the whole arc from r to the cone's counterclockwise wall carries q's
    matrix; otherwise q lay past a wall near r and N is doubled.  The first
    N, |r|_1 * 2^len(w), is only a guess; the check makes the step exact.
    The end ray is the first wall perp(c) counterclockwise of q; None when
    the trace has no constraint, that is when the matrix is the same on the
    whole circle.
    """
    N = (abs(r[0]) + abs(r[1])) << len(w)
    while True:
        q = (N * r[0] - r[1], N * r[1] + r[0])
        tr = traced_apply(DynnikovVector(3, q[:1], q[1:]), w)
        if not tr.signature.has_ties and all(
            c[0] * r[0] + c[1] * r[1] >= 0 for c in tr.constraints
        ):
            break
        N *= 2
    if not tr.constraints:
        return tr.matrix, None
    # c.q > 0, so each wall perp(c) lies less than pi counterclockwise of q
    end = _perp(tr.constraints[0])
    for c in tr.constraints[1:]:
        if _cross(_perp(c), end) > 0:
            end = _perp(c)
    return tr.matrix, _normalize_row(end)


def _walk_n3(w: BraidWord) -> list:
    """Maximal arcs of constant matrix as exact rays: [(start, end, matrix)].

    Walks counterclockwise from (1, 0), one cone per step, merging neighbours
    with the same matrix, until a step reaches or passes (1, 0) again.  The
    arcs run in walk order and the last one may pass (1, 0); a single arc
    from (1, 0) to (1, 0) is the whole circle.
    """
    arcs = []
    r = (1, 0)
    while True:
        matrix, s = _cone_after(w, r)
        if s is None:
            return [((1, 0), (1, 0), matrix)]
        if arcs and arcs[-1][2] == matrix:
            arcs[-1] = (arcs[-1][0], s, matrix)
        else:
            arcs.append((r, s, matrix))
        # a step turns by at most pi, so it reaches or passes (1, 0) exactly
        # when it leaves the lower half-plane
        if _lower(r) and not _lower(s):
            break
        r = s
    # The last step ends at or past (1, 0).  Past it, the last and the first
    # cone share an open arc, where their linear maps can agree only if they
    # are equal; so either the two arcs are one, or the walk ends at (1, 0).
    if len(arcs) == 1:
        return [((1, 0), (1, 0), matrix)]
    if arcs[-1][2] == arcs[0][2]:
        first = arcs.pop(0)
        arcs[-1] = (arcs[-1][0], first[1], matrix)
    return arcs


def _angle(v):
    """The angle of v in [0, 2*pi) at the current mpmath working precision."""
    t = mpmath.atan2(v[1], v[0])
    return t + 2 * mpmath.pi if t < 0 else t


def enumerate_regions_n3(w: BraidWord) -> list:
    """Maximal arcs of constant local matrix on the circle of directions.

    Returns a list of ((theta_lo, theta_hi), matrix) whose arcs cover the
    circle once, sorted by theta_lo in [0, 2*pi); the last theta_hi may pass
    2*pi.  A word whose matrix is the same everywhere gives ((0, 2*pi), M).

    Every wall is a line c.x = 0 with an integer row c, so every arc endpoint
    is an integer ray; the walk finds them exactly, with one integer trace
    per cone (see _cone_after) and integer cross products for the order.
    Only the returned angles are rounded: atan2 of the endpoint rays at the
    current mpmath working precision.
    """
    if w.strands != 3:
        raise ValueError("circle decomposition only applies to 3 strands")
    out = []
    for start, end, matrix in _walk_n3(w):
        lo, hi = _angle(start), _angle(end)
        if hi <= lo:
            hi += 2 * mpmath.pi
        out.append(((lo, hi), matrix))
    return out


def arcs_svg(arcs) -> str:
    """An SVG portrait of enumerate_regions_n3's arcs, one colour per arc."""
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.2 -1.2 2.4 2.4">']
    palette = ["#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02", "#a6761d"]
    style = 'stroke-width="0.08" fill="none"'
    if len(arcs) == 1:  # an SVG arc whose ends coincide is not drawn
        parts.append(f'<circle cx="0" cy="0" r="1" stroke="{palette[0]}" {style}/>')
    else:
        for k, ((lo, hi), _) in enumerate(arcs):
            large = 1 if hi - lo > mpmath.pi else 0
            x0, y0 = float(mpmath.cos(lo)), float(mpmath.sin(lo))
            x1, y1 = float(mpmath.cos(hi)), float(mpmath.sin(hi))
            parts.append(
                f'<path d="M {x0:.5f} {y0:.5f} A 1 1 0 {large} 1 {x1:.5f} {y1:.5f}" '
                f'stroke="{palette[k % len(palette)]}" {style}/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
