"""Attracting directions, Dynnikov matrices, and the n=3 circle decomposition.

The projectivized action of a pseudo-Anosov word has a unique attracting
fixed direction; projective power iteration finds it on a rising precision
ladder.  Probing a small sphere around the fixed direction with the traced
update rules discovers every linear piece (region) meeting it; candidates are
verified against the fixed direction and by their shared spectral radius.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import gcd

import mpmath

from .braid import BraidWord, inverse
from .coords import DynnikovVector, positive_normalize, projective_distance, to_mpf
from .errors import NonConvergence, VerificationFailed
from .spectral import dilatation
from .update import BranchSignature, apply_braid, matrix_apply, traced_apply


@dataclass(frozen=True)
class IterationOptions:
    """Knobs for the projective iteration and region probing."""

    ladder: tuple = (53, 128, 256, 512)
    max_iters: int = 5000
    seed: int = 2023
    probe_radius: float = 1e-6
    random_probes_per_dim: int = 8

    def __post_init__(self):
        if list(self.ladder) != sorted(set(self.ladder)):
            raise ValueError("precision ladder must be strictly increasing")
        if self.max_iters <= 0 or self.probe_radius <= 0:
            raise ValueError("numeric options must be positive")


DEFAULT_OPTIONS = IterationOptions()


@dataclass(frozen=True)
class UnstableDirection:
    point: DynnikovVector  # sup-normalized attracting representative (sign kept)
    dilatation: object  # mpmath float > 1
    iterations: int
    precision: int


@dataclass(frozen=True)
class DynnikovMatrix:
    matrix: tuple  # integer rows
    region: tuple  # integer rows c, region closure is {x : c.x >= 0}
    signature: BranchSignature
    dilatation: object  # exact-bisected spectral radius, mpmath float > 1

    def matrix_list(self) -> list:
        return [list(r) for r in self.matrix]

    def to_json(self) -> str:
        return json.dumps(
            {
                "matrix": [[str(x) for x in row] for row in self.matrix],
                "region": [[str(x) for x in row] for row in self.region],
            }
        )


def _seed_vector(strands: int, seed: int) -> DynnikovVector:
    """a = 0, b = -1, plus a deterministic integer perturbation."""
    rng = random.Random(seed)
    m = strands - 2
    a = tuple(rng.randint(-3, 3) for _ in range(m))
    b = tuple(-8 + rng.randint(-2, 2) for _ in range(m))
    return DynnikovVector(strands, a, b)


def find_unstable_direction(
    w: BraidWord, opts: IterationOptions = DEFAULT_OPTIONS
) -> UnstableDirection:
    """Projective power iteration toward the attracting direction of w.

    Converges when successive projective iterates are closer than 10^(-p/8)
    at p mantissa bits, then keeps iterating until the growth-factor estimate
    stabilizes; escalates the precision ladder on failure.
    """
    if len(w) == 0:
        raise NonConvergence("the identity word has no attracting direction")
    total_iters = 0
    for prec in opts.ladder:
        with mpmath.workprec(prec):
            tol = mpmath.mpf(10) ** -(prec // 8)
            u = positive_normalize(to_mpf(_seed_vector(w.strands, opts.seed)))
            lam = None
            converged = False
            stable = 0
            for it in range(opts.max_iters):
                total_iters += 1
                nxt = apply_braid(u, w)
                growth = nxt.sup_norm()  # u has sup norm 1
                un = positive_normalize(nxt)
                dist = projective_distance(un, u)
                if lam is not None and abs(growth - lam) <= 1e-13 * abs(lam):
                    stable += 1
                else:
                    stable = 0
                lam = growth
                u = un
                if dist < tol and stable >= 3:
                    converged = True
                    break
            if not converged:
                continue
            if lam <= 1 + mpmath.mpf("1e-6"):
                raise NonConvergence(
                    f"growth factor {mpmath.nstr(lam, 8)} is not > 1: "
                    "word is not pseudo-Anosov at this precision"
                )
            return UnstableDirection(u, lam, total_iters, prec)
    raise NonConvergence(
        f"no attracting direction after {total_iters} iterations "
        f"across precisions {opts.ladder}"
    )


def stable_direction(
    w: BraidWord, opts: IterationOptions = DEFAULT_OPTIONS
) -> UnstableDirection:
    """The attracting direction of the inverse word (contracting for w)."""
    return find_unstable_direction(inverse(w), opts)


def _normalize_row(row):
    g = 0
    for x in row:
        g = gcd(g, abs(x))
    if g > 1:
        row = tuple(x // g for x in row)
    return row


def _probe_directions(dim: int, opts: IterationOptions):
    dirs = []
    for k in range(dim):
        e = [0.0] * dim
        e[k] = 1.0
        dirs.append(tuple(e))
        e = [0.0] * dim
        e[k] = -1.0
        dirs.append(tuple(e))
    rng = random.Random(opts.seed + 1)
    for _ in range(opts.random_probes_per_dim * dim):
        dirs.append(tuple(rng.uniform(-1, 1) for _ in range(dim)))
    return dirs


def dynnikov_matrices(
    w: BraidWord, opts: IterationOptions = DEFAULT_OPTIONS
) -> list:
    """All verified Dynnikov matrices of w (regions meeting the fixed direction).

    Probes a small sphere around the attracting direction, keeps tie-free
    traced signatures, dedupes by exact matrix, and verifies each candidate:
    the fixed direction is an eigenvector with eigenvalue the dilatation, it
    lies in the region's closure, and all candidates share their spectral
    radius, which each returned matrix carries as its ``dilatation``.
    """
    # Regions can pass within ~1e-13 of the fixed direction (high-entropy words
    # with huge dilatation), so the direction must be located far more
    # accurately than the probe radius before probing.
    ladder = tuple(p for p in opts.ladder if p >= 256) or (256, 512)
    direction = find_unstable_direction(
        w,
        IterationOptions(
            ladder, opts.max_iters, opts.seed, opts.probe_radius,
            opts.random_probes_per_dim,
        ),
    )
    prec = 2 * direction.precision
    dim = 2 * w.strands - 4
    found = {}
    with mpmath.workprec(prec):
        centre = [mpmath.mpf(x) for x in direction.point.flat()]
        delta = mpmath.mpf(opts.probe_radius)
        for d in _probe_directions(dim, opts):
            flat = [c + delta * x for c, x in zip(centre, d)]
            probe = DynnikovVector.from_flat(w.strands, flat)
            tr = traced_apply(probe, w)
            if tr.signature.has_ties:
                continue
            if tr.matrix not in found:
                region = tuple(
                    sorted({_normalize_row(r) for r in tr.constraints})
                )
                found[tr.matrix] = (region, tr.signature)
        if not found:
            raise VerificationFailed("no tie-free signature found near the fixed direction")
        lam = direction.dilatation
        sup = max(abs(x) for x in centre)
        verified = []
        for key in sorted(found):
            region, _ = found[key]
            # probes can step across a wall passing arbitrarily close to the
            # fixed direction; a candidate whose region closure misses the
            # direction is such an artifact and is dropped, not an error
            in_closure = True
            for row in region:
                scale = max(abs(c) for c in row) * sup
                value = sum(c * x for c, x in zip(row, centre))
                if value < -mpmath.mpf("1e-25") * scale:
                    in_closure = False
                    break
            if not in_closure:
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
        results = [
            DynnikovMatrix(key, *found[key], dilatation([list(r) for r in key]))
            for key in verified
        ]
        radius = results[0].dilatation
        for m in results[1:]:
            if abs(m.dilatation - radius) > 1e-12 * radius:
                raise VerificationFailed("candidate matrices disagree on spectral radius")
    return results


# ---------------------------------------------------------------------------
# full decomposition of the circle of directions for n = 3


def _matrix_at_angle(w: BraidWord, theta):
    for nudge in range(6):
        t = theta + nudge * mpmath.mpf("1e-9")
        v = DynnikovVector(3, (mpmath.cos(t),), (mpmath.sin(t),))
        tr = traced_apply(v, w)
        if not tr.signature.has_ties:
            return tr.matrix
    return None


def enumerate_regions_n3(w: BraidWord, grid: int = 1024) -> list:
    """Maximal arcs of constant local matrix on the circle of directions.

    Returns a list of ((theta_lo, theta_hi), matrix) whose arcs cover
    [0, 2*pi); boundaries are refined by bisection to ~1e-10 radians.
    """
    if w.strands != 3:
        raise ValueError("circle decomposition only applies to 3 strands")
    with mpmath.workprec(80):
        two_pi = 2 * mpmath.pi
        step = two_pi / grid
        angles = [k * step for k in range(grid)]
        mats = [_matrix_at_angle(w, t) for t in angles]
        # fill tie points from a neighbor (they sit on boundaries)
        for k in range(grid):
            if mats[k] is None:
                mats[k] = mats[(k + 1) % grid]
        boundaries = []
        for k in range(grid):
            nk = (k + 1) % grid
            if mats[k] != mats[nk]:
                lo, hi = angles[k], angles[k] + step
                mlo = mats[k]
                while hi - lo > mpmath.mpf("1e-10"):
                    mid = (lo + hi) / 2
                    if _matrix_at_angle(w, mid) == mlo:
                        lo = mid
                    else:
                        hi = mid
                boundaries.append(((lo + hi) / 2, k))
        if not boundaries:
            return [((mpmath.mpf(0), two_pi), mats[0])]
        boundaries.sort(key=lambda p: p[0])
        cuts = [b for b, _ in boundaries]
        arcs = []
        for j, lo in enumerate(cuts):
            hi = cuts[(j + 1) % len(cuts)]
            span = (hi - lo) % two_pi
            mid = lo + span / 2
            arcs.append(((lo, lo + span), _matrix_at_angle(w, mid)))
        return arcs
