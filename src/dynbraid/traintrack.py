"""Combinatorial measured train tracks on the punctured disk.

A track is a branched 1-complex given purely combinatorially: switches carry
two ordered lists of half-branch ends (one per side of the tangent line),
branches join two such ends, and the complementary regions are recorded as
punctured p-gons or unpunctured k-gons.  The planar embedding enters only
through the ordering of the half-branch lists and through user-supplied arc
annotations; no drawing is ever interpreted.

Measures live on branches and satisfy the switch conditions.  Path measures
are computed by interval propagation: a branch of weight w is the interval
[0, w); at a switch the ends stack in list order from offset 0, and a leaf
interval transfers by offset arithmetic with clipping.

The chart change to Dynnikov coordinates is one generic computation over +,
-, min and max.  Run on numbers it gives the coordinates; run on the jets and
the recorder of ``update`` at an exact basepoint it gives the local matrix L
of the paper's conjugacy D.L = L.T', with a tie at the basepoint reported as
TieAtBasepoint.  All exact linear algebra (the infinitesimal weights, L^-1)
goes through one rational elimination, and products through
``spectral.mat_mul``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import mpmath

from .coords import DynnikovVector
from .errors import (
    NoDominantRealRoot,
    NonConvergence,
    NotIrreducible,
    TieAtBasepoint,
    TrackFormatError,
    VerificationFailed,
)
from .spectral import dilatation, mat_mul
from .update import Jet, Recorder

# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True)
class End:
    switch: str
    side: str  # "A" or "B"
    pos: int


@dataclass(frozen=True)
class Branch:
    id: str
    kind: str  # "main" or "infinitesimal"
    ends: tuple  # (End, End)


@dataclass(frozen=True)
class Switch:
    id: str
    sideA: tuple  # branch ids in stacking order
    sideB: tuple


@dataclass(frozen=True)
class Polygon:
    punctured: bool
    vertices: int
    edges: tuple | None = None  # ordered branch ids around the polygon


@dataclass(frozen=True)
class TrainTrack:
    strands: int
    switches: tuple  # of Switch
    branches: tuple  # of Branch
    polygons: tuple  # of Polygon
    annotations: dict | None = None

    def switch(self, sid: str) -> Switch:
        for s in self.switches:
            if s.id == sid:
                return s
        raise TrackFormatError(f"unknown switch {sid!r}")

    def branch(self, bid: str) -> Branch:
        for b in self.branches:
            if b.id == bid:
                return b
        raise TrackFormatError(f"unknown branch {bid!r}")

    @property
    def rank(self) -> int:
        return len(self.branches) - len(self.switches)

    @property
    def is_complete(self) -> bool:
        return self.rank == 2 * self.strands - 4

    def main_branches(self) -> list:
        return [b.id for b in self.branches if b.kind == "main"]

    def validate(self) -> "TrainTrack":
        side_slots = {}
        for s in self.switches:
            for side, ids in (("A", s.sideA), ("B", s.sideB)):
                for pos, bid in enumerate(ids):
                    side_slots[(s.id, side, pos)] = bid
        seen = set()
        for b in self.branches:
            if len(b.ends) != 2:
                raise TrackFormatError(f"branch {b.id!r} must have two ends")
            if b.kind not in ("main", "infinitesimal"):
                raise TrackFormatError(f"branch {b.id!r} has bad kind {b.kind!r}")
            for e in b.ends:
                key = (e.switch, e.side, e.pos)
                if side_slots.get(key) != b.id:
                    raise TrackFormatError(
                        f"branch {b.id!r} claims slot {key} but the switch lists "
                        f"{side_slots.get(key)!r} there"
                    )
                if key in seen:
                    raise TrackFormatError(f"slot {key} used twice")
                seen.add(key)
        if len(seen) != len(side_slots):
            dangling = set(side_slots) - seen
            raise TrackFormatError(f"dangling half-branch slots: {sorted(dangling)}")
        for p in self.polygons:
            if p.punctured:
                if p.vertices < 1:
                    raise TrackFormatError("punctured polygon needs >= 1 vertex")
            elif p.vertices < 3:
                raise TrackFormatError("unpunctured polygon needs >= 3 vertices")
            if p.edges is not None and len(p.edges) != p.vertices:
                raise TrackFormatError("polygon edge list length != vertex count")
        return self


@dataclass(frozen=True)
class Measure:
    weights: dict  # branch id -> scalar

    def __getitem__(self, bid: str):
        if bid not in self.weights:
            raise TrackFormatError(f"measure missing branch {bid!r}")
        return self.weights[bid]


@dataclass(frozen=True)
class TrainPath:
    steps: tuple  # of (branch id, orientation +1/-1)


@dataclass(frozen=True)
class TransitionMatrix:
    matrix: tuple  # integer rows
    main_count: int
    permutation: tuple | None = None

    @property
    def size(self) -> int:
        return len(self.matrix)

    def main_block(self) -> list:
        m = self.main_count
        return [list(row[:m]) for row in self.matrix[:m]]

    def validate(self) -> "TransitionMatrix":
        n = self.size
        if any(len(r) != n for r in self.matrix):
            raise TrackFormatError("transition matrix is not square")
        if any(x < 0 for r in self.matrix for x in r):
            raise TrackFormatError("transition matrix must be nonnegative")
        m = self.main_count
        if not 0 < m <= n:
            raise TrackFormatError("bad main branch count")
        for i in range(m):
            if any(self.matrix[i][j] != 0 for j in range(m, n)):
                raise TrackFormatError("upper-right block must vanish for a regular track")
        if m < n:
            perm = [row[m:] for row in self.matrix[m:]]
            k = n - m
            if sorted(
                tuple(row) for row in perm
            ) != sorted(tuple(int(i == j) for j in range(k)) for i in range(k)):
                raise TrackFormatError("lower-right block is not a permutation matrix")
            if self.permutation is not None:
                expect = [perm[i].index(1) for i in range(k)]
                if list(self.permutation) != expect:
                    raise TrackFormatError("declared permutation disagrees with matrix")
        return self


# ---------------------------------------------------------------------------
# JSON loading


def _parse_end(doc) -> End:
    return End(str(doc["switch"]), str(doc["side"]), int(doc["pos"]))


def load_track(text: str) -> TrainTrack:
    """Parse and validate the train-track JSON document."""
    doc = json.loads(text)
    try:
        switches = tuple(
            Switch(str(s["id"]), tuple(s["sideA"]), tuple(s["sideB"]))
            for s in doc["switches"]
        )
        branches = tuple(
            Branch(
                str(b["id"]), str(b["kind"]), (_parse_end(b["from"]), _parse_end(b["to"]))
            )
            for b in doc["branches"]
        )
        polygons = tuple(
            Polygon(
                bool(p["punctured"]),
                int(p["vertices"]),
                tuple(p["edges"]) if "edges" in p else None,
            )
            for p in doc["polygons"]
        )
        track = TrainTrack(
            int(doc["n"]), switches, branches, polygons, doc.get("annotations")
        )
    except (KeyError, TypeError) as exc:
        raise TrackFormatError(f"malformed track document: {exc}") from None
    return track.validate()


def load_transition_matrix(text: str) -> TransitionMatrix:
    doc = json.loads(text)
    try:
        matrix = tuple(tuple(int(x) for x in row) for row in doc["matrix"])
        m = int(doc.get("m", len(matrix)))
        perm = tuple(doc["permutation"]) if "permutation" in doc else None
    except (KeyError, TypeError, ValueError) as exc:
        raise TrackFormatError(f"malformed transition matrix: {exc}") from None
    return TransitionMatrix(matrix, m, perm).validate()


# ---------------------------------------------------------------------------
# Perron-Frobenius data of a transition matrix


def transition_pf(T: TransitionMatrix, precision: int = 30):
    """PF eigenvalue and strictly positive unit eigenvector of the main block.

    The eigenvalue is refined against the exact characteristic polynomial;
    NotIrreducible is raised when no simple dominant eigenvalue > 1 exists or
    the eigenvector has a vanishing entry, and NonConvergence when the power
    iteration for the eigenvector does not settle.
    """
    M = T.main_block()
    try:
        lam = dilatation(M, tol=Fraction(1, 10 ** max(30, precision + 5)))
    except NoDominantRealRoot as exc:
        raise NotIrreducible(str(exc)) from None
    m = len(M)
    with mpmath.workdps(precision + 15):
        v = [mpmath.mpf(1)] * m
        for _ in range(5000):
            nv = [sum(mpmath.mpf(M[i][j]) * v[j] for j in range(m)) for i in range(m)]
            norm = max(abs(x) for x in nv)
            nv = [x / norm for x in nv]
            if max(abs(a - b) for a, b in zip(nv, v)) < mpmath.mpf(10) ** -(precision + 5):
                v = nv
                break
            v = nv
        else:
            raise NonConvergence(
                "power iteration for the PF eigenvector did not converge in 5000 steps"
            )
        euclid = mpmath.sqrt(sum(x * x for x in v))
        v = [x / euclid for x in v]
        if min(v) <= mpmath.mpf(10) ** -(precision):
            raise NotIrreducible("PF eigenvector has a non-positive entry")
        return lam, v


# ---------------------------------------------------------------------------
# pinching moves


def _replace_slot(switches, end: End, new_bid: str):
    out = []
    for s in switches:
        if s.id == end.switch:
            if end.side == "A":
                lst = list(s.sideA)
                lst[end.pos] = new_bid
                s = Switch(s.id, tuple(lst), s.sideB)
            else:
                lst = list(s.sideB)
                lst[end.pos] = new_bid
                s = Switch(s.id, s.sideA, tuple(lst))
        out.append(s)
    return tuple(out)


def _fresh(track: TrainTrack, base: str) -> str:
    names = {b.id for b in track.branches} | {s.id for s in track.switches}
    if base not in names:
        return base
    k = 2
    while f"{base}{k}" in names:
        k += 1
    return f"{base}{k}"


def _psi_from_map(exprs):
    """Measure map: new branch id -> list of (coeff, old branch id)."""

    def psi(mu: Measure) -> Measure:
        out = dict(mu.weights)
        for bid, terms in exprs.items():
            out[bid] = sum(c * mu[old] for c, old in terms)
        return Measure(out)

    return psi


def pinch_unpunctured(track: TrainTrack, edge: str):
    """Pinch across an edge of an unpunctured t-gon (t >= 4).

    Splits the two neighboring sides, joining the split-off stubs to the
    pinched edge through two new switches; returns the new track and the
    measure map.
    """
    poly = None
    for p in track.polygons:
        if not p.punctured and p.vertices >= 4 and p.edges and edge in p.edges:
            poly = p
            break
    if poly is None:
        raise TrackFormatError(
            f"edge {edge!r} does not lie on an unpunctured >=4-gon with known edges"
        )
    t = poly.vertices
    i = poly.edges.index(edge)
    prev_e = poly.edges[(i - 1) % t]
    next_e = poly.edges[(i + 1) % t]
    if prev_e == edge or next_e == edge or prev_e == next_e:
        raise TrackFormatError("pinching needs three distinct consecutive edges")
    s1 = _fresh(track, f"pin_{edge}_a")
    s2 = _fresh(track, f"pin_{edge}_b")
    eps = _fresh(track, f"eps_{edge}")
    prev_new = _fresh(track, f"{prev_e}'")
    next_new = _fresh(track, f"{next_e}'")
    # move one end of each neighbor to a new switch; the split-off stub takes
    # its old place
    bprev = track.branch(prev_e)
    bnext = track.branch(next_e)
    old_prev_end = bprev.ends[1]
    old_next_end = bnext.ends[1]
    switches = _replace_slot(track.switches, old_prev_end, prev_new)
    switches = _replace_slot(switches, old_next_end, next_new)
    switches += (
        Switch(s1, (eps,), (prev_e, next_new)),
        Switch(s2, (eps,), (prev_new, next_e)),
    )
    branches = []
    for b in track.branches:
        if b.id == prev_e:
            b = Branch(b.id, b.kind, (b.ends[0], End(s1, "B", 0)))
        elif b.id == next_e:
            b = Branch(b.id, b.kind, (b.ends[0], End(s2, "B", 1)))
        branches.append(b)
    branches += [
        Branch(prev_new, bprev.kind, (End(s2, "B", 0), old_prev_end)),
        Branch(next_new, bnext.kind, (End(s1, "B", 1), old_next_end)),
        Branch(eps, "infinitesimal", (End(s1, "A", 0), End(s2, "A", 0))),
    ]
    polygons = [p for p in track.polygons if p is not poly]
    trigon = Polygon(False, 3, (prev_e, edge, next_e))
    rest = tuple(poly.edges[(i + 2 + k) % t] for k in range(t - 3))
    polygons += [trigon, Polygon(False, t - 1, (next_new,) + rest + (prev_new,))]
    new_track = TrainTrack(
        track.strands, switches, tuple(branches), tuple(polygons), track.annotations
    ).validate()
    psi = _psi_from_map(
        {prev_new: [(1, prev_e)], next_new: [(1, next_e)], eps: [(1, prev_e), (1, next_e)]}
    )
    return new_track, psi


def pinch_punctured(track: TrainTrack, edge: str):
    """Pinch an edge of a punctured t-gon (t >= 2) into the puncture.

    Produces an unpunctured (t+1)-gon and a punctured monogon; the pinched
    edge's two old slots are taken over by split-off stubs and the new edge
    of weight 2w hugs the puncture.
    """
    poly = None
    for p in track.polygons:
        if p.punctured and p.vertices >= 2 and p.edges and edge in p.edges:
            poly = p
            break
    if poly is None:
        raise TrackFormatError(
            f"edge {edge!r} does not lie on a punctured >=2-gon with known edges"
        )
    t = poly.vertices
    i = poly.edges.index(edge)
    b = track.branch(edge)
    s1 = _fresh(track, f"pin_{edge}_a")
    s2 = _fresh(track, f"pin_{edge}_b")
    eps = _fresh(track, f"eps_{edge}")
    e1 = _fresh(track, f"{edge}'")
    e2 = _fresh(track, f"{edge}''")
    old_from, old_to = b.ends
    switches = _replace_slot(track.switches, old_from, e1)
    switches = _replace_slot(switches, old_to, e2)
    switches += (
        Switch(s1, (eps,), (edge, e2)),
        Switch(s2, (eps,), (e1, edge)),
    )
    branches = []
    for br in track.branches:
        if br.id == edge:
            br = Branch(br.id, br.kind, (End(s1, "B", 0), End(s2, "B", 1)))
        branches.append(br)
    branches += [
        Branch(e1, b.kind, (old_from, End(s2, "B", 0))),
        Branch(e2, b.kind, (End(s1, "B", 1), old_to)),
        Branch(eps, "infinitesimal", (End(s1, "A", 0), End(s2, "A", 0))),
    ]
    polygons = [p for p in track.polygons if p is not poly]
    rest = tuple(poly.edges[(i + 1 + k) % t] for k in range(t - 1))
    polygons += [
        Polygon(True, 1, (edge,)),
        Polygon(False, t + 1, (e2,) + rest + (e1,)),
    ]
    new_track = TrainTrack(
        track.strands, switches, tuple(branches), tuple(polygons), track.annotations
    ).validate()
    psi = _psi_from_map({e1: [(1, edge)], e2: [(1, edge)], eps: [(2, edge)]})
    return new_track, psi


# ---------------------------------------------------------------------------
# diagonal extensions


def catalan(t: int) -> int:
    if t == 0:
        return 1
    return comb(2 * t, t) - comb(2 * t, t - 1)


def diagonal_extensions_count(track: TrainTrack) -> int:
    """Product of Catalan factors over the complementary polygons."""
    total = 1
    for p in track.polygons:
        if p.punctured:
            total *= p.vertices * catalan(p.vertices - 1)
        else:
            total *= catalan(p.vertices - 2)
    return total


def _triangulations(vs):
    """All triangulations of the convex polygon on vertex labels vs.

    Returns lists of diagonals (pairs of labels); polygon sides excluded.
    """
    if len(vs) <= 3:
        return [[]]
    out = []
    first, last = vs[0], vs[-1]
    for k in range(1, len(vs) - 1):
        apex = vs[k]
        left = _triangulations(vs[: k + 1])
        right = _triangulations(vs[k:])
        for dl in left:
            for dr in right:
                diags = list(dl) + list(dr)
                if k > 1:
                    diags.append((first, apex))
                if k < len(vs) - 2:
                    diags.append((apex, last))
                out.append(diags)
    return out


class _Splitter:
    """Tracks repeated splitting of polygon sides while adding diagonals."""

    def __init__(self, track: TrainTrack):
        self.switches = list(track.switches)
        self.branches = list(track.branches)
        self.track = track
        self.exprs = {}
        self.seq = 0
        self.current = {}  # polygon side index -> branch id currently there

    def _name(self, base):
        self.seq += 1
        return f"{base}.{self.seq}"

    def attach(self, host_bid: str, new_branch_bid: str):
        """Split host branch with a new switch and hang new_branch_bid there.

        Returns (stub id, End for the hanging branch).  The stub inherits the
        host's weight; the hanging branch gets weight zero, keeping every
        switch balanced.
        """
        host = next(b for b in self.branches if b.id == host_bid)
        sw = self._name(f"sp_{host_bid}")
        stub = self._name(f"{host_bid}x")
        old_end = host.ends[1]
        for i, s in enumerate(self.switches):
            if s.id == old_end.switch:
                lst = list(s.sideA if old_end.side == "A" else s.sideB)
                lst[old_end.pos] = stub
                self.switches[i] = (
                    Switch(s.id, tuple(lst), s.sideB)
                    if old_end.side == "A"
                    else Switch(s.id, s.sideA, tuple(lst))
                )
        for i, b in enumerate(self.branches):
            if b.id == host_bid:
                self.branches[i] = Branch(b.id, b.kind, (b.ends[0], End(sw, "A", 0)))
        self.switches.append(Switch(sw, (host_bid,), (stub, new_branch_bid)))
        self.branches.append(Branch(stub, host.kind, (End(sw, "B", 0), old_end)))
        root = host_bid
        while root in self.exprs:
            root = self.exprs[root][0][1]
        self.exprs[stub] = [(1, root)]
        return End(sw, "B", 1)


def enumerate_diagonal_extensions(track: TrainTrack) -> list:
    """All complete diagonal extensions, with zero weight on added branches.

    Unpunctured t-gons are triangulated in every non-crossing way; punctured
    t-gons first gain a branch encircling the puncture at one of the t
    vertices, then the resulting (t+1)-gon is triangulated.  Returns a list
    of (TrainTrack, measure map).
    """
    plans = []  # per polygon: list of (diagonal list over side indices, punctured vertex)
    for p in track.polygons:
        if p.punctured:
            if p.vertices * catalan(p.vertices - 1) == 1:
                plans.append([None])
                continue
        elif catalan(p.vertices - 2) == 1:
            plans.append([None])
            continue
        if p.edges is None:
            raise TrackFormatError(
                "polygon needs an edge list to enumerate its extensions"
            )
        options = []
        t = p.vertices
        if not p.punctured:
            for diags in _triangulations(list(range(t))):
                options.append((p, None, diags))
        else:
            # encircle the puncture at vertex i: the loop splits vertex i,
            # giving a (t+1)-gon on labels i, i+1, ..., i+t (mod t on sides)
            for i in range(t):
                labels = list(range(t + 1))
                for diags in _triangulations(labels):
                    options.append((p, i, diags))
        plans.append(options)
    results = []
    for combo in itertools.product(*plans):
        sp = _Splitter(track)
        new_polygons = [p for p in track.polygons if combo[track.polygons.index(p)] is None]
        ok = True
        for choice in combo:
            if choice is None:
                continue
            p, punct_vertex, diags = choice
            t = p.vertices
            if punct_vertex is None:
                hosts = {v: p.edges[v] for v in range(t)}
                for (u, v) in diags:
                    d = sp._name("diag")
                    e1 = sp.attach(hosts[u], d)
                    e2 = sp.attach(hosts[v], d)
                    sp.branches.append(Branch(d, "infinitesimal", (e1, e2)))
                    sp.exprs[d] = []
                new_polygons += [Polygon(False, 3) for _ in range(t - 2)]
            else:
                loop = sp._name("loop")
                # labels 0..t of the opened polygon; label k sits at original
                # vertex (punct_vertex + k) % t, labels 0 and t both at the
                # encircling vertex
                hosts = {k: p.edges[(punct_vertex + k) % t] for k in range(t)}
                hosts[t] = hosts[0]
                le1 = sp.attach(hosts[0], loop)
                le2 = sp.attach(hosts[t], loop)
                sp.branches.append(Branch(loop, "infinitesimal", (le1, le2)))
                sp.exprs[loop] = []
                for (u, v) in diags:
                    d = sp._name("diag")
                    e1 = sp.attach(hosts[u], d)
                    e2 = sp.attach(hosts[v], d)
                    sp.branches.append(Branch(d, "infinitesimal", (e1, e2)))
                    sp.exprs[d] = []
                new_polygons += [Polygon(True, 1)]
                new_polygons += [Polygon(False, 3) for _ in range(t - 1)]
        new_track = TrainTrack(
            track.strands,
            tuple(sp.switches),
            tuple(sp.branches),
            tuple(new_polygons),
            track.annotations,
        ).validate()
        results.append((new_track, _psi_from_map(sp.exprs)))
    return results


# ---------------------------------------------------------------------------
# path measures by interval propagation


def _end_offsets(track: TrainTrack, mu, zero):
    """Offset of every half-branch slot within its side's stack."""
    offsets = {}
    for s in track.switches:
        for side, ids in (("A", s.sideA), ("B", s.sideB)):
            acc = zero
            for pos, bid in enumerate(ids):
                offsets[(s.id, side, pos)] = acc
                acc = acc + mu[bid]
    return offsets


def _oriented_ends(track: TrainTrack, step):
    bid, orient = step
    b = track.branch(bid)
    return (b.ends[0], b.ends[1]) if orient > 0 else (b.ends[1], b.ends[0])


def _path_measure_generic(track: TrainTrack, path: TrainPath, mu, mn, mx, zero):
    """Total measure of the leaves following the path (the p-hat overlap)."""
    if not path.steps:
        raise TrackFormatError("empty train path")
    first = path.steps[0][0]
    lo, hi = zero, zero + mu[first]
    offsets = _end_offsets(track, mu, zero)
    for prev, cur in zip(path.steps, path.steps[1:]):
        _, exit_end = _oriented_ends(track, prev)
        entry_end, _ = _oriented_ends(track, cur)
        if entry_end.switch != exit_end.switch or entry_end.side == exit_end.side:
            raise TrackFormatError(
                f"path is not smooth between {prev[0]!r} and {cur[0]!r}"
            )
        off_out = offsets[(exit_end.switch, exit_end.side, exit_end.pos)]
        off_in = offsets[(entry_end.switch, entry_end.side, entry_end.pos)]
        lo = lo + off_out - off_in
        hi = hi + off_out - off_in
        lo = mx(lo, zero)
        hi = mn(hi, zero + mu[cur[0]])
    return mx(hi - lo, zero)


# ---------------------------------------------------------------------------
# arc measures and the change of coordinates


def _arc_names(strands: int):
    alphas = [f"alpha_{k}" for k in range(1, 2 * strands - 3)]
    betas = [f"beta_{k}" for k in range(1, strands)]
    return alphas, betas


def _parse_path_tokens(tokens) -> TrainPath:
    steps = []
    for tok in tokens:
        tok = str(tok)
        if tok.startswith("-"):
            steps.append((tok[1:], -1))
        else:
            steps.append((tok, 1))
    return TrainPath(tuple(steps))


def _arc_measure_generic(track, ann, name, mu, mn, mx, zero):
    """Arc measure: sum of n_i mu(e_i) minus twice each minimal path measure."""
    spec = ann.get(name)
    if spec is None:
        raise TrackFormatError(f"no annotation for arc {name!r}")
    if "derived_max_of" in spec:
        left, right = spec["derived_max_of"]
        other = spec["minus"]
        return (
            mx(
                _arc_measure_generic(track, ann, left, mu, mn, mx, zero),
                _arc_measure_generic(track, ann, right, mu, mn, mx, zero),
            )
            - _arc_measure_generic(track, ann, other, mu, mn, mx, zero)
        )
    total = zero
    for bid, count in spec.get("counts", {}).items():
        total = total + count * mu[bid]
    for tokens in spec.get("paths", ()):
        phat = _path_measure_generic(track, _parse_path_tokens(tokens), mu, mn, mx, zero)
        total = total - 2 * phat
    return total


def _change_of_coords_generic(track, mu, mn, mx, zero, half):
    ann = track.annotations
    if not ann:
        raise TrackFormatError("track has no arc annotations")
    alphas, betas = _arc_names(track.strands)
    alpha = [_arc_measure_generic(track, ann, n, mu, mn, mx, zero) for n in alphas]
    beta = [_arc_measure_generic(track, ann, n, mu, mn, mx, zero) for n in betas]
    a = tuple(half(alpha[2 * i + 1] - alpha[2 * i]) for i in range(len(alpha) // 2))
    b = tuple(half(beta[i] - beta[i + 1]) for i in range(len(beta) - 1))
    return a, b


def change_of_coords(track: TrainTrack, mu: Measure) -> DynnikovVector:
    """Measures of all Dynnikov arcs, then halved differences."""

    def half(x):
        return x / 2 if not isinstance(x, int) else Fraction(x, 2)

    a, b = _change_of_coords_generic(track, mu, min, max, 0, half)
    return DynnikovVector(track.strands, a, b)


# --- linearization ---------------------------------------------------------


def _solve_infinitesimals(track: TrainTrack, jets: dict, mu0: Measure, zero: Jet):
    """Express infinitesimal weights through the main ones.

    Solves the switch-condition system exactly, with each jet right-hand side
    as the row [val, *row]; raises if it does not determine every
    infinitesimal branch.
    """
    unknowns = [b.id for b in track.branches if b.kind != "main"]
    if not unknowns:
        return {}
    index = {bid: k for k, bid in enumerate(unknowns)}
    coeffs = []
    rhs = []
    for s in track.switches:
        coeff = [0] * len(unknowns)
        acc = zero
        for sign, ids in ((1, s.sideA), (-1, s.sideB)):
            for bid in ids:
                if bid in index:
                    coeff[index[bid]] += sign
                else:
                    acc = acc + sign * jets[bid]
        coeffs.append(coeff)
        rhs.append([-acc.val, *(-x for x in acc.row)])
    solution = _solve_frac(coeffs, rhs)
    if solution is None:
        raise TrackFormatError(
            "switch conditions do not determine the infinitesimal weights"
        )
    out = {}
    for bid, (val, *row) in zip(unknowns, solution):
        if val != mu0[bid]:
            raise TrackFormatError(
                f"measure entry for {bid!r} conflicts with the switch conditions"
            )
        out[bid] = Jet(val, tuple(row))
    return out


def linearize_change_of_coords(track: TrainTrack, mu0: Measure):
    """The local linear matrix of the change of coordinates at mu0.

    Columns follow the main branches in track order; rows are the Dynnikov
    coordinates (a then b).  Requires an exact rational basepoint off every
    min/max wall (TieAtBasepoint otherwise).
    """
    main = track.main_branches()
    dim = len(main)
    zero = Jet(0, (0,) * dim)
    jets = {
        bid: Jet(Fraction(mu0[bid]), tuple(int(k == i) for k in range(dim)))
        for i, bid in enumerate(main)
    }
    jets.update(_solve_infinitesimals(track, jets, mu0, zero))
    rec = Recorder()
    a, b = _change_of_coords_generic(
        track, Measure(jets), rec.mn, rec.mx, zero, lambda j: j / 2
    )
    if any(rec.ties):
        raise TieAtBasepoint("basepoint lies on a linearity wall")
    return [list(j.row) for j in a + b]


# ---------------------------------------------------------------------------
# conjugacy verification and completion solving


def _frac_matrix(M):
    return [[Fraction(x) for x in row] for row in M]


def _solve_frac(A, B):
    """X with A.X = B, by exact Gauss-Jordan elimination over the rationals.

    A may have more rows than columns; the extra equations are not checked.
    Returns None when the columns of A are not independent.
    """
    rows = [[Fraction(x) for x in a] + [Fraction(x) for x in b] for a, b in zip(A, B)]
    cols = len(A[0]) if A else 0
    for col in range(cols):
        piv = next((k for k in range(col, len(rows)) if rows[k][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [c * inv for c in rows[col]]
        for k in range(len(rows)):
            f = rows[k][col]
            if k != col and f != 0:
                rows[k] = [c - f * d for c, d in zip(rows[k], rows[col])]
    return [row[cols:] for row in rows[:cols]]


def _mat_inv_frac(M):
    n = len(M)
    inv = _solve_frac(M, [[int(i == j) for j in range(n)] for i in range(n)])
    if inv is None:
        raise VerificationFailed("matrix is singular")
    return inv


def verify_conjugacy(D, L, Tp) -> bool:
    """True iff D.L = L.Tp exactly in rational arithmetic (L invertible)."""
    D, L, Tp = _frac_matrix(D), _frac_matrix(L), _frac_matrix(Tp)
    if not (len(D) == len(L) == len(Tp)):
        raise VerificationFailed("dimension mismatch")
    _mat_inv_frac(L)  # singular L is an error, not a False verdict
    return mat_mul(D, L) == mat_mul(L, Tp)


def solve_completion(D, L, main_count: int):
    """Recover the completion rows of the pinched transition matrix from D.

    Computes L^-1 D L exactly, checks the regular block form (zero upper
    right, permutation lower right), and returns (Tp, completion block A).
    """
    Df, Lf = _frac_matrix(D), _frac_matrix(L)
    M = mat_mul(mat_mul(_mat_inv_frac(Lf), Df), Lf)
    n = len(M)
    for row in M:
        for x in row:
            if x.denominator != 1:
                raise VerificationFailed("conjugated matrix is not integral")
    Mi = [[int(x) for x in row] for row in M]
    TransitionMatrix(tuple(tuple(r) for r in Mi), main_count).validate()
    A = [row[:main_count] for row in Mi[main_count:]]
    return Mi, A
