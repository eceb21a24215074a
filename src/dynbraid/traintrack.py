"""Combinatorial measured train tracks on the punctured disk.

A track is a branched 1-complex given purely combinatorially: switches carry
two ordered lists of half-branch ends (one per side of the tangent line),
branches join two such ends, and the complementary regions are recorded as
punctured p-gons or unpunctured k-gons.  The planar embedding enters only
through the ordering of the half-branch lists and through user-supplied arc
annotations; no drawing is ever interpreted.  Switch and branch ids are
unique; a track that repeats one is rejected when it is validated.

The moves that edit a track (both pinches and the diagonal extensions) are
built from one surgery primitive: it mints every new id by one rule (base,
base2, base3, ..., never an id already in the track or the surgery), writes
every switch slot in one place, validates the result and returns it with its
measure map.

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
from dataclasses import dataclass
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from math import comb, prod

from .coords import DynnikovVector, json_int, load_json
from .errors import (
    NoDominantRealRoot,
    NotIrreducible,
    TieAtBasepoint,
    TrackFormatError,
    VerificationFailed,
)
from .spectral import dilatation, eigenvector, mat_mul
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
        _unique_ids("switch", self.switches)
        branch_ids = _unique_ids("branch", self.branches)
        for p in self.polygons:
            if p.punctured:
                if p.vertices < 1:
                    raise TrackFormatError("punctured polygon needs >= 1 vertex")
            elif p.vertices < 3:
                raise TrackFormatError("unpunctured polygon needs >= 3 vertices")
            for e in p.edges or ():
                if not isinstance(e, str) or e not in branch_ids:
                    raise TrackFormatError(f"polygon edge {e!r} is not a branch")
            if p.edges is not None and not len(set(p.edges)) == len(p.edges) == p.vertices:
                raise TrackFormatError(f"a polygon with {p.vertices} vertices needs as many "
                                       f"edges, none repeated, got {list(p.edges)}")
        return self


def _unique_ids(what: str, items) -> set:
    ids = set()
    for x in items:
        if x.id in ids:
            raise TrackFormatError(f"duplicate {what} id {x.id!r}")
        ids.add(x.id)
    return ids


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
    return End(str(doc["switch"]), str(doc["side"]), json_int(doc["pos"], "pos"))


def load_track(text: str) -> TrainTrack:
    """Parse and validate the train-track JSON document."""
    doc = load_json(text, TrackFormatError, "track document")
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
                json_int(p["vertices"], "vertices"),
                tuple(p["edges"]) if "edges" in p else None,
            )
            for p in doc["polygons"]
        )
        track = TrainTrack(
            json_int(doc["n"], "n"), switches, branches, polygons,
            doc.get("annotations"),
        )
    except (KeyError, TypeError) as exc:
        raise TrackFormatError(f"malformed track document: {exc}") from None
    _check_annotations(track)
    return track.validate()


def _check_annotations(track: TrainTrack) -> None:
    """Raise TrackFormatError unless the annotations map arc names to specs.

    A spec is an object: its "counts" map branch ids to ints, its "paths" are
    lists of branch tokens ("-" before an id reverses it), and its
    "derived_max_of" and "minus" name annotated arcs, none derived from itself
    (_arc_order settles them).
    """
    ann = track.annotations
    if ann is not None and not isinstance(ann, dict):
        raise TrackFormatError("annotations must map arc names to specs")
    ids = {b.id for b in track.branches}
    for name, spec in (ann or {}).items():
        if not isinstance(spec, dict):
            raise TrackFormatError(f"annotation {name!r} is not an object")
        counts, paths = spec.get("counts", {}), spec.get("paths", [])
        if not isinstance(counts, dict) or any(
            b not in ids or type(k) is not int for b, k in counts.items()
        ):
            raise TrackFormatError(f"annotation {name!r}: counts must map branch ids to ints")
        if not isinstance(paths, list) or any(
            not isinstance(path, list)
            or any(not isinstance(t, str) or t.removeprefix("-") not in ids for t in path)
            for path in paths
        ):
            raise TrackFormatError(f"annotation {name!r}: paths must be lists of branch tokens")
        if "derived_max_of" in spec:
            parts = spec["derived_max_of"]
            arcs = [*parts, spec.get("minus")] if isinstance(parts, list) else []
            if len(arcs) != 3 or any(not isinstance(a, str) or a not in ann for a in arcs):
                raise TrackFormatError(f"annotation {name!r}: derived_max_of must name "
                                       "two annotated arcs and minus one")
    _arc_order(ann, [name for name, spec in (ann or {}).items() if "derived_max_of" in spec])


def _arc_order(ann: dict, names) -> list:
    """The annotated arcs that names need, each after the arcs it is derived from.

    TrackFormatError when one of them has no annotation or when derivations
    form a cycle.
    """
    graph, todo = {}, list(names)[::-1]
    while todo:
        name = todo.pop()
        if name not in ann:
            raise TrackFormatError(f"no annotation for arc {name!r}")
        spec = ann[name]
        graph[name] = (*spec["derived_max_of"], spec["minus"]) if "derived_max_of" in spec else ()
        todo += [a for a in graph[name] if a not in graph]
    try:
        return list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        cycle = sorted(set(exc.args[1]))
        raise TrackFormatError(f"annotations derive {cycle} from each other") from None


def load_transition_matrix(text: str) -> TransitionMatrix:
    doc = load_json(text, TrackFormatError, "transition matrix")
    try:
        matrix = tuple(tuple(json_int(x, "a matrix entry") for x in row) for row in doc["matrix"])
        m = json_int(doc.get("m", len(matrix)), "m")
        perm = None
        if "permutation" in doc:
            perm = tuple(json_int(x, "a permutation entry") for x in doc["permutation"])
    except (KeyError, TypeError) as exc:
        raise TrackFormatError(f"malformed transition matrix: {exc}") from None
    return TransitionMatrix(matrix, m, perm).validate()


# ---------------------------------------------------------------------------
# Perron-Frobenius data of a transition matrix


def transition_pf(T: TransitionMatrix):
    """PF eigenvalue, a ``spectral.Root``, and positive eigenvector of the main block.

    The eigenvector is adj(xI - M) 1 (spectral.eigenvector), read at the
    simple eigenvalue lam.  adj(lam I - M) is p'(lam) v w^T / w^T v with
    p'(lam) > 0 and w >= 0 as M >= 0, so that is a positive multiple of the
    eigenvector v.  NotIrreducible is raised when no simple dominant
    eigenvalue > 1 exists or Root.sign finds an entry that is not positive.
    """
    M = T.main_block()
    try:
        root = dilatation(M)
    except NoDominantRealRoot as exc:
        raise NotIrreducible(str(exc)) from None
    v = eigenvector(M, [1] * len(M))
    if {root.sign(p) for p in v} != {1}:
        raise NotIrreducible("PF eigenvector has a non-positive entry")
    return root, v


# ---------------------------------------------------------------------------
# surgery: the one primitive behind the pinching moves and the extensions


class _Surgery:
    """Edits of one track, keyed by id: new switches, new branches, moved ends.

    ``fresh`` mints every new id, and ``_put`` writes every switch slot.
    ``finish`` validates the edited track and returns it with its measure
    map, which keeps the old weights and gives each added branch the sum of
    its terms (coefficient, old branch id).
    """

    def __init__(self, track: TrainTrack):
        self.track = track
        self.sides = {s.id: {"A": list(s.sideA), "B": list(s.sideB)} for s in track.switches}
        self.branches = {b.id: b for b in track.branches}
        self.taken = set(self.sides) | set(self.branches)
        self.terms = {}

    def fresh(self, base: str) -> str:
        """The first of base, base2, base3, ... that is no id of the track or
        of this surgery."""
        name, k = base, 2
        while name in self.taken:
            name, k = f"{base}{k}", k + 1
        self.taken.add(name)
        return name

    def add_switch(self, base: str, a: int, b: int) -> str:
        """A new switch with a and b empty slots on its sides A and B."""
        sid = self.fresh(base)
        self.sides[sid] = {"A": [None] * a, "B": [None] * b}
        return sid

    def _put(self, end: End, bid: str) -> None:
        self.sides[end.switch][end.side][end.pos] = bid

    def move_end(self, bid: str, i: int, end: End) -> End:
        """Move end i of branch bid to the slot end; returns the slot it frees."""
        b = self.branches[bid]
        ends = list(b.ends)
        freed, ends[i] = ends[i], end
        self._put(end, bid)
        self.branches[bid] = Branch(bid, b.kind, tuple(ends))
        return freed

    def add_branch(self, bid: str, kind: str, ends: tuple, terms: list) -> None:
        for end in ends:
            self._put(end, bid)
        self.branches[bid] = Branch(bid, kind, ends)
        self.terms[bid] = terms

    def finish(self, polygons):
        old = self.track
        track = TrainTrack(
            old.strands,
            tuple(Switch(sid, tuple(s["A"]), tuple(s["B"])) for sid, s in self.sides.items()),
            tuple(self.branches.values()),
            tuple(polygons),
            old.annotations,
        ).validate()
        terms = self.terms

        def psi(mu: Measure) -> Measure:
            out = dict(mu.weights)
            for bid, ts in terms.items():
                out[bid] = sum(c * mu[src] for c, src in ts)
            return Measure(out)

        return track, psi


# ---------------------------------------------------------------------------
# pinching moves


def _pinch_start(track: TrainTrack, edge: str, punctured: bool, least: int):
    """The polygon pinched at edge, and a surgery holding the two new switches
    and the id of the infinitesimal branch that will join their sides A."""
    for poly in track.polygons:
        if poly.punctured == punctured and poly.vertices >= least and poly.edges:
            if edge in poly.edges:
                break
    else:
        kind = "a punctured" if punctured else "an unpunctured"
        raise TrackFormatError(
            f"edge {edge!r} does not lie on {kind} >={least}-gon with known edges"
        )
    sg = _Surgery(track)
    s1 = sg.add_switch(f"pin_{edge}_a", 1, 2)
    s2 = sg.add_switch(f"pin_{edge}_b", 1, 2)
    return poly, sg, s1, s2, sg.fresh(f"eps_{edge}")


def pinch_unpunctured(track: TrainTrack, edge: str):
    """Pinch across an edge of an unpunctured t-gon (t >= 4).

    Splits the two neighboring sides, joining the split-off stubs to the
    pinched edge through two new switches; returns the new track and the
    measure map.
    """
    poly, sg, s1, s2, eps = _pinch_start(track, edge, False, 4)
    t = poly.vertices
    i = poly.edges.index(edge)
    prev_e = poly.edges[(i - 1) % t]
    next_e = poly.edges[(i + 1) % t]
    prev_new = sg.fresh(f"{prev_e}'")
    next_new = sg.fresh(f"{next_e}'")
    # move one end of each neighbor to a new switch; the split-off stub takes
    # its old place
    old_prev = sg.move_end(prev_e, 1, End(s1, "B", 0))
    old_next = sg.move_end(next_e, 1, End(s2, "B", 1))
    kind = sg.branches[prev_e].kind
    sg.add_branch(prev_new, kind, (End(s2, "B", 0), old_prev), [(1, prev_e)])
    kind = sg.branches[next_e].kind
    sg.add_branch(next_new, kind, (End(s1, "B", 1), old_next), [(1, next_e)])
    eps_ends = (End(s1, "A", 0), End(s2, "A", 0))
    sg.add_branch(eps, "infinitesimal", eps_ends, [(1, prev_e), (1, next_e)])
    rest = tuple(poly.edges[(i + 2 + k) % t] for k in range(t - 3))
    return sg.finish(
        [p for p in track.polygons if p is not poly]
        + [
            Polygon(False, 3, (prev_e, edge, next_e)),
            Polygon(False, t - 1, (next_new,) + rest + (prev_new,)),
        ]
    )


def pinch_punctured(track: TrainTrack, edge: str):
    """Pinch an edge of a punctured t-gon (t >= 2) into the puncture.

    Produces an unpunctured (t+1)-gon and a punctured monogon; the pinched
    edge's two old slots are taken over by split-off stubs and the new edge
    of weight 2w hugs the puncture.
    """
    poly, sg, s1, s2, eps = _pinch_start(track, edge, True, 2)
    t = poly.vertices
    i = poly.edges.index(edge)
    e1 = sg.fresh(f"{edge}'")
    e2 = sg.fresh(f"{edge}''")
    old_from = sg.move_end(edge, 0, End(s1, "B", 0))
    old_to = sg.move_end(edge, 1, End(s2, "B", 1))
    kind = sg.branches[edge].kind
    sg.add_branch(e1, kind, (old_from, End(s2, "B", 0)), [(1, edge)])
    sg.add_branch(e2, kind, (End(s1, "B", 1), old_to), [(1, edge)])
    sg.add_branch(eps, "infinitesimal", (End(s1, "A", 0), End(s2, "A", 0)), [(2, edge)])
    rest = tuple(poly.edges[(i + 1 + k) % t] for k in range(t - 1))
    return sg.finish(
        [p for p in track.polygons if p is not poly]
        + [Polygon(True, 1, (edge,)), Polygon(False, t + 1, (e2,) + rest + (e1,))]
    )


# ---------------------------------------------------------------------------
# diagonal extensions


def catalan(t: int) -> int:
    if t == 0:
        return 1
    return comb(2 * t, t) - comb(2 * t, t - 1)


def _extensions_of(p: Polygon) -> int:
    """Number of complete diagonal extensions of one complementary polygon."""
    if p.punctured:
        return p.vertices * catalan(p.vertices - 1)
    return catalan(p.vertices - 2)


def diagonal_extensions_count(track: TrainTrack) -> int:
    """Product of Catalan factors over the complementary polygons."""
    return prod(_extensions_of(p) for p in track.polygons)


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


def _plan(p: Polygon) -> list:
    """The ways to extend polygon p, each as (the side under each vertex
    label, the branches to add as (id base, label, label), the new polygons);
    [None] when p is already complete."""
    if _extensions_of(p) == 1:
        return [None]
    if p.edges is None:
        raise TrackFormatError("polygon needs an edge list to enumerate its extensions")
    t = p.vertices
    if not p.punctured:
        triangles = [Polygon(False, 3)] * (t - 2)
        return [
            (p.edges, [("diag", u, v) for u, v in diags], triangles)
            for diags in _triangulations(list(range(t)))
        ]
    # a loop around the puncture at vertex i opens p into a (t+1)-gon whose
    # labels 0..t sit at vertices i, i+1, ..., i+t (mod t); the loop joins
    # labels 0 and t
    pieces = [Polygon(True, 1)] + [Polygon(False, 3)] * (t - 1)
    tris = _triangulations(list(range(t + 1)))
    return [
        (
            [p.edges[(i + k) % t] for k in range(t + 1)],
            [("loop", 0, t)] + [("diag", u, v) for u, v in diags],
            pieces,
        )
        for i in range(t)
        for diags in tris
    ]


def enumerate_diagonal_extensions(track: TrainTrack) -> list:
    """All complete diagonal extensions, with zero weight on added branches.

    Unpunctured t-gons are triangulated in every non-crossing way; punctured
    t-gons first gain a branch encircling the puncture at one of the t
    vertices, then the resulting (t+1)-gon is triangulated.  Returns a list
    of (TrainTrack, measure map).
    """
    plans = [_plan(p) for p in track.polygons]
    results = []
    for combo in itertools.product(*plans):
        sg = _Surgery(track)
        polygons = [p for p, choice in zip(track.polygons, combo) if choice is None]
        for choice in combo:
            if choice is None:
                continue
            sides, added, pieces = choice
            for base, u, v in added:
                bid = sg.fresh(base)
                ends = []
                for side in (sides[u], sides[v]):
                    # a new switch splits the side: the side's stub to its
                    # old end keeps its weight, and bid hangs there at zero
                    sw = sg.add_switch(f"sp_{side}", 1, 2)
                    stub = sg.fresh(f"{side}x")
                    old_end = sg.move_end(side, 1, End(sw, "A", 0))
                    kind = sg.branches[side].kind
                    sg.add_branch(stub, kind, (End(sw, "B", 0), old_end), [(1, side)])
                    ends.append(End(sw, "B", 1))
                sg.add_branch(bid, "infinitesimal", tuple(ends), [])
            polygons += pieces
        results.append(sg.finish(polygons))
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
    return TrainPath(tuple((t[1:], -1) if t.startswith("-") else (t, 1) for t in tokens))


def _arc_measure_generic(track, spec, mu, mn, mx, zero):
    """Measure of an arc given by counts and paths: sum of n_i mu(e_i) minus
    twice each minimal path measure."""
    total = zero
    for bid, count in spec.get("counts", {}).items():
        total = total + count * mu[bid]
    for tokens in spec.get("paths", ()):
        phat = _path_measure_generic(track, _parse_path_tokens(tokens), mu, mn, mx, zero)
        total = total - 2 * phat
    return total


def _change_of_coords_generic(track, mu, mn, mx, zero):
    """Measures of the Dynnikov arcs, each arc once and a derived one after
    its parts (_arc_order); then the halved differences."""
    ann = track.annotations or {}
    alphas, betas = _arc_names(track.strands)
    arc = {}
    for name in _arc_order(ann, alphas + betas):
        spec = ann[name]
        if "derived_max_of" in spec:
            left, right = spec["derived_max_of"]
            arc[name] = mx(arc[left], arc[right]) - arc[spec["minus"]]
        else:
            arc[name] = _arc_measure_generic(track, spec, mu, mn, mx, zero)
    alpha, beta = [arc[n] for n in alphas], [arc[n] for n in betas]
    half = Fraction(1, 2)
    a = tuple(half * (alpha[2 * i + 1] - alpha[2 * i]) for i in range(len(alpha) // 2))
    b = tuple(half * (beta[i] - beta[i + 1]) for i in range(len(beta) - 1))
    return a, b


def change_of_coords(track: TrainTrack, mu: Measure) -> DynnikovVector:
    """Measures of all Dynnikov arcs, then halved differences.

    mu must be a measure with exact weights: every weight nonnegative and
    every switch balanced; TrackFormatError otherwise.
    """
    for b in track.branches:
        if mu[b.id] < 0:
            raise TrackFormatError(f"measure gives branch {b.id!r} the negative weight {mu[b.id]}")
    for s in track.switches:
        if sum(mu[b] for b in s.sideA) != sum(mu[b] for b in s.sideB):
            raise TrackFormatError(f"measure violates the switch condition at {s.id!r}")

    a, b = _change_of_coords_generic(track, mu, min, max, 0)
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
        bid: Jet(mu0[bid], tuple(int(k == i) for k in range(dim)))
        for i, bid in enumerate(main)
    }
    jets.update(_solve_infinitesimals(track, jets, mu0, zero))
    rec = Recorder()
    a, b = _change_of_coords_generic(track, Measure(jets), rec.mn, rec.mx, zero)
    if any(rec.ties):
        raise TieAtBasepoint("basepoint lies on a linearity wall")
    return [list(j.row) for j in a + b]


# ---------------------------------------------------------------------------
# conjugacy verification and completion solving


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
    if not (len(D) == len(L) == len(Tp)):
        raise VerificationFailed("dimension mismatch")
    _mat_inv_frac(L)  # singular L is an error, not a False verdict
    return mat_mul(D, L) == mat_mul(L, Tp)


def solve_completion(D, L, main_count: int):
    """Recover the completion rows of the pinched transition matrix from D.

    Computes L^-1 D L exactly, checks the regular block form (zero upper
    right, permutation lower right), and returns (Tp, completion block A).
    """
    M = mat_mul(mat_mul(_mat_inv_frac(L), D), L)
    if any(x.denominator != 1 for row in M for x in row):
        raise VerificationFailed("conjugated matrix is not integral")
    Mi = [[int(x) for x in row] for row in M]
    TransitionMatrix(tuple(tuple(r) for r in Mi), main_count).validate()
    A = [row[:main_count] for row in Mi[main_count:]]
    return Mi, A
