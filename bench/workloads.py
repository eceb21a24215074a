"""Seeded op corpora for the four benchmark workloads.

Each workload is a fixed sequence of strata (strand count, word length, op
kind, polygon budget, ...) that is the same for every seed; the seed only
picks the letters, conjugators, measures and polygons inside each stratum.
That keeps the cost mix of every prefix of the corpus nearly independent of
the seed, so runs with different seeds measure the same kind of work.

An ``Op`` carries the argv handed to ``dynbraid.cli.main``, the exit code a
correct run gives, and what its oracle in ``oracles.py`` needs to know.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = json.loads((FIXTURES / "golden.json").read_text())

# golden-ratio step: corpus prefixes (the traced runs replay one) then mix
# short and long words
_PHI = 0.6180339887498949


@dataclass
class Op:
    kind: str  # oracle kind, see oracles.CHECKS
    argv: list
    expect_rc: int = 0
    info: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        """One-line description: the CLI command and its braid word or input."""
        if "word" in self.info:
            return f"{self.argv[2]} -n {self.info['n']} -w '{self.info['word']}'"
        return " ".join(Path(a).name for a in self.argv[2:] if not a.startswith(("-", "{")))


def _spread_order(count: int) -> list:
    """A permutation of range(count) whose prefixes sample the range evenly."""
    return sorted(range(count), key=lambda i: (i * _PHI) % 1.0)


def _json_argv(*args) -> list:
    return ["--format", "json", *args]


def _word_op(kind, cmd, n, word, expect_rc=0, **info) -> Op:
    return Op(kind, _json_argv(cmd, "-n", str(n), "-w", word), expect_rc,
              {"n": n, "word": word, **info})


# ---------------------------------------------------------------------------
# pa_words


def penner_word(rng: random.Random, n: int, length: int) -> str:
    """A Penner word: odd generators positive, even ones negative, all present.

    Every generator appears at least once, so the word is pseudo-Anosov by
    Penner's construction.
    """
    gens = list(range(1, n))
    letters = gens + [rng.choice(gens) for _ in range(max(length, n - 1) - len(gens))]
    rng.shuffle(letters)
    return " ".join(str(g if g % 2 else -g) for g in letters)


# word lengths of the Penner strata; 0 means n - 1
PENNER_LENGTHS = (0, 4, 5, 6, 7, 8, 10, 12, 14, 16, 19, 22, 26, 30, 35, 41, 48, 56, 65, 75, 87, 100)
PENNER_STRANDS = (4, 5, 6)


def _acceptance_ops() -> list:
    g = GOLDEN["words"]
    fx = FIXTURES
    ops = [
        Op("compare", _json_argv("compare", "-n", "4", "-w", g["b4"][1], "--transition",
                                 str(fx / "tm_b4_word.json"), "--mode", "exact"),
           0, {"n": 4, "word": g["b4"][1], "golden": "b4", "transition": "tm_b4_word.json",
               "mode": "exact"}),
        _word_op("matrix", "matrix", 4, g["s3"][1], golden="s3"),
        Op("compare", _json_argv("compare", "-n", "4", "-w", g["gamma"][1], "--transition",
                                 str(fx / "tm_gamma_T.json"), "--mode", "eigenvalues_one"),
           0, {"n": 4, "word": g["gamma"][1], "golden": "gamma", "transition": "tm_gamma_T.json",
               "mode": "eigenvalues_one"}),
        # raises an untyped mpmath NoConvergence at the seed commit
        _word_op("dilatation", "dilatation", 6, "-2 5 3 -4 5 1"),
        _word_op("matrix", "matrix", 4, g["gamma"][1], golden="gamma"),
        _word_op("dilatation", "dilatation", 3, g["n3"][1], golden="n3"),
        _word_op("matrix", "matrix", 5, g["n5"][1], golden="n5"),
        _word_op("dilatation", "dilatation", 4, g["b4"][1], golden="b4"),
        _word_op("matrix", "matrix", 3, g["n3"][1], golden="n3"),
        _word_op("dilatation", "dilatation", 4, g["gamma"][1], golden="gamma"),
        _word_op("dilatation", "dilatation", 4, g["s3"][1], golden="s3"),
        _word_op("matrix", "matrix", 4, g["b4"][1], golden="b4"),
        _word_op("dilatation", "dilatation", 5, g["n5"][1]),
    ]
    return ops


def pa_words(seed: int, workdir: Path) -> list:
    rng = random.Random(f"pa_words/{seed}")
    order = _spread_order(len(PENNER_LENGTHS))
    accept = _acceptance_ops()
    ops = []
    for j in range(len(PENNER_LENGTHS)):
        for a, n in enumerate(PENNER_STRANDS):
            length = PENNER_LENGTHS[order[(j + 5 * a) % len(order)]] or n - 1
            cmd = "matrix" if (j + a) % 2 == 0 else "dilatation"
            ops.append(_word_op(cmd, cmd, n, penner_word(rng, n, length)))
        if j < len(accept):
            ops.append(accept[j])
    ops.extend(accept[len(PENNER_LENGTHS):])
    return ops


# ---------------------------------------------------------------------------
# non_pa_words


def _conjugate(rng: random.Random, n: int, core: list, length: int) -> list:
    g = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]
    return g + core + [-x for x in reversed(g)]


def _delta(n: int) -> list:
    return list(range(1, n))


def _periodic_delta(rng, n, k, conj):
    return _conjugate(rng, n, _delta(n) * k, conj)


def _periodic_epsilon(rng, n, k, conj):
    return _conjugate(rng, n, (_delta(n) + [1]) * k, conj)


def _zero_entropy(rng, n, total, conj):
    """Powers of two commuting generators, conjugated: a multitwist."""
    i = rng.randint(1, n - 3)
    j = rng.randint(i + 2, n - 1)
    a = rng.randint(1, total - 1)
    core = [i * rng.choice((1, -1))] * a + [j * rng.choice((1, -1))] * (total - a)
    return _conjugate(rng, n, core, conj)


# (generator, strands, size parameter, conjugator length); the seed picks
# the conjugator, the commuting pair and the exponents
NON_PA_STRATA = (
    (_periodic_delta, 4, 1, 1),
    (_zero_entropy, 5, 4, 1),
    (_periodic_epsilon, 4, 2, 1),
    (_periodic_delta, 5, 2, 1),
    (_zero_entropy, 4, 3, 2),
    (_periodic_epsilon, 5, 1, 1),
)


def non_pa_words(seed: int, workdir: Path) -> list:
    rng = random.Random(f"non_pa_words/{seed}")
    ops = [
        _word_op("non_pa", "dilatation", n, " ".join(map(str, make(rng, n, size, conj))), 3)
        for make, n, size, conj in NON_PA_STRATA
    ]
    # the ROADMAP baseline ops, same for every seed
    fixed = [
        _word_op("non_pa", "dilatation", 4, "1 1 1", 3),
        _word_op("non_pa", "matrix", 5, "1 2 3 4", 3),
    ]
    # eight ops in all, so the median latency is the mean of two of them
    return [fixed[0]] + ops[:3] + [fixed[1]] + ops[3:]


# ---------------------------------------------------------------------------
# circle3

CIRCLE_LENGTHS = tuple(range(2, 31))


def circle3(seed: int, workdir: Path) -> list:
    rng = random.Random(f"circle3/{seed}")
    ops = [Op("circle", _json_argv("regions3", "-w", GOLDEN["words"]["n3"][1]), 0,
              {"n": 3, "word": GOLDEN["words"]["n3"][1], "golden": "n3"})]
    for i in _spread_order(len(CIRCLE_LENGTHS)):
        word = " ".join(str(rng.choice((1, -1, 2, -2))) for _ in range(CIRCLE_LENGTHS[i]))
        ops.append(Op("circle", _json_argv("regions3", "-w", word), 0, {"n": 3, "word": word}))
    return ops


# ---------------------------------------------------------------------------
# tracks


def catalan(t: int) -> int:
    return comb(2 * t, t) // (t + 1)


def extension_count(polygons) -> int:
    """Complete diagonal extensions of a polygon multiset (Catalan products)."""
    return prod(t * catalan(t - 1) if punct else catalan(t - 2) for t, punct in polygons)


def cycle_track(polygons, n: int = 4) -> dict:
    """Disjoint branch cycles, one per polygon, each bounding that polygon."""
    doc = {"n": n, "switches": [], "branches": [], "polygons": []}
    for p, (t, punct) in enumerate(polygons):
        e = [f"p{p}e{k}" for k in range(t)]
        for k in range(t):
            doc["switches"].append({"id": f"p{p}s{k}", "sideA": [e[k]], "sideB": [e[(k + 1) % t]]})
            doc["branches"].append({
                "id": e[k], "kind": "main",
                "from": {"switch": f"p{p}s{k}", "side": "A", "pos": 0},
                "to": {"switch": f"p{p}s{(k - 1) % t}", "side": "B", "pos": 0},
            })
        doc["polygons"].append({"punctured": punct, "vertices": t, "edges": e})
    return doc


def _polygon_multiset(rng, lo, hi, max_vertices=10):
    while True:
        polys = [
            (rng.randint(3, 8), False) if rng.random() < 0.5 else (rng.randint(2, 6), True)
            for _ in range(rng.randint(1, 3))
        ]
        if sum(t for t, _ in polys) <= max_vertices and lo <= extension_count(polys) <= hi:
            return polys


# extension count ranges of the `track extend` strata
EXTEND_COUNTS = ((40, 90), (150, 300), (90, 150), (300, 500)) * 40
PF_SEEDED, PINCH_TRACKS, PINCH_OPS, COORDS_OPS, CONJUGACY_REPEATS = 158, 20, 1800, 1800, 27


def _write(workdir: Path, name: str, doc) -> str:
    path = workdir / name
    path.write_text(json.dumps(doc))
    return str(path)


def _triangleish(rng):
    x, y, z = (rng.randint(1, 40) for _ in range(3))
    return y + z, x + z, x + y, rng.randint(1, 60)


def _b4_measure(a, b, c, d) -> dict:
    """Switch-balanced measure on the complete 4-strand example track."""
    h = lambda v: Fraction(v, 2)
    w = {"a": a, "b": b, "c": c, "d": d, "m1": h(a), "m2": h(b), "m3": h(c + d),
         "m4": h(d), "m5": h(a + b - c), "m6": h(b + c - a), "m7": h(a + c - b)}
    return {k: str(Fraction(v)) for k, v in w.items()}


def tracks(seed: int, workdir: Path) -> list:
    rng = random.Random(f"tracks/{seed}")
    extend, pf, pinch, coords = [], [], [], []
    for k, (lo, hi) in enumerate(EXTEND_COUNTS):
        polys = _polygon_multiset(rng, lo, hi)
        path = _write(workdir, f"extend{k}.json", cycle_track(polys))
        extend.append(Op("extend", _json_argv("track", "extend", path), 0,
                         {"polygons": polys, "count": extension_count(polys)}))
    for name in ("tm_gamma_T.json", "tm_b4_word.json"):
        doc = json.loads((FIXTURES / name).read_text())
        pf.append(Op("pf", _json_argv("track", "pf", str(FIXTURES / name)), 0,
                     {"matrix": doc["matrix"][: doc.get("m", len(doc["matrix"]))]}))
    for k in range(PF_SEEDED):
        m = 3 + k % 3
        matrix = [[rng.randint(1, 9) for _ in range(m)] for _ in range(m)]
        path = _write(workdir, f"pf{k}.json", {"m": m, "matrix": matrix})
        pf.append(Op("pf", _json_argv("track", "pf", path), 0, {"matrix": matrix}))
    shapes = [(rng.randint(4, 8), False) if k % 2 == 0 else (rng.randint(2, 6), True)
              for k in range(PINCH_TRACKS)]
    paths = [_write(workdir, f"pinch{k}.json", cycle_track([shape])) for k, shape in enumerate(shapes)]
    pinch.append(Op("pinch", _json_argv("track", "pinch", str(FIXTURES / "track_gamma_base.json"), "p"),
                    0, {"rank": 3, "branches": 9, "switches": 6, "n": 4}))
    for k in range(PINCH_OPS - 1):
        (t, _), path = shapes[k % PINCH_TRACKS], paths[k % PINCH_TRACKS]
        pinch.append(Op("pinch", _json_argv("track", "pinch", path, f"p0e{rng.randrange(t)}"), 0,
                        {"rank": 0, "branches": t, "switches": t, "n": 4}))
    for _ in range(COORDS_OPS):
        a, b, c, d = _triangleish(rng)
        coords.append(Op("coords", _json_argv("track", "coords", str(FIXTURES / "track_b4_complete.json"),
                                              "--measure", json.dumps(_b4_measure(a, b, c, d))),
                         0, {"abcd": (a, b, c, d)}))
    conj = []
    for d, l, t in (("mat_gamma_D", "mat_gamma_L1", "tm_gamma_Tp"),
                    ("mat_gamma_D", "mat_gamma_L2", "tm_gamma_Tp"),
                    ("mat_b4_D", "mat_gamma_L1", "tm_gamma_Tp")):
        files = [str(FIXTURES / f"{x}.json") for x in (d, l, t)]
        # gamma's D is conjugate to its pinched transition matrix; B4's is not
        conj.append(Op("conjugacy", _json_argv("track", "conjugacy", *files),
                       0 if d == "mat_gamma_D" else 4, {"files": files}))
    # each kind spread evenly over the corpus
    kinds = (pf, pinch, coords, conj * CONJUGACY_REPEATS)
    small = [op for _, _, op in sorted(
        (k / len(kind), j, op) for j, kind in enumerate(kinds) for k, op in enumerate(kind))]
    ops = []
    for k, op in enumerate(extend):
        ops.append(op)
        ops.extend(small[k * len(small) // len(extend): (k + 1) * len(small) // len(extend)])
    return ops


WORKLOADS = {
    "pa_words": pa_words,
    "non_pa_words": non_pa_words,
    "circle3": circle3,
    "tracks": tracks,
}

# ops from the start of each corpus that one traced run replays, untraced and
# traced; a fixed count keeps the traced counts identical between runs
TRACE_OPS = {"pa_words": 16, "non_pa_words": 2, "circle3": 10, "tracks": 300}
