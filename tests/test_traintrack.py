import json
import random
from fractions import Fraction

import mpmath
import pytest

from dynbraid.errors import (
    NotIrreducible,
    TieAtBasepoint,
    TrackFormatError,
    VerificationFailed,
)
from dynbraid.spectral import char_poly
from dynbraid.traintrack import (
    Measure,
    TrainPath,
    _arc_measure_generic,
    _arc_order,
    _path_measure_generic,
    catalan,
    change_of_coords,
    diagonal_extensions_count,
    enumerate_diagonal_extensions,
    linearize_change_of_coords,
    load_track,
    load_transition_matrix,
    pinch_punctured,
    pinch_unpunctured,
    solve_completion,
    transition_pf,
    verify_conjugacy,
)

from conftest import (
    derive_alpha_1,
    example_track_measure,
    fraction_matrix,
    int_matrix,
    load_fixture,
    pinched_track_measure,
    pf_vector,
    poly_mul,
    random_triangleish,
    root_value,
    switch_balanced,
)


def cycle_track_doc(t: int, punctured: bool, prefix: str = "e", n: int = 4):
    """A cycle of t branches whose inner complementary region is a t-gon."""
    switches = [
        {
            "id": f"{prefix}s{k}",
            "sideA": [f"{prefix}{k}"],
            "sideB": [f"{prefix}{(k + 1) % t}"],
        }
        for k in range(t)
    ]
    branches = [
        {
            "id": f"{prefix}{k}",
            "kind": "main",
            "from": {"switch": f"{prefix}s{k}", "side": "A", "pos": 0},
            "to": {"switch": f"{prefix}s{(k - 1) % t}", "side": "B", "pos": 0},
        }
        for k in range(t)
    ]
    polygons = [
        {
            "punctured": punctured,
            "vertices": t,
            "edges": [f"{prefix}{k}" for k in range(t)],
        }
    ]
    return {"n": n, "switches": switches, "branches": branches, "polygons": polygons}


def monogon_doc(branch: str, switch: str) -> dict:
    """A loop branch at one switch, bounding a punctured monogon."""
    return {
        "n": 3,
        "switches": [{"id": switch, "sideA": [branch], "sideB": [branch]}],
        "branches": [
            {
                "id": branch,
                "kind": "main",
                "from": {"switch": switch, "side": "A", "pos": 0},
                "to": {"switch": switch, "side": "B", "pos": 0},
            }
        ],
        "polygons": [{"punctured": True, "vertices": 1, "edges": [branch]}],
    }


def merge_docs(d1, d2):
    return {
        "n": d1["n"],
        "switches": d1["switches"] + d2["switches"],
        "branches": d1["branches"] + d2["branches"],
        "polygons": d1["polygons"] + d2["polygons"],
    }


def uniform_measure(track, w=Fraction(3)):
    return Measure({b.id: w for b in track.branches})


# ---------------------------------------------------------------------------
# loading and validation


def test_load_complete_example_track():
    track = load_track(load_fixture("track_b4_complete.json"))
    assert track.strands == 4
    assert track.rank == 4
    assert track.is_complete
    assert track.main_branches() == ["a", "b", "c", "d"]


def test_load_base_track_incomplete():
    track = load_track(load_fixture("track_gamma_base.json"))
    assert track.rank == 3
    assert not track.is_complete


def test_load_rejects_dangling_slot():
    doc = json.loads(load_fixture("track_gamma_base.json"))
    doc["branches"] = doc["branches"][:-1]  # drop branch q, leaving its slots
    with pytest.raises(TrackFormatError):
        load_track(json.dumps(doc))


def test_load_rejects_bad_kind():
    doc = cycle_track_doc(4, False)
    doc["branches"][0]["kind"] = "weird"
    with pytest.raises(TrackFormatError):
        load_track(json.dumps(doc))


def test_load_rejects_small_unpunctured_polygon():
    doc = cycle_track_doc(4, False)
    doc["polygons"][0] = {"punctured": False, "vertices": 2}
    with pytest.raises(TrackFormatError):
        load_track(json.dumps(doc))


def test_load_rejects_missing_keys():
    with pytest.raises(TrackFormatError):
        load_track('{"n": 4, "switches": []}')


def test_load_rejects_duplicate_branch_ids():
    doc = merge_docs(monogon_doc("x", "s"), monogon_doc("x", "t"))
    with pytest.raises(TrackFormatError, match="duplicate branch id 'x'"):
        load_track(json.dumps(doc))


def test_load_rejects_duplicate_switch_ids():
    doc = monogon_doc("x", "s")
    doc["switches"] *= 2  # both copies list the same slots, so every slot checks out
    with pytest.raises(TrackFormatError, match="duplicate switch id 's'"):
        load_track(json.dumps(doc))


def test_load_rejects_polygon_edge_that_is_no_branch():
    doc = cycle_track_doc(5, False)
    doc["polygons"][0]["edges"][0] = "ghost"
    with pytest.raises(TrackFormatError, match="'ghost' is not a branch"):
        load_track(json.dumps(doc))


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(n=True),
        lambda doc: doc["polygons"][0].update(vertices=2.5),
        lambda doc: doc["branches"][0]["from"].update(pos=True),
    ],
)
def test_load_rejects_true_and_fractions_in_integer_fields(edit):
    doc = json.loads(load_fixture("track_gamma_base.json"))
    edit(doc)
    with pytest.raises(TrackFormatError, match="must be an integer"):
        load_track(json.dumps(doc))


@pytest.mark.parametrize(
    "text", ['{"m": true, "matrix": [[2]]}', '{"matrix": [[true]]}', '{"matrix": [[2.5]]}',
             '{"m": 1, "matrix": [[2, 0], [1, 1]], "permutation": [true]}']
)
def test_transition_matrix_rejects_non_integers(text):
    with pytest.raises(TrackFormatError, match="must be an integer"):
        load_transition_matrix(text)


def test_load_rejects_non_integer_fields():
    doc = cycle_track_doc(4, False)
    doc["polygons"][0]["vertices"] = "x"
    with pytest.raises(TrackFormatError, match="malformed track document"):
        load_track(json.dumps(doc))
    doc = cycle_track_doc(4, False)
    doc["branches"][0]["from"]["pos"] = "first"
    with pytest.raises(TrackFormatError):
        load_track(json.dumps(doc))


def test_unknown_branch_and_switch_lookup():
    track = load_track(load_fixture("track_gamma_base.json"))
    with pytest.raises(TrackFormatError):
        track.branch("nope")


def test_load_transition_matrix_block_form():
    T = load_transition_matrix(load_fixture("tm_gamma_Tp.json"))
    assert T.size == 4 and T.main_count == 3
    assert T.main_block() == [[5, 8, 4], [12, 21, 8], [12, 20, 9]]


def test_transition_matrix_rejects_bad_blocks():
    with pytest.raises(TrackFormatError):
        load_transition_matrix('{"m": 1, "matrix": [[1, 1], [0, 1]]}')
    with pytest.raises(TrackFormatError):
        load_transition_matrix('{"m": 1, "matrix": [[1, 0], [0, 2]]}')
    with pytest.raises(TrackFormatError):
        load_transition_matrix('{"matrix": [[1, -1], [0, 1]]}')
    with pytest.raises(TrackFormatError):
        load_transition_matrix('{"matrix": [[1, 0, 0], [0, 1, 0]]}')
    with pytest.raises(TrackFormatError):
        load_transition_matrix(
            '{"m": 1, "permutation": [1], "matrix": [[1, 0], [0, 1]]}'
        )


# ---------------------------------------------------------------------------
# switch conditions and measures


def test_switch_conditions_on_parametrized_measures():
    track = load_track(load_fixture("track_b4_complete.json"))
    rng = random.Random(89)
    for _ in range(30):
        mu = example_track_measure(*random_triangleish(rng))
        assert switch_balanced(track, mu)
        # breaking one weight breaks some switch
        bad = dict(mu.weights)
        bad["m5"] += 1
        assert not switch_balanced(track, Measure(bad))


def test_measure_missing_branch():
    with pytest.raises(TrackFormatError):
        Measure({})["a"]


# ---------------------------------------------------------------------------
# Perron-Frobenius data


def test_transition_pf_b4():
    T = load_transition_matrix(load_fixture("tm_b4_word.json"))
    root, v = transition_pf(T)
    lam, v = root_value(root), pf_vector(root, v)
    assert abs(float(lam) - 4.61158178930871) < 1e-10
    printed = (0.50135, 0.59215, 0.41871, 0.47190)
    for x, y in zip(v, printed):
        assert abs(float(x) - y) < 5e-5


def test_transition_pf_gamma():
    T = load_transition_matrix(load_fixture("tm_gamma_T.json"))
    root, v = transition_pf(T)
    lam, v = root_value(root), pf_vector(root, v)
    with mpmath.workdps(40):
        assert abs(lam - (17 + 12 * mpmath.sqrt(2))) < mpmath.mpf("1e-9")
        ratio = 1 + mpmath.sqrt(2)
        assert abs(v[1] / v[0] - ratio) < 1e-12
        assert abs(v[2] / v[0] - ratio) < 1e-12


def test_transition_pf_rejects_identity():
    T = load_transition_matrix('{"matrix": [[1, 0], [0, 1]]}')
    with pytest.raises(NotIrreducible):
        transition_pf(T)


# ---------------------------------------------------------------------------
# pinching moves


def test_pinch_unpunctured_square():
    track = load_track(json.dumps(cycle_track_doc(4, False)))
    new, psi = pinch_unpunctured(track, "e1")
    assert new.rank == track.rank + 1
    kinds = sorted((p.punctured, p.vertices) for p in new.polygons)
    assert kinds == [(False, 3), (False, 3)]
    mu = psi(uniform_measure(track))
    assert switch_balanced(new, mu)
    assert all(x >= 0 for x in mu.weights.values())


def test_pinch_unpunctured_pentagon_random_measures():
    track = load_track(json.dumps(cycle_track_doc(5, False)))
    rng = random.Random(97)
    for edge in ("e0", "e2", "e4"):
        new, psi = pinch_unpunctured(track, edge)
        assert new.rank == track.rank + 1
        for _ in range(20):
            mu0 = Measure(
                {b.id: Fraction(rng.randint(1, 30)) for b in track.branches}
            )
            # cycle switches force all weights equal; use a balanced one
            w = Fraction(rng.randint(1, 30))
            mu0 = uniform_measure(track, w)
            mu = psi(mu0)
            assert switch_balanced(new, mu)
            assert all(x >= 0 for x in mu.weights.values())


def track_shape(track):
    """Ids, ends and order of a track's switches, branches and polygons."""
    return (
        [(s.id, s.sideA, s.sideB) for s in track.switches],
        [(b.id, b.kind, *(f"{e.switch}:{e.side}{e.pos}" for e in b.ends)) for b in track.branches],
        [(p.punctured, p.vertices, p.edges) for p in track.polygons],
    )


def test_pinch_unpunctured_golden_ids_and_ends():
    new, _ = pinch_unpunctured(load_track(json.dumps(cycle_track_doc(4, False))), "e1")
    assert track_shape(new) == (
        [
            ("es0", ("e0",), ("e1",)),
            ("es1", ("e1",), ("e2'",)),
            ("es2", ("e2",), ("e3",)),
            ("es3", ("e3",), ("e0'",)),
            ("pin_e1_a", ("eps_e1",), ("e0", "e2'")),
            ("pin_e1_b", ("eps_e1",), ("e0'", "e2")),
        ],
        [
            ("e0", "main", "es0:A0", "pin_e1_a:B0"),
            ("e1", "main", "es1:A0", "es0:B0"),
            ("e2", "main", "es2:A0", "pin_e1_b:B1"),
            ("e3", "main", "es3:A0", "es2:B0"),
            ("e0'", "main", "pin_e1_b:B0", "es3:B0"),
            ("e2'", "main", "pin_e1_a:B1", "es1:B0"),
            ("eps_e1", "infinitesimal", "pin_e1_a:A0", "pin_e1_b:A0"),
        ],
        [(False, 3, ("e0", "e1", "e2")), (False, 3, ("e2'", "e3", "e0'"))],
    )


def test_pinch_unpunctured_rejects_trigon_edge():
    track = load_track(json.dumps(cycle_track_doc(3, False)))
    with pytest.raises(TrackFormatError):
        pinch_unpunctured(track, "e0")


def test_pinch_punctured_bigon_completes_base_track():
    track = load_track(load_fixture("track_gamma_base.json"))
    new, psi = pinch_punctured(track, "p")
    assert new.rank == track.rank + 1
    assert new.is_complete
    mu0 = Measure(
        {
            "a": Fraction(4),
            "ma": Fraction(2),
            "ma2": Fraction(2),
            "b": Fraction(6),
            "mb": Fraction(3),
            "c": Fraction(6),
            "mc": Fraction(3),
            "p": Fraction(4),
            "q": Fraction(2),
        }
    )
    assert switch_balanced(track, mu0)
    mu = psi(mu0)
    assert switch_balanced(new, mu)
    # the new edge hugging the puncture carries twice the pinched weight
    eps = next(b.id for b in new.branches if b.id.startswith("eps"))
    assert mu.weights[eps] == 2 * mu0["p"]


def test_pinch_punctured_golden_ids_and_ends():
    new, _ = pinch_punctured(load_track(load_fixture("track_gamma_base.json")), "p")
    switches, branches, polygons = track_shape(new)
    assert switches[4:] == [
        ("s1", ("b",), ("p'", "q")),
        ("s2", ("c",), ("q", "p''")),
        ("pin_p_a", ("eps_p",), ("p", "p''")),
        ("pin_p_b", ("eps_p",), ("p'", "p")),
    ]
    assert [s[0] for s in switches[:4]] == ["s_ma", "s_ma2", "s_mb", "s_mc"]
    assert branches[7:] == [
        ("p", "infinitesimal", "pin_p_a:B0", "pin_p_b:B1"),
        ("q", "infinitesimal", "s1:B1", "s2:B0"),
        ("p'", "infinitesimal", "s1:B0", "pin_p_b:B0"),
        ("p''", "infinitesimal", "pin_p_a:B1", "s2:B1"),
        ("eps_p", "infinitesimal", "pin_p_a:A0", "pin_p_b:A0"),
    ]
    assert [b[0] for b in branches[:7]] == ["a", "b", "c", "ma", "ma2", "mb", "mc"]
    assert polygons[3:] == [
        (False, 3, None),
        (False, 3, None),
        (True, 1, ("p",)),
        (False, 3, ("p''", "q", "p'")),
    ]


def test_pinch_punctured_polygon_counts():
    track = load_track(json.dumps(cycle_track_doc(4, True)))
    new, _ = pinch_punctured(track, "e0")
    kinds = sorted((p.punctured, p.vertices) for p in new.polygons)
    assert kinds == [(False, 5), (True, 1)]


def test_pinch_punctured_rejects_unknown_edge():
    track = load_track(json.dumps(cycle_track_doc(4, False)))
    with pytest.raises(TrackFormatError):
        pinch_punctured(track, "e0")  # polygon is not punctured


# ---------------------------------------------------------------------------
# diagonal extensions


def test_catalan_numbers():
    assert [catalan(t) for t in range(6)] == [1, 1, 2, 5, 14, 42]


@pytest.mark.parametrize(
    "t,punctured,count",
    [
        (3, False, 1),
        (4, False, 2),
        (5, False, 5),
        (6, False, 14),
        (1, True, 1),
        (2, True, 2),
        (3, True, 6),
        (4, True, 20),
    ],
)
def test_extension_count_matches_enumeration(t, punctured, count):
    if punctured and t == 1:
        track = load_track(json.dumps(monogon_doc("e0", "s")))
    else:
        track = load_track(json.dumps(cycle_track_doc(max(t, 2), punctured)))
        if t != max(t, 2):
            pytest.skip("unreachable")
    assert diagonal_extensions_count(track) == count
    results = enumerate_diagonal_extensions(track)
    assert len(results) == count


def test_extension_count_multiset():
    d1 = cycle_track_doc(4, False, prefix="x")
    d2 = cycle_track_doc(2, True, prefix="y")
    track = load_track(json.dumps(merge_docs(d1, d2)))
    assert diagonal_extensions_count(track) == 2 * 2
    results = enumerate_diagonal_extensions(track)
    assert len(results) == 4


def test_extensions_are_valid_and_balanced():
    d1 = cycle_track_doc(5, False, prefix="x")
    d2 = cycle_track_doc(3, True, prefix="y")
    track = load_track(json.dumps(merge_docs(d1, d2)))
    results = enumerate_diagonal_extensions(track)
    assert len(results) == 5 * 6
    mu0 = uniform_measure(track, Fraction(7))
    seen = set()
    for new, psi in results:
        key = tuple(sorted(b.id for b in new.branches))
        mu = psi(mu0)
        assert switch_balanced(new, mu)
        assert all(x >= 0 for x in mu.weights.values())
        # added diagonals carry zero weight, old branches keep theirs
        for b in track.branches:
            assert mu.weights[b.id] == Fraction(7)
        seen.add((key, tuple(sorted(mu.weights.items()))))
    assert len(seen) == len(results)  # extensions are pairwise distinct


@pytest.mark.parametrize("taken", [{"e0": "diag.1"}, {"e0": "diag", "e2": "e1x"}])
def test_extension_ids_avoid_the_track_ids(taken):
    text = json.dumps(cycle_track_doc(4, False))
    for old, name in taken.items():
        text = text.replace(f'"{old}"', f'"{name}"')
    track = load_track(text)
    mu0 = uniform_measure(track, Fraction(5))
    for new, psi in enumerate_diagonal_extensions(track):
        ids = [b.id for b in new.branches] + [s.id for s in new.switches]
        assert len(ids) == len(set(ids))
        mu = psi(mu0)
        assert all(mu.weights[b.id] == 5 for b in track.branches)
        assert switch_balanced(new, mu)


def test_extensions_increase_rank_to_triangulated():
    track = load_track(json.dumps(cycle_track_doc(6, False)))
    for new, _ in enumerate_diagonal_extensions(track):
        # a hexagon needs 3 diagonals; each adds one to the rank
        assert new.rank == track.rank + 3
        kinds = sorted((p.punctured, p.vertices) for p in new.polygons)
        assert kinds == [(False, 3)] * 4


def test_extension_requires_edge_list():
    doc = cycle_track_doc(4, False)
    del doc["polygons"][0]["edges"]
    track = load_track(json.dumps(doc))
    with pytest.raises(TrackFormatError):
        enumerate_diagonal_extensions(track)


# ---------------------------------------------------------------------------
# path and arc measures


def test_path_measure_single_branch():
    track = load_track(load_fixture("track_b4_complete.json"))
    mu = example_track_measure(*random_triangleish(random.Random(101)))
    assert _path_measure_generic(track, TrainPath((("b", 1),)), mu, min, max, 0) == mu["b"]


def test_path_measure_example_formulas():
    track = load_track(load_fixture("track_b4_complete.json"))
    rng = random.Random(103)
    p1 = TrainPath((("m2", -1), ("b", 1), ("m6", 1)))
    p2 = TrainPath((("d", -1), ("m3", -1)))
    for _ in range(50):
        mu = example_track_measure(*random_triangleish(rng))
        assert _path_measure_generic(track, p1, mu, min, max, 0) == min(mu["m2"], mu["m6"])
        assert _path_measure_generic(track, p2, mu, min, max, 0) == min(mu["d"], mu["m3"])


def test_path_measure_concave():
    track = load_track(load_fixture("track_b4_complete.json"))
    rng = random.Random(107)
    p1 = TrainPath((("m2", -1), ("b", 1), ("m6", 1)))
    for _ in range(30):
        mu1 = example_track_measure(*random_triangleish(rng))
        mu2 = example_track_measure(*random_triangleish(rng))
        mid = Measure(
            {
                k: (mu1.weights[k] + mu2.weights[k]) / 2
                for k in mu1.weights
            }
        )
        measure = lambda m: _path_measure_generic(track, p1, m, min, max, 0)
        assert measure(mid) >= (measure(mu1) + measure(mu2)) / 2


def test_path_measure_homogeneous():
    track = load_track(load_fixture("track_b4_complete.json"))
    rng = random.Random(109)
    p1 = TrainPath((("m2", -1), ("b", 1), ("m6", 1)))
    mu = example_track_measure(*random_triangleish(rng))
    tripled = Measure({k: 3 * v for k, v in mu.weights.items()})
    measure = lambda m: _path_measure_generic(track, p1, m, min, max, 0)
    assert measure(tripled) == 3 * measure(mu)


def test_path_measure_rejects_non_smooth():
    track = load_track(load_fixture("track_b4_complete.json"))
    mu = example_track_measure(4, 4, 4, 2)
    with pytest.raises(TrackFormatError):
        _path_measure_generic(track, TrainPath((("b", 1), ("b", 1))), mu, min, max, 0)
    with pytest.raises(TrackFormatError):
        _path_measure_generic(track, TrainPath(()), mu, min, max, 0)


def test_arc_measures_direct():
    track = load_track(load_fixture("track_b4_complete.json"))
    mu = example_track_measure(Fraction(8), Fraction(6), Fraction(10), Fraction(4))
    ann = track.annotations
    assert _arc_measure_generic(track, ann["beta_1"], mu, min, max, 0) == 8
    assert _arc_measure_generic(track, ann["beta_2"], mu, min, max, 0) == 10
    assert _arc_measure_generic(track, ann["beta_3"], mu, min, max, 0) == 4
    assert _arc_measure_generic(track, ann["alpha_1"], mu, min, max, 0) == mu["m2"]
    with pytest.raises(TrackFormatError):
        _arc_order(ann, ["alpha_99"])


def test_change_of_coords_closed_form():
    track = load_track(load_fixture("track_b4_complete.json"))
    rng = random.Random(113)
    for _ in range(100):
        a, b, c, d = random_triangleish(rng)
        mu = example_track_measure(a, b, c, d)
        v = change_of_coords(track, mu)
        assert v.a == ((max(a, c) - b) / 2, max(-c, -d) / 2)
        assert v.b == ((a - c) / 2, (c - d) / 2)


def test_change_of_coords_requires_annotations():
    track = load_track(json.dumps(cycle_track_doc(4, False)))
    with pytest.raises(TrackFormatError):
        change_of_coords(track, uniform_measure(track))


# ---------------------------------------------------------------------------
# linearization


def test_linearize_pinched_track_both_regions():
    track = load_track(load_fixture("track_gamma_pinched.json"))
    L1 = fraction_matrix("mat_gamma_L1.json")
    L2 = fraction_matrix("mat_gamma_L2.json")
    assert linearize_change_of_coords(track, pinched_track_measure(1, 2, 4, 1)) == L1
    assert linearize_change_of_coords(track, pinched_track_measure(1, 4, 2, 1)) == L2


def test_linearize_tie_at_wall():
    track = load_track(load_fixture("track_gamma_pinched.json"))
    with pytest.raises(TieAtBasepoint):
        linearize_change_of_coords(track, pinched_track_measure(1, 3, 3, 1))


def test_linearize_agrees_with_change_of_coords():
    track = load_track(load_fixture("track_gamma_pinched.json"))
    L1 = linearize_change_of_coords(track, pinched_track_measure(1, 2, 4, 1))
    for point in ((2, 3, 5, 1), (3, 4, 9, 2), (1, 2, 4, 1)):
        mu = pinched_track_measure(*(Fraction(x) for x in point))
        v = change_of_coords(track, mu)
        image = [sum(c * x for c, x in zip(row, point)) for row in L1]
        assert list(v.flat()) == image


def test_linearize_b4_track_agrees():
    track = load_track(load_fixture("track_b4_complete.json"))
    base = (Fraction(6), Fraction(5), Fraction(4), Fraction(3))
    L = linearize_change_of_coords(track, example_track_measure(*base))
    other = (Fraction(13, 2), Fraction(5), Fraction(4), Fraction(3))
    v = change_of_coords(track, example_track_measure(*other))
    image = [sum(c * x for c, x in zip(row, other)) for row in L]
    assert list(v.flat()) == image


@pytest.mark.parametrize("depth, diamond", [(3000, False), (200, True)])
def test_derived_arcs_are_evaluated_once_each(depth, diamond):
    doc = json.loads(load_fixture("track_b4_complete.json"))
    plain = load_track(json.dumps(doc))
    derive_alpha_1(doc["annotations"], depth, diamond)
    track = load_track(json.dumps(doc))
    base = example_track_measure(Fraction(6), Fraction(5), Fraction(4), Fraction(3))
    assert change_of_coords(track, base) == change_of_coords(plain, base)
    assert linearize_change_of_coords(track, base) == linearize_change_of_coords(plain, base)


def test_linearize_rejects_inconsistent_measure():
    track = load_track(load_fixture("track_gamma_pinched.json"))
    mu = pinched_track_measure(1, 2, 4, 1)
    bad = dict(mu.weights)
    bad["g"] += 1  # violates the switch conditions
    with pytest.raises(TrackFormatError):
        linearize_change_of_coords(track, Measure(bad))


# ---------------------------------------------------------------------------
# conjugacy and completion


def test_gamma_spectrum_factorization():
    D = int_matrix("mat_gamma_D.json")
    T = load_transition_matrix(load_fixture("tm_gamma_T.json"))
    pD = char_poly(D).coeffs
    pT = char_poly(T.main_block()).coeffs
    assert pD == poly_mul(pT, (-1, 1))


def test_verify_conjugacy_gamma():
    D = int_matrix("mat_gamma_D.json")
    Tp = [list(r) for r in load_transition_matrix(load_fixture("tm_gamma_Tp.json")).matrix]
    for name in ("mat_gamma_L1.json", "mat_gamma_L2.json"):
        L = fraction_matrix(name)
        assert verify_conjugacy(D, L, Tp)


def test_verify_conjugacy_false_on_perturbation():
    D = int_matrix("mat_gamma_D.json")
    L = fraction_matrix("mat_gamma_L1.json")
    Tp = [list(r) for r in load_transition_matrix(load_fixture("tm_gamma_Tp.json")).matrix]
    Tp[3][0] += 1
    assert not verify_conjugacy(D, L, Tp)


def test_verify_conjugacy_singular_L():
    D = int_matrix("mat_gamma_D.json")
    Tp = [list(r) for r in load_transition_matrix(load_fixture("tm_gamma_Tp.json")).matrix]
    singular = [[0] * 4 for _ in range(4)]
    with pytest.raises(VerificationFailed):
        verify_conjugacy(D, singular, Tp)


def test_solve_completion_gamma():
    D = int_matrix("mat_gamma_D.json")
    Tp = load_transition_matrix(load_fixture("tm_gamma_Tp.json"))
    for name in ("mat_gamma_L1.json", "mat_gamma_L2.json"):
        L = fraction_matrix(name)
        Mi, A = solve_completion(D, L, 3)
        assert Mi == [list(r) for r in Tp.matrix]
        assert A == [[2, 3, 1]]


def test_solve_completion_rejects_bad_L():
    D = int_matrix("mat_gamma_D.json")
    bad = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises((VerificationFailed, TrackFormatError)):
        solve_completion(D, bad, 3)
