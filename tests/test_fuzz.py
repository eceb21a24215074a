"""A seeded fuzz of cli.main: every command on random and malformed input.

Each case must end with an exit code in {0, 2, 3, 4} (argparse's exit 2
included), with no exception escaping main and no nan or inf on stdout.
The cases are drawn from a fixed seed, so a failure names an argv that
reproduces it.  ``--jobs`` never goes above 1, and word lengths, polygon
sizes and ``--digits`` stay small, so that the whole run takes a few seconds.
"""

import contextlib
import copy
import io
import json
import random
import re

from dynbraid.cli import main

from conftest import FIXTURES
from test_cli import COORDS_MEASURE

SEED = 20231
RANDOM_CASES = 200

# the literal 1e-999999999, which no Python float writes: _text puts it in
TINY = "<1e-999999999>"

# values put in place of a node of a JSON document
JUNK = ["x", "", "-", "-m1", "1/0", "abc", "1e400", 1e400, float("nan"), float("-inf"), -1, 0,
        1, 3, 1.5, 0.1, 2.0, "1e999999999", TINY, True, None, [], {}, [[]], ["a"], [1, 2],
        {"a": 1}]

NON_FINITE = re.compile(r"(?i)(?<![a-z])-?(nan|inf|infinity)(?![a-z])")


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


def _mutate(rng, doc, within=()):
    """A copy of doc with one node replaced by junk or deleted.

    The node is drawn from the subtree at the key path ``within``, when
    doc has one.
    """
    doc = copy.deepcopy(doc)
    root = doc
    for key in within:
        if not isinstance(root, dict) or key not in root:
            break
        root = root[key]
    paths = []

    def walk(node, path):
        paths.append(path)
        if isinstance(node, dict):
            items = node.items()
        else:
            items = enumerate(node) if isinstance(node, list) else ()
        for key, value in items:
            walk(value, path + (key,))

    walk(root, ())
    path = rng.choice(paths)
    if not path:
        return rng.choice(JUNK) if root is doc else doc
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.2:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(rng.choice(JUNK))
    return doc


def _text(rng, doc):
    """doc as JSON text, now and then cut short or with a stray character."""
    text = json.dumps(doc).replace(json.dumps(TINY), TINY[1:-1])
    roll = rng.random()
    if roll < 0.1:
        return text[: rng.randrange(len(text) + 1)]
    if roll < 0.15:
        k = rng.randrange(len(text) + 1)
        return text[:k] + rng.choice("{}[],:\"x") + text[k:]
    return text


def _word(rng, strands, length):
    tokens = [str(rng.choice((1, -1)) * rng.randint(1, max(strands - 1, 1))) for _ in range(length)]
    if rng.random() < 0.15:
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(("0", "x", "1.5", "99", "-")))
    return " ".join(tokens)


def _write(tmp_path, rng, text):
    path = tmp_path / f"in{rng.randrange(10**9)}.json"
    path.write_text(text)
    return str(path)


def _vector(rng, strands):
    entries = [rng.choice((0, 1, -2, "1/2", "-3", 0.25, 1e300)) for _ in range(2 * strands - 4)]
    roll = rng.random()
    if roll < 0.5:
        return _text(rng, _mutate(rng, entries) if rng.random() < 0.6 else entries)
    if roll < 0.8:
        m = strands - 2
        doc = {"n": strands, "a": entries[:m], "b": entries[m:]}
        return _text(rng, _mutate(rng, doc))
    return rng.choice(
        ("5", "[", "[1e400, 1]", '["1e400", 1.0]', "[NaN, 1]", "{}", "null", "[[1], 2]")
    )


def _global_flags(rng):
    flags = []
    if rng.random() < 0.5:
        flags += ["--format", rng.choice(("json", "text", "yaml"))]
    if rng.random() < 0.3:
        flags += ["--digits", rng.choice(("-1", "0", "1", "5", "40", "x"))]
    if rng.random() < 0.1:
        flags += ["--jobs", rng.choice(("0", "-1", "1"))]
    if rng.random() < 0.05:
        flags += [rng.choice(("--precision=64", "--tol=0.5", "--seed=9", "--max-iters=1"))]
    return flags


def _braid_args(rng, tmp_path, longest):
    if rng.random() < 0.2:
        lines = [
            f"n={rng.randint(3, 5)} {_word(rng, 4, rng.randint(1, longest))}" for _ in range(3)
        ]
        if rng.random() < 0.3:
            lines.append(rng.choice(("n=x 1", "1 2", "n=2 1", "n=4 9")))
        return ["--braid-file", _write(tmp_path, rng, "\n".join(lines))]
    n = rng.choice((2, 3, 4, 4, 5))
    return ["-n", str(n), "-w", _word(rng, n, rng.randint(0, longest))]


def _track_case(rng, tmp_path, sub):
    name = rng.choice(
        ("track_gamma_base.json", "track_b4_complete.json", "track_gamma_pinched.json")
    )
    doc = _fixture(name)
    if "annotations" in doc and rng.random() < 0.5:
        doc = _mutate(rng, doc, ("annotations",))
    elif rng.random() < 0.8:
        doc = _mutate(rng, doc)
    argv = ["track", sub, _write(tmp_path, rng, _text(rng, doc))]
    if sub == "pinch":
        argv.append(rng.choice(("p", "q", "a", "m5", "m6", "zz")))
    if sub == "coords":
        measure = {b["id"]: rng.choice((0, 1, 2, "1/2")) for b in _fixture(name)["branches"]}
        if rng.random() < 0.3:
            measure = _mutate(rng, measure)
        argv += ["--measure", _text(rng, measure)]
    return argv


def _matrix_file(rng, tmp_path, name):
    doc = _fixture(name)
    if rng.random() < 0.7:
        doc = _mutate(rng, doc)
    return _write(tmp_path, rng, _text(rng, doc))


def _case(rng, tmp_path):
    kind = rng.choice(("act", "matrix", "dilatation", "compare", "regions3",
                       "pf", "pinch", "extend", "coords", "conjugacy"))
    if kind == "act":
        n = rng.choice((3, 4, 5))
        argv = ["act", "-n", str(n), "-w", _word(rng, n, rng.randint(0, 6)), "-v", _vector(rng, n)]
    elif kind in ("matrix", "dilatation"):
        argv = [kind, *_braid_args(rng, tmp_path, 6)]
    elif kind == "compare":
        modes = ("exact", "roots_of_unity_and_zeros", "eigenvalues_one", "bad")
        argv = ["compare", "-n", "4", "-w", rng.choice(("1 -2 3 3 3 2 1 -2", _word(rng, 4, 4))),
                "--transition", _matrix_file(rng, tmp_path, "tm_b4_word.json"),
                "--mode", rng.choice(modes)]
    elif kind == "regions3":
        argv = ["regions3", "-w", _word(rng, 3, rng.randint(0, 10))]
    elif kind == "pf":
        name = rng.choice(("tm_gamma_T.json", "tm_b4_word.json"))
        argv = ["track", "pf", _matrix_file(rng, tmp_path, name)]
    elif kind == "conjugacy":
        names = ("mat_gamma_D.json", "mat_gamma_L1.json", "tm_gamma_Tp.json")
        argv = ["track", "conjugacy", *(_matrix_file(rng, tmp_path, x) for x in names)]
    else:
        argv = _track_case(rng, tmp_path, kind)
    return _global_flags(rng) + argv


def _annotated_track(tmp_path, name, edit):
    doc = _fixture("track_b4_complete.json")
    edit(doc["annotations"])
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return ["track", "coords", str(path), "--measure", json.dumps(COORDS_MEASURE)]


def _fixed_cases(tmp_path):
    """Inputs that once escaped main with a traceback, and true in each
    integer field."""
    infinite = tmp_path / "infinite.json"
    infinite.write_text('{"matrix": [[Infinity]]}')
    cases = []
    tm, track = "tm_gamma_T.json", "track_gamma_base.json"
    for k, (sub, name, edit) in enumerate([
        ("pf", tm, lambda doc: doc.update(m=True)),
        ("pf", tm, lambda doc: doc.update(matrix=[[True, 8, 4], [12, 21, 8], [12, 20, 9]])),
        ("extend", track, lambda doc: doc.update(n=True)),
        ("extend", track, lambda doc: doc["polygons"][0].update(vertices=True)),
        ("extend", track, lambda doc: doc["branches"][0]["from"].update(pos=True)),
    ]):
        doc = _fixture(name)
        edit(doc)
        path = tmp_path / f"true{k}.json"
        path.write_text(json.dumps(doc))
        cases.append(["track", sub, str(path)])
    return cases + [
        ["act", "-n", "3", "-w", "1", "-v", '["1e400", 1.0]'],
        ["track", "pf", str(infinite)],
        _annotated_track(tmp_path, "a1.json", lambda ann: ann.update(alpha_1="x")),
        _annotated_track(tmp_path, "a2.json", lambda ann: ann["beta_1"].update(counts=["a"])),
        _annotated_track(tmp_path, "a3.json", lambda ann: ann.update(
            alpha_1={"derived_max_of": ["alpha_1", "alpha_2"], "minus": "alpha_3"})),
    ]


def _run(argv):
    """(exit code, stdout, escaped exception or None) of main(argv)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv), out.getvalue(), None
        except SystemExit as exc:  # argparse
            return exc.code, out.getvalue(), None
        except Exception as exc:  # noqa: BLE001 - any escape is a finding
            return None, out.getvalue(), exc


def test_cli_fuzz(tmp_path):
    rng = random.Random(SEED)
    cases = _fixed_cases(tmp_path) + [_case(rng, tmp_path) for _ in range(RANDOM_CASES)]
    failures = []
    codes = set()
    for argv in cases:
        code, out, exc = _run(argv)
        codes.add(code)
        if exc is not None:
            failures.append(f"{argv}: {type(exc).__name__}: {exc}")
        elif code not in (0, 2, 3, 4):
            failures.append(f"{argv}: exit {code}")
        elif NON_FINITE.search(out):
            failures.append(f"{argv}: non-finite stdout {out!r}")
    assert not failures, "\n".join(failures)
    assert {0, 2, 3} <= codes  # the cases reach answers, usage errors and refusals
