"""Command-line front end.

Exit codes: 0 success, 2 usage or input format error, 3 non-convergence,
4 verification failure.  When the reader of stdout goes away, as in
``dynbraid matrix ... | head -1``, the exit code is 141 (128 + SIGPIPE) and
nothing is printed on stderr.  ``matrix`` and ``dilatation`` answer every
word of a braid file: a word that fails is reported on stderr as
``error: n=<strands> <word>: <reason>``, the other words are still answered,
and the exit code is the largest among the words.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import mpmath

from .braid import BraidWord, parse_braid, parse_braid_file
from .coords import DynnikovVector, decode_rational, load_json
from .errors import (
    CoordinateError,
    DynbraidError,
    NonConvergence,
    TrackFormatError,
    VerificationFailed,
)
from .regions import arcs_svg, dynnikov_matrices, enumerate_regions_n3
from .spectral import isospectral_up_to
from .traintrack import (
    Measure,
    change_of_coords,
    diagonal_extensions_count,
    enumerate_diagonal_extensions,
    load_track,
    load_transition_matrix,
    pinch_punctured,
    pinch_unpunctured,
    transition_pf,
    verify_conjugacy,
)
from .update import apply_braid


# errors reported as "error: ..." with an exit code, by main and per batch word
_USER_ERRORS = (DynbraidError, OSError)


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, NonConvergence):
        return 3
    if isinstance(exc, VerificationFailed):
        return 4
    return 2


def _parse_vector(text: str, strands: int) -> DynnikovVector:
    text = text.strip()
    if text.startswith("{"):
        return DynnikovVector.from_json(text)
    entries = load_json(text, CoordinateError, "vector")
    if not isinstance(entries, list):
        raise CoordinateError(f"a vector is a JSON list or object, got {text!r}")
    return DynnikovVector.from_flat(strands, [decode_rational(x) for x in entries])


def _words(args) -> list:
    if args.braid_file:
        with open(args.braid_file) as fh:
            return parse_braid_file(fh.read())
    if args.word is None or args.strands is None:
        raise DynbraidError("need -n and -w, or a braid file")
    return [parse_braid(args.word, args.strands)]


def _one_word(args) -> BraidWord:
    words = _words(args)
    if len(words) != 1:
        raise DynbraidError(f"{args.command} takes one word, the braid file has {len(words)}")
    return words[0]


@contextlib.contextmanager
def _all_digits():
    """Lift Python's limit on the digits of an int turned into text, which
    guards parsing, while an exact answer is formatted; then restore it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit_vector(args, v: DynnikovVector):
    with _all_digits():
        _emit(args, json.loads(v.to_json()), [" ".join(str(x) for x in v.flat())])


def _emit(args, obj, text_lines):
    if args.format == "json":
        print(json.dumps(obj))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# commands


def cmd_act(args) -> int:
    w = _one_word(args)
    v = _parse_vector(args.vector, w.strands)
    _emit_vector(args, apply_braid(v, w))
    return 0


def _matrix_record(w: BraidWord):
    mats = dynnikov_matrices(w)
    rec = {
        "n": w.strands,
        "word": w.render(),
        "matrices": [
            {
                "matrix": [[str(x) for x in row] for row in m.matrix],
                "region": [[str(x) for x in row] for row in m.region],
            }
            for m in mats
        ],
    }
    lines = [f"# {rec['word']} (n={rec['n']}): {len(rec['matrices'])} matrices"]
    for m in rec["matrices"]:
        lines += ["  [" + ", ".join(row) + "]" for row in m["matrix"]]
        lines.append("")
    return rec, lines


def _value(root, p, digits):
    """p at the Root, an mpf of digits + 10 digits, from a 2^-(4 digits + 40) enclosure."""
    mid = sum(root.enclose(p, 4 * digits + 40)) / 2
    with mpmath.workdps(digits + 10):
        return mpmath.mpf(mid.numerator) / mid.denominator


def _dilatation_record(w: BraidWord, digits: int):
    lam = _value(dynnikov_matrices(w)[0].dilatation, (0, 1), digits)
    with mpmath.workdps(digits + 10):
        log = mpmath.log(lam)
    rec = {
        "word": w.render(),
        "dilatation": mpmath.nstr(lam, digits),
        "log": mpmath.nstr(log, digits),
    }
    return rec, [f"{rec['dilatation']}  (log {rec['log']})"]


def _run_word(op, w: BraidWord):
    """One word of a batch: (0, (record, text lines)) or (exit code, reason).

    Reports every error that main would report instead of raising it, so
    that one failed word cannot lose the others, in a worker process or not.
    """
    try:
        with _all_digits():  # the word is parsed; op computes and formats
            return 0, op(w)
    except _USER_ERRORS as exc:
        return _exit_code(exc), str(exc)


def _run_batch(args, op) -> int:
    """Answer every word in order with op, serially or on --jobs processes."""
    words = _words(args)
    run = partial(_run_word, op)
    if args.jobs > 1 and len(words) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            return _report(args, words, pool.map(run, words))
    return _report(args, words, map(run, words))


def _report(args, words, results) -> int:
    """Print each record or error line; the largest exit code among them."""
    worst = 0
    for w, (code, out) in zip(words, results):
        if code:
            # a word from the command line is not repeated back
            name = f"n={w.strands} {w.render()}: " if args.braid_file else ""
            print(f"error: {name}{out}", file=sys.stderr)
        else:
            _emit(args, *out)
        worst = max(worst, code)
    return worst


def cmd_matrix(args) -> int:
    return _run_batch(args, _matrix_record)


def cmd_dilatation(args) -> int:
    return _run_batch(args, partial(_dilatation_record, digits=args.digits))


def cmd_compare(args) -> int:
    with open(args.transition) as fh:
        T = load_transition_matrix(fh.read())
    w = _one_word(args)
    mats = dynnikov_matrices(w)
    D = mats[0].matrix_list()
    report = isospectral_up_to(D, T.main_block(), args.mode)
    with _all_digits():
        lines = [f"isospectral ({args.mode}): {report.isospectral}",
                 f"stripped left:  {list(report.stripped_left.coeffs)}",
                 f"stripped right: {list(report.stripped_right.coeffs)}"]
        _emit(args, json.loads(report.to_json()), lines)
    return 0


def cmd_regions3(args) -> int:
    w = parse_braid(args.word, 3)
    with mpmath.workdps(args.digits + 10):  # atan2 of the exact endpoint rays
        arcs = enumerate_regions_n3(w)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(arcs_svg(arcs))
    with _all_digits():
        rec = [
            {
                "arc": [mpmath.nstr(lo, args.digits), mpmath.nstr(hi, args.digits)],
                "matrix": [[str(x) for x in row] for row in m],
            }
            for (lo, hi), m in arcs
        ]
        _emit(args, rec, [f"[{r['arc'][0]}, {r['arc'][1]}]  {r['matrix']}" for r in rec])
    return 0


def _load_rational_matrix(path: str):
    with open(path) as fh:
        doc = load_json(fh.read(), TrackFormatError, path)
    rows = doc.get("matrix") if isinstance(doc, dict) else None
    if not (
        isinstance(rows, list)
        and rows
        and all(isinstance(row, list) and len(row) == len(rows) for row in rows)
    ):
        raise TrackFormatError(f'{path}: expected {{"matrix": [...]}} with square rows')
    return [[decode_rational(x) for x in row] for row in rows]


# positional arguments of each track subcommand
_TRACK_ARGS = {
    "pf": "FILE",
    "pinch": "FILE EDGE",
    "extend": "FILE",
    "coords": "FILE",
    "conjugacy": "D_FILE L_FILE TP_FILE",
}


def cmd_track(args) -> int:
    sub = args.track_cmd
    names = _TRACK_ARGS[sub]
    if len(args.files) != len(names.split()):
        raise DynbraidError(f"track {sub} takes {names}, got {len(args.files)} arguments")
    if (args.measure is None) == (sub == "coords"):
        raise DynbraidError("--measure is required by track coords and only by it")
    if sub in ("pinch", "extend", "coords"):
        with open(args.files[0]) as fh:
            track = load_track(fh.read())
    if sub == "pf":
        with open(args.files[0]) as fh:
            T = load_transition_matrix(fh.read())
        root, v = transition_pf(T)
        root = root.refine(4 * args.digits + 40)  # once, not again for every value
        lam, *v = (_value(root, p, args.digits) for p in [(0, 1), *v])
        with mpmath.workdps(args.digits + 10):
            norm = mpmath.norm(v)
            v = [x / norm for x in v]
        rec = {
            "lambda": mpmath.nstr(lam, args.digits),
            "eigenvector": [mpmath.nstr(x, args.digits) for x in v],
        }
        _emit(args, rec, [f"lambda = {rec['lambda']}", f"v = {rec['eigenvector']}"])
    elif sub == "pinch":
        edge = args.files[1]
        try:
            new, _ = pinch_unpunctured(track, edge)
        except DynbraidError:
            new, _ = pinch_punctured(track, edge)
        rec = {
            "rank": new.rank,
            "complete": new.is_complete,
            "branches": len(new.branches),
            "switches": len(new.switches),
        }
        _emit(args, rec, [f"rank {new.rank} complete {new.is_complete}"])
    elif sub == "extend":
        count = diagonal_extensions_count(track)
        tracks = enumerate_diagonal_extensions(track)
        rec = {"count": count, "enumerated": len(tracks)}
        _emit(args, rec, [f"{count} complete diagonal extensions"])
    elif sub == "coords":
        weights = load_json(args.measure, TrackFormatError, "--measure")
        if not isinstance(weights, dict):
            raise TrackFormatError("--measure is a JSON object from branch ids to weights")
        mu = Measure({k: decode_rational(x) for k, x in weights.items()})
        _emit_vector(args, change_of_coords(track, mu))
    elif sub == "conjugacy":
        D = _load_rational_matrix(args.files[0])
        L = _load_rational_matrix(args.files[1])
        Tp = _load_rational_matrix(args.files[2])
        ok = verify_conjugacy(D, L, Tp)
        _emit(args, {"conjugate": ok}, [str(ok)])
        if not ok:
            return 4
    else:  # pragma: no cover - argparse restricts choices
        raise DynbraidError(f"unknown track subcommand {sub!r}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dynbraid",
        description="Braid actions on disk foliation coordinates, their local "
        "integer matrices, dilatations and train-track spectra.",
    )
    top.add_argument("--format", choices=("text", "json"), default="text")
    top.add_argument("--digits", type=int, default=12)
    top.add_argument("--jobs", type=int, default=1)
    subs = top.add_subparsers(dest="command", required=True)

    def braid_flags(p):
        p.add_argument("-n", "--strands", type=int)
        p.add_argument("-w", "--word")
        p.add_argument("--braid-file")

    p = subs.add_parser("act", help="apply a braid word to a coordinate vector")
    braid_flags(p)
    p.add_argument("-v", "--vector", required=True)
    p.set_defaults(func=cmd_act)

    p = subs.add_parser("matrix", help="Dynnikov matrices and regions")
    braid_flags(p)
    p.set_defaults(func=cmd_matrix)

    p = subs.add_parser("dilatation", help="stretch factor of a braid")
    braid_flags(p)
    p.set_defaults(func=cmd_dilatation)

    p = subs.add_parser("compare", help="spectrum comparison with a transition matrix")
    braid_flags(p)
    p.add_argument("--transition", required=True)
    p.add_argument(
        "--mode",
        choices=("exact", "roots_of_unity_and_zeros", "eigenvalues_one"),
        default="exact",
    )
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("regions3", help="decompose the circle of 3-strand directions")
    p.add_argument("-w", "--word", required=True)
    p.add_argument("--svg")
    p.set_defaults(func=cmd_regions3)

    p = subs.add_parser("track", help="train-track operations")
    p.add_argument("track_cmd", choices=("pf", "pinch", "extend", "coords", "conjugacy"))
    p.add_argument("files", nargs="*")
    p.add_argument("--measure")
    p.set_defaults(func=cmd_track)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.digits < 1:
            raise DynbraidError(f"--digits must be at least 1, got {args.digits}")
        cpus = os.cpu_count() or 1
        if not 1 <= args.jobs <= cpus:
            raise DynbraidError(f"--jobs must be between 1 and {cpus}, got {args.jobs}")
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # as the signal module documents for SIGPIPE: send what is still
        # buffered to devnull, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
