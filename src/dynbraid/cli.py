"""Command-line front end.

Exit codes: 0 success, 2 usage or input format error, 3 non-convergence,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .braid import BraidWord, parse_braid, parse_braid_file
from .coords import DynnikovVector
from .errors import CoordinateError, DynbraidError, NonConvergence, VerificationFailed
from .regions import (
    IterationOptions,
    arcs_svg,
    dynnikov_matrices,
    enumerate_regions_n3,
    find_unstable_direction,
)
from .spectral import dilatation, isospectral_up_to
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


@dataclass(frozen=True)
class RunConfig:
    """Deterministic knobs shared by all commands."""

    ladder: tuple = (53, 128, 256, 512)
    max_iters: int = 5000
    seed: int = 2023
    probe_radius: float = 1e-6
    digits: int = 12
    fmt: str = "text"  # "text" | "json"
    jobs: int = 1

    def iteration_options(self) -> IterationOptions:
        return IterationOptions(
            ladder=self.ladder,
            max_iters=self.max_iters,
            seed=self.seed,
            probe_radius=self.probe_radius,
        )


def _config(args) -> RunConfig:
    if args.digits < 1:
        raise DynbraidError(f"--digits must be at least 1, got {args.digits}")
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise DynbraidError(f"--jobs must be between 1 and {cpus}, got {args.jobs}")
    ladder = tuple(int(x) for x in args.precision.split(",")) if args.precision else (53, 128, 256, 512)
    return RunConfig(
        ladder=ladder,
        max_iters=args.max_iters,
        seed=args.seed,
        probe_radius=args.tol,
        digits=args.digits,
        fmt=args.format,
        jobs=args.jobs,
    )


def _parse_vector(text: str, strands: int) -> DynnikovVector:
    text = text.strip()
    if text.startswith("{"):
        return DynnikovVector.from_json(text)
    entries = json.loads(text)
    dec = []
    for x in entries:
        if isinstance(x, str):
            f = Fraction(x)
            dec.append(int(f) if f.denominator == 1 else f)
        else:
            dec.append(x)
    return DynnikovVector.from_flat(strands, dec)


def _check_finite(v: DynnikovVector, what: str) -> None:
    if any(isinstance(x, float) and not math.isfinite(x) for x in v.flat()):
        raise CoordinateError(f"{what} has a non-finite entry: {list(v.flat())}")


def _words(args) -> list:
    if args.braid_file:
        with open(args.braid_file) as fh:
            return parse_braid_file(fh.read())
    if args.word is None or args.strands is None:
        raise DynbraidError("need -n and -w, or a braid file")
    return [parse_braid(args.word, args.strands)]


def _emit(cfg: RunConfig, obj, text_lines):
    if cfg.fmt == "json":
        print(json.dumps(obj))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# commands


def cmd_act(args) -> int:
    cfg = _config(args)
    w = _words(args)[0]
    v = _parse_vector(args.vector, w.strands)
    _check_finite(v, "vector")
    out = apply_braid(v, w)
    _check_finite(out, "image (float overflow)")
    _emit(cfg, json.loads(out.to_json()), [" ".join(str(x) for x in out.flat())])
    return 0


def _matrix_record(w: BraidWord, opts: IterationOptions):
    mats = dynnikov_matrices(w, opts)
    return {
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


def cmd_matrix(args) -> int:
    cfg = _config(args)
    words = _words(args)
    opts = cfg.iteration_options()
    if cfg.jobs > 1 and len(words) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            records = list(pool.map(_matrix_record, words, [opts] * len(words)))
    else:
        records = [_matrix_record(w, opts) for w in words]
    for rec in records:
        if cfg.fmt == "json":
            print(json.dumps(rec))
        else:
            print(f"# {rec['word']} (n={rec['n']}): {len(rec['matrices'])} matrices")
            for m in rec["matrices"]:
                for row in m["matrix"]:
                    print("  [" + ", ".join(row) + "]")
                print()
    return 0


def cmd_dilatation(args) -> int:
    cfg = _config(args)
    for w in _words(args):
        m = dynnikov_matrices(w, cfg.iteration_options())[0]
        lam = m.dilatation
        if cfg.digits > 30:  # m.dilatation is bisected to 1e-30 only
            lam = dilatation(m.matrix_list(), tol=Fraction(1, 10 ** (cfg.digits + 5)))
        with mpmath.workdps(cfg.digits + 10):
            log = mpmath.log(lam)
        rec = {
            "word": w.render(),
            "dilatation": mpmath.nstr(lam, cfg.digits),
            "log": mpmath.nstr(log, cfg.digits),
        }
        _emit(cfg, rec, [f"{rec['dilatation']}  (log {rec['log']})"])
    return 0


def cmd_compare(args) -> int:
    cfg = _config(args)
    with open(args.transition) as fh:
        T = load_transition_matrix(fh.read())
    w = _words(args)[0]
    mats = dynnikov_matrices(w, cfg.iteration_options())
    D = mats[0].matrix_list()
    report = isospectral_up_to(D, T.main_block(), args.mode)
    _emit(
        cfg,
        json.loads(report.to_json()),
        [
            f"isospectral ({args.mode}): {report.isospectral}",
            f"stripped left:  {list(report.stripped_left.coeffs)}",
            f"stripped right: {list(report.stripped_right.coeffs)}",
        ],
    )
    return 0


def cmd_regions3(args) -> int:
    cfg = _config(args)
    w = parse_braid(args.word, 3)
    with mpmath.workdps(cfg.digits + 10):  # atan2 of the exact endpoint rays
        arcs = enumerate_regions_n3(w)
    rec = [
        {
            "arc": [mpmath.nstr(lo, cfg.digits), mpmath.nstr(hi, cfg.digits)],
            "matrix": [[str(x) for x in row] for row in m],
        }
        for (lo, hi), m in arcs
    ]
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(arcs_svg(arcs))
    _emit(
        cfg,
        rec,
        [f"[{r['arc'][0]}, {r['arc'][1]}]  {r['matrix']}" for r in rec],
    )
    return 0


def _parse_measure(text: str) -> Measure:
    doc = json.loads(text)
    weights = {}
    for k, v in doc.items():
        if isinstance(v, str):
            f = Fraction(v)
            weights[k] = int(f) if f.denominator == 1 else f
        else:
            weights[k] = v
    return Measure(weights)


def _load_rational_matrix(path: str):
    with open(path) as fh:
        doc = json.load(fh)
    return [[Fraction(x) for x in row] for row in doc["matrix"]]


# positional arguments of each track subcommand
_TRACK_ARGS = {
    "pf": "FILE",
    "pinch": "FILE EDGE",
    "extend": "FILE",
    "coords": "FILE",
    "conjugacy": "D_FILE L_FILE TP_FILE",
}


def cmd_track(args) -> int:
    cfg = _config(args)
    sub = args.track_cmd
    names = _TRACK_ARGS[sub]
    if len(args.files) != len(names.split()):
        raise DynbraidError(f"track {sub} takes {names}, got {len(args.files)} arguments")
    if (args.measure is None) == (sub == "coords"):
        raise DynbraidError("--measure is required by track coords and only by it")
    if sub == "pf":
        with open(args.files[0]) as fh:
            T = load_transition_matrix(fh.read())
        lam, v = transition_pf(T, precision=cfg.digits + 10)
        rec = {
            "lambda": mpmath.nstr(lam, cfg.digits),
            "eigenvector": [mpmath.nstr(x, cfg.digits) for x in v],
        }
        _emit(cfg, rec, [f"lambda = {rec['lambda']}", f"v = {rec['eigenvector']}"])
    elif sub == "pinch":
        with open(args.files[0]) as fh:
            track = load_track(fh.read())
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
        _emit(cfg, rec, [f"rank {new.rank} complete {new.is_complete}"])
    elif sub == "extend":
        with open(args.files[0]) as fh:
            track = load_track(fh.read())
        count = diagonal_extensions_count(track)
        tracks = enumerate_diagonal_extensions(track)
        rec = {"count": count, "enumerated": len(tracks)}
        _emit(cfg, rec, [f"{count} complete diagonal extensions"])
    elif sub == "coords":
        with open(args.files[0]) as fh:
            track = load_track(fh.read())
        mu = _parse_measure(args.measure)
        v = change_of_coords(track, mu)
        _emit(cfg, json.loads(v.to_json()), [" ".join(str(x) for x in v.flat())])
    elif sub == "conjugacy":
        D = _load_rational_matrix(args.files[0])
        L = _load_rational_matrix(args.files[1])
        Tp = _load_rational_matrix(args.files[2])
        ok = verify_conjugacy(D, L, Tp)
        _emit(cfg, {"conjugate": ok}, [str(ok)])
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
    top.add_argument("--precision", help="comma-separated mantissa-bit ladder")
    top.add_argument("--tol", type=float, default=1e-6, help="probe radius")
    top.add_argument("--seed", type=int, default=2023)
    top.add_argument("--digits", type=int, default=12)
    top.add_argument("--max-iters", type=int, default=5000)
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
        return args.func(args)
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DynbraidError, OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
