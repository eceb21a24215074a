#!/usr/bin/env python3
"""Scan braid words for their stretch factors and entropies.

Reads a braid file (one word per line, ``n=<strands>`` first) or generates
random words, computes the Dynnikov matrix and dilatation of each, and prints
a CSV table.  Words without an attracting direction (periodic or reducible)
are reported as non-convergent rather than aborting the scan.

Examples:
    python scripts/entropy_scan.py --braid-file words.braids
    python scripts/entropy_scan.py --random 20 -n 4 --length 8 --seed 5
"""

import argparse
import csv
import random
import sys

import mpmath

from dynbraid.braid import BraidWord, parse_braid_file
from dynbraid.errors import NonConvergence, VerificationFailed
from dynbraid.regions import IterationOptions, dynnikov_matrices


def random_words(count, strands, length, seed):
    rng = random.Random(seed)
    for _ in range(count):
        letters = tuple(
            (rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(length)
        )
        yield BraidWord(strands, letters)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--braid-file", help="file of words, one per line")
    ap.add_argument("--random", type=int, default=0, help="number of random words")
    ap.add_argument("-n", "--strands", type=int, default=4)
    ap.add_argument("--length", type=int, default=10)
    ap.add_argument("--seed", type=int, default=2023)
    ap.add_argument("--max-iters", type=int, default=2000)
    args = ap.parse_args(argv)

    if args.braid_file:
        with open(args.braid_file) as fh:
            words = parse_braid_file(fh.read())
    elif args.random:
        words = list(random_words(args.random, args.strands, args.length, args.seed))
    else:
        ap.error("need --braid-file or --random")

    opts = IterationOptions(max_iters=args.max_iters, seed=args.seed)
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "word", "regions", "dilatation", "entropy", "status"])
    for w in words:
        try:
            mats = dynnikov_matrices(w, opts)
            lam = mats[0].dilatation
            writer.writerow(
                [
                    w.strands,
                    w.render(),
                    len(mats),
                    mpmath.nstr(lam, 12),
                    mpmath.nstr(mpmath.log(lam), 12),
                    "ok",
                ]
            )
        except NonConvergence:
            writer.writerow([w.strands, w.render(), "", "", "", "non-convergent"])
        except VerificationFailed as exc:
            writer.writerow([w.strands, w.render(), "", "", "", f"failed: {exc}"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
