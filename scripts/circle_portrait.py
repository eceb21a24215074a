#!/usr/bin/env python3
"""Portrait of the circle of directions for a 3-strand braid word.

Decomposes the circle of projective directions into maximal arcs on which the
word acts by a fixed integer matrix, prints the arc table, and optionally
writes an SVG with one colored arc per linear piece.

Example:
    python scripts/circle_portrait.py -w "1 -2" --svg circle.svg
"""

import argparse
import sys

import mpmath

from dynbraid.braid import parse_braid
from dynbraid.regions import arcs_svg, enumerate_regions_n3
from dynbraid.spectral import char_poly


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-w", "--word", required=True, help="signed generator indices")
    ap.add_argument("--svg", help="write the arcs to this SVG file")
    args = ap.parse_args(argv)

    w = parse_braid(args.word, 3)
    arcs = enumerate_regions_n3(w)
    print(f"{len(arcs)} arcs for {w.render() or '<identity>'!r} on 3 strands")
    for (lo, hi), m in arcs:
        span = float(hi - lo)
        p = char_poly([list(r) for r in m])
        print(
            f"  [{mpmath.nstr(lo, 8):>12}, {mpmath.nstr(hi, 8):>12}]  "
            f"span {span:7.4f}  matrix {[list(r) for r in m]}  "
            f"char poly {list(p.coeffs)}"
        )
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(arcs_svg(arcs))
        print(f"wrote {args.svg}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
