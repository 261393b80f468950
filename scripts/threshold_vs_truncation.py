#!/usr/bin/env python3
"""Decoding threshold of the rate-1/2 self-matched pair vs truncation depth.

Two truncation styles are compared: moving check tail mass onto degree-1
checks (which seeds decoding and trades rate for threshold), and plain
chopping (which approaches the design threshold from below).
"""

import argparse

from aracodes.constructions import self_matched_ara
from aracodes.tilting import chop_pair, design_rate, threshold_search, truncate_pair


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=float, default=0.5)
    ap.add_argument("--depths", type=int, nargs="+", default=[6, 12, 29, 64, 128, 256])
    args = ap.parse_args()

    pair = self_matched_ara(args.p, order=512)
    print(f"design p = {args.p}, b = {pair.b:.5f}")
    print(f"{'M':>5} {'p* (degree-1 fill)':>20} {'rate':>8} {'p* (plain chop)':>17}")
    for M in args.depths:
        filled = truncate_pair(pair, M)
        chopped = chop_pair(pair, M)
        print(
            f"{M:>5} {threshold_search(filled):>20.5f} "
            f"{design_rate(filled):>8.4f} {threshold_search(chopped):>17.5f}"
        )


if __name__ == "__main__":
    main()
