#!/usr/bin/env python3
"""Waterfall curves for the rate-1/2 self-matched family.

Runs the channel sweep at two block lengths with the high-rate outer
code and writes one CSV per block length.  Each CSV holds both curves
from the same trials: the full decoder (bit_rate, word_rate) and peeling
alone (peel_bit_rate, peel_word_rate).  Plot the CSVs with any tool;
columns are p, bit_rate, word_rate, unresolved_mean, outer_rescue_rate,
trials, peel_bit_rate, peel_word_rate.
"""

import argparse

from aracodes.sim import SimConfig, emit_csv, run_sweep


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=400)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out-prefix", default="waterfall")
    args = ap.parse_args()

    for k, m_outer in ((8192, 13), (65536, 16)):
        cfg = SimConfig(
            family="self-matched-ara",
            p_start=0.40,
            p_stop=0.49,
            p_step=0.01,
            k=k,
            trials=args.trials,
            seed=args.seed,
            m_outer=m_outer,
            design_p=0.5,
        )
        result = run_sweep(cfg)
        path = f"{args.out_prefix}_k{k}.csv"
        emit_csv(result, path)
        print(f"{path}: {result.wall_time:.1f}s")


if __name__ == "__main__":
    main()
