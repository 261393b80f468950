#!/usr/bin/env python3
"""Catalog summary: rate, complexity, and residual for each family."""

import numpy as np

from aracodes.constructions import CATALOG, build_catalog_pair
from aracodes.tilting import complexity, de_residual, design_rate


def main():
    xs = np.linspace(0, 1, 1001)[1:]
    print(f"{'family':24} {'p':>6} {'rate':>8} {'chi_E':>9} {'chi_D':>9} {'max |resid|':>12}")
    for name, entry in sorted(CATALOG.items()):
        p = entry.representative_p
        pair = build_catalog_pair(name, p, order=512)
        chi = complexity(pair)
        resid = float(np.max(np.abs(de_residual(pair, xs))))
        chi_e = f"{chi.chi_encode:.4f}" if chi.chi_encode is not None else "graph-dep"
        print(
            f"{name:24} {p:>6.3f} {design_rate(pair):>8.4f} {chi_e:>9} "
            f"{chi.chi_decode:>9.4f} {resid:>12.2e}"
        )


if __name__ == "__main__":
    main()
