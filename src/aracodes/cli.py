"""Command-line workbench: construct, de, verify, simulate."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import nonneg, sim, tilting
from .constructions import CATALOG, build_catalog_pair
from .powerseries import (
    DegenerateInputError, InvalidInputError, InvalidParameterError, NumericDomainError, ValidityError,
)
from .codec import ConstructionError


def _add_pair_args(sub: argparse.ArgumentParser, builds: bool) -> None:
    """Options naming a catalog pair; ``verify`` builds none, so it gates on no bound."""
    sub.add_argument("--family", required=True, choices=sorted(CATALOG))
    sub.add_argument("--p", type=float, required=True, help="design erasure probability")
    sub.add_argument("--b", type=_parse_b, default=None,
                     help="series parameter of the self-matched families, or 'auto' to solve for it")
    unread = "not read by verify; accepted so the design commands share one argument list"
    sub.add_argument("--M", type=int, default=512, help="series truncation depth" if builds else unread)
    if builds:
        sub.add_argument(
            "--allow-unproven",
            action="store_true",
            help="accept the numerically observed validity range for the regular families",
        )


def _parse_b(value):
    if value is None or value == "auto":
        return None
    return float(value)


def _build_pair(args):
    return build_catalog_pair(
        args.family,
        args.p,
        b=args.b,
        order=args.M,
        allow_unproven=args.allow_unproven,
    )


def cmd_construct(args) -> int:
    pair = _build_pair(args)
    print(pair.to_json())
    return 0


def cmd_de(args) -> int:
    if args.grid < 1:
        raise InvalidParameterError("--grid must be at least 1")
    pair = _build_pair(args)
    xs = np.linspace(0.0, 1.0, args.grid + 1)[1:]
    resid = tilting.de_residual(pair, xs)
    print("\n".join(f"{x:.6f},{r:.6e}" for x, r in zip(xs.tolist(), resid.tolist())))
    stab = tilting.stability(pair)
    chi = tilting.complexity(pair)
    trunc = tilting.truncate_pair(pair, args.M)
    summary = {
        "family": args.family,
        "p": args.p,
        "b": pair.b,
        "max_abs_residual": float(np.max(np.abs(resid))),
        "p_star": tilting.threshold_search(trunc),
        "stable_at_0": stab.stable_at_0,
        "unstable_at_1": stab.unstable_at_1,
        "margins": [stab.margin_at_0, stab.margin_at_1],
        "design_rate": tilting.design_rate(pair),
        "chi_encode": chi.chi_encode,
        "chi_decode": chi.chi_decode,
    }
    print(json.dumps(summary))
    return 0


def cmd_verify(args) -> int:
    print(json.dumps(nonneg.verify_family(args.family, args.p, b=args.b, grid_n=args.grid)))
    return 0


def cmd_simulate(args) -> int:
    # an option not given is absent from args, so its field keeps its default
    cfg = sim.SimConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(sim.SimConfig)
                           if hasattr(args, f.name)})
    result = sim.run_sweep(cfg)
    sim.emit_csv(result, args.out)
    print(f"wrote {len(result.table)} sweep points to {args.out} in {result.wall_time:.1f}s")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="aracodes")
    subs = parser.add_subparsers(dest="command", required=True)

    p_con = subs.add_parser("construct", help="emit a degree pair as JSON")
    _add_pair_args(p_con, builds=True)
    p_con.set_defaults(func=cmd_construct)

    p_de = subs.add_parser("de", help="fixed-point residual grid and threshold summary")
    _add_pair_args(p_de, builds=True)
    p_de.add_argument("--grid", type=int, default=1000)
    p_de.set_defaults(func=cmd_de)

    p_ver = subs.add_parser("verify", help="non-negativity verification report")
    _add_pair_args(p_ver, builds=False)
    p_ver.add_argument("--grid", type=int, default=8192)
    p_ver.set_defaults(func=cmd_verify)

    # each option's dest is the SimConfig field it sets; the field holds its default
    p_sim = subs.add_parser("simulate", help="Monte Carlo erasure-channel sweep",
                            argument_default=argparse.SUPPRESS)
    p_sim.add_argument("--family", required=True, choices=sorted(CATALOG))
    p_sim.add_argument("--p-start", type=float, required=True)
    p_sim.add_argument("--p-stop", type=float, required=True)
    p_sim.add_argument("--p-step", type=float, required=True)
    p_sim.add_argument("--k", type=int, required=True)
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--design-p", type=float, required=True,
                       help="erasure probability the one code of the sweep is designed at")
    p_sim.add_argument("--outer-m", dest="m_outer", metavar="OUTER_M", type=int)
    p_sim.add_argument("--d-l", dest="d_L", type=int)
    p_sim.add_argument("--d-r", dest="d_R", type=int)
    p_sim.add_argument("--b", type=_parse_b)
    p_sim.add_argument("--M", dest="order", metavar="M", type=int)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameterError, InvalidInputError, DegenerateInputError, ValidityError,
            NumericDomainError, ConstructionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
