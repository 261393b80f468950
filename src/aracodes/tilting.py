"""Graph-reduction transforms, density-evolution machinery, and bookkeeping.

Observed channel bits let the accumulator chains be collapsed: known code
bits are absorbed into their neighbouring checks, erased ones merge the
checks; known systematic bits merge neighbouring punctured bits, erased
ones drop out.  What remains is a plain LDPC decoding problem at erasure
probability one, with "tilted" degree distributions.  This module applies
those transforms to series and to evaluators, and provides the fixed-point
residual, stability margins, rate/complexity accounting, the bit/check
symmetry swap, and a truncation-aware threshold search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .powerseries import (
    DegenerateInputError,
    DegreeDistribution,
    DegreePair,
    InvalidParameterError,
    NumericDomainError,
    PowerSeries,
    TILTED_SIDES,
    ValidityError,
)


def _check_p(p: float) -> float:
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("erasure probability must lie in (0, 1)")
    return float(p)


def _weights(side: str, p: float) -> tuple[float, float]:
    """Scale a and feedback weight w of one side's graph reduction at p."""
    if side == "check":
        return 1.0 - p, p
    if side == "bit":
        return p, 1.0 - p
    raise InvalidParameterError("side must be 'bit' or 'check'")


def tilt(node, edge, side: str, p: float):
    """Graph reduction of one side's (node, edge) pair at erasure p.

    Node N maps to a N / (1 - w N) and edge e to a^2 e / (1 - w N)^2, with
    (a, w) = (1-p, p) on the check side and (p, 1-p) on the bit side.
    Plain arithmetic, so series, real arrays and complex arrays all work;
    pass ``edge=None`` when only the node half is wanted.  At the identity
    erasure (w = 0) the inputs come back as they are.
    """
    a, w = _weights(side, p)
    if w == 0.0:
        return node, edge
    den = 1.0 - w * node
    return a * node / den, None if edge is None else a ** 2 * edge / (den * den)


def untilt(node, edge, side: str, p: float):
    """Inverse of :func:`tilt`: T maps to T / (a + w T), e to e / (a + w T)^2."""
    a, w = _weights(side, p)
    if w == 0.0:
        return node, edge
    den = a + w * node
    return node / den, None if edge is None else edge / (den * den)


def untilt_node(tilde: PowerSeries, side: str, p: float) -> PowerSeries:
    """Inverse of the node half of :func:`tilt`: recovers the pre-reduction node d.d."""
    a, w = _weights(side, p)
    if abs(a + w * float(tilde.coeffs[0])) < 1e-300:
        raise NumericDomainError("untilt denominator vanishes at the origin")
    return untilt(tilde, None, side, p)[0]


def _raw_values(node_fn: Callable, edge_fn: Callable, x, side: str, p: float) -> tuple:
    """One side's (node, edge) values at real arguments x, before the tilt.

    The node is None at the identity erasure, where the tilt does not read it.
    """
    node = None if _weights(side, p)[1] == 0.0 else np.asarray(node_fn(x), dtype=float)
    return node, np.asarray(edge_fn(x), dtype=float)


def _tilt_values(node: Optional[np.ndarray], edge: np.ndarray, side: str, p: float) -> np.ndarray:
    """Tilted edge values at p from one side's raw (node, edge) values."""
    w = _weights(side, p)[1]
    if w == 0.0:
        return edge
    if np.any(1.0 - w * node <= 0.0):
        raise NumericDomainError("tilt denominator not positive on [0, 1]")
    return tilt(node, edge, side, p)[1]


def _untilt_fns(node_fn: Callable, edge_fn: Callable, side: str, p: float) -> tuple[Callable, Callable]:
    """Pointwise untilt of a tilted (node, edge) evaluator pair; the pair
    itself at the identity erasure."""
    if _weights(side, p)[1] == 0.0:
        return node_fn, edge_fn
    return (
        lambda x: untilt(node_fn(x), None, side, p)[0],
        lambda x: untilt(node_fn(x), edge_fn(x), side, p)[1],
    )


def _accumulated(family: str) -> tuple[bool, bool]:
    """Whether the family's bit side and check side carry an accumulator."""
    if family not in TILTED_SIDES:
        raise InvalidParameterError(f"unknown family {family!r}")
    return "bit" in TILTED_SIDES[family], "check" in TILTED_SIDES[family]


def side_erasures(family: str, p: float) -> tuple[float, float]:
    """Erasure probabilities (bit, check) at which the family tilts its sides.

    A side the family's graph reduction leaves as is is tilted at its
    identity erasure, where (a, w) = (1, 0): p = 1 on the bit side, p = 0
    on the check side.  The tilt returns its input there, so every consumer
    tilts both sides with no family branch.
    """
    bit, check = _accumulated(family)
    return p if bit else 1.0, p if check else 0.0


# ---------------------------------------------------------------------------
# density evolution
# ---------------------------------------------------------------------------

def de_residual(pair: DegreePair, x, p: Optional[float] = None):
    """Fixed-point residual LHS(x) - x of the family's DE equation.

    Uses each side's evaluators, exact or its truncated series.  Zero at
    every fixed point; negative everywhere on (0, 1) means the decoder
    erasure probability contracts to zero.
    """
    p = _check_p(pair.p if p is None else p)
    out = _residual_fn(pair, np.asarray(x, dtype=float), p)(p)
    return float(out) if out.ndim == 0 else out


def _residual_fn(pair: DegreePair, x: np.ndarray, p: float) -> Callable[..., np.ndarray]:
    """The family's DE residual at fixed x, as a function of the erasure.

    A side's raw values are evaluated only where their argument moves with
    the erasure.  The check side's argument 1 - x never does, so its values
    are evaluated once, here; only their tilt, with its domain check, is
    redone at each erasure.  The bit side's argument 1 - rho~(1 - x) moves
    only when the check side is tilted, and is otherwise evaluated once too.
    Which sides sit at their identity erasure depends on the family alone,
    so it is read at p, the first erasure probed.

    The residual takes an index ``at`` into x (default: all of x).  The
    check side is still tilted on all of x, domain check included, but the
    bit side is evaluated at x[at] alone, on Python floats when it is a
    series, so the value is the same bits as that entry of the full residual.
    """
    p_bit, p_check = side_erasures(pair.family, p)
    check = _raw_values(*pair.check.fns, 1.0 - x, "check", p_check)

    def bit_at(q_bit: float, q_check: float, at) -> tuple:
        return _raw_values(*pair.bit.fns, (1.0 - _tilt_values(*check, "check", q_check))[at], "bit", q_bit)

    bit = bit_at(p_bit, p_check, ...) if p_check == 0.0 else None

    def residual(q: float, at=...) -> np.ndarray:
        q_bit, q_check = side_erasures(pair.family, q)
        raw = bit_at(q_bit, q_check, at) if bit is None else tuple(v[at] for v in bit)
        return _tilt_values(*raw, "bit", q_bit) - x[at]

    return residual


@dataclass(frozen=True)
class StabilityReport:
    stable_at_0: bool
    unstable_at_1: bool
    margin_at_0: float
    margin_at_1: float


#: Distance from one within which a stability margin counts as holding.
MARGINAL_TOL = 1e-6


def stability(pair: DegreePair, p: Optional[float] = None) -> StabilityReport:
    """Derivative conditions of the fixed points at x = 0 and x = 1.

    The zero fixed point is stable when the derivative there is below one;
    the all-erased fixed point is usefully unstable when its derivative
    exceeds one, which needs degree-2 check mass.  Exactly matched pairs
    have both derivatives equal to one (the map is the identity), so the
    predicates treat values within ``MARGINAL_TOL`` of one as holding.
    Each slope multiplies one side's tilted edge slope at 0 by the other's
    at 1, each side tilted at its erasure from :func:`side_erasures`.
    """
    p = _check_p(pair.p if p is None else p)
    p_bit, p_check = side_erasures(pair.family, p)

    def slopes(dist: DegreeDistribution, side: str, q: float) -> tuple[float, float]:
        """Tilted edge-function slopes of one side at 0 and at 1."""
        a, w = _weights(side, q)
        e2 = float(dist.edge.coeffs[1]) if dist.edge.order >= 1 else 0.0
        return a * a * e2, dist.edge.deriv_at_one() + 2.0 * w * dist.mean / a

    lam0, lam1 = slopes(pair.bit, "bit", p_bit)
    rho0, rho1 = slopes(pair.check, "check", p_check)
    margin0 = lam0 * rho1
    margin1 = rho0 * lam1
    return StabilityReport(
        margin0 < 1.0 + MARGINAL_TOL, margin1 > 1.0 - MARGINAL_TOL, margin0, margin1
    )


def design_rate(pair: DegreePair) -> float:
    """Design rate implied by the edge-count ratio of the two sides.

    Per punctured bit there are ``ratio`` checks.  Each punctured bit
    carries one information bit, less one per check when the check side has
    no accumulator (ALDPC: the checks constrain the transmitted bits
    directly).  An accumulated bit side transmits one bit per punctured bit,
    an accumulated check side one parity bit per check.  A rate at or below
    zero (an ALDPC pair with more checks than punctured bits, as a deep
    truncation leaves) carries no information and raises ``ValidityError``.
    """
    ratio = pair.bit.mean / pair.check.mean  # checks per punctured bit; DegreePair keeps it finite and positive
    bit, check = _accumulated(pair.family)
    rate = (1.0 - (not check) * ratio) / (bit + check * ratio)
    if rate <= 0.0:
        raise ValidityError(f"design rate {rate:.6g} of the {pair.family} pair is not positive")
    return rate


@dataclass(frozen=True)
class ComplexityReport:
    chi_encode: Optional[float]
    chi_decode: float


def complexity(pair: DegreePair) -> ComplexityReport:
    """Edges per information bit for encoder and decoder.

    Each accumulator adds its chain edges to the pair's bit-side edges:
    three per punctured bit on the bit side, two per parity bit on the
    check side.  ALDPC encoding is graph-dependent (it can be quadratic
    without preprocessing), so only the decoding count is reported there.
    A pair whose design rate is not positive raises ``ValidityError``.
    """
    rate = design_rate(pair)
    mean = pair.bit.mean
    bit, check = _accumulated(pair.family)
    if not check:
        return ComplexityReport(None, (3.0 + mean) / rate)
    chi = 3.0 * bit + mean + 2.0 * (1.0 - rate * bit) / rate
    return ComplexityReport(chi, chi)


_SWAP_FAMILY = {"ARA": "ARA", "NSIRA": "ALDPC", "ALDPC": "NSIRA"}


def symmetry_swap(pair: DegreePair) -> DegreePair:
    """Swap bit and check distributions and map p to 1 - p.

    ARA maps to ARA, NSIRA and ALDPC map to each other.  A pair that
    satisfies its DE fixed-point equation maps to one that satisfies the
    swapped family's equation at the complementary erasure rate.
    """
    return replace(pair, bit=pair.check, check=pair.bit, family=_SWAP_FAMILY[pair.family], p=1.0 - pair.p)


def _check_max_degree(max_degree: int) -> None:
    if max_degree < 2:
        raise InvalidParameterError("max_degree must be at least 2")


def _chop_side(dist: DegreeDistribution, max_degree: int) -> DegreeDistribution:
    """One side with its edge mass above max_degree dropped, not renormalized.

    The node series is cut at max_degree and the mean kept; the cut side
    evaluates its own cut series, not the exact evaluators of ``dist``.
    """
    if float((dist.edge.coeffs / np.arange(1, len(dist.edge.coeffs) + 1)).sum()) <= 0.0:
        raise DegenerateInputError("edge distribution has no mass")
    return DegreeDistribution(dist.node.truncated(max_degree), dist.edge.truncated(max_degree - 1), dist.mean)


def truncate_pair(pair: DegreePair, max_degree: int) -> DegreePair:
    """Finite-maximum-degree version of a pair.

    Check mass above ``max_degree``, stored or not, becomes degree-1 mass
    (1 minus the rest); bit mass above it is dropped outright, leaving the
    bit side sub-stochastic (those nodes become pilots in a finite realization).
    """
    _check_max_degree(max_degree)
    edge = pair.check.edge.truncated(max_degree - 1).coeffs.copy()
    edge[0] = 1.0 - float(edge[1:].sum())
    check = DegreeDistribution.from_edge(PowerSeries(edge))
    return replace(pair, check=check, bit=_chop_side(pair.bit, max_degree))


def chop_pair(pair: DegreePair, max_degree: int) -> DegreePair:
    """Plain storage chop of both sides, with no degree-1 compensation.

    Unlike :func:`truncate_pair` this weakens the check side, so the
    decodable region shrinks: its threshold sits strictly below the
    design erasure probability and climbs back as max_degree grows.
    """
    _check_max_degree(max_degree)
    return replace(pair, bit=_chop_side(pair.bit, max_degree), check=_chop_side(pair.check, max_degree))


def threshold_search(pair: DegreePair, grid_n: int = 1000) -> float:
    """Largest p for which the DE residual stays non-positive on (0, 1].

    Bisection over p to within 1e-5, counting a residual up to 1e-9 as
    non-positive; ties break toward the smaller p.  Returns 0.0 when
    even the smallest probed p admits a fixed point in (0, 1].  Series whose
    argument does not move with p are evaluated once per search.

    A step passes only when every grid point does, so one failing point
    decides it.  Each step first tests the grid point that was worst in the
    last step to fail on the full grid, and runs the full grid only when
    that point passes.  The one-point value is the same bits as its grid
    entry, so every step decides as a full-grid step would; the bit side's
    domain is checked at the points that are evaluated.
    """
    xs = np.linspace(0.0, 1.0, grid_n + 1)[1:]
    lo, hi = 1e-4, 1.0 - 1e-4
    residual = _residual_fn(pair, xs, lo)
    worst = None  # grid index of the largest residual in the last full-grid failure

    def passes(p: float) -> bool:
        nonlocal worst
        if worst is not None and residual(p, worst) > 1e-9:
            return False
        values = residual(p)
        at = int(np.argmax(values))  # the first nan, if there is one
        if values[at] <= 1e-9:
            return True
        worst = at
        return False

    if not passes(lo):
        return 0.0
    if passes(hi):
        return hi
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo
