"""Test-only reference code.

Each piece here is a second route to something the package computes, or a
formula that only the tests read:

* a full-length Horner evaluation, an exhaustive codeword check, and text
  forms of codec objects;
* the graph reduction with per-word group ids and int64 keys;
* the mass a pair's truncated series miss;
* the matching transform by bisection, and the check-side solver built on
  it, a pointwise route to the matched image that no family builds with;
* the tilted edge functions of a pair, built through ``tilt`` on the
  pair's evaluators and series;
* the six-message decoder recursion, which cross-checks ``de_residual``;
* the composition-count table and the self-matched coefficient recursion
  built on it (criterion 07);
* the large-degree coefficient asymptotics (criterion 08);
* the binomial series and the square-root fixed-point family (a
  documented negative example).
"""

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.polynomial import polyval

from aracodes.codec import CodeInstance, Codeword, ReceivedWord, ResidualGraph
from aracodes.constructions import _alpha, _image_fns, _polynomial_bit_side, matched_check_node_series
from aracodes.powerseries import (
    DEFAULT_ORDER, DegreePair, InvalidInputError, InvalidParameterError, NumericDomainError, PowerSeries,
    edge_from_node, monomial,
)
from aracodes.tilting import side_erasures, tilt, untilt_node


def full_horner(coeffs, x):
    """Horner's rule over every stored coefficient, c_M down to c_0."""
    x = np.asarray(x, dtype=float)
    result = np.zeros_like(x)
    for c in coeffs[::-1]:
        result = result * x + c
    return result


def check_codeword(inst: CodeInstance, cw: Codeword) -> bool:
    """Exhaustively verify all graph, pilot, and outer-code constraints."""
    v = (np.cumsum(cw.u, dtype=np.int64) & 1).astype(np.uint8)
    w = np.bitwise_xor.reduceat(v[inst.edge_targets], inst.check_offsets[:-1])
    z = (np.cumsum(w, dtype=np.int64) & 1).astype(np.uint8)
    if not np.array_equal(z, cw.z):
        return False
    if np.any(v[inst.pilot_set]):
        return False
    m = inst.m_outer
    if m:
        want = (inst.outer_P @ v[: inst.k - m]) & 1
        if not np.array_equal(v[inst.k - m :], want):
            return False
    return True


def codeword_to_string(cw: Codeword) -> str:
    return "".join(str(int(b)) for b in cw.u) + "|" + "".join(str(int(b)) for b in cw.z)


def received_to_string(rcv: ReceivedWord) -> str:
    sym = {-1: "e", 0: "0", 1: "1"}
    return "".join(sym[int(x)] for x in rcv.u_vals) + "|" + "".join(sym[int(x)] for x in rcv.z_vals)


def received_from_string(text: str) -> ReceivedWord:
    u_part, z_part = text.split("|")
    conv = lambda ch: -1 if ch == "e" else int(ch)
    return ReceivedWord(
        u_vals=np.array([conv(c) for c in u_part], dtype=np.int8),
        z_vals=np.array([conv(c) for c in z_part], dtype=np.int8),
    )


def instance_descriptor(inst: CodeInstance) -> str:
    doc = {
        "k": inst.k,
        "check_degrees": inst.check_degrees.tolist(),
        "bit_degrees": inst.bit_degrees.tolist(),
        "pilots": inst.pilot_set.tolist(),
        "outer_shape": list(inst.outer_P.shape),
    }
    return json.dumps(doc)


def reference_reduce(inst: CodeInstance, rcv: ReceivedWord) -> ResidualGraph:
    """``graph_reduce_instance`` as it was before the instance's socket-to-check
    map and the uint32 keys: each word repeats its group ids out of the
    group sizes, and every key is int64."""
    k = inst.k
    u_vals, z_vals = rcv.u_vals, rcv.z_vals
    erased_u = u_vals < 0

    cls = np.add.accumulate(erased_u, dtype=np.int64)
    n_classes = int(cls[-1]) + 1 if k else 1
    prefix = np.bitwise_xor.accumulate(np.maximum(u_vals, 0).view(np.uint8))
    starts = erased_u.nonzero()[0]
    base = np.zeros(n_classes, dtype=np.uint8)
    if len(starts):
        base[1:] = prefix[starts]
    off = prefix ^ base[cls]

    known = np.zeros(n_classes, dtype=bool)
    vals = np.zeros(n_classes, dtype=np.uint8)
    known[0] = True
    pc = cls[inst.pilot_set]
    known[pc] = True
    vals[pc] = off[inst.pilot_set]

    observed_z = z_vals >= 0
    zo = z_vals[observed_z].astype(np.uint8)
    grp_end = inst.check_offsets[1:][observed_z]
    closed = inst.edge_targets[: grp_end[-1] if len(zo) else 0]
    grp_size = grp_end.copy()
    grp_size[1:] -= grp_end[:-1]
    sock_grp = np.repeat(np.arange(len(zo)), grp_size)
    sock_prefix = np.zeros(len(closed) + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate((off ^ vals[cls])[closed], out=sock_prefix[1:])
    t = zo ^ sock_prefix[grp_end]
    grp_syndrome = t.copy()
    grp_syndrome[1:] ^= t[:-1]

    s = len(zo).bit_length()
    top = np.iinfo(np.int64).max
    cls_key = np.where(known, top, np.arange(n_classes, dtype=np.int64) << s)
    keys = cls_key[cls][closed] | sock_grp
    keys.sort()
    keys = keys[: np.searchsorted(keys, top)]
    edge = np.ones(len(keys) + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    bounds = edge.nonzero()[0]
    odd = keys[bounds[:-1][(bounds[1:] - bounds[:-1]) & 1 == 1]]

    return ResidualGraph(
        n_classes=n_classes, cls=cls, off=off, known=known, vals=vals, grp_syndrome=grp_syndrome,
        inc_grp=odd & ((1 << s) - 1), inc_cls=odd >> s,
    )


def tail_mass(pair: DegreePair) -> float:
    """Mass missing from a pair's truncated series: the largest over both
    sides, each in node and edge perspective."""
    sides = (pair.bit, pair.check)
    return max(0.0, *(1.0 - float(s.coeffs.sum()) for side in sides for s in (side.edge, side.node)))


# ---------------------------------------------------------------------------
# the matching transform by bisection, and the check side it solves
# ---------------------------------------------------------------------------

def t_operator(f: Callable) -> Callable:
    """Matching transform: returns x -> 1 - f^{-1}(1 - x).

    Requires f strictly increasing on [0, 1] with f(0) = 0 and f(1) = 1;
    the endpoints are anchored exactly so that numerically fuzzy values
    there (flat tangents resolve only to sqrt(eps)) cannot leak out.  The
    inverse is computed by bisection, so only pointwise values of f are
    needed.  Applying the operator twice reproduces f.
    """
    f0, f1 = float(f(0.0)), float(f(1.0))
    if abs(f0) > 1e-6 or abs(f1 - 1.0) > 1e-6:
        raise InvalidInputError("function must satisfy f(0) = 0 and f(1) = 1")
    probes = np.linspace(0.0, 1.0, 9)
    values = np.array([float(f(t)) for t in probes])
    if np.any(np.diff(values) <= 0.0):
        raise InvalidInputError("function must be strictly increasing on [0, 1]")

    def inverse(y: float) -> float:
        if y <= 0.0:
            return 0.0
        if y >= 1.0:
            return 1.0
        a, b = 0.0, 1.0
        for _ in range(80):
            m = 0.5 * (a + b)
            if b - a < 1e-15:
                break
            if float(f(m)) < y:
                a = m
            else:
                b = m
        return 0.5 * (a + b)

    def transformed(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xs)
        for i, xi in enumerate(xs):
            yi = 1.0 - xi
            if yi < -1e-9 or yi > 1.0 + 1e-9:
                raise NumericDomainError(f"target {yi} outside [0, 1]")
            out[i] = 1.0 - inverse(yi)
        return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out

    return transformed


@dataclass(frozen=True)
class CheckSideSolution:
    """Check side recovered from a bit side: series plus pointwise evaluators."""

    R: PowerSeries
    rho: PowerSeries
    R_fn: Callable
    rho_fn: Callable


def solve_check_from_bit(L: PowerSeries, p: float, order: int = DEFAULT_ORDER) -> CheckSideSolution:
    """Recover the check side matched to a polynomial bit side at erasure p.

    Pipeline: tilt the bit side, take the matched image of the tilted
    edge function (``matched_image_series`` for the series,
    :func:`t_operator` on the tilted bit edge for the evaluator, real x
    only), integrate it (term by term, or by parts in closed form), and
    untilt back to the check node distribution.  The same routine run at
    1 - p solves the bit side from a check side.
    """
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie in (0, 1)")
    Lc, mean = _polynomial_bit_side(L)
    R = matched_check_node_series(L, "ARA", p, order)
    rho = edge_from_node(R, exact_mean=(1.0 - p) * mean / p)
    lam = np.arange(1, len(Lc)) * Lc[1:] / mean
    edge = t_operator(lambda u: float(tilt(polyval(u, Lc), polyval(u, lam), "bit", p)[1]))
    R_fn, rho_fn = _image_fns(L, p, p, edge)
    return CheckSideSolution(R=R, rho=rho, R_fn=R_fn, rho_fn=rho_fn)


# ---------------------------------------------------------------------------
# graph reduction and the full decoder recursion
# ---------------------------------------------------------------------------

def tilted_edge(pair: DegreePair, side: str, p: Optional[float] = None) -> tuple[PowerSeries, Callable]:
    """One side's edge function after the family's graph reduction at p
    (default: the pair's design p), as a series truncated at the pair's
    order and as an evaluator on the pair's exact (node, edge) evaluators.

    The side is tilted at its erasure from ``side_erasures``; at the
    identity erasure both come back untilted.
    """
    p_bit, p_check = side_erasures(pair.family, pair.p if p is None else p)
    if side == "bit":
        dist, node_fn, edge_fn, q = pair.bit, pair.bit.fns[0], pair.bit.fns[1], p_bit
    else:
        dist, node_fn, edge_fn, q = pair.check, pair.check.fns[0], pair.check.fns[1], p_check
    M = max(pair.bit.order, pair.check.order)
    series = tilt(dist.node, dist.edge.truncated(M), side, q)[1].truncated(M)
    values = lambda x: (np.asarray(node_fn(x), dtype=float), np.asarray(edge_fn(x), dtype=float))
    return series, lambda x: tilt(*values(x), side, q)[1]


@dataclass(frozen=True)
class DEState:
    """The six erasure-message probabilities of one decoder iteration."""

    x0: float = 1.0
    x1: float = 1.0
    x2: float = 1.0
    x3: float = 1.0
    x4: float = 1.0
    x5: float = 1.0
    iteration: int = 0

    @classmethod
    def uniform(cls, value: float) -> "DEState":
        v = float(value)
        return cls(v, v, v, v, v, v, 0)


def de_iterate(state: DEState, pair: DegreePair, p: float) -> DEState:
    """One sweep of the six-message decoder recursion on the full graph.

    Messages go down through the layers and back up; this is the exact
    per-layer schedule, kept separate from the collapsed fixed-point
    residual so the two can cross-validate each other.
    """
    L = pair.bit.fns[0]
    lam = pair.bit.fns[1]
    R = pair.check.fns[0]
    rho = pair.check.fns[1]
    x0 = 1.0 - (1.0 - state.x5) * (1.0 - p)
    x1 = x0 * x0 * float(lam(state.x4))
    x2 = 1.0 - float(R(1.0 - x1)) * (1.0 - state.x3)
    x3 = p * x2
    x4 = 1.0 - (1.0 - x3) ** 2 * float(rho(1.0 - x1))
    x5 = x0 * float(L(x4))
    clip = lambda v: min(max(v, 0.0), 1.0)
    return DEState(clip(x0), clip(x1), clip(x2), clip(x3), clip(x4), clip(x5), state.iteration + 1)


# ---------------------------------------------------------------------------
# composition-count table and self-matched coefficients (criterion 07)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CmkTable:
    """Triangular table of ordered-composition sums.

    Entry (m, k) is the sum of 1/(i_1 ... i_m) over ordered tuples of
    integers >= 2 summing to k; it is the coefficient extractor for the
    m-th power of x^2/2 + x^3/3 + x^4/4 + ...  Row 1 is 1/k and entries
    vanish for k < 2m.
    """

    values: np.ndarray  # shape (k_max // 2 + 1, k_max + 1)
    k_max: int

    def c(self, m: int, k: int) -> float:
        if m < 1 or k < 2 * m or k > self.k_max:
            return 0.0
        return float(self.values[m, k])


@lru_cache(maxsize=8)
def _cmk_values(k_max: int) -> np.ndarray:
    m_max = k_max // 2
    table = np.zeros((m_max + 1, k_max + 1))
    ks = np.arange(2, k_max + 1)
    table[1, 2:] = 1.0 / ks
    for m in range(2, m_max + 1):
        prefix = np.cumsum(table[m - 1])
        lo = 2 * (m - 1)
        ks = np.arange(2 * m, k_max + 1)
        # sum of row m-1 over [2(m-1), k-2], via prefix sums
        table[m, 2 * m:] = m / ks * (prefix[ks - 2] - prefix[lo - 1])
    table.flags.writeable = False
    return table


def cmk_table(k_max: int) -> CmkTable:
    if k_max < 2:
        raise InvalidParameterError("k_max must be at least 2")
    return CmkTable(values=_cmk_values(k_max), k_max=k_max)


def self_matched_coeffs_recursion(p: float, b: float, order: int) -> np.ndarray:
    """Node coefficients of the self-matched bit side via the table recursion.

    Exact in exact arithmetic, but the alternating sum cancels like
    b^(-2k) in floating point, so past k of roughly 150 the values
    degrade; untilting the ratio side's series (same-scale b^k terms only)
    is the stable production route, and the two are cross-checked.
    """
    table = _cmk_values(max(order, 2))
    a = _alpha(p, b)
    m_max = table.shape[0] - 1
    signs = (-a) ** np.arange(m_max)  # (-1)^{m-1} a^{m-1} for m = 1..m_max
    sums = signs @ table[1:, : order + 1]
    k = np.arange(order + 1)
    coeffs = a / (1.0 - p) * np.power(b, k) * sums
    coeffs[:2] = 0.0
    return coeffs


# ---------------------------------------------------------------------------
# large-degree asymptotics (criterion 08)
# ---------------------------------------------------------------------------

EULER_GAMMA = 0.57721566490153286061


@dataclass(frozen=True)
class AsymptoticParams:
    """Ingredients of the large-degree coefficient approximation."""

    p: float
    b: float
    alpha: float
    d: float
    gamma: float = EULER_GAMMA

    @classmethod
    def from_pb(cls, p: float, b: float) -> "AsymptoticParams":
        a = _alpha(p, b)
        if not (a > 0.0):
            raise InvalidParameterError("alpha must be positive for p, b in (0, 1)")
        return cls(p=p, b=b, alpha=a, d=a / (1.0 - a))


def asymptotic_coeffs(k: int, params: AsymptoticParams, which: str = "L") -> float:
    """Large-degree estimate of a self-matched coefficient.

    The node-side estimate decays like b^k / (k ln^2 k); the edge side
    carries an extra factor k (1-b) / (b^2 p^2).  The check side is the
    bit side with p replaced by 1 - p.
    """
    if k < 2:
        raise InvalidParameterError("asymptotics need k >= 2")
    p, b = params.p, params.b
    if which in ("R", "rho"):
        params = AsymptoticParams.from_pb(1.0 - p, b)
        pp = 1.0 - p
    else:
        pp = p
    a, d, g = params.alpha, params.d, params.gamma
    lead = 1.0 / ((1.0 - a) * (1.0 - pp)) * b ** k / k
    bracket = 1.0 / (1.0 + d * np.log(k)) ** 2 * (1.0 - 2.0 * g / (1.0 + d * np.log(k)))
    node_value = lead * bracket
    if which in ("L", "R"):
        return float(node_value)
    if which in ("lambda", "rho"):
        return float((1.0 - b) * k / (b ** 2 * pp ** 2) * node_value)
    raise InvalidParameterError("which must be 'L', 'R', 'lambda' or 'rho'")


# ---------------------------------------------------------------------------
# the alternate fixed-point family: a documented negative example
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AltProbeReport:
    """Scan result for the square-root fixed-point family."""

    alpha: float
    p_grid: np.ndarray
    bit_min_coeff: np.ndarray
    check_min_coeff: np.ndarray
    bit_interval: tuple[float, float]
    check_interval: tuple[float, float]
    overlap: bool
    fixed_point_residual: float


def alt_fixed_point_fn(alpha: float) -> Callable:
    """The square-root fixed point of the matching transform, for alpha <= 1/2."""
    if not (0.0 < alpha <= 0.5):
        raise InvalidParameterError("alpha must lie in (0, 1/2]")
    A = 1.0 + 1.0 / (2.0 * alpha)

    def f(x):
        x = np.asarray(x, dtype=float)
        return A - x - np.sqrt(A * A - 2.0 * x / alpha)

    return f


def alt_self_matched_probe(
    alpha: float,
    p_grid: Optional[np.ndarray] = None,
    order: int = 200,
) -> AltProbeReport:
    """Show that the square-root fixed point yields no valid two-sided pair.

    The candidate bit side is non-negative only for p near 1 and the
    check side is its mirror at 1 - p, so the two validity intervals
    cannot overlap.  Also verifies the fixed-point property itself.
    """
    f = alt_fixed_point_fn(alpha)
    grid = np.linspace(0.05, 0.95, 19) if p_grid is None else np.asarray(p_grid, dtype=float)

    xs = np.linspace(0.01, 0.99, 99)
    tf = t_operator(lambda x: float(f(x)))
    residual = float(np.max(np.abs(tf(xs) - f(xs))))

    A = 1.0 + 1.0 / (2.0 * alpha)
    s = 2.0 / (alpha * A * A)
    root = A * _scaled_binomial(0.5, s, order)
    f_series = (A - root) - monomial(1, order)
    tilde = f_series.antiderivative().truncated(order) * (1.0 / (0.5 - 2.0 * alpha / 3.0))

    bit_mins = np.empty(len(grid))
    check_mins = np.empty(len(grid))
    for i, p in enumerate(grid):
        bit = untilt_node(tilde, "bit", p)
        check = untilt_node(tilde, "check", p)
        bit_mins[i] = float(bit.coeffs.min())
        check_mins[i] = float(check.coeffs.min())

    def interval(mins):
        ok = grid[mins >= -1e-9]
        return (float(ok.min()), float(ok.max())) if len(ok) else (np.nan, np.nan)

    bit_iv = interval(bit_mins)
    check_iv = interval(check_mins)
    overlap = (
        not np.isnan(bit_iv[0])
        and not np.isnan(check_iv[0])
        and bit_iv[0] <= check_iv[1]
        and check_iv[0] <= bit_iv[1]
    )
    return AltProbeReport(
        alpha=alpha,
        p_grid=grid,
        bit_min_coeff=bit_mins,
        check_min_coeff=check_mins,
        bit_interval=bit_iv,
        check_interval=check_iv,
        overlap=overlap,
        fixed_point_residual=residual,
    )


def binomial_series(alpha: float, order: int) -> PowerSeries:
    """Series of (1 - x)^alpha."""
    c = np.zeros(order + 1)
    c[0] = 1.0
    for k in range(1, order + 1):
        c[k] = -c[k - 1] * (alpha - k + 1) / k
    return PowerSeries(c)


def _scaled_binomial(exponent: float, scale: float, order: int) -> PowerSeries:
    """Series of (1 - scale * x)^exponent."""
    base = binomial_series(exponent, order).coeffs
    k = np.arange(order + 1)
    return PowerSeries(base * np.power(scale, k))
