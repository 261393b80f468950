"""Test-only reference code: a full-length Horner evaluation, an exhaustive
codeword check, text forms of codec objects, and the square-root fixed-point
family (a documented negative example)."""

import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from aracodes.codec import CodeInstance, Codeword, ReceivedWord
from aracodes.powerseries import InvalidParameterError, PowerSeries, binomial_series, monomial, t_operator
from aracodes.tilting import untilt_node


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
        "family": inst.family,
        "seed": inst.seed,
        "d_L": inst.d_L,
        "d_R": inst.d_R,
        "check_degrees": inst.check_degrees.tolist(),
        "bit_degrees": inst.bit_degrees.tolist(),
        "pilots": inst.pilot_set.tolist(),
        "outer_shape": list(inst.outer_P.shape),
    }
    return json.dumps(doc)


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


def _scaled_binomial(exponent: float, scale: float, order: int) -> PowerSeries:
    """Series of (1 - scale * x)^exponent."""
    base = binomial_series(exponent, order).coeffs
    k = np.arange(order + 1)
    return PowerSeries(base * np.power(scale, k))
