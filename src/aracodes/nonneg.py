"""Numeric non-negativity verification for power-series coefficients.

A function g, analytic on the unit disc except possibly at z = 1, has
non-negative series coefficients whenever h(x) = Re g(e^{ix}) is
symmetric, convex on [0, pi], and has non-negative integral there.  That
criterion turns a statement about infinitely many coefficients into three
finite numeric checks; this module runs them on the candidates produced
by the construction catalog, with a separate sign check for any leading
coefficients that were stripped off to make the remainder convex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import simpson

from .constructions import (
    C_STAR,
    VERIFY_BITREG,
    VERIFY_CUBIC,
    VERIFY_SCALES,
    _alpha,
    _bit_regular_check_fns,
    bit_regular_check_node_series,
    catalog_entry,
    matched_cubic_edge_series,
    solve_b,
)
from .powerseries import (
    InvalidParameterError,
    NumericDomainError,
    PowerSeries,
    binomial_series,
    monomial,
    reciprocal,
    t_operator,
)
from .tilting import TILTED_SIDES, untilt_node

#: Closest approach to the z = 1 singularity on the unit circle.
X_MIN = 1e-6


@dataclass(frozen=True)
class PolyaCandidate:
    """A function to be tested on the unit circle.

    ``fn`` maps an array of complex points to complex values.  ``head``
    holds series coefficients that were subtracted before testing and
    still need their own sign check.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    strip_count: int = 0
    head: tuple[float, ...] = ()
    label: str = ""

    def h(self, x: np.ndarray) -> np.ndarray:
        """Real part of the candidate on the circle arc e^{ix}."""
        z = np.exp(1j * np.asarray(x, dtype=float))
        return np.real(self.fn(z))


@dataclass(frozen=True)
class ConvexityReport:
    verdict: str  # "pass" | "fail" | "inconclusive"
    min_second_difference: float
    integral: float
    grid_n: int
    head_min: float
    symmetry_error: float
    min_location: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def polya_verify(
    candidate: PolyaCandidate,
    grid_n: int = 8192,
    conv_tol: float = 1e-9,
    int_tol: float = 1e-8,
) -> ConvexityReport:
    """Run the circle criterion: symmetry, convexity, integral, head signs.

    Convexity is tested by central second differences; an apparent
    violation triggers a 4x refinement pass before it counts, and small
    persistent violations yield "inconclusive" rather than "fail".
    """
    if grid_n < 1024:
        raise InvalidParameterError("grid_n must be at least 1024")
    xs = np.linspace(X_MIN, np.pi, grid_n)
    h = candidate.h(xs)
    if not np.all(np.isfinite(h)):
        raise NumericDomainError("candidate is singular on the test arc")
    scale = max(1.0, float(np.max(np.abs(h))))

    sample = xs[:: max(1, grid_n // 16)]
    sym_err = float(np.max(np.abs(candidate.h(sample) - candidate.h(-sample))))
    symmetric = sym_err <= 1e-9 * scale

    # h is close to h(0) on the sliver [0, X_MIN] the grid leaves out
    integral = float(simpson(h, x=xs)) + X_MIN * float(h[0])
    integral_ok = integral >= -int_tol * scale

    d2 = h[:-2] - 2.0 * h[1:-1] + h[2:]
    min_idx = int(np.argmin(d2))
    min_d2 = float(d2[min_idx])
    min_loc = float(xs[min_idx + 1])
    convex_ok = min_d2 >= -conv_tol
    inconclusive = False
    if not convex_ok:
        # refine around the worst point; rescale by the step ratio squared
        refined = candidate.h(np.linspace(X_MIN, np.pi, 4 * grid_n))
        d2r = refined[:-2] - 2.0 * refined[1:-1] + refined[2:]
        min_d2 = float(np.min(d2r)) * 16.0
        min_loc = float(np.linspace(X_MIN, np.pi, 4 * grid_n)[int(np.argmin(d2r)) + 1])
        if min_d2 >= -conv_tol:
            convex_ok = True
        elif min_d2 >= -1e-6 * scale:
            inconclusive = True

    head_min = float(min(candidate.head)) if candidate.head else 0.0
    head_ok = head_min >= -1e-12

    if symmetric and convex_ok and integral_ok and head_ok:
        verdict = "pass"
    elif inconclusive and symmetric and integral_ok and head_ok:
        verdict = "inconclusive"
    else:
        verdict = "fail"
    return ConvexityReport(
        verdict=verdict,
        min_second_difference=min_d2,
        integral=integral,
        grid_n=grid_n,
        head_min=head_min,
        symmetry_error=sym_err,
        min_location=min_loc,
    )


def strip_head(fn: Callable, n_terms: int, head: Sequence[float], label: str = "") -> PolyaCandidate:
    """Remove the leading series terms of a candidate before testing.

    The stripped function is (g(z) - sum head_n z^n) / z^(n_terms + 2)
    with head covering coefficients 2 .. n_terms + 1; the head values are
    recorded on the candidate for separate sign checks.  With zero terms
    the function is wrapped unchanged.
    """
    if n_terms == 0:
        return PolyaCandidate(fn=fn, strip_count=0, head=(), label=label)
    head = tuple(float(v) for v in head)
    if len(head) != n_terms:
        raise InvalidParameterError(f"expected {n_terms} head coefficients, got {len(head)}")

    def stripped(z):
        z = np.asarray(z, dtype=complex)
        total = fn(z).astype(complex)
        for n, coeff in enumerate(head, start=2):
            total = total - coeff * z ** n
        return total / z ** (n_terms + 2)

    return PolyaCandidate(fn=stripped, strip_count=n_terms, head=head, label=label)


# ---------------------------------------------------------------------------
# candidates from the construction catalog
# ---------------------------------------------------------------------------

def log_ratio_series(c: float, order: int) -> PowerSeries:
    """Series of (-x - ln(1-x)) / (1 + c(-x - ln(1-x))); starts at x^2."""
    n = np.zeros(order + 1)
    for j in range(2, order + 1):
        n[j] = 1.0 / j
    N = PowerSeries(n)
    return N * reciprocal((c * N + 1.0).truncated(order))


def self_matched_candidate(c: float, strip: int = 6, order: int = 64) -> PolyaCandidate:
    """The stripped log-ratio candidate behind the self-matched families.

    The head sign flips exactly at c = (13 - sqrt(61)) / 9, which is what
    pins the validity region of those constructions.
    """

    def g(z):
        z = np.asarray(z, dtype=complex)
        n = -z - np.log(1.0 - z)
        return n / (1.0 + c * n)

    head = log_ratio_series(c, max(order, strip + 2)).coeffs[2 : strip + 2]
    return strip_head(g, strip, head, label=f"log-ratio c={c:.4f}")


def self_matched_scales(p: float, b: float) -> tuple[float, float]:
    """Scale constants (bit side, check side) of the self-matched family.

    Each must stay at or below the critical value for the corresponding
    node distribution to have non-negative coefficients.
    """
    if not (0.0 < p < 1.0 and 0.0 < b < 1.0):
        raise InvalidParameterError("p and b must lie in (0, 1)")
    return _alpha(p, b), _alpha(1.0 - p, b)


def self_matched_condition(p: float, b: float, family: str) -> bool:
    """Closed-form head condition for the self-matched families.

    Tests the scale constant of every side the family's graph reduction
    tilts against the critical value: both for the two-accumulator
    family, only the check side for NSIRA, only the bit side for ALDPC.
    """
    sides = TILTED_SIDES.get(family)
    if not sides:
        raise InvalidParameterError(f"unknown family {family!r}")
    scales = dict(zip(("bit", "check"), self_matched_scales(p, b)))
    return all(scales[side] <= C_STAR + 1e-12 for side in sides)


def verify_checkreg_nsira(p: float, grid_n: int = 8192) -> ConvexityReport:
    """Circle criterion on the bit side of the check-regular NSIRA family.

    Expected to pass for every p in (0, 1), which certifies the full
    validity range of that family (and of the degree-3 bit-regular ALDPC
    family, whose check side is the same function at 1 - p).
    """
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie in (0, 1)")
    fn = _bit_regular_check_fns("ALDPC", 1.0 - p)[1]
    return polya_verify(PolyaCandidate(fn=fn, label=f"check-regular NSIRA p={p}"), grid_n)


def verify_bitreg_ara(p: float, grid_n: int = 8192) -> ConvexityReport:
    """Circle criterion on R'(z)/z for the bit-regular pair.

    The check node distribution starts at degree 2, so its coefficients
    are non-negative exactly when this quotient has a non-negative
    expansion.  Passes for p up to roughly the proven 0.26 bound.
    """
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie in (0, 1)")
    rho = _bit_regular_check_fns("ARA", p)[1]

    def fn(z):
        # R'(z) = R'(1) rho(z) with rho the untilted edge function
        return 3.0 * (1.0 - p) / p * rho(z) / z

    return polya_verify(PolyaCandidate(fn=fn, label=f"bit-regular check side p={p}"), grid_n)


def first_coefficients_min(family: str, p: float, order: int = 200) -> float:
    """Direct series oracle: minimum of the first coefficients of the tested side."""
    entry = catalog_entry(family)
    p_v, q_v = entry.verified_p(p)
    if entry.verifier == VERIFY_CUBIC:
        return float(matched_cubic_edge_series(q_v, order).coeffs.min())
    if entry.verifier == VERIFY_BITREG:
        return float(bit_regular_check_node_series(p_v, order).coeffs.min())
    raise InvalidParameterError(f"no series oracle for family {family!r}")


def verify_family(family: str, p: float, b: Optional[float] = None, grid_n: int = 8192) -> dict:
    """Non-negativity report of a catalog family at design p, as a JSON-ready dict.

    Self-matched families get the closed-form scale condition, plus the
    circle criterion and the series oracle on the log-ratio candidate at
    the largest scale among the sides the family tilts.  The degree-3
    families get the circle criterion on their tested side and the direct
    series oracle.
    """
    entry = catalog_entry(family)
    doc = {"family": family, "p": p}
    if entry.verifier == VERIFY_SCALES:
        b = solve_b(p) if b is None else b
        scales = dict(zip(("bit", "check"), self_matched_scales(p, b)))
        c = max(scales[side] for side in TILTED_SIDES[entry.tag])
        doc.update(b=b, closed_form_condition=self_matched_condition(p, b, entry.tag), critical_c=C_STAR)
        report = polya_verify(self_matched_candidate(c), grid_n=grid_n)
        series_min = float(log_ratio_series(c, 200).coeffs.min())
    elif entry.verifier in (VERIFY_CUBIC, VERIFY_BITREG):
        verify = verify_checkreg_nsira if entry.verifier == VERIFY_CUBIC else verify_bitreg_ara
        report = verify(entry.verified_p(p)[0], grid_n=grid_n)
        series_min = first_coefficients_min(family, p)
    else:
        raise InvalidParameterError(f"no verifier for family {family!r}")
    doc.update(
        verdict=report.verdict,
        min_second_difference=report.min_second_difference,
        integral=report.integral,
        head_min=report.head_min,
        first_200_coeff_min=series_min,
    )
    return doc


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
    coeff_tol: float = 1e-9,
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
        ok = grid[mins >= -coeff_tol]
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
