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
from typing import Callable, Optional

import numpy as np
import scipy  # scipy.integrate loads lazily, on the first Pólya integral

from .constructions import (
    C_STAR,
    _alpha,
    _bit_regular_check_fns,
    catalog_entry,
    matched_check_node_series,
    solve_b,
    validity_region,
)
from .powerseries import (
    InvalidParameterError,
    NumericDomainError,
    PowerSeries,
    monomial,
    reciprocal,
)
from .tilting import side_erasures

#: Closest approach to the z = 1 singularity on the unit circle.
X_MIN = 1e-6
#: Negative curvature h'' (absolute) and integrals (relative to the
#: candidate's scale) the circle criterion forgives as rounding.  The
#: curvature bound is on h'', not on second differences, which shrink as
#: the step squared: a concave candidate must not pass on a fine grid.
CONVEXITY_TOL = 1e-4
INTEGRAL_TOL = 1e-8
#: Series terms (coefficients 2 .. 7) stripped from the self-matched candidate.
SELF_MATCHED_STRIP = 6


@dataclass(frozen=True)
class PolyaCandidate:
    """A function to be tested on the unit circle.

    ``fn`` maps an array of complex points to complex values.  ``head``
    holds series coefficients that were subtracted before testing and
    still need their own sign check.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    head: tuple[float, ...] = ()

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


def polya_verify(candidate: PolyaCandidate, grid_n: int = 8192) -> ConvexityReport:
    """Run the circle criterion: symmetry, convexity, integral, head signs.

    Convexity is tested by central second differences, held to
    CONVEXITY_TOL times the step squared; an apparent violation triggers a
    4x refinement pass before it counts, and small persistent violations
    yield "inconclusive" rather than "fail".
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
    integral = float(scipy.integrate.simpson(h, x=xs)) + X_MIN * float(h[0])
    integral_ok = integral >= -INTEGRAL_TOL * scale

    d2 = h[:-2] - 2.0 * h[1:-1] + h[2:]
    min_idx = int(np.argmin(d2))
    min_d2 = float(d2[min_idx])
    min_loc = float(xs[min_idx + 1])
    d2_tol = CONVEXITY_TOL * (xs[1] - xs[0]) ** 2
    convex_ok = min_d2 >= -d2_tol
    inconclusive = False
    if not convex_ok:
        # refine around the worst point; rescale by the step ratio squared
        refined = candidate.h(np.linspace(X_MIN, np.pi, 4 * grid_n))
        d2r = refined[:-2] - 2.0 * refined[1:-1] + refined[2:]
        min_d2 = float(np.min(d2r)) * 16.0
        min_loc = float(np.linspace(X_MIN, np.pi, 4 * grid_n)[int(np.argmin(d2r)) + 1])
        if min_d2 >= -d2_tol:
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


def self_matched_candidate(c: float, order: int = 64) -> PolyaCandidate:
    """The stripped log-ratio candidate behind the self-matched families.

    The log ratio g(z) = N / (1 + c N), N = -z - ln(1-z), starts at z^2.
    Its head, the coefficients 2 .. SELF_MATCHED_STRIP + 1, is removed
    before testing: the candidate is (g(z) - sum head_n z^n) /
    z^(SELF_MATCHED_STRIP + 2), and the head values are recorded on it for
    separate sign checks.  The head sign flips exactly at
    c = (13 - sqrt(61)) / 9, which is what pins the validity region of
    those constructions.
    """
    strip = SELF_MATCHED_STRIP
    head = tuple(float(v) for v in log_ratio_series(c, max(order, strip + 2)).coeffs[2 : strip + 2])

    def stripped(z):
        z = np.asarray(z, dtype=complex)
        n = -z - np.log(1.0 - z)
        total = n / (1.0 + c * n)
        for power, coeff in enumerate(head, start=2):
            total = total - coeff * z ** power
        return total / z ** (strip + 2)

    return PolyaCandidate(fn=stripped, head=head)


def tilted_scale(family: str, p: float, b: float) -> float:
    """Largest scale constant over the two sides of the self-matched family.

    A side tilted at erasure q (the check side read at 1 - q) has scale
    -(1-q) / (q (b + ln(1-b))), 0 at the identity erasure; a side's node
    coefficients need its scale at or below the critical value.
    """
    if not (0.0 < p < 1.0 and 0.0 < b < 1.0):
        raise InvalidParameterError("p and b must lie in (0, 1)")
    p_bit, p_check = side_erasures(family, p)
    return max(_alpha(p_bit, b), _alpha(1.0 - p_check, b))


def self_matched_condition(p: float, b: float, family: str) -> bool:
    """Closed-form head condition for the self-matched families: p inside the
    family's validity region at b, with the builder's slack."""
    region = validity_region(family, b)
    return bool(region.lo - 1e-12 <= p <= region.hi + 1e-12)


def check_side_candidate(base_tag: str, p: float) -> PolyaCandidate:
    """R'(z)/z for the check side of the bit-regular pair of family ``base_tag`` at p.

    The check node distribution starts at degree 2, so its coefficients
    are non-negative exactly when this quotient has a non-negative
    expansion.  R'(z) = R'(1) rho(z), with rho the pair's untilted check edge
    function and R'(1) = 3 (1 - p_check) / p_bit its mean check degree.
    rho is the constructions' own check edge evaluator, read on the unit
    circle, and the integral of the candidate over [0, pi] is 2 pi R_2,
    bounded away from 0.
    """
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie in (0, 1)")
    rho = _bit_regular_check_fns(base_tag, p)[1]
    p_bit, p_check = side_erasures(base_tag, p)

    def fn(z):
        return 3.0 * (1.0 - p_check) / p_bit * rho(z) / z

    return PolyaCandidate(fn=fn)


def first_coefficients_min(family: str, p: float, order: int = 200) -> float:
    """Direct series oracle: minimum of the first check node coefficients of
    the family's bit-regular base pair."""
    entry = catalog_entry(family)
    if entry.base_tag is None:
        raise InvalidParameterError(f"family {family!r} has no bit-regular base pair")
    p_base = entry.swap_pair_p(p)[0]
    return float(matched_check_node_series(monomial(3, 3), entry.base_tag, p_base, order).coeffs.min())


def verify_family(family: str, p: float, b: Optional[float] = None, grid_n: int = 8192) -> dict:
    """Non-negativity report of a catalog family at design p, as a JSON-ready dict.

    The route comes from the family's record.  Self-matched families get the
    closed-form condition, plus the circle criterion and the series oracle
    on the log-ratio candidate at :func:`tilted_scale`; b reaches only them.
    A degree-3 family gets the circle criterion on
    :func:`check_side_candidate` and the direct series oracle, both on the
    check side of its bit-regular base pair.  The NSIRA base pair's R'(z)/z
    is not convex on part of the arc (h'' about -0.5 at base p 0.07), so the
    circle criterion does not pass bit-regular NSIRA or check-regular ALDPC;
    their series minimum is non-negative up to the proven 1/13 bound and
    turns negative by 0.1.
    """
    entry = catalog_entry(family, b)
    doc = {"family": family, "p": p}
    if entry.structure == "self-matched":
        b = solve_b(p) if b is None else b
        c = tilted_scale(entry.tag, p, b)
        doc.update(b=b, closed_form_condition=self_matched_condition(p, b, entry.tag), critical_c=C_STAR)
        report = polya_verify(self_matched_candidate(c), grid_n=grid_n)
        series_min = float(log_ratio_series(c, 200).coeffs.min())
    else:
        report = polya_verify(check_side_candidate(entry.base_tag, entry.swap_pair_p(p)[0]), grid_n=grid_n)
        series_min = first_coefficients_min(family, p)
    doc.update(
        verdict=report.verdict,
        min_second_difference=report.min_second_difference,
        integral=report.integral,
        head_min=report.head_min,
        first_200_coeff_min=series_min,
    )
    return doc
