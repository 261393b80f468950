"""Explicit capacity-achieving degree-distribution families.

Three groups of constructions, all returning :class:`DegreePair` objects
whose design rate equals 1 - p:

* self-matched families built from the rational fixed point
  f(x) = (1-b)x / (1-bx) of the matching transform, with tails decaying
  like b^k;
* bit-regular families with degree-3 bits, whose matched side comes from
  an algebraic cubic (series from the generic solver, evaluators in
  closed form), and their check-regular bit/check swap images;
* a generic numerical solver that recovers the check side from any
  polynomial bit side.

Every derived side is a reduced ("tilted") node series with its exact
mean, untilted where the family's graph reduction tilts it, and every
matched image is evaluated by one by-parts integral.  Each pair carries
exact closed-form evaluators alongside its truncated coefficient arrays,
so downstream fixed-point checks are not limited by truncation.
:data:`CATALOG` is the one registry of the named families, one record of
facts each: structure, family tag, representative p and, for the degree-3
families, the bounds of the bit-regular pair each is built from.  Building
and verifying read the route off the record.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.polynomial import polyval

from .powerseries import (
    DEFAULT_ORDER,
    DegreeDistribution,
    DegreePair,
    InvalidParameterError,
    PowerSeries,
    ValidityError,
    edge_from_node,
    monomial,
    reciprocal,
    t_operator,
)
from .tilting import (
    _SWAP_FAMILY, _accumulated, _untilt_fns, _weights, side_erasures, symmetry_swap, tilt, untilt, untilt_node,
)

#: Critical constant of the head-coefficient sign condition.
C_STAR = (13.0 - np.sqrt(61.0)) / 9.0

#: Negative dust allowed in coefficients produced by alternating sums.
COEFF_TOL = -1e-10


# ---------------------------------------------------------------------------
# Lambert W and the minimal-complexity parameter
# ---------------------------------------------------------------------------

def lambert_w0(x: float) -> float:
    """Principal-branch Lambert W on (-1/e, 0); the w in (-1, 0) with w e^w = x.

    Halley iteration seeded by the branch-point series near -1/e and by
    the defining identity elsewhere.
    """
    x = float(x)
    if not (-np.exp(-1.0) < x < 0.0):
        raise InvalidParameterError("argument must lie in (-1/e, 0)")
    if x < -0.25:
        q = np.sqrt(2.0 * (np.e * x + 1.0))
        w = -1.0 + q - q * q / 3.0 + 11.0 / 72.0 * q ** 3
    else:
        w = x * np.exp(-x)
    for _ in range(50):
        ew = np.exp(w)
        f = w * ew - x
        w1 = w + 1.0
        dw = f / (ew * w1 - (w + 2.0) * f / (2.0 * w1))
        w -= dw
        if abs(dw) <= 1e-16 * (1.0 + abs(w)):
            break
    return float(w)


def solve_b(p: float) -> float:
    """Smallest series parameter b giving valid self-matched distributions at p.

    Solves -b - ln(1-b) = a with a the design constant for the channel;
    minimizing b minimizes complexity and the degree needed for any fixed
    partial-sum target.  Symmetric in p <-> 1-p; minimum near 0.9304 at
    p = 1/2.
    """
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie in (0, 1)")
    skew = abs(1.0 - 2.0 * p)
    a = (13.0 + np.sqrt(61.0)) / 12.0 * (1.0 + skew) / (1.0 - skew)
    return lambert_w0(-np.exp(-1.0 - a)) + 1.0


# ---------------------------------------------------------------------------
# self-matched scale constants
# ---------------------------------------------------------------------------

def _log_weight(b: float) -> float:
    """b + ln(1-b), negative on (0, 1)."""
    return b + np.log1p(-b)


def _alpha(p: float, b: float) -> float:
    return -(1.0 - p) / (p * _log_weight(b))


# ---------------------------------------------------------------------------
# validity regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PInterval:
    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return self.lo > self.hi


def validity_region(family: str, b: float) -> PInterval:
    """Erasure probabilities for which the self-matched family is non-negative.

    Each side the family's graph reduction tilts carries a self-matched
    distribution and bounds p from one end (the bit side from below, the
    check side from above), so the symmetric family has both bounds and
    the one-accumulator families each inherit one.
    """
    if not (0.0 < b < 1.0):
        raise InvalidParameterError("b must lie in (0, 1)")
    bit, check = _accumulated(family)
    d = -C_STAR * _log_weight(b)  # positive, increasing in b
    lo = 1.0 / (1.0 + d)
    return PInterval(lo if bit else 0.0, 1.0 - lo if check else 1.0)


def _require_valid(family: str, p: float, b: float) -> None:
    region = validity_region(family, b)
    if region.empty:
        raise ValidityError(
            f"{family} self-matched family is empty at b={b}: need b >= {solve_b(0.5):.6f}"
        )
    if p < region.lo - 1e-12:
        raise ValidityError(
            f"p={p} below the lower bound {region.lo:.6f} of the {family} region at b={b}"
        )
    if p > region.hi + 1e-12:
        raise ValidityError(
            f"p={p} above the upper bound {region.hi:.6f} of the {family} region at b={b}"
        )


def _check_coeffs(coeffs: np.ndarray, what: str) -> None:
    worst = int(np.argmin(coeffs))
    if coeffs[worst] < COEFF_TOL:
        raise ValidityError(f"negative {what} coefficient {coeffs[worst]:.3e} at degree {worst}")


def _untilted_side(tilde: PowerSeries, tilde_mean: float, side: str, q: float) -> DegreeDistribution:
    """A catalog side: reduced node series ``tilde`` with exact mean ``tilde_mean``,
    untilted at erasure q.  The mean scales by the reduction's a (q on the bit
    side, 1 - q on the check side); negative dust within tolerance is clipped."""
    node = untilt_node(tilde, side, q)
    _check_coeffs(node.coeffs, f"{side} node")
    return DegreeDistribution.from_node(
        PowerSeries(np.maximum(node.coeffs, 0.0)),
        exact_mean=_weights(side, q)[0] * tilde_mean,
        allow_degree_one=side == "check",
        check_normalized=False,
    )


# ---------------------------------------------------------------------------
# self-matched family evaluators
# ---------------------------------------------------------------------------

def _ratio_fns(b: float) -> tuple[Callable, Callable]:
    """Exact (node, edge) evaluators of the ratio side, the reduced side of
    every self-matched family: (bx + ln(1-bx)) / (b + ln(1-b)) and
    (1-b)x / (1-bx)."""
    d0 = _log_weight(b)

    def node(x):
        x = np.asarray(x, dtype=float)
        return (b * x + np.log1p(-b * x)) / d0

    def edge(x):
        x = np.asarray(x, dtype=float)
        return (1.0 - b) * x / (1.0 - b * x)

    return node, edge


def _ratio_series(b: float, order: int) -> tuple[PowerSeries, float]:
    """Node series of the ratio side, -b^k / (k (b + ln(1-b))), and its exact mean."""
    k = np.arange(order + 1, dtype=float)
    d0 = _log_weight(b)
    coeffs = np.zeros(order + 1)
    coeffs[2:] = -np.power(b, k[2:]) / (k[2:] * d0)
    return PowerSeries(coeffs), -(b ** 2) / ((1.0 - b) * d0)


def _self_matched(family: str, p: float, b: Optional[float], order: int) -> DegreePair:
    """Self-matched pair of one family: the ratio side, untilted on each side
    at the erasure the family's graph reduction tilts it."""
    b = solve_b(p) if b is None else float(b)
    _require_valid(family, p, b)
    p_bit, p_check = side_erasures(family, p)
    ratio = _ratio_series(b, order)
    ratio_fns = _ratio_fns(b)
    return DegreePair(
        bit=_untilted_side(*ratio, "bit", p_bit),
        check=_untilted_side(*ratio, "check", p_check),
        family=family,
        p=p,
        b=b,
        label="self-matched",
        bit_fns=_untilt_fns(*ratio_fns, "bit", p_bit),
        check_fns=_untilt_fns(*ratio_fns, "check", p_check),
    )


def self_matched_ara(p: float, b: Optional[float] = None, order: int = DEFAULT_ORDER) -> DegreePair:
    """Self-matched ARA pair: both reduced sides equal (1-b)x/(1-bx).

    At p = 1/2 the bit and check sides coincide.  Tails decay like b^k,
    so moderate truncation depths capture almost all the mass.  A shortcut
    for ``build_catalog_pair("self-matched-ara", p, b, order)``.
    """
    return _self_matched("ARA", p, b, order)


# ---------------------------------------------------------------------------
# the algebraic cubic behind the degree-3-regular families
# ---------------------------------------------------------------------------

def matched_cubic_edge_fn(q: float) -> Callable:
    """Pointwise matched image of the tilted degree-3-regular side.

    The value y(x) satisfies (1-q) t (1-y)^3 + q (1-y) = t with
    t = sqrt(1-x); the root through y(0) = 0 is written with hyperbolic
    functions, which stay stable at both endpoints.  Real x in [0, 1]
    gives the unique real root.  Complex x on the closed unit disc takes
    principal branches throughout: every intermediate phase stays inside
    (-3 pi/8, 3 pi/8), so the formula is the analytic continuation from
    x = 0.  At q = 1 (a bit side left untilted) the cubic degenerates to
    y = 1 - t.
    """

    def f(x):
        scalar = np.ndim(x) == 0
        xs = np.atleast_1d(np.asarray(x))
        if np.iscomplexobj(xs):
            t = np.sqrt(1.0 - xs)
        else:
            t = np.sqrt(np.maximum(1.0 - xs.astype(float), 0.0))
        out = np.ones_like(t)
        mask = t != 0.0
        ts = t[mask]
        if q == 1.0:
            u = ts
        else:
            qq = q / ((1.0 - q) * ts)
            arg = np.sqrt(27.0 * (1.0 - q) * ts ** 3 / (4.0 * q ** 3))
            u = 2.0 * np.sqrt(qq / 3.0) * np.sinh(np.arcsinh(arg) / 3.0)
        out[mask] = 1.0 - u
        return out[0].item() if scalar else out

    return f


def _bit_regular_check_fns(family: str, p: float) -> tuple[Callable, Callable]:
    """Exact (node, edge) evaluators of the check side of a bit-regular pair.

    The matched cubic at the family's bit-side erasure, untilted at its
    check-side erasure.
    """
    p_bit, p_check = side_erasures(family, p)
    return _image_fns(monomial(3, 3), p_bit, p_check, matched_cubic_edge_fn(p_bit))


def _bit_regular(family: str, p: float, order: int) -> DegreePair:
    """Pair of one family with all punctured bits of degree 3.

    The check side is the untilted matched image of x^3; series come from
    the generic solver (``matched_image_series(monomial(3, 3), q, order)``
    is the degree-3 cubic series), evaluators from the closed-form cubic
    :func:`matched_cubic_edge_fn`.
    """
    p_bit, p_check = side_erasures(family, p)
    return DegreePair(
        bit=DegreeDistribution.from_node(monomial(3, order)),
        check=_untilted_side(*_image_node_series(monomial(3, 3), p_bit, order), "check", p_check),
        family=family,
        p=p,
        label="bit-regular-3",
        bit_fns=(lambda x: np.asarray(x, dtype=float) ** 3, lambda x: np.asarray(x, dtype=float) ** 2),
        check_fns=_bit_regular_check_fns(family, p),
    )


# ---------------------------------------------------------------------------
# generic solve: check side from a polynomial bit side
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckSideSolution:
    """Check side recovered from a bit side: series plus pointwise evaluators."""

    R: PowerSeries
    rho: PowerSeries
    R_fn: Callable
    rho_fn: Callable


def _polynomial_bit_side(L: PowerSeries) -> tuple[np.ndarray, float]:
    """Coefficients of a polynomial bit side up to its degree, and its mean."""
    nz = np.nonzero(np.abs(L.coeffs) > 1e-14)[0]
    if len(nz) == 0:
        raise InvalidParameterError("bit side is identically zero")
    Lc = L.coeffs[: int(nz[-1]) + 1]
    return Lc, float(np.dot(np.arange(len(Lc)), Lc))


_ONE_MINUS_X = np.array([1.0, -1.0])


def matched_image_series(L: PowerSeries, p: float, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Series of the matched image of a polynomial bit side tilted at p.

    p = 1 leaves the bit side as it is.  The tilted edge function is lam~ = p^2 lam / (1 - (1-p) L)^2; its
    matched image is 1 - v(x) with lam~(v) = 1 - x.  Newton iteration with
    precision doubling on the cleared equation
    G(v) = p^2 lam(v) - (1-x) (1 - (1-p) L(v))^2 = 0 through v(0) = 1,
    where the root is simple.  Each step forms the powers v^0 .. v^deg
    once and reads L(v), L'(v) and L''(v) off them as dot products.
    """
    if not (0.0 < p <= 1.0):
        raise InvalidParameterError("p must lie in (0, 1]")
    Lc, mean = _polynomial_bit_side(L)
    deg = len(Lc) - 1
    Ld = np.arange(1, deg + 1) * Lc[1:]  # L', so lam = L' / mean
    Ldd = np.arange(1, deg) * Ld[1:]  # L''

    v = np.ones(1)
    n = 1
    while n <= order:
        n = min(2 * n, order + 1)
        powers = np.zeros((deg + 1, n))
        powers[0, 0] = 1.0
        powers[1, : len(v)] = v
        for i in range(2, deg + 1):
            powers[i] = np.convolve(powers[i - 1], powers[1])[:n]
        Lv, Ldv, Lddv = Lc @ powers, Ld @ powers[:deg], Ldd @ powers[: deg - 1]
        one_m = -(1.0 - p) * Lv
        one_m[0] += 1.0  # 1 - (1-p) L(v)
        w = np.convolve(one_m, _ONE_MINUS_X)[:n]
        G = (p ** 2 / mean) * Ldv - np.convolve(w, one_m)[:n]
        Gp = (p ** 2 / mean) * Lddv + 2.0 * (1.0 - p) * np.convolve(w, Ldv)[:n]
        v = powers[1] - np.convolve(G, reciprocal(PowerSeries(Gp)).coeffs)[:n]
    rho_tilde = -v
    rho_tilde[0] = 0.0  # exact: the root passes through v(0) = 1
    return PowerSeries(rho_tilde)


def _image_node_series(L: PowerSeries, p: float, order: int) -> tuple[PowerSeries, float]:
    """Node form of the matched image of bit side L tilted at p, and its exact mean.

    The tilted bit side integrates to p / mean on [0, 1], and so does its
    matched image: the normalized integral has mean mean / p.
    """
    mean = _polynomial_bit_side(L)[1]
    return matched_image_series(L, p, order).antiderivative().truncated(order) * (mean / p), mean / p


def _image_fns(L: PowerSeries, p: float, q: float, edge: Optional[Callable] = None) -> tuple[Callable, Callable]:
    """Exact (node, edge) evaluators of the matched image of bit side L tilted
    at p, untilted on the check side at q.

    ``edge`` evaluates the image y (default: bisection on the tilted bit edge,
    real x only).  Integrating y from 0 by parts gives the image node in
    closed form, mean/p (x-1) y + 1 - L~(1-y) with L~ the tilted bit node, so
    one evaluation of y serves both the node and the untilted edge.  Takes
    complex x whenever ``edge`` does.
    """
    Lc, mean = _polynomial_bit_side(L)
    if edge is None:
        lam = np.arange(1, len(Lc)) * Lc[1:] / mean
        edge = t_operator(lambda u: float(tilt(polyval(u, Lc), polyval(u, lam), "bit", p)[1]))

    def image(x):
        y = edge(x)
        return mean / p * (np.asarray(x) - 1.0) * y + 1.0 - tilt(polyval(1.0 - y, Lc), None, "bit", p)[0], y

    if _weights("check", q)[1] == 0.0:
        return lambda x: image(x)[0], edge
    return lambda x: untilt(image(x)[0], None, "check", q)[0], lambda x: untilt(*image(x), "check", q)[1]


def matched_check_node_series(L: PowerSeries, family: str, p: float, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Check node series matched to polynomial bit side L by the family's graph reduction at p.

    The matched image of L tilted at the family's bit-side erasure,
    integrated and untilted at its check-side erasure.  It is the check side
    of :func:`solve_check_from_bit` and of the series oracle in ``nonneg``.
    Not gated: negative coefficients appear for p beyond a family's validity
    range, which is the regime the non-negativity verifier probes.
    """
    p_bit, p_check = side_erasures(family, p)
    return untilt_node(_image_node_series(L, p_bit, order)[0], "check", p_check)


def solve_check_from_bit(L: PowerSeries, p: float, order: int = DEFAULT_ORDER) -> CheckSideSolution:
    """Recover the check side matched to a polynomial bit side at erasure p.

    Pipeline: tilt the bit side, take the matched image of the tilted
    edge function (:func:`matched_image_series` for the series, bisection
    for the evaluator), integrate it (term by term, or by parts in closed
    form), and untilt back to the check node distribution.  The same
    routine run at 1 - p solves the bit side from a check side.
    """
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie in (0, 1)")
    R = matched_check_node_series(L, "ARA", p, order)
    rho = edge_from_node(R, exact_mean=(1.0 - p) * _polynomial_bit_side(L)[1] / p)
    R_fn, rho_fn = _image_fns(L, p, p)
    return CheckSideSolution(R=R, rho=rho, R_fn=R_fn, rho_fn=rho_fn)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """One catalog family, as facts: its structure, family tag and representative p.

    A degree-3 family is built from a bit-regular pair: the pair itself, or
    its bit/check swap designed at 1 - p.  ``proven`` and ``observed`` bound
    the p of that base pair; ``observed`` is reachable with allow_unproven.
    """

    structure: str  # "self-matched", "bit-regular" or "check-regular"
    tag: str  # family tag of the pairs it builds: ARA, NSIRA or ALDPC
    representative_p: float
    proven: Optional[float] = None
    observed: Optional[float] = None

    @property
    def base_tag(self) -> Optional[str]:
        """Family tag of the bit-regular base pair; None for a self-matched family."""
        if self.structure == "self-matched":
            return None
        return _SWAP_FAMILY[self.tag] if self.structure == "check-regular" else self.tag

    def swap_pair_p(self, p: float) -> tuple[float, float]:
        """The (bit-regular, check-regular) p of the swap pair a degree-3 family
        at p belongs to, both taken from p, not 1 - (1 - p)."""
        return (1.0 - p, p) if self.structure == "check-regular" else (p, 1.0 - p)


CATALOG: dict[str, CatalogEntry] = {
    "self-matched-ara": CatalogEntry("self-matched", "ARA", 0.5),
    "self-matched-nsira": CatalogEntry("self-matched", "NSIRA", 0.5),
    "self-matched-aldpc": CatalogEntry("self-matched", "ALDPC", 0.5),
    "bit-regular-ara": CatalogEntry("bit-regular", "ARA", 0.2, proven=0.26, observed=0.384),
    "check-regular-ara": CatalogEntry("check-regular", "ARA", 0.8, proven=0.26, observed=0.384),
    "check-regular-nsira": CatalogEntry("check-regular", "NSIRA", 0.5),
    "bit-regular-nsira": CatalogEntry("bit-regular", "NSIRA", 0.07, proven=1.0 / 13.0),
    "bit-regular-aldpc": CatalogEntry("bit-regular", "ALDPC", 0.5),
    "check-regular-aldpc": CatalogEntry("check-regular", "ALDPC", 0.93, proven=1.0 / 13.0),
}


def catalog_entry(name: str, b: Optional[float] = None) -> CatalogEntry:
    """The record of a family.  b, the series parameter, is refused unless
    the family is self-matched: no other family reads it."""
    if name not in CATALOG:
        raise InvalidParameterError(f"unknown family {name!r}; choices: {sorted(CATALOG)}")
    entry = CATALOG[name]
    if b is not None and entry.structure != "self-matched":
        raise InvalidParameterError(f"b applies to the self-matched families only, not {name!r}")
    return entry


def build_catalog_pair(
    name: str,
    p: float,
    b: Optional[float] = None,
    order: int = DEFAULT_ORDER,
    allow_unproven: bool = False,
) -> DegreePair:
    """Build a catalog pair by name, from its record.

    b applies only to the self-matched families and is refused for the
    others; allow_unproven reaches only the families with an observed bound.
    The base pair is gated on its own p; a range error names the p given
    here and the bound in that p.
    """
    entry = catalog_entry(name, b)
    if order < 3:
        raise InvalidParameterError("order must be at least 3: the degree-3 families need x^3")
    if entry.structure == "self-matched":
        return _self_matched(entry.tag, p, b, order)
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie in (0, 1)")
    base_p = entry.swap_pair_p(p)[0]
    observed = allow_unproven and entry.observed is not None
    bound = entry.observed if observed else entry.proven
    if bound is not None and base_p > bound + 1e-12:
        side, own = ("beyond", bound) if entry.structure == "bit-regular" else ("below", 1.0 - bound)
        raise ValidityError(f"p={p} {side} the {'observed' if observed else 'proven'} bound {own:.6g}")
    pair = _bit_regular(entry.base_tag, base_p, order)
    if entry.structure == "bit-regular":
        return pair
    return replace(symmetry_swap(pair), p=p, label="check-regular-3")
