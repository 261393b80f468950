"""Explicit capacity-achieving degree-distribution families.

Three groups of constructions, all returning :class:`DegreePair` objects
whose design rate equals 1 - p:

* self-matched families built from the rational fixed point
  f(x) = (1-b)x / (1-bx) of the matching transform, with tails decaying
  like b^k (coefficients by series division; the equivalent
  composition-count recursion is kept for cross-checking);
* bit-regular families with degree-3 bits, whose matched side comes from
  an algebraic cubic (series from the generic solver, evaluators in
  closed form), and their check-regular bit/check swap images;
* a generic numerical solver that recovers the check side from any
  polynomial bit side.

Every pair carries exact closed-form evaluators alongside its truncated
coefficient arrays, so downstream fixed-point checks are not limited by
truncation.  :data:`CATALOG` is the one registry of the named families:
builder, family tag, options, representative p and verification route.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .powerseries import (
    DEFAULT_ORDER,
    DegreeDistribution,
    DegreePair,
    InvalidParameterError,
    PowerSeries,
    ValidityError,
    edge_from_node,
    log1m_series,
    monomial,
    reciprocal,
    t_operator,
)
from .tilting import TILTED_SIDES, symmetry_swap, tilt, untilt, untilt_node

EULER_GAMMA = 0.57721566490153286061
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
# composition-count table and self-matched coefficients
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


def _log_weight(b: float) -> float:
    """b + ln(1-b), negative on (0, 1)."""
    return b + np.log1p(-b)


def _alpha(p: float, b: float) -> float:
    return -(1.0 - p) / (p * _log_weight(b))


def self_matched_coeffs_recursion(p: float, b: float, order: int) -> np.ndarray:
    """Node coefficients of the self-matched bit side via the table recursion.

    Exact in exact arithmetic, but the alternating sum cancels like
    b^(-2k) in floating point, so past k of roughly 150 the values
    degrade; :func:`_sm_node_coeffs` (series division) is the stable
    production route and the two are cross-checked in tests.
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


def _sm_node_coeffs(p: float, b: float, order: int) -> np.ndarray:
    """Node coefficients of the self-matched bit side, by series division.

    Expands N / (p D0 + (1-p) N) with N = bx + ln(1-bx); the reciprocal
    recursion involves only same-scale b^k terms, so no cancellation.
    """
    N = log1m_series(b, order)
    d0 = _log_weight(b)
    L = N / ((1.0 - p) * N + p * d0)
    coeffs = L.coeffs.copy()
    coeffs[:2] = 0.0
    return coeffs


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
# validity regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PInterval:
    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, p: float, slack: float = 1e-12) -> bool:
        return (self.lo - slack) <= p <= (self.hi + slack)


def validity_region(family: str, b: float) -> PInterval:
    """Erasure probabilities for which the self-matched family is non-negative.

    Each side the family's graph reduction tilts carries a self-matched
    distribution and bounds p from one end (the bit side from below, the
    check side from above), so the symmetric family has both bounds and
    the one-accumulator families each inherit one.
    """
    if not (0.0 < b < 1.0):
        raise InvalidParameterError("b must lie in (0, 1)")
    sides = TILTED_SIDES.get(family)
    if not sides:
        raise InvalidParameterError(f"no validity region for family {family!r}")
    d = -C_STAR * _log_weight(b)  # positive, increasing in b
    lo = 1.0 / (1.0 + d)
    return PInterval(lo if "bit" in sides else 0.0, 1.0 - lo if "check" in sides else 1.0)


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


def _untilt_fns(node_fn: Callable, edge_fn: Callable, side: str, p: float) -> tuple[Callable, Callable]:
    """Pointwise untilt of a tilted (node, edge) evaluator pair."""
    return (
        lambda x: untilt(node_fn(x), None, side, p)[0],
        lambda x: untilt(node_fn(x), edge_fn(x), side, p)[1],
    )


def _sm_bit_side(p: float, b: float, order: int) -> DegreeDistribution:
    coeffs = _sm_node_coeffs(p, b, order)
    _check_coeffs(coeffs, "bit node")
    mean = -(b ** 2) * p / ((1.0 - b) * _log_weight(b))
    node = PowerSeries(np.maximum(coeffs, 0.0))
    return DegreeDistribution.from_node(node, exact_mean=mean, check_normalized=False)


def _ratio_side(b: float, order: int) -> DegreeDistribution:
    k = np.arange(order + 1, dtype=float)
    d0 = _log_weight(b)
    coeffs = np.zeros(order + 1)
    coeffs[2:] = -np.power(b, k[2:]) / (k[2:] * d0)
    mean = -(b ** 2) / ((1.0 - b) * d0)
    return DegreeDistribution.from_node(PowerSeries(coeffs), exact_mean=mean, check_normalized=False)


def _self_matched(family: str, p: float, b: Optional[float], order: int) -> DegreePair:
    """Self-matched pair of one family: the ratio side, untilted on every
    side the family's graph reduction tilts and kept as is elsewhere."""
    b = solve_b(p) if b is None else float(b)
    _require_valid(family, p, b)
    ratio_fns = _ratio_fns(b)
    sides = {}
    for side, q in (("bit", p), ("check", 1.0 - p)):
        if side in TILTED_SIDES[family]:
            sides[side] = _sm_bit_side(q, b, order), _untilt_fns(*ratio_fns, side, p)
        else:
            sides[side] = _ratio_side(b, order), ratio_fns
    (bit, bit_fns), (check, check_fns) = sides["bit"], sides["check"]
    return DegreePair(
        bit=bit,
        check=check,
        family=family,
        p=p,
        b=b,
        label="self-matched",
        bit_fns=bit_fns,
        check_fns=check_fns,
    )


def self_matched_ara(p: float, b: Optional[float] = None, order: int = DEFAULT_ORDER) -> DegreePair:
    """Self-matched ARA pair: both reduced sides equal (1-b)x/(1-bx).

    At p = 1/2 the bit and check sides coincide.  Tails decay like b^k,
    so moderate truncation depths capture almost all the mass.
    """
    return _self_matched("ARA", p, b, order)


def self_matched_nsira(p: float, b: Optional[float] = None, order: int = DEFAULT_ORDER) -> DegreePair:
    """Self-matched NSIRA pair: untilted bit side, shared check side.

    The bit coefficients are proportional to b^i / i and are non-negative
    for every b, so only the check-side bound constrains p.
    """
    return _self_matched("NSIRA", p, b, order)


def self_matched_aldpc(p: float, b: Optional[float] = None, order: int = DEFAULT_ORDER) -> DegreePair:
    """Self-matched ALDPC pair: the bit/check mirror of the NSIRA family."""
    return _self_matched("ALDPC", p, b, order)


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


def matched_cubic_edge_series(q: float, order: int) -> PowerSeries:
    """Series coefficients of :func:`matched_cubic_edge_fn`.

    The cubic is the matched image of the degree-3-regular bit side
    tilted at q, so the generic solver produces it.
    """
    return matched_image_series(monomial(3, 3), q, order)


def _cubic_fns(q: float) -> tuple[Callable, Callable]:
    """Exact (node, edge) evaluators of the matched cubic read as a side, for
    real or complex x; the node form is 3/q times the closed-form integral
    of the edge function y from 0: (x-1) y + q/3 (1-u^3) / (1-(1-q) u^3)
    with u = 1 - y."""
    edge = matched_cubic_edge_fn(q)

    def node(x):
        x = np.asarray(x)
        y = np.asarray(edge(x))
        u3 = (1.0 - y) ** 3
        return 3.0 / q * ((x - 1.0) * y + q / 3.0 * (1.0 - u3) / (1.0 - (1.0 - q) * u3))

    return node, edge


def _bit_regular_check_fns(family: str, p: float) -> tuple[Callable, Callable]:
    """Exact (node, edge) evaluators of the check side of a bit-regular pair.

    The matched cubic at q (q = p where the family tilts the bit side,
    1 otherwise), untilted at p where the family tilts the check side.
    """
    tilted = TILTED_SIDES[family]
    fns = _cubic_fns(p if "bit" in tilted else 1.0)
    return _untilt_fns(*fns, "check", p) if "check" in tilted else fns


def bit_regular_check_node_series(p: float, order: int) -> PowerSeries:
    """Ungated check-side node series of the bit-regular ARA pair (any p).

    Negative coefficients appear for p beyond the validity range; the
    non-negativity verifier probes exactly that regime.
    """
    return untilt_node(_image_node_series(monomial(3, 3), p, order), "check", p)


def _bit_regular(family: str, p: float, order: int) -> DegreePair:
    """Pair of one family with all punctured bits of degree 3.

    The check side is the matched image of the bit side after the
    family's graph reduction (tilted at p, or at 1, which leaves it as
    is), untilted at p where the family tilts the check side.  Series
    come from the generic solver, evaluators from the closed-form cubic.
    """
    tilted = TILTED_SIDES[family]
    q = p if "bit" in tilted else 1.0
    cube = monomial(3, 3)
    if "check" in tilted:
        R = untilt_node(_image_node_series(cube, q, order), "check", p)
        _check_coeffs(R.coeffs, "check node")
        check = DegreeDistribution.from_node(
            PowerSeries(np.maximum(R.coeffs, 0.0)),
            exact_mean=3.0 * (1.0 - p) / q,
            allow_degree_one=True,
            check_normalized=False,
        )
    else:
        rho = matched_image_series(cube, q, order)
        _check_coeffs(rho.coeffs, "check edge")
        check = DegreeDistribution.from_edge(
            PowerSeries(np.maximum(rho.coeffs, 0.0)), exact_integral=q / 3.0, allow_degree_one=True
        )
    return DegreePair(
        bit=DegreeDistribution.from_node(monomial(3, order), exact_mean=3.0),
        check=check,
        family=family,
        p=p,
        label="bit-regular-3",
        bit_fns=(lambda x: np.asarray(x, dtype=float) ** 3, lambda x: np.asarray(x, dtype=float) ** 2),
        check_fns=_bit_regular_check_fns(family, p),
    )


def bit_regular_ara(p: float, order: int = DEFAULT_ORDER, allow_unproven: bool = False) -> DegreePair:
    """ARA pair with all punctured bits of degree 3.

    The check side is recovered from the matched image of the tilted bit
    side.  Non-negativity is proven for p <= 0.26; numerical evidence
    extends to roughly 0.384, reachable with ``allow_unproven``.
    """
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie in (0, 1)")
    limit = 0.384 if allow_unproven else 0.26
    if p > limit + 1e-12:
        raise ValidityError(
            f"p={p} beyond the {'observed' if allow_unproven else 'proven'} bound {limit}"
        )
    return _bit_regular("ARA", p, order)


def _check_regular_image(bit_regular: DegreePair, p: float) -> DegreePair:
    """The bit/check swap of a bit-regular pair designed at 1 - p: the check-regular pair at p."""
    return replace(symmetry_swap(bit_regular), p=p, label="check-regular-3")


def check_regular_ara(p: float, order: int = DEFAULT_ORDER, allow_unproven: bool = False) -> DegreePair:
    """ARA pair with all checks of degree 3: the swap image of the bit-regular one."""
    return _check_regular_image(bit_regular_ara(1.0 - p, order, allow_unproven), p)


def nsira_bit_regular(p: float, order: int = DEFAULT_ORDER) -> DegreePair:
    """NSIRA pair with degree-3 bits; valid natively for p <= 1/13.

    The bit side stays untilted, so the tilted check side is the matched
    image of x^2: edge form 1 - sqrt(1-x), node form
    3x - 2(1 - (1-x)^{3/2}).
    """
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie in (0, 1)")
    if p > 1.0 / 13.0 + 1e-12:
        raise ValidityError(f"p={p} beyond 1/13; puncture a lower-p design instead")
    return _bit_regular("NSIRA", p, order)


def aldpc_bit_regular(p: float, order: int = DEFAULT_ORDER) -> DegreePair:
    """ALDPC pair with degree-3 bits; non-negative for every p in (0, 1).

    The check side is the matched cubic itself (no accumulator on that
    side), so its node form is the normalized cubic integral.
    """
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie in (0, 1)")
    return _bit_regular("ALDPC", p, order)


def nsira_check_regular(p: float, order: int = DEFAULT_ORDER) -> DegreePair:
    """NSIRA pair with degree-3 checks: the swap image of the ALDPC bit-regular one.

    Its bit side is the matched cubic, whose coefficient tails decay like
    k^{-3/2}, so partial sums converge far more slowly than for the
    self-matched family.
    """
    return _check_regular_image(aldpc_bit_regular(1.0 - p, order), p)


def aldpc_check_regular(p: float, order: int = DEFAULT_ORDER) -> DegreePair:
    """ALDPC pair with degree-3 checks, the swap image of the NSIRA bit-regular
    one; valid natively for p >= 12/13."""
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie in (0, 1)")
    if p < 12.0 / 13.0 - 1e-12:
        raise ValidityError(f"p={p} below 12/13; puncture a higher-p design instead")
    return _check_regular_image(nsira_bit_regular(1.0 - p, order), p)


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


def _image_node_series(L: PowerSeries, p: float, order: int) -> PowerSeries:
    """Node form of the matched image of bit side L tilted at p: its integral, normalized.

    The tilted bit side integrates to p / mean on [0, 1], and so does its
    matched image.
    """
    mean = _polynomial_bit_side(L)[1]
    return matched_image_series(L, p, order).antiderivative().truncated(order) * (mean / p)


def solve_check_from_bit(L: PowerSeries, p: float, order: int = DEFAULT_ORDER) -> CheckSideSolution:
    """Recover the check side matched to a polynomial bit side at erasure p.

    Pipeline: tilt the bit side, take the matched image of the tilted
    edge function (:func:`matched_image_series` for the series, numerical
    inversion for the evaluator), integrate it (term by term, or by
    quadrature), and untilt back to the check node distribution.  The
    same routine run at 1 - p solves the bit side from a check side.
    """
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie in (0, 1)")
    Lc, mean = _polynomial_bit_side(L)
    R = untilt_node(_image_node_series(L, p, order), "check", p)
    rho = edge_from_node(R, exact_mean=(1.0 - p) * mean / p)

    # pointwise route: matched image by bisection, quadrature for Q
    L_fn = PowerSeries(Lc)
    lam_fn = PowerSeries(np.arange(1, len(Lc)) * Lc[1:] / mean)

    def lam_tilde(x):
        x = np.asarray(x, dtype=float)
        return tilt(L_fn(x), lam_fn(x), "bit", p)[1]

    rho_tilde_fn = t_operator(lambda x: float(lam_tilde(x)))
    nodes, weights = np.polynomial.legendre.leggauss(48)

    def integral_to(x: float) -> float:
        # integrate by parts so the quadrature only ever sees the smooth
        # tilted bit side: int_0^x of the matched image equals
        # (x-1) y + int_{1-y}^1 lam_tilde with y the matched image at x
        y = float(rho_tilde_fn(x))
        lo = 1.0 - y
        mid = 0.5 * (lo + 1.0)
        half = 0.5 * (1.0 - lo)
        tail = half * float(np.sum(weights * lam_tilde(mid + half * nodes)))
        return (x - 1.0) * y + tail

    def Q_fn(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.array([integral_to(float(xi)) * mean / p for xi in xs])
        return float(out[0]) if np.ndim(x) == 0 else out

    R_fn, rho_fn = _untilt_fns(Q_fn, rho_tilde_fn, "check", p)
    return CheckSideSolution(R=R, rho=rho, R_fn=R_fn, rho_fn=rho_fn)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

#: How a catalog family's non-negativity is certified (``nonneg.verify_family``):
#: the self-matched scale constants against the critical value, or the
#: circle criterion on the matched cubic or on the bit-regular check side.
VERIFY_SCALES = "scales"
VERIFY_CUBIC = "cubic"
VERIFY_BITREG = "bitreg"


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog family: how to build it and how to certify it."""

    builder: Callable[..., DegreePair]
    tag: str  # family tag of the pairs it builds: ARA, NSIRA or ALDPC
    representative_p: float
    takes_b: bool = False
    takes_unproven: bool = False
    verifier: Optional[str] = None  # one of the VERIFY_* kinds; None: no verifier
    swapped: bool = False  # a swap image, verified at 1 - p

    def verified_p(self, p: float) -> tuple[float, float]:
        """The p the verifier runs at and its complement, both taken from p, not 1 - (1 - p)."""
        return (1.0 - p, p) if self.swapped else (p, 1.0 - p)


CATALOG: dict[str, CatalogEntry] = {
    "self-matched-ara": CatalogEntry(self_matched_ara, "ARA", 0.5, takes_b=True, verifier=VERIFY_SCALES),
    "self-matched-nsira": CatalogEntry(self_matched_nsira, "NSIRA", 0.5, takes_b=True, verifier=VERIFY_SCALES),
    "self-matched-aldpc": CatalogEntry(self_matched_aldpc, "ALDPC", 0.5, takes_b=True, verifier=VERIFY_SCALES),
    "bit-regular-ara": CatalogEntry(bit_regular_ara, "ARA", 0.2, takes_unproven=True, verifier=VERIFY_BITREG),
    "check-regular-ara": CatalogEntry(
        check_regular_ara, "ARA", 0.8, takes_unproven=True, verifier=VERIFY_BITREG, swapped=True
    ),
    "check-regular-nsira": CatalogEntry(nsira_check_regular, "NSIRA", 0.5, verifier=VERIFY_CUBIC),
    "bit-regular-nsira": CatalogEntry(nsira_bit_regular, "NSIRA", 0.07),
    "bit-regular-aldpc": CatalogEntry(aldpc_bit_regular, "ALDPC", 0.5, verifier=VERIFY_CUBIC, swapped=True),
    "check-regular-aldpc": CatalogEntry(aldpc_check_regular, "ALDPC", 0.93),
}


def catalog_entry(name: str) -> CatalogEntry:
    if name not in CATALOG:
        raise InvalidParameterError(f"unknown family {name!r}; choices: {sorted(CATALOG)}")
    return CATALOG[name]


def build_catalog_pair(
    name: str,
    p: float,
    b: Optional[float] = None,
    order: int = DEFAULT_ORDER,
    allow_unproven: bool = False,
) -> DegreePair:
    """Build a catalog pair by name; b and allow_unproven reach only the families that take them."""
    entry = catalog_entry(name)
    if order < 3:
        raise InvalidParameterError("order must be at least 3: the degree-3 families need x^3")
    options = {}
    if entry.takes_b:
        options["b"] = b
    if entry.takes_unproven:
        options["allow_unproven"] = allow_unproven
    return entry.builder(p, order=order, **options)
