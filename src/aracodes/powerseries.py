"""Truncated power-series arithmetic and degree-distribution containers.

Everything downstream (graph reduction, density-evolution checks, the
construction catalog) is built on two carriers: a truncated real power
series, and a node/edge degree-distribution pair stored in both
perspectives.  Node series use the convention ``coeffs[i]`` = fraction of
nodes with degree ``i`` (so ``coeffs[0] == 0``); edge series use
``coeffs[j]`` = fraction of edges attached to nodes of degree ``j + 1``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

#: Default truncation depth.  Self-matched tails decay like O(b^k) with
#: b <= 0.99, so depth 512 keeps the dropped mass below 1e-3.
DEFAULT_ORDER = 512


class DegenerateInputError(ValueError):
    """A series that is identically zero (or unusable) where mass is required."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class NumericDomainError(ArithmeticError):
    """A transform left its numeric domain (vanishing denominator, lost bracket)."""


class InvalidParameterError(ValueError):
    """A design parameter (p, b, ...) is outside its admissible range."""


class ValidityError(ValueError):
    """A constructed degree distribution violates non-negativity or a range bound."""


def _as_coeffs(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError("coefficient array must be one-dimensional and non-empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("coefficients must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """A real power series truncated at order M (stores c_0 .. c_M)."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Horner evaluation; accepts scalars or arrays in [0, 1].

        An array result is updated in place and a scalar one runs on Python
        floats: the same operations in the same order as
        ``result = result * x + c``, without a temporary array per step.
        Horner starts at the highest coefficient that is not +0.0 (at c_0
        when there is none): the +0.0 coefficients above it would leave the
        result at +0.0, and the first kept step still computes 0 * x, so
        every x (negative, inf and nan too) gives the same bits as a pass
        over all of them.  A -0.0 coefficient is kept, since it can flip
        the sign of a zero result.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            x, result = float(x), 0.0
        else:
            result = np.zeros_like(x)
        kept = np.flatnonzero(self.coeffs.view(np.int64))  # indices of the coefficients that are not +0.0
        top = int(kept[-1]) if kept.size else 0
        for c in self.coeffs[top::-1].tolist():
            result *= x
            result += c
        return result

    def truncated(self, order: int) -> "PowerSeries":
        out = np.zeros(order + 1)
        keep = min(order + 1, len(self.coeffs))
        out[:keep] = self.coeffs[:keep]
        return PowerSeries(out)

    def derivative(self) -> "PowerSeries":
        if self.order == 0:
            return PowerSeries([0.0])
        k = np.arange(1, self.order + 1)
        return PowerSeries(self.coeffs[1:] * k)

    def antiderivative(self) -> "PowerSeries":
        k = np.arange(1, self.order + 2)
        return PowerSeries(np.concatenate([[0.0], self.coeffs / k]))

    def deriv_at_one(self) -> float:
        return float(np.dot(np.arange(len(self.coeffs)), self.coeffs))

    # -- ring operations (result order = max of operand orders) --

    def _binary(self, other: "PowerSeries", op) -> "PowerSeries":
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n)
        a[: len(self.coeffs)] = self.coeffs
        b = np.zeros(n)
        b[: len(other.coeffs)] = other.coeffs
        return PowerSeries(op(a, b))

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            return self._binary(other, np.add)
        a = self.coeffs.copy()
        a[0] += float(other)
        return PowerSeries(a)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, PowerSeries):
            return self._binary(other, np.subtract)
        return self + (-float(other))

    def __rsub__(self, other):
        return (-1.0) * self + float(other)

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            n = max(self.order, other.order)
            return PowerSeries(np.convolve(self.coeffs, other.coeffs)[: n + 1])
        return PowerSeries(self.coeffs * float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PowerSeries):
            n = max(self.order, other.order)
            return self.truncated(n) * reciprocal(other.truncated(n))
        return PowerSeries(self.coeffs / float(other))


def monomial(degree: int, order: int) -> PowerSeries:
    c = np.zeros(order + 1)
    c[degree] = 1.0
    return PowerSeries(c)


def reciprocal(f: PowerSeries) -> PowerSeries:
    """1/f by Newton iteration with precision doubling; requires f(0) != 0."""
    if f.coeffs[0] == 0.0:
        raise DegenerateInputError("cannot invert a series with zero constant term")
    M = f.order
    r = np.array([1.0 / f.coeffs[0]])
    n = 1
    while n <= M:
        n = min(2 * n, M + 1)
        fr = np.convolve(f.coeffs[:n], r)[:n]
        two_minus = -fr
        two_minus[0] += 2.0
        r = np.convolve(r, two_minus)[:n]
    out = np.zeros(M + 1)
    out[: len(r)] = r
    return PowerSeries(out)


# ---------------------------------------------------------------------------
# degree-distribution layer
# ---------------------------------------------------------------------------

def edge_from_node(node: PowerSeries, exact_mean: Optional[float] = None) -> PowerSeries:
    """Edge-perspective series from a node-perspective one.

    Coefficient k-1 of the result is k * node_k / mean, where mean defaults
    to the truncated sum of k * node_k.  Constructions that know the exact
    (untruncated) mean pass it in so the retained coefficients stay exact.
    """
    k = np.arange(len(node.coeffs))
    weighted = k * node.coeffs
    mean = float(weighted.sum()) if exact_mean is None else float(exact_mean)
    if mean <= 0.0:
        raise DegenerateInputError("node distribution has no edge mass")
    return PowerSeries(weighted[1:] / mean)


def node_from_edge(edge: PowerSeries) -> PowerSeries:
    """Node-perspective series from an edge-perspective one (inverse map)."""
    k = np.arange(1, len(edge.coeffs) + 1)
    weighted = edge.coeffs / k
    total = float(weighted.sum())
    if total <= 0.0:
        raise DegenerateInputError("edge distribution has no mass")
    return PowerSeries(np.concatenate([[0.0], weighted / total]))


@dataclass(frozen=True)
class DegreeDistribution:
    """A degree distribution held in node and edge perspective simultaneously.

    ``fns`` holds the side's exact ``(node, edge)`` evaluators, for
    constructions with closed forms; it defaults to the node and edge
    series and is ignored by equality and serialization.  ``replace``
    with a new node or edge keeps the old evaluators, so a side cut from
    another is built with the constructor and evaluates its own series.
    """

    node: PowerSeries
    edge: PowerSeries
    mean: float  # node-perspective mean degree (exact when known)
    fns: Optional[tuple[Callable, Callable]] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.fns is None:
            object.__setattr__(self, "fns", (self.node, self.edge))

    @classmethod
    def from_node(
        cls,
        node: PowerSeries,
        exact_mean: Optional[float] = None,
        allow_degree_one: bool = False,
        check_normalized: bool = True,
    ) -> "DegreeDistribution":
        if abs(node.coeffs[0]) > 1e-14:
            raise InvalidInputError("node distribution must have no degree-0 mass")
        if not allow_degree_one and abs(node.coeffs[1] if node.order >= 1 else 0.0) > 1e-12:
            raise InvalidInputError("degree-1 nodes are not allowed on this side")
        if check_normalized and abs(node(1.0) - 1.0) > 1e-3:
            raise InvalidInputError(f"node distribution sums to {node(1.0)!r}, expected 1")
        mean = float(exact_mean) if exact_mean is not None else node.deriv_at_one()
        return cls(node=node, edge=edge_from_node(node, mean), mean=mean)

    @classmethod
    def from_edge(cls, edge: PowerSeries) -> "DegreeDistribution":
        """Both perspectives of a non-negative edge series; degree-1 mass is allowed."""
        if np.any(edge.coeffs < -1e-9):
            raise ValidityError("edge distribution has a negative coefficient")
        node = node_from_edge(edge)
        integral = float((edge.coeffs / np.arange(1, len(edge.coeffs) + 1)).sum())
        return cls(node=node, edge=edge, mean=1.0 / integral)

    @property
    def order(self) -> int:
        return self.node.order


#: The three code structures, by the sides that carry an accumulator.  Those
#: are the sides the graph reduction tilts, and they fix the rate and the
#: edges per information bit of a pair.
TILTED_SIDES = {"ARA": ("bit", "check"), "NSIRA": ("check",), "ALDPC": ("bit",)}


@dataclass(frozen=True)
class DegreePair:
    """A matched (bit, check) degree-distribution pair with design metadata."""

    bit: DegreeDistribution
    check: DegreeDistribution
    family: str
    p: float
    b: Optional[float] = None
    label: str = ""

    def __post_init__(self):
        if self.family not in TILTED_SIDES:
            raise InvalidParameterError(f"unknown family tag {self.family!r}")
        if not (0.0 < self.p < 1.0):
            raise InvalidParameterError("p must lie in (0, 1)")
        ratio = self.bit.mean / self.check.mean
        if not (np.isfinite(ratio) and ratio > 0.0):
            raise ValidityError("degenerate edge-count ratio")

    def to_json(self) -> str:
        doc = {
            "family": self.family,
            "label": self.label,
            "p": self.p,
            "b": self.b,
            "M": self.bit.order,
            "bit_node": self.bit.node.coeffs.tolist(),
            "check_node": self.check.node.coeffs.tolist(),
            "bit_mean": self.bit.mean,
            "check_mean": self.check.mean,
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "DegreePair":
        doc = json.loads(text)
        bit = DegreeDistribution.from_node(
            PowerSeries(doc["bit_node"]), exact_mean=doc.get("bit_mean"), check_normalized=False
        )
        check = DegreeDistribution.from_node(
            PowerSeries(doc["check_node"]),
            exact_mean=doc.get("check_mean"),
            allow_degree_one=True,
            check_normalized=False,
        )
        return cls(
            bit=bit,
            check=check,
            family=doc["family"],
            p=doc["p"],
            b=doc.get("b"),
            label=doc.get("label", ""),
        )
