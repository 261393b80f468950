from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aracodes.powerseries import (
    DegenerateInputError,
    DegreeDistribution,
    DegreePair,
    InvalidInputError,
    PowerSeries,
    ValidityError,
    edge_from_node,
    node_from_edge,
    reciprocal,
)

from oracles import binomial_series, full_horner, t_operator


class TestEval:
    def test_zero_input(self):
        s = PowerSeries([0.0, 0.0, 1.0])  # x^2
        assert s(0.0) == 0.0

    def test_normalized_at_one(self):
        s = PowerSeries([0.0, 0.0, 0.0, 1.0])  # x^3
        assert s(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_log_series_head(self):
        # x^2/2 + x^3/3 at 0.5 = 1/8 + 1/24 = 1/6
        s = PowerSeries([0.0, 0.0, 0.5, 1.0 / 3.0])
        assert s(0.5) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_vectorized(self):
        s = PowerSeries([0.0, 1.0])
        xs = np.linspace(0, 1, 11)
        assert np.allclose(s(xs), xs)

    SERIES = PowerSeries(np.random.default_rng(7).random(513) / 256.0)
    INPUTS = [
        0.37,
        np.array(0.81),
        np.linspace(0.0, 1.0, 1000),
        np.random.default_rng(8).random((7, 9)),
    ]

    @pytest.mark.parametrize("x", INPUTS, ids=["float", "0-d", "1-d", "2-d"])
    def test_in_place_horner_bit_identical(self, x):
        got = self.SERIES(x)
        want = full_horner(self.SERIES.coeffs, x)
        assert np.shape(got) == np.shape(x)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("x", [0.37, np.array(0.81), np.float64(0.5), 1])
    def test_scalar_input_returns_float(self, x):
        assert type(self.SERIES(x)) is float

    @pytest.mark.parametrize("x", INPUTS[1:], ids=["0-d", "1-d", "2-d"])
    def test_input_not_mutated(self, x):
        before = x.copy()
        out = self.SERIES(x)
        assert np.array_equal(x, before)
        assert out is not x

    # High-order +0.0 coefficients are skipped; -0.0 ones are kept.
    SPARSE = {
        "high-zeros": PowerSeries([0.25, -1.5, 3.0, 0.0, 0.0, 0.0]),
        "cubic-513": PowerSeries(np.eye(513)[3]),
        "all-zero": PowerSeries(np.zeros(6)),
        "constant": PowerSeries([0.0]),
        "negative-zeros": PowerSeries([-0.0, -0.0, 0.0]),
        "negative-top": PowerSeries([1.0, 0.0, -2.0, -0.0, 0.0]),
    }
    SPECIAL_X = [0.0, 0.5, 1.0, -0.5, np.inf, np.nan]

    @pytest.mark.parametrize("name", sorted(SPARSE))
    @pytest.mark.parametrize("x", SPECIAL_X + [np.array(SPECIAL_X)], ids=[*map(str, SPECIAL_X), "array"])
    def test_top_coefficient_start_bit_identical(self, name, x):
        series = self.SPARSE[name]
        with np.errstate(invalid="ignore"):  # 0 * inf is nan on both sides
            got = np.asarray(series(x), dtype=float)
            want = np.asarray(full_horner(series.coeffs, x), dtype=float)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # signed zeros and nan bits too


class TestRingOps:
    def test_reciprocal_geometric(self):
        # 1 / (1 - x) = sum x^k
        f = PowerSeries([1.0, -1.0, 0, 0, 0, 0, 0, 0])
        r = reciprocal(f)
        assert np.allclose(r.coeffs, np.ones(8))

    def test_reciprocal_requires_constant(self):
        with pytest.raises(DegenerateInputError):
            reciprocal(PowerSeries([0.0, 1.0]))

    def test_binomial_matches_sqrt(self):
        # (1 - x)^(1/2) squares back to 1 - x
        s = binomial_series(0.5, 31)
        assert np.allclose((s * s).coeffs, [1.0, -1.0] + [0.0] * 30, rtol=0.0, atol=1e-13)

    def test_division(self):
        num = PowerSeries([0.0, 1.0, 0, 0, 0, 0])
        den = PowerSeries([1.0, -1.0, 0, 0, 0, 0])
        q = num / den  # x / (1 - x) = x + x^2 + ...
        assert np.allclose(q.coeffs, [0, 1, 1, 1, 1, 1])

    def test_immutable(self):
        s = PowerSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            s.coeffs[0] = 5.0


class TestPerspectives:
    def test_cube_node_gives_square_edge(self):
        edge = edge_from_node(PowerSeries([0, 0, 0, 1.0]))
        assert np.allclose(edge.coeffs, [0, 0, 1.0])

    def test_identity_node(self):
        edge = edge_from_node(PowerSeries([0, 1.0]))
        assert np.allclose(edge.coeffs, [1.0])

    def test_two_term_node(self):
        # L = x^2/2 + x^4/2 -> lambda = x/3 + 2 x^3 / 3
        edge = edge_from_node(PowerSeries([0, 0, 0.5, 0, 0.5]))
        assert np.allclose(edge.coeffs, [0, 1.0 / 3.0, 0, 2.0 / 3.0])

    def test_edge_to_node_examples(self):
        node = node_from_edge(PowerSeries([0, 0, 1.0]))  # x^2
        assert np.allclose(node.coeffs, [0, 0, 0, 1.0])
        node = node_from_edge(PowerSeries([1.0]))
        assert np.allclose(node.coeffs, [0, 1.0])
        node = node_from_edge(PowerSeries([0, 1.0 / 3.0, 0, 2.0 / 3.0]))
        assert np.allclose(node.coeffs, [0, 0, 0.5, 0, 0.5])

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateInputError):
            edge_from_node(PowerSeries([0.0, 0.0, 0.0]))
        with pytest.raises(DegenerateInputError):
            node_from_edge(PowerSeries([0.0, 0.0]))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=199),
        st.integers(0, 10**6),
    )
    def test_round_trip_random_node(self, tail, salt):
        rng = np.random.default_rng(salt)
        coeffs = np.concatenate([[0.0, 0.0], np.asarray(tail) + 1e-3 * rng.random(len(tail))])
        coeffs /= coeffs.sum()
        node = PowerSeries(coeffs)
        back = node_from_edge(edge_from_node(node))
        assert np.allclose(back.coeffs, node.coeffs, atol=1e-12)


class TestMatchingTransform:
    def test_identity_self_inverse(self):
        tf = t_operator(lambda x: x)
        xs = np.linspace(0, 1, 21)
        assert np.allclose(tf(xs), xs, atol=1e-12)

    def test_square_closed_form(self):
        tf = t_operator(lambda x: x * x)
        assert tf(0.75) == pytest.approx(0.5, abs=1e-12)

    def test_rational_fixed_point(self):
        b = 0.93
        f = lambda x: (1 - b) * x / (1 - b * x)
        tf = t_operator(f)
        xs = np.linspace(0.0, 1.0, 33)
        assert np.max(np.abs(tf(xs) - f(xs))) < 1e-11

    @pytest.mark.parametrize(
        "f",
        [
            lambda x: x,
            lambda x: x ** 2,
            lambda x: x ** 3.5,
            lambda x: 1 - (1 - x) ** 2,
            lambda x: 0.3 * x + 0.7 * x ** 4,
        ],
    )
    def test_involution(self, f):
        ttf = t_operator(t_operator(f))
        xs = np.linspace(0.0, 1.0, 101)
        fx = np.array([f(x) for x in xs])
        assert np.max(np.abs(ttf(xs) - fx)) < 1e-9

    def test_decreasing_rejected(self):
        with pytest.raises(InvalidInputError):
            t_operator(lambda x: 1 - x)


class TestDegreePair:
    def test_json_round_trip(self):
        from aracodes.constructions import self_matched_ara

        pair = self_matched_ara(0.5, order=64)
        back = DegreePair.from_json(pair.to_json())
        assert back.bit.node == pair.bit.node
        assert back.check.node == pair.check.node
        assert np.allclose(back.bit.edge.coeffs, pair.bit.edge.coeffs, atol=1e-15)
        assert back.family == pair.family and back.p == pair.p and back.b == pair.b

    def test_bit_side_rejects_degree_one(self):
        with pytest.raises(InvalidInputError):
            DegreeDistribution.from_node(PowerSeries([0, 0.5, 0.5]))

    def test_check_side_allows_degree_one(self):
        dist = DegreeDistribution.from_node(PowerSeries([0, 0.5, 0.5]), allow_degree_one=True)
        assert dist.mean == pytest.approx(1.5)

    @pytest.mark.parametrize("mean", [0.0, np.inf])
    def test_degenerate_edge_count_ratio(self, mean):
        from aracodes.constructions import self_matched_ara

        pair = self_matched_ara(0.5, order=64)
        with pytest.raises(ValidityError, match="degenerate edge-count ratio"):
            replace(pair, bit=replace(pair.bit, mean=mean))


class TestNormalization:
    def test_eval_at_one_of_normalized_distributions(self):
        from aracodes.constructions import self_matched_ara

        rng = np.random.default_rng(13)
        for _ in range(10):
            coeffs = np.concatenate([[0.0, 0.0], rng.random(60)])
            coeffs /= coeffs.sum()
            assert abs(PowerSeries(coeffs)(1.0) - 1.0) < 1e-10
        pair = self_matched_ara(0.5, order=400)
        assert abs(pair.bit.node(1.0) - 1.0) < 1e-10
        assert abs(pair.bit.edge(1.0) - 1.0) < 1e-10
