import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from aracodes import constructions as cons
from aracodes import tilting
from aracodes.powerseries import (
    DegreeDistribution,
    DegreePair,
    InvalidParameterError,
    NumericDomainError,
    PowerSeries,
    ValidityError,
    monomial,
)
from aracodes.tilting import (
    chop_pair,
    complexity,
    de_residual,
    design_rate,
    stability,
    symmetry_swap,
    threshold_search,
    tilt,
    truncate_pair,
    untilt,
    untilt_node,
)
from oracles import DEState, de_iterate, tilted_edge


def tilt_node(node, side, p):
    """The node half of the graph reduction."""
    return tilt(node, None, side, p)[0]


def regular_pair(p=0.5):
    bit = DegreeDistribution.from_node(monomial(3, 64), exact_mean=3.0)
    check = DegreeDistribution.from_node(monomial(3, 64), exact_mean=3.0, allow_degree_one=True)
    return DegreePair(bit=bit, check=check, family="ARA", p=p)


class TestNodeTilt:
    def test_zero_erasure_check_identity(self):
        R = PowerSeries([0, 0, 0.3, 0.7, 0, 0])
        assert np.allclose(tilt_node(R, "check", 0.0).coeffs, R.coeffs, atol=1e-15)

    def test_linear_check_value(self):
        R = monomial(1, 48)
        tilted = tilt_node(R, "check", 0.5)
        # (1-p) x / (1 - p x) at 0.5: 0.25 / 0.75
        assert tilted(0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_ratio_node_untilts_to_self_matched(self):
        p, b = 0.35, 0.95
        order = 200
        d0 = b + np.log1p(-b)
        k = np.arange(order + 1, dtype=float)
        ratio = np.zeros(order + 1)
        ratio[2:] = -np.power(b, k[2:]) / (k[2:] * d0)
        tilde = PowerSeries(ratio)
        L = untilt_node(tilde, "bit", p)
        # the self-matched bit side by series division: N / ((1-p) N + p d0)
        # with N = bx + ln(1-bx)
        N = np.zeros(order + 1)
        N[2:] = -np.power(b, k[2:]) / k[2:]
        N = PowerSeries(N)
        expected = N / ((1.0 - p) * N + p * d0)
        assert np.allclose(L.coeffs, expected.coeffs, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        coeffs = np.concatenate([[0.0, 0.0], rng.random(30)])
        coeffs /= coeffs.sum()
        node = PowerSeries(coeffs)
        for side in ("bit", "check"):
            back = untilt_node(tilt_node(node, side, 0.3), side, 0.3)
            assert np.allclose(back.coeffs, node.coeffs, atol=1e-10)

    def test_full_observation_bit_identity(self):
        node = PowerSeries([0, 0, 0.5, 0.5])
        assert np.allclose(untilt_node(node, "bit", 1.0).coeffs, node.coeffs, atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40),
        st.floats(0.05, 0.95),
        st.sampled_from(["bit", "check"]),
        st.integers(0, 10**6),
    )
    def test_round_trip_property(self, tail, p, side, salt):
        rng = np.random.default_rng(salt)
        coeffs = np.concatenate([[0.0, 0.0], np.asarray(tail) + 1e-3 * rng.random(len(tail))])
        coeffs /= coeffs.sum()
        node = PowerSeries(coeffs)
        back = untilt_node(tilt_node(node, side, p), side, p)
        assert np.allclose(back.coeffs, node.coeffs, atol=1e-9)


class TestTiltCore:
    @pytest.mark.parametrize("side", ["bit", "check"])
    def test_untilt_inverts_tilt_on_real_and_complex_values(self, side):
        x = np.linspace(0.0, 1.0, 17)
        z = np.exp(1j * np.linspace(0.1, np.pi, 17))
        for node, edge in ((x ** 3, x ** 2), (0.5 * z ** 2 + 0.5 * z ** 3, 0.4 * z + 0.6 * z ** 2)):
            back = untilt(*tilt(node, edge, side, 0.3), side, 0.3)
            assert np.allclose(back[0], node, atol=1e-14)
            assert np.allclose(back[1], edge, atol=1e-14)

    @pytest.mark.parametrize("side", ["bit", "check"])
    def test_series_and_values_agree(self, side):
        node = PowerSeries([0.0, 0.0, 0.4, 0.6])
        edge = PowerSeries([0.0, 0.8, 1.8]) * (1.0 / 2.6)
        node_t, edge_t = tilt(node.truncated(200), edge.truncated(200), side, 0.35)
        xs = np.linspace(0.0, 0.8, 9)
        want = tilt(node(xs), edge(xs), side, 0.35)
        assert np.allclose(node_t(xs), want[0], atol=1e-12)
        assert np.allclose(edge_t(xs), want[1], atol=1e-12)

    def test_bad_side(self):
        with pytest.raises(InvalidParameterError):
            tilt(np.ones(2), np.ones(2), "edge", 0.5)


class TestIdentityErasure:
    """A side a family leaves as is is that side tilted at its identity erasure."""

    IDENTITY = [("bit", 1.0), ("check", 0.0)]

    @pytest.mark.parametrize("side, q", IDENTITY)
    def test_tilt_and_untilt_return_their_inputs(self, side, q):
        series = PowerSeries([0.0, 0.0, 0.4, 0.6])
        real = np.linspace(0.0, 1.0, 5)
        cplx = np.exp(1j * real)
        for transform in (tilt, untilt):
            for value in (series, real, cplx):
                node, edge = transform(value, value, side, q)
                assert node is value and edge is value
            node, edge = transform(series, None, side, q)
            assert node is series and edge is None

    @pytest.mark.parametrize("side, q", IDENTITY)
    def test_identity_side_never_evaluates_its_node(self, side, q):
        def node_fn(x):
            raise AssertionError("node evaluated at the identity erasure")

        edge_fn = lambda x: np.asarray(x) ** 2
        xs = np.linspace(0.0, 1.0, 9)
        raw = tilting._raw_values(node_fn, edge_fn, xs, side, q)
        assert np.array_equal(tilting._tilt_values(*raw, side, q), xs ** 2)
        assert tilting._untilt_fns(node_fn, edge_fn, side, q) == (node_fn, edge_fn)

    def test_side_erasures(self):
        assert tilting.side_erasures("ARA", 0.3) == (0.3, 0.3)
        assert tilting.side_erasures("NSIRA", 0.3) == (1.0, 0.3)
        assert tilting.side_erasures("ALDPC", 0.3) == (0.3, 0.0)

    def test_plain_ldpc_tag_rejected(self):
        pair = regular_pair()
        with pytest.raises(InvalidParameterError):
            tilting.side_erasures("LDPC", 0.3)
        with pytest.raises(InvalidParameterError):
            DegreePair(bit=pair.bit, check=pair.check, family="LDPC", p=0.5)


class TestEdgeTilt:
    def test_bit_regular_closed_form(self):
        p = 0.3
        bit = DegreeDistribution.from_node(monomial(3, 160), exact_mean=3.0)
        check = DegreeDistribution.from_node(monomial(3, 160), exact_mean=3.0, allow_degree_one=True)
        pair = DegreePair(bit=bit, check=check, family="ARA", p=p)
        lam_series, lam_fn = tilted_edge(pair, "bit")
        xs = np.linspace(0, 1, 33)
        expect = p ** 2 * xs ** 2 / (1 - (1 - p) * xs ** 3) ** 2
        assert np.allclose(lam_fn(xs), expect, atol=1e-12)
        interior = xs <= 0.9  # series comparison limited by the geometric tail
        assert np.allclose(lam_series(xs[interior]), expect[interior], atol=1e-6)

    def test_small_p_check_untouched_in_limit(self):
        pair = regular_pair(0.5)
        rho_fn = tilted_edge(pair, "check", p=1e-9)[1]
        xs = np.linspace(0, 1, 9)
        assert np.allclose(rho_fn(xs), xs ** 2, atol=1e-7)

    def test_family_routing(self):
        pair = cons.build_catalog_pair("self-matched-nsira", 0.4, order=128)
        lam_fn = tilted_edge(pair, "bit")[1]
        xs = np.linspace(0, 1, 17)
        # NSIRA leaves the bit side untouched
        assert np.allclose(lam_fn(xs), pair.bit_edge_fn()(xs), atol=1e-14)

    def test_self_matched_tilts_to_rational(self):
        pair = cons.self_matched_ara(0.5, order=256)
        b = pair.b
        lam_series, lam_fn = tilted_edge(pair, "bit")
        rho_fn = tilted_edge(pair, "check")[1]
        xs = np.linspace(0, 1, 65)
        f = (1 - b) * xs / (1 - b * xs)
        assert np.allclose(lam_fn(xs), f, atol=1e-12)
        assert np.allclose(rho_fn(xs), f, atol=1e-12)
        assert np.allclose(lam_series(xs), f, atol=1e-8)

    def test_endpoints(self):
        pair = cons.self_matched_ara(0.5, order=128)
        lam_fn = tilted_edge(pair, "bit")[1]
        rho_fn = tilted_edge(pair, "check")[1]
        assert lam_fn(0.0) == pytest.approx(0.0, abs=1e-12)
        assert lam_fn(1.0) == pytest.approx(1.0, abs=1e-9)
        assert rho_fn(1.0) == pytest.approx(1.0, abs=1e-9)


class TestDEIteration:
    def test_pinned_at_all_ones_when_p_is_one(self):
        pair = regular_pair(0.5)
        state = DEState.uniform(1.0)
        nxt = de_iterate(state, pair, 1.0)
        assert (nxt.x0, nxt.x1, nxt.x2, nxt.x3, nxt.x4, nxt.x5) == (1, 1, 1, 1, 1, 1)
        assert nxt.x3 == nxt.x2

    def test_perfect_channel_converges_fast(self):
        pair = cons.self_matched_ara(0.5, order=128)
        state = DEState.uniform(1.0 - 1e-3)
        for _ in range(200):
            state = de_iterate(state, pair, 0.01)
        assert state.x1 < 1e-12

    def test_monotone_decrease_below_threshold(self):
        pair = cons.self_matched_ara(0.5, order=128)
        state = DEState.uniform(1.0 - 1e-3)
        last = state.x1
        for _ in range(100_000):
            state = de_iterate(state, pair, 0.45)
            assert state.x1 <= last + 1e-15
            last = state.x1
            if state.x1 < 1e-9:
                break
        assert state.x1 < 1e-9

    def test_matches_collapsed_fixed_point_form(self):
        # one sweep from a fixed state equals the collapsed composition
        pair = cons.self_matched_ara(0.5, order=128)
        p = 0.47
        x = 0.37
        state = DEState.uniform(x)
        for _ in range(4000):
            state = de_iterate(state, pair, p)
        resid = de_residual(pair, state.x1, p=p)
        assert abs(resid) < 1e-6  # converged to a DE fixed point of the same map


class TestResidual:
    def test_zero_at_endpoints(self):
        pair = cons.self_matched_ara(0.5, order=128)
        assert de_residual(pair, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert de_residual(pair, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_catalog_residual_small(self):
        xs = np.linspace(0, 1, 1001)[1:]
        for name, p in [
            ("self-matched-ara", 0.5),
            ("bit-regular-ara", 0.2),
            ("check-regular-nsira", 0.5),
            ("bit-regular-aldpc", 0.6),
        ]:
            pair = cons.build_catalog_pair(name, p, order=256)
            assert np.max(np.abs(de_residual(pair, xs))) < 1e-10

    def test_series_fallback_close_away_from_boundary(self):
        pair = cons.self_matched_ara(0.5, order=400)
        bare = DegreePair(bit=pair.bit, check=pair.check, family="ARA", p=0.5, b=pair.b)
        xs = np.linspace(0, 1, 1001)[1:]
        assert np.max(np.abs(de_residual(bare, xs))) < 5e-6


class TestStability:
    def test_no_degree_two_bits_unconditionally_stable(self):
        pair = cons.build_catalog_pair("bit-regular-ara", 0.2, order=128)  # lambda = x^2, no degree-2 bits
        rep = stability(pair)
        assert rep.stable_at_0 and rep.margin_at_0 == 0.0

    def test_no_degree_two_checks_not_unstable(self):
        pair = cons.build_catalog_pair("check-regular-ara", 0.8, order=128)  # rho = x^2
        rep = stability(pair)
        assert not rep.unstable_at_1

    @pytest.mark.parametrize("family", ["self-matched-ara", "self-matched-nsira", "self-matched-aldpc"])
    def test_self_matched_holds_both(self, family):
        # exactly matched pairs sit on the boundary: both derivatives are 1
        pair = cons.build_catalog_pair(family, 0.5, order=256)
        rep = stability(pair)
        assert rep.stable_at_0 and rep.unstable_at_1
        assert rep.margin_at_0 == pytest.approx(1.0, abs=1e-6)
        assert rep.margin_at_1 == pytest.approx(1.0, abs=1e-6)

    def test_boundary_p_rejected(self):
        pair = cons.self_matched_ara(0.5, order=64)
        with pytest.raises(InvalidParameterError):
            stability(pair, p=0.0)


class TestRateAndComplexity:
    def test_symmetric_regular_pair(self):
        assert design_rate(regular_pair()) == pytest.approx(0.5, abs=1e-14)

    def test_capacity_rate_all_families(self):
        # all nine untruncated catalog pairs sit at capacity; only a truncation can reach rate <= 0
        for name, p in [
            ("self-matched-ara", 0.6),
            ("self-matched-nsira", 0.45),
            ("self-matched-aldpc", 0.55),
            ("bit-regular-ara", 0.25),
            ("check-regular-ara", 0.8),
            ("bit-regular-nsira", 0.07),
            ("check-regular-nsira", 0.5),
            ("bit-regular-aldpc", 0.5),
            ("check-regular-aldpc", 0.95),
        ]:
            pair = cons.build_catalog_pair(name, p, order=512)
            assert design_rate(pair) == pytest.approx(1.0 - p, abs=1e-9)

    @pytest.mark.parametrize(
        "name, M",
        [("bit-regular-aldpc", M) for M in (6, 8, 12, 16, 30)]
        + [("self-matched-aldpc", M) for M in (6, 8, 12, 16)],
    )
    def test_non_positive_rate_refused(self, name, M):
        # a deep truncation leaves more checks than punctured bits
        pair = truncate_pair(cons.build_catalog_pair(name, 0.5, order=512), M, M)
        with pytest.raises(ValidityError, match="design rate"):
            design_rate(pair)
        with pytest.raises(ValidityError, match="design rate"):
            complexity(pair)

    def test_complexity_closed_forms(self):
        chi = complexity(cons.self_matched_ara(0.5, b=0.9304, order=64))
        assert chi.chi_encode == pytest.approx(8.585, abs=0.01)
        chi = complexity(cons.build_catalog_pair("check-regular-ara", 0.7, order=256, allow_unproven=True))
        assert chi.chi_encode == pytest.approx(3 + 5 * 0.7 / 0.3, abs=1e-9)
        chi = complexity(cons.build_catalog_pair("check-regular-nsira", 0.5, order=256))
        assert chi.chi_decode == pytest.approx(10.0, abs=1e-12)
        chi = complexity(cons.build_catalog_pair("bit-regular-aldpc", 0.5, order=256))
        assert chi.chi_encode is None
        assert chi.chi_decode == pytest.approx(12.0, abs=1e-12)


class TestSymmetrySwap:
    def test_regular_swap_pair(self):
        pair = cons.build_catalog_pair("bit-regular-ara", 0.3, order=200, allow_unproven=True)
        swapped = symmetry_swap(pair)
        assert swapped.family == "ARA"
        assert swapped.p == pytest.approx(0.7)
        assert np.allclose(swapped.check.node.coeffs[:4], [0, 0, 0, 1.0])

    def test_involution(self):
        for name, p in [("self-matched-ara", 0.5), ("check-regular-nsira", 0.4)]:
            pair = cons.build_catalog_pair(name, p, order=64)
            back = symmetry_swap(symmetry_swap(pair))
            assert back.bit.node == pair.bit.node
            assert back.check.node == pair.check.node
            assert back.family == pair.family
            assert back.p == pytest.approx(pair.p, abs=1e-15)

    def test_nsira_aldpc_exchange(self):
        pair = cons.build_catalog_pair("check-regular-nsira", 0.4, order=128)
        swapped = symmetry_swap(pair)
        assert swapped.family == "ALDPC"
        direct = cons.build_catalog_pair("check-regular-aldpc", 0.93, order=128)
        assert symmetry_swap(direct).family == "NSIRA"

    def test_swapped_residual_small(self):
        xs = np.linspace(0, 1, 301)[1:]
        pair = cons.self_matched_ara(0.42, order=256)
        swapped = symmetry_swap(pair)
        orig = np.abs(de_residual(pair, xs))
        mirrored = np.abs(de_residual(swapped, 1.0 - xs))
        assert np.max(np.abs(orig - mirrored)) < 1e-9


class TestThresholdSearch:
    def test_untruncated_reaches_design_p(self):
        pair = cons.self_matched_ara(0.5, order=256)
        assert threshold_search(pair, grid_n=400) == pytest.approx(0.5, abs=2e-3)

    def test_dominating_truncation_keeps_threshold(self):
        pair = cons.self_matched_ara(0.5, order=256)
        trunc = truncate_pair(pair, 29, 29)
        assert threshold_search(trunc, grid_n=400) >= 0.99 * 0.5

    def test_plain_chop_lowers_threshold_monotonically(self):
        pair = cons.self_matched_ara(0.5, order=256)
        stars = [threshold_search(chop_pair(pair, M), grid_n=400) for M in (6, 16, 48, 128)]
        assert stars[0] < 0.5
        assert all(a < b for a, b in zip(stars, stars[1:]))
        assert stars[-1] == pytest.approx(0.5, abs=5e-3)

    @staticmethod
    def reference_search(pair, grid_n=1000, p_tol=1e-5, resid_tol=1e-9):
        """The plain bisection: the full DE residual at every probed p."""
        xs = np.linspace(0.0, 1.0, grid_n + 1)[1:]
        passes = lambda p: bool(np.max(de_residual(pair, xs, p=p)) <= resid_tol)
        lo, hi = 1e-4, 1.0 - 1e-4
        if not passes(lo):
            return 0.0
        if passes(hi):
            return hi
        while hi - lo > p_tol:
            mid = 0.5 * (lo + hi)
            if passes(mid):
                lo = mid
            else:
                hi = mid
        return lo

    @staticmethod
    def catalog_pairs(order, exact):
        """The nine families at their representative p: with their exact
        evaluators, or truncated at ``order`` as ``de`` searches them."""
        pairs = [cons.build_catalog_pair(name, entry.representative_p, order=order)
                 for name, entry in sorted(cons.CATALOG.items())]
        return pairs if exact else [truncate_pair(pair, order, order) for pair in pairs]

    def test_matches_reference_bisection(self):
        pairs = self.catalog_pairs(64, exact=False)
        pairs.append(chop_pair(cons.self_matched_ara(0.5, order=256), 16))
        stars = [threshold_search(pair) for pair in pairs]
        assert stars == [self.reference_search(pair) for pair in pairs]
        assert all(0.0 < star < 1.0 - 1e-4 for star in stars)

    @pytest.mark.parametrize("exact", [False, True], ids=["series", "exact"])
    def test_matches_reference_bisection_at_512(self, exact):
        pairs = self.catalog_pairs(512, exact)
        assert [threshold_search(pair) for pair in pairs] == [self.reference_search(pair) for pair in pairs]

    @pytest.mark.parametrize("exact", [False, True], ids=["series", "exact"])
    def test_one_point_residual_is_its_grid_entry(self, exact):
        xs = np.linspace(0.0, 1.0, 1001)[1:]
        for pair in self.catalog_pairs(512, exact):
            for q in (0.05, pair.p, 0.95):
                residual = tilting._residual_fn(pair, xs, q)
                full = residual(q)
                for at in [*range(0, len(xs), 37), int(np.argmax(full))]:
                    assert np.float64(residual(q, at)).tobytes() == full[at].tobytes()

    @staticmethod
    def counted_calls(monkeypatch, pair):
        """PowerSeries evaluations in one threshold search, keyed by series,
        as [array calls, scalar calls]."""
        counts = {}
        call = PowerSeries.__call__

        def counting(series, x):
            counts.setdefault(id(series), [0, 0])[np.ndim(x) == 0] += 1
            return call(series, x)

        monkeypatch.setattr(PowerSeries, "__call__", counting)
        star = threshold_search(pair)
        assert 0.0 < star < 1.0 - 1e-4  # lo passes, hi fails: every bisection step runs
        return counts

    @staticmethod
    def bisection_probes(p_tol=1e-5):
        lo, hi, probes = 1e-4, 1.0 - 1e-4, 2
        while hi - lo > p_tol:
            lo, probes = 0.5 * (lo + hi), probes + 1  # the width halves either way
        return probes

    def test_aldpc_evaluates_each_series_once(self, monkeypatch):
        pair = truncate_pair(cons.build_catalog_pair("self-matched-aldpc", 0.5, order=64), 64, 64)
        counts = self.counted_calls(monkeypatch, pair)
        series = (pair.check.edge, pair.bit.node, pair.bit.edge)
        assert counts == {id(s): [1, 0] for s in series}

    def test_ara_evaluates_check_side_once(self, monkeypatch):
        # The end probes lo and hi run on the full grid; hi fails, so each
        # bisection step after them first evaluates the bit side at one
        # point, and runs the full grid only when that point passes.
        pair = truncate_pair(cons.self_matched_ara(0.5, order=64), 64, 64)
        counts = self.counted_calls(monkeypatch, pair)
        probes = self.bisection_probes()
        assert counts[id(pair.check.node)] == [1, 0]
        assert counts[id(pair.check.edge)] == [1, 0]
        assert set(counts) == {id(s) for s in (pair.check.node, pair.check.edge, pair.bit.node, pair.bit.edge)}
        for series in (pair.bit.node, pair.bit.edge):
            full, scalar = counts[id(series)]
            assert full < probes
            assert scalar == probes - 2

    def test_tilt_domain_checked_at_every_p(self):
        # A check node above 1 / p makes the check tilt's denominator 1 - p R
        # vanish for large p only: the first probe passes the check.
        bit = DegreeDistribution.from_node(monomial(3, 8), exact_mean=3.0)
        node = PowerSeries([0.0, 0.0, 3.0])
        check = DegreeDistribution(node=node, edge=node.derivative() * (1.0 / 6.0), mean=6.0)
        pair = DegreePair(bit=bit, check=check, family="ARA", p=0.2)
        xs = np.linspace(0.0, 1.0, 1001)[1:]
        assert np.all(np.isfinite(de_residual(pair, xs, p=1e-4)))
        with pytest.raises(NumericDomainError):
            de_residual(pair, xs, p=0.5)
        with pytest.raises(NumericDomainError):
            threshold_search(pair)

    def test_area_identity(self):
        for name, p in [("self-matched-ara", 0.5), ("bit-regular-ara", 0.2)]:
            pair = cons.build_catalog_pair(name, p, order=256)
            lam_fn = tilted_edge(pair, "bit")[1]
            rho_fn = tilted_edge(pair, "check")[1]
            il = quad(lambda x: float(lam_fn(x)), 0, 1, limit=200)[0]
            ir = quad(lambda x: float(rho_fn(x)), 0, 1, limit=200)[0]
            assert abs(il - ir) < 1e-8
