from fractions import Fraction

import numpy as np
import pytest
from scipy.special import lambertw as scipy_lambertw

from aracodes import tilting
from aracodes.constructions import (
    AsymptoticParams,
    build_catalog_pair,
    aldpc_bit_regular,
    aldpc_check_regular,
    asymptotic_coeffs,
    bit_regular_ara,
    check_regular_ara,
    cmk_table,
    lambert_w0,
    matched_cubic_edge_fn,
    matched_cubic_edge_series,
    matched_image_series,
    nsira_bit_regular,
    nsira_check_regular,
    self_matched_aldpc,
    self_matched_ara,
    self_matched_coeffs_recursion,
    self_matched_nsira,
    solve_b,
    solve_check_from_bit,
    validity_region,
)
from aracodes.powerseries import InvalidParameterError, PowerSeries, ValidityError, monomial


class TestLambertW:
    def test_branch_point_limit(self):
        x = -np.exp(-1.0) + 1e-12
        assert lambert_w0(x) == pytest.approx(-1.0, abs=1e-4)

    def test_defining_identity(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-np.exp(-1.0) + 1e-9, -1e-9, size=1000)
        for x in xs:
            w = lambert_w0(x)
            assert -1.0 < w < 0.0
            assert abs(w * np.exp(w) - x) < 1e-13 * max(abs(x), 1e-6)

    def test_against_scipy(self):
        for x in (-0.3, -0.05, -1e-4, -0.36):
            assert lambert_w0(x) == pytest.approx(float(np.real(scipy_lambertw(x))), abs=1e-14)

    def test_minimal_b_closed_form(self):
        val = lambert_w0(-np.exp(-(25.0 + np.sqrt(61.0)) / 12.0)) + 1.0
        assert val == pytest.approx(0.9304, abs=5e-4)

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            lambert_w0(0.1)
        with pytest.raises(InvalidParameterError):
            lambert_w0(-1.0)


class TestSolveB:
    def test_half(self):
        assert solve_b(0.5) == pytest.approx(0.9304, abs=5e-4)

    def test_point_six(self):
        assert solve_b(0.6) == pytest.approx(0.972, abs=5e-4)

    def test_symmetry(self):
        for p in (0.1, 0.3, 0.45):
            assert solve_b(p) == pytest.approx(solve_b(1.0 - p), abs=1e-14)

    def test_defines_region_boundary(self):
        b = solve_b(0.37)
        region = validity_region("ARA", b)
        assert region.lo == pytest.approx(0.37, abs=1e-9)


def ordered_compositions(k, m):
    """All ordered tuples of integers >= 2 of length m summing to k."""
    if m == 1:
        if k >= 2:
            yield (k,)
        return
    for first in range(2, k - 2 * (m - 1) + 1):
        for rest in ordered_compositions(k - first, m - 1):
            yield (first,) + rest


class TestCompositionTable:
    def test_row_one(self):
        table = cmk_table(12)
        for k in range(2, 13):
            assert table.c(1, k) == pytest.approx(1.0 / k, abs=1e-15)

    def test_small_hand_values(self):
        table = cmk_table(8)
        assert table.c(2, 4) == pytest.approx(0.25, abs=1e-15)
        assert table.c(2, 6) == pytest.approx(13.0 / 36.0, abs=1e-15)

    def test_recursion_matches_enumeration_exactly(self):
        # rational recursion replaying the prefix-sum construction
        K = 20
        exact = {}
        for k in range(2, K + 1):
            exact[(1, k)] = Fraction(1, k)
        for m in range(2, K // 2 + 1):
            for k in range(2 * m, K + 1):
                exact[(m, k)] = Fraction(m, k) * sum(
                    exact.get((m - 1, j), Fraction(0)) for j in range(2 * (m - 1), k - 1)
                )
        for (m, k), val in exact.items():
            brute = sum(
                Fraction(1, int(np.prod(c))) for c in ordered_compositions(k, m)
            )
            assert val == brute
        table = cmk_table(K)
        for (m, k), val in exact.items():
            assert table.c(m, k) == pytest.approx(float(val), rel=1e-13)

    def test_zero_outside_triangle(self):
        table = cmk_table(10)
        assert table.c(3, 5) == 0.0
        assert table.c(0, 4) == 0.0


class TestSelfMatchedFamilies:
    def test_rate_half_symmetry(self):
        pair = self_matched_ara(0.5, order=128)
        assert pair.bit.node == pair.check.node
        assert pair.bit.edge == pair.check.edge

    def test_leading_coefficient(self):
        pair = self_matched_ara(0.5, b=0.9304, order=16)
        assert pair.bit.node.coeffs[2] == pytest.approx(0.4990, abs=2e-4)

    def test_partial_sum_crossing(self):
        pair = self_matched_ara(0.5, order=256)
        crossing = int(np.argmax(np.cumsum(pair.bit.edge.coeffs) > 0.95)) + 1
        assert crossing == 29

    def test_recursion_route_agrees(self):
        p, b = 0.5, solve_b(0.5)
        rec = self_matched_coeffs_recursion(p, b, 100)
        pair = self_matched_ara(p, b=b, order=100)
        div = pair.bit.node.coeffs
        mask = div > 1e-12
        rel = np.abs(rec[mask] - div[mask]) / div[mask]
        assert rel.max() < 1e-9

    def test_validity_gate(self):
        with pytest.raises(ValidityError):
            self_matched_ara(0.5, b=0.90, order=64)
        with pytest.raises(ValidityError):
            self_matched_ara(0.2, b=solve_b(0.5), order=64)

    def test_nsira_bit_coeffs_formula(self):
        b = 0.9304
        pair = self_matched_nsira(0.5, b=b, order=64)
        d0 = b + np.log1p(-b)
        ks = np.arange(2, 65)
        expect = -np.power(b, ks) / (ks * d0)
        assert np.allclose(pair.bit.node.coeffs[2:], expect, atol=1e-15)
        assert pair.bit.node.coeffs[2] == pytest.approx(0.2495, abs=2e-4)

    def test_nsira_valid_for_any_b(self):
        for b in (0.95, 0.99):
            pair = self_matched_nsira(0.3, b=b, order=64)
            assert pair.bit.node.coeffs.min() >= 0.0

    def test_nsira_complexity_formula(self):
        p, b = 0.5, 0.9304
        chi = tilting.complexity(self_matched_nsira(p, b=b, order=128))
        expect = 2.0 / (1 - p) - b * b / ((1 - b) * (b + np.log1p(-b)))
        assert chi.chi_encode == pytest.approx(expect, abs=1e-9)

    def test_aldpc_is_nsira_mirror(self):
        p, b = 0.55, 0.95
        direct = self_matched_aldpc(p, b=b, order=96)
        mirrored = tilting.symmetry_swap(self_matched_nsira(1.0 - p, b=b, order=96))
        assert np.allclose(direct.bit.node.coeffs, mirrored.bit.node.coeffs, atol=1e-14)
        assert np.allclose(direct.check.node.coeffs, mirrored.check.node.coeffs, atol=1e-14)
        assert mirrored.family == "ALDPC"

    def test_aldpc_complexity_formula(self):
        p, b = 0.5, 0.9304
        chi = tilting.complexity(self_matched_aldpc(p, b=b, order=128))
        expect = 3.0 / (1 - p) - b * b * p / ((1 - p) * (1 - b) * (b + np.log1p(-b)))
        assert chi.chi_decode == pytest.approx(expect, abs=1e-9)

    def test_tail_decay_bound(self):
        pair = self_matched_ara(0.5, order=450)
        b = pair.b
        tails = 1.0 - np.cumsum(pair.bit.node.coeffs)
        ks = np.arange(50, 401)
        constant = 1.05 * tails[50] / b ** 50
        assert np.all(tails[ks] <= constant * b ** ks)


class TestRegularFamilies:
    def test_bit_regular_shape(self):
        pair = bit_regular_ara(0.2, order=128)
        assert np.allclose(pair.bit.node.coeffs[:5], [0, 0, 0, 1, 0])
        assert np.allclose(pair.bit.edge.coeffs[:4], [0, 0, 1, 0])

    def test_check_fraction_below_32(self):
        pair = bit_regular_ara(0.3, order=400, allow_unproven=True)
        assert pair.check.node.coeffs[:32].sum() == pytest.approx(0.968, abs=0.002)

    def test_rate_is_capacity(self):
        pair = bit_regular_ara(0.25, order=512)
        assert tilting.design_rate(pair) == pytest.approx(0.75, abs=1e-9)

    def test_validity_gates(self):
        with pytest.raises(ValidityError):
            bit_regular_ara(0.3, order=64)  # beyond proven range without the flag
        bit_regular_ara(0.3, order=64, allow_unproven=True)
        with pytest.raises(ValidityError):
            bit_regular_ara(0.42, order=64, allow_unproven=True)

    def test_check_regular_is_swap(self):
        cr = check_regular_ara(0.8, order=200)
        br = bit_regular_ara(0.2, order=200)
        assert np.allclose(cr.bit.node.coeffs, br.check.node.coeffs, atol=1e-10)
        assert np.allclose(cr.check.node.coeffs[:4], [0, 0, 0, 1])
        chi = tilting.complexity(cr)
        assert chi.chi_encode == pytest.approx(3 + 5 * 0.8 / 0.2, abs=1e-9)

    def test_aldpc_bit_regular_shape(self):
        pair = aldpc_bit_regular(0.75, order=256)
        assert np.allclose(pair.bit.edge.coeffs[:4], [0, 0, 1, 0])
        assert tilting.complexity(pair).chi_decode == pytest.approx(24.0, abs=1e-10)
        # edge tail decays like k^(-3/2); at this depth about 5% is uncaptured
        assert pair.check.edge.coeffs.sum() == pytest.approx(1.0, abs=0.06)

    def test_aldpc_check_regular_shape(self):
        pair = aldpc_check_regular(12.0 / 13.0, order=256)
        assert np.allclose(pair.check.edge.coeffs[:4], [0, 0, 1, 0])
        p = 12.0 / 13.0
        assert tilting.complexity(pair).chi_decode == pytest.approx(
            3 * (1 + p) / (1 - p), abs=1e-9
        )
        with pytest.raises(ValidityError):
            aldpc_check_regular(0.8, order=64)

    def test_aldpc_nsira_swap_consistency(self):
        aldpc = aldpc_check_regular(0.93, order=160)
        nsira = nsira_bit_regular(1.0 - 0.93, order=160)
        assert np.allclose(aldpc.bit.node.coeffs, nsira.check.node.coeffs, atol=1e-12)
        aldpc2 = aldpc_bit_regular(0.6, order=160)
        nsira2 = nsira_check_regular(0.4, order=160)
        assert np.allclose(aldpc2.check.edge.coeffs, nsira2.bit.edge.coeffs, atol=1e-12)

    def test_nsira_bit_regular_gate(self):
        nsira_bit_regular(1.0 / 13.0, order=64)
        with pytest.raises(ValidityError):
            nsira_bit_regular(0.2, order=64)

    def test_cubic_series_matches_pointwise(self):
        for q in (0.2, 0.5, 0.8):
            series = matched_cubic_edge_series(q, 300)
            fn = matched_cubic_edge_fn(q)
            xs = np.linspace(0.0, 0.8, 30)
            assert np.allclose(series(xs), fn(xs), atol=1e-10)

    def test_cubic_endpoints(self):
        fn = matched_cubic_edge_fn(0.4)
        assert fn(0.0) == pytest.approx(0.0, abs=1e-12)
        assert fn(1.0) == pytest.approx(1.0, abs=1e-12)


def cubic_by_roots(q, z):
    """Plain reference for the matched cubic along a path of complex points.

    Per point, the root of (1-q) t u^3 + q u - t (t = sqrt(1-z)) nearest
    the previous point's root, seeded at t/q; returns 1 - u.
    """
    t = np.sqrt(1.0 - z)
    out = np.empty(len(z), dtype=complex)
    u = t[0] / q
    for i, ti in enumerate(t):
        roots = np.roots([(1.0 - q) * ti, 0.0, q, -ti])
        u = roots[np.argmin(np.abs(roots - u))]
        out[i] = 1.0 - u
    return out


ARC = np.exp(1j * np.linspace(1e-6, np.pi, 512))  # the test arc, walked from near z = 1


class TestMatchedCubicComplex:
    @pytest.mark.parametrize("q", [0.01, 0.05, 0.2, 0.5, 0.8, 0.95])
    def test_matches_root_continuation_on_arc(self, q):
        got = matched_cubic_edge_fn(q)(ARC)
        assert got.dtype == complex
        assert np.max(np.abs(got - cubic_by_roots(q, ARC))) <= 1e-12

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.95, 1.0])
    def test_conjugate_symmetry(self, q):
        fn = matched_cubic_edge_fn(q)
        assert np.allclose(fn(np.conj(ARC)), np.conj(fn(ARC)), rtol=0.0, atol=1e-15)

    def test_real_points_take_the_real_branch(self):
        fn = matched_cubic_edge_fn(0.3)
        xs = np.linspace(0.0, 1.0, 41)
        assert np.allclose(fn(xs + 0j), fn(xs), rtol=0.0, atol=1e-15)
        assert isinstance(fn(0.5 + 0j), complex)

    @pytest.mark.parametrize(
        "pair",
        [bit_regular_ara(0.2, order=400), bit_regular_ara(0.26, order=400), aldpc_bit_regular(0.3, order=400)],
        ids=["bit-regular-ara-0.2", "bit-regular-ara-0.26", "aldpc-bit-regular-0.3"],
    )
    def test_check_edge_fn_matches_series_inside_disc(self, pair):
        # the closed-form check evaluator and the pair's own edge series
        # are independent routes to the same function
        z = 0.9 * np.exp(1j * np.linspace(0.0, np.pi, 97))
        want = np.polynomial.polynomial.polyval(z, pair.check.edge.coeffs)
        assert np.max(np.abs(pair.check_edge_fn()(z) - want)) <= 1e-12


class TestSolveCheckFromBit:
    def test_matches_closed_form(self):
        p = 0.2
        sol = solve_check_from_bit(monomial(3, 6), p, order=400)
        ref = bit_regular_ara(p, order=400)
        assert np.allclose(sol.R.coeffs, ref.check.node.coeffs, atol=1e-12)
        xs = np.linspace(0.0, 0.95, 24)
        want = ref.check_node_fn()(xs)
        got = np.array([float(sol.R_fn(float(x))) for x in xs])
        assert np.max(np.abs(got - want)) < 1e-8

    def test_irregular_bit_side(self):
        # the series route (Newton) and the pointwise route (bisection and
        # quadrature) are independent; they must agree inside the disc
        p = 0.3
        L = PowerSeries([0.0, 0.0, 0.3, 0.5, 0.0, 0.2])
        sol = solve_check_from_bit(L, p, order=400)
        xs = np.linspace(0.0, 0.8, 9)
        got = np.array([float(sol.R_fn(float(x))) for x in xs])
        assert np.max(np.abs(sol.R(xs) - got)) < 1e-8
        # the matched image v = 1 - rho~ solves lam~(v) = 1 - x
        v = 1.0 - matched_image_series(L, p, order=400)(xs)
        lam = L.derivative() * (1.0 / L.deriv_at_one())
        assert np.allclose(tilting.tilt(L(v), lam(v), "bit", p)[1], 1.0 - xs, atol=1e-10)

    def test_rho_normalized_without_truncation(self):
        sol = solve_check_from_bit(monomial(3, 6), 0.25, order=128)
        assert float(sol.rho_fn(1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_inverse_direction_by_symmetry(self):
        # running the solver at 1-p on the check side reproduces the bit side
        p = 0.8
        sol = solve_check_from_bit(monomial(3, 6), 1.0 - p, order=300)
        cr = check_regular_ara(p, order=300)
        assert np.allclose(sol.R.coeffs, cr.bit.node.coeffs, atol=1e-12)


class TestAsymptotics:
    def test_band_and_edge_transfer(self):
        p, b = 0.5, solve_b(0.5)
        pair = self_matched_ara(p, order=450)
        params = AsymptoticParams.from_pb(p, b)
        for k in range(50, 401, 25):
            ratio = pair.bit.node.coeffs[k] / asymptotic_coeffs(k, params, "L")
            assert 0.5 <= ratio <= 2.0
        # edge transfer is the exact node-to-edge relation
        for k in (60, 120):
            lam = asymptotic_coeffs(k, params, "lambda")
            L = asymptotic_coeffs(k, params, "L")
            assert lam == pytest.approx((1 - b) * k / (b ** 2 * p ** 2) * L, rel=1e-12)

    def test_check_side_is_mirror(self):
        params = AsymptoticParams.from_pb(0.4, 0.96)
        mirrored = AsymptoticParams.from_pb(0.6, 0.96)
        for k in (64, 256):
            assert asymptotic_coeffs(k, params, "R") == pytest.approx(
                asymptotic_coeffs(k, mirrored, "L"), rel=1e-12
            )


class TestValidityRegion:
    def test_degenerate_at_minimal_b(self):
        region = validity_region("ARA", solve_b(0.5))
        assert region.lo == pytest.approx(0.5, abs=1e-9)
        assert region.hi == pytest.approx(0.5, abs=1e-9)

    def test_widens_toward_one(self):
        widths = []
        for b in (0.94, 0.96, 0.98, 0.995):
            region = validity_region("ARA", b)
            widths.append(region.hi - region.lo)
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_empty_below_minimal_b(self):
        assert validity_region("ARA", 0.9).empty

    def test_one_sided_families(self):
        b = 0.96
        nsira = validity_region("NSIRA", b)
        aldpc = validity_region("ALDPC", b)
        ara = validity_region("ARA", b)
        assert nsira.lo == 0.0 and nsira.hi == pytest.approx(ara.hi)
        assert aldpc.hi == 1.0 and aldpc.lo == pytest.approx(ara.lo)


class TestCatalog:
    def test_all_names_build(self):
        cases = {
            "self-matched-ara": 0.5,
            "self-matched-nsira": 0.4,
            "self-matched-aldpc": 0.6,
            "bit-regular-ara": 0.2,
            "check-regular-ara": 0.8,
            "check-regular-nsira": 0.5,
            "bit-regular-nsira": 0.05,
            "bit-regular-aldpc": 0.5,
            "check-regular-aldpc": 0.94,
        }
        for name, p in cases.items():
            pair = build_catalog_pair(name, p, order=96)
            assert tilting.design_rate(pair) == pytest.approx(1.0 - p, abs=0.02)

    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            build_catalog_pair("tornado", 0.5)
