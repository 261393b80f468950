import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from aracodes.constructions import CATALOG, C_STAR, build_catalog_pair, matched_check_node_series, solve_b
from aracodes.nonneg import (
    PolyaCandidate,
    check_side_candidate,
    first_coefficients_min,
    log_ratio_series,
    polya_verify,
    self_matched_candidate,
    self_matched_condition,
    verify_family,
)
from aracodes.powerseries import InvalidParameterError, monomial, t_operator

from oracles import alt_fixed_point_fn, alt_self_matched_probe

GRID = 2048  # module tests run on a lighter grid than the acceptance default


class TestPolyaVerify:
    def test_known_positive_log_candidate(self):
        # all-positive coefficients 1/k; the criterion needs the z = 1
        # singularity (entire candidates have h''(0) = -sum k^2 g_k < 0)
        cand = PolyaCandidate(fn=lambda z: -np.log(1.0 - z))
        assert polya_verify(cand, GRID).verdict == "pass"

    def test_concave_candidate_fails_on_every_grid(self):
        # -log(1 - z) + 0.1 z^2 has positive coefficients, but h'' = 1/4 - 0.4
        # at pi: the criterion does not hold, however fine the grid
        cand = PolyaCandidate(fn=lambda z: -np.log(1.0 - z) + 0.1 * z**2)
        for grid_n in (GRID, 65536, 262144):
            report = polya_verify(cand, grid_n)
            assert report.verdict != "pass"
            assert report.min_location > 3.0

    def test_entire_candidates_cannot_pass(self):
        cand = PolyaCandidate(fn=lambda z: 1.0 / (1.0 - z / 2.0))
        report = polya_verify(cand, GRID)
        assert report.verdict == "fail" and report.min_location < 0.01

    def test_self_matched_passes_midrange(self):
        assert polya_verify(self_matched_candidate(0.5), GRID).verdict == "pass"

    def test_head_failure_beyond_critical(self):
        report = polya_verify(self_matched_candidate(0.7), GRID)
        assert report.verdict == "fail"
        assert report.head_min < -1e-6

    def test_grid_floor(self):
        with pytest.raises(InvalidParameterError):
            polya_verify(self_matched_candidate(0.5), grid_n=512)

    def test_symmetry_reported(self):
        report = polya_verify(self_matched_candidate(0.4), GRID)
        assert report.symmetry_error < 1e-10


class TestStripHead:
    def test_head_values_match_series_division(self):
        c = 0.37
        ser = log_ratio_series(c, 10).coeffs
        assert ser[2] == pytest.approx(0.5, abs=1e-14)
        assert ser[3] == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert ser[4] == pytest.approx((1.0 - c) / 4.0, abs=1e-14)
        assert ser[5] == pytest.approx((3.0 - 5.0 * c) / 15.0, abs=1e-14)
        assert ser[6] == pytest.approx((12.0 - 26.0 * c + 9.0 * c * c) / 72.0, abs=1e-14)
        assert ser[7] == pytest.approx(
            (120.0 - 308.0 * c + 210.0 * c * c) / 840.0, abs=1e-14
        )

    def test_stripped_function_consistency(self):
        # the stripped candidate agrees with direct series evaluation inside the disc
        c = 0.3
        cand = self_matched_candidate(c, order=220)
        ser = log_ratio_series(c, 220).coeffs
        z = np.array([0.4 * np.exp(0.7j)])
        direct = sum(ser[n] * z ** (n - 8) for n in range(8, 221))
        assert np.allclose(cand.fn(z), direct, atol=1e-12)


class TestCriticalConstant:
    def test_sign_change_location(self):
        g6 = lambda c: (12.0 - 26.0 * c + 9.0 * c * c) / 72.0
        root = brentq(g6, 0.5, 0.65, xtol=1e-14)
        assert abs(root - C_STAR) < 1e-10

    def test_vanishes_at_critical(self):
        assert abs(log_ratio_series(C_STAR, 8).coeffs[6]) < 1e-12

    def test_verify_each_side_of_critical(self):
        assert polya_verify(self_matched_candidate(0.55), GRID).verdict == "pass"
        assert polya_verify(self_matched_candidate(0.60), GRID).verdict == "fail"


class TestSelfMatchedCondition:
    def test_design_point(self):
        assert self_matched_condition(0.5, 0.9304, "ARA")

    def test_below_minimal_b(self):
        assert not self_matched_condition(0.5, 0.90, "ARA")

    def test_nsira_weaker(self):
        # only the check side constrains NSIRA
        assert self_matched_condition(0.3, 0.9304, "NSIRA")
        assert not self_matched_condition(0.3, 0.9304, "ARA")

    def test_aldpc_mirror(self):
        assert self_matched_condition(0.7, 0.9304, "ALDPC")
        assert not self_matched_condition(0.3, 0.9304, "ALDPC")

    @pytest.mark.parametrize(
        "family, b",
        [
            pytest.param(family, b, id=f"{family}-{name}")
            for family in ("ARA", "NSIRA", "ALDPC")
            for name, b in (("solve_b(0.42)", solve_b(0.42)), ("0.96", 0.96), ("0.98", 0.98))
        ],
    )
    def test_matches_region(self, family, b):
        # the region reads TILTED_SIDES, the condition the side erasures
        from aracodes.constructions import validity_region

        region = validity_region(family, b)
        for p in (region.lo + 1e-6, 0.5 * (region.lo + region.hi), region.hi - 1e-6):
            assert self_matched_condition(p, b, family)
        for bound, outside in ((region.lo, region.lo - 1e-3), (region.hi, region.hi + 1e-3)):
            if 0.0 < bound < 1.0:
                assert not self_matched_condition(outside, b, family)


class TestFamilyVerifiers:
    @pytest.mark.parametrize(
        "p, grid_n",
        [pytest.param(p, GRID, id=str(p)) for p in (0.1, 0.5, 0.9, 0.99)]
        + [
            pytest.param(p, n, id=f"{p}-{n}")
            for n in (8192, 16384)
            for p in (0.1, 0.5, 0.9)
        ],
    )
    def test_checkreg_nsira_passes(self, p, grid_n):
        # the integral includes the sliver [0, X_MIN] the grid leaves out
        doc = verify_family("check-regular-nsira", p, grid_n=grid_n)
        assert doc["verdict"] == "pass"
        assert doc["integral"] > 0.0

    @pytest.mark.parametrize("p", [0.2, 0.26])
    def test_bitreg_ara_passes(self, p):
        assert verify_family("bit-regular-ara", p, grid_n=GRID)["verdict"] == "pass"

    def test_bitreg_ara_breaks_down(self):
        for grid_n in (GRID, 8192):
            assert verify_family("bit-regular-ara", 0.45, grid_n=grid_n)["verdict"] in ("fail", "inconclusive")

    @staticmethod
    def report_fields(report):
        return [report.verdict, report.min_second_difference, report.integral, report.head_min]

    @staticmethod
    def doc_fields(doc):
        return [doc["verdict"], doc["min_second_difference"], doc["integral"], doc["head_min"]]

    def test_checkreg_nsira_tests_the_family_bit_side(self):
        # the route reads the construction's own evaluator, at 1 - p: the bit
        # edge of check-regular NSIRA is the check edge of bit-regular ALDPC,
        # whose R'(1) = 3 (1 - 0) / (1 - p)
        p = 0.3
        lam = build_catalog_pair("check-regular-nsira", p, order=16).bit_edge_fn()
        fn = lambda z: 3.0 * (1.0 - 0.0) / (1.0 - p) * lam(z) / z
        report = polya_verify(PolyaCandidate(fn=fn), GRID)
        assert polya_verify(check_side_candidate("ALDPC", 1.0 - p), GRID) == report
        doc = verify_family("check-regular-nsira", p, grid_n=GRID)
        assert self.doc_fields(doc) == self.report_fields(report)

    def test_bitreg_ara_tests_the_family_check_side(self):
        # R'(z)/z = R'(1) rho(z)/z with R'(1) = 3(1-p)/p and rho the pair's check edge
        p = 0.2
        rho = build_catalog_pair("bit-regular-ara", p, order=16).check_edge_fn()
        fn = lambda z: 3.0 * (1.0 - p) / p * rho(z) / z
        report = polya_verify(PolyaCandidate(fn=fn), GRID)
        assert polya_verify(check_side_candidate("ARA", p), GRID) == report
        doc = verify_family("bit-regular-ara", p, grid_n=GRID)
        assert self.doc_fields(doc) == self.report_fields(report)

    def test_family_report_uses_swapped_p(self):
        # the swap images are certified by the same function at 1 - p
        direct = verify_family("check-regular-nsira", 0.3, grid_n=GRID)
        mirror = verify_family("bit-regular-aldpc", 0.7, grid_n=GRID)
        assert direct["verdict"] == mirror["verdict"] == "pass"
        assert direct["integral"] == pytest.approx(mirror["integral"], abs=1e-12)
        assert list(direct) == [
            "family", "p", "verdict", "min_second_difference", "integral", "head_min",
            "first_200_coeff_min",
        ]

    @pytest.mark.parametrize(
        "family, p, verdict, series_min",
        [
            ("self-matched-nsira", 0.3, "pass", 0.0),
            ("self-matched-nsira", 0.6, "fail", -0.0444),
            ("self-matched-aldpc", 0.7, "pass", 0.0),
            ("self-matched-aldpc", 0.4, "fail", -0.0444),
        ],
    )
    def test_self_matched_report_uses_tilted_scale(self, family, p, verdict, series_min):
        # NSIRA tilts only the check side and ALDPC only the bit side, so the
        # untilted scale must not decide the verdict or the series minimum
        doc = verify_family(family, p, b=0.95, grid_n=GRID)
        assert doc["closed_form_condition"] == (verdict == "pass")
        assert doc["verdict"] == verdict
        assert doc["first_200_coeff_min"] == pytest.approx(series_min, abs=1e-4)

    def test_family_without_verifier(self):
        # the NSIRA base pair gets a report, but its R'(z)/z is concave on part
        # of the arc (h'' about -0.5 at base p 0.07): the criterion cannot
        # certify it, and the series oracle shows the coefficients non-negative
        for family, p in (("bit-regular-nsira", 0.07), ("check-regular-aldpc", 0.93)):
            doc = verify_family(family, p)
            assert doc["verdict"] != "pass"
            assert doc["first_200_coeff_min"] >= -1e-12

    @pytest.mark.parametrize("p", [0.05, 0.2])
    def test_concave_family_does_not_pass_on_a_fine_grid(self, p):
        # a second difference shrinks as the step squared; the curvature bound
        # must not, or h'' of -0.19 (p 0.05) or -6.6 (p 0.2) reads "pass"
        for grid_n in (2048, 65536):
            assert verify_family("bit-regular-nsira", p, grid_n=grid_n)["verdict"] != "pass"

    def test_oracle_equivalence(self):
        # whenever the circle criterion passes, direct extraction agrees
        cases = [
            ("check-regular-nsira", 0.5),
            ("check-regular-nsira", 0.9),
            ("bit-regular-ara", 0.2),
        ]
        for family, p in cases:
            assert verify_family(family, p, grid_n=GRID)["verdict"] == "pass"
            assert first_coefficients_min(family, p, order=200) >= -1e-9

    @pytest.mark.parametrize("grid_n", [2048, 8192, 16384])
    @pytest.mark.parametrize("family", sorted(n for n, e in CATALOG.items() if e.structure != "self-matched"))
    def test_integral_is_bounded_away_from_zero(self, family, grid_n):
        # the integral of Re R'(e^{ix})/e^{ix} over [0, pi] is pi R'(z)/z at 0,
        # that is 2 pi R_2: bounded away from 0, not left to quadrature rounding
        entry = CATALOG[family]
        p = entry.representative_p
        r2 = matched_check_node_series(monomial(3, 3), entry.base_tag, entry.swap_pair_p(p)[0], 8).coeffs[2]
        integral = verify_family(family, p, grid_n=grid_n)["integral"]
        assert integral == pytest.approx(2.0 * np.pi * r2, rel=1e-3)
        assert integral > 0.1

    @pytest.mark.parametrize("family, p", [("bit-regular-nsira", 0.07), ("check-regular-aldpc", 0.93)])
    def test_nsira_base_series_sign_turns_at_the_bound(self, family, p):
        # the series oracle reproduces the proven 1/13 bound of the NSIRA base pair
        base = lambda q: q if family == "bit-regular-nsira" else 1.0 - q
        assert first_coefficients_min(family, p) >= -1e-12
        assert first_coefficients_min(family, base(1.0 / 13.0)) >= -1e-12
        assert first_coefficients_min(family, base(0.1)) < 0.0

    def test_candidate_needs_p_inside_the_unit_interval(self):
        for p in (0.0, 1.0):
            with pytest.raises(InvalidParameterError):
                check_side_candidate("ARA", p)
        with pytest.raises(InvalidParameterError, match="no bit-regular base pair"):
            first_coefficients_min("self-matched-ara", 0.5)

    def test_derivative_flat_at_pi(self):
        # passing candidates have h'(pi) = 0: the imaginary part of g'(-1)
        for cand in (self_matched_candidate(0.5), self_matched_candidate(0.3)):
            eps = 1e-5
            deriv = (cand.fn(np.array([-1.0 + eps])) - cand.fn(np.array([-1.0 - eps]))) / (
                2.0 * eps
            )
            assert abs(float(np.imag(deriv[0]))) < 1e-8


class TestClassicalChecks:
    def test_cosine_weighted_convex_integrals(self):
        rng = np.random.default_rng(11)
        xs = np.linspace(0.0, 2.0 * np.pi, 200_001)
        for _ in range(50):
            kinks = rng.uniform(0.0, 2.0 * np.pi, size=3)
            w = rng.uniform(0.0, 1.0, size=3)
            a, b = rng.uniform(-1.0, 1.0, size=2)
            fx = a + b * xs
            for kk, ww in zip(kinks, w):
                fx = fx + ww * np.maximum(xs - kk, 0.0) ** 2
            integrand = np.cos(xs) * fx
            total = np.trapezoid(integrand, xs)
            assert total >= -1e-10

    def test_triangle_wave_fourier_coefficients(self):
        # 2*pi-periodic triangle wave: convex, non-increasing on [0, pi]
        F = lambda t: 1.0 - abs(t) / np.pi
        for k in range(0, 41):
            hk = quad(lambda t: F(t) * np.cos(k * t), 0.0, np.pi, limit=200)[0] / np.pi
            expect = 0.5 if k == 0 else (1.0 - (-1.0) ** k) / (np.pi * k) ** 2
            assert hk >= -1e-12
            assert hk == pytest.approx(expect, abs=1e-12)


class TestAlternateFixedPoint:
    def test_is_fixed_point(self):
        f = alt_fixed_point_fn(0.4)
        tf = t_operator(lambda x: float(f(x)))
        xs = np.linspace(0.01, 0.99, 49)
        assert np.max(np.abs(tf(xs) - f(xs))) < 1e-10

    def test_probe_intervals_disjoint(self):
        report = alt_self_matched_probe(0.4)
        assert report.fixed_point_residual < 1e-10
        assert not report.overlap
        assert report.bit_interval[0] >= 0.8
        assert report.check_interval[1] <= 0.2

    def test_probe_pointwise_examples(self):
        report = alt_self_matched_probe(0.4, p_grid=np.array([0.1, 0.9]))
        # bit side valid only at high p, check side only at low p
        assert report.bit_min_coeff[1] >= -1e-9 and report.bit_min_coeff[0] < -1e-6
        assert report.check_min_coeff[0] >= -1e-9 and report.check_min_coeff[1] < -1e-6

    def test_alpha_domain(self):
        with pytest.raises(InvalidParameterError):
            alt_fixed_point_fn(0.7)
