import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from aracodes.constructions import C_STAR, build_catalog_pair, solve_b
from aracodes.nonneg import (
    PolyaCandidate,
    first_coefficients_min,
    log_ratio_series,
    polya_verify,
    self_matched_candidate,
    self_matched_condition,
    strip_head,
    verify_bitreg_ara,
    verify_checkreg_nsira,
    verify_family,
)
from aracodes.powerseries import InvalidParameterError, t_operator

from oracles import alt_fixed_point_fn, alt_self_matched_probe

GRID = 2048  # module tests run on a lighter grid than the acceptance default


class TestPolyaVerify:
    def test_known_positive_log_candidate(self):
        # all-positive coefficients 1/k; the criterion needs the z = 1
        # singularity (entire candidates have h''(0) = -sum k^2 g_k < 0)
        cand = PolyaCandidate(fn=lambda z: -np.log(1.0 - z), label="log")
        assert polya_verify(cand, GRID).verdict == "pass"

    def test_entire_candidates_cannot_pass(self):
        cand = PolyaCandidate(fn=lambda z: 1.0 / (1.0 - z / 2.0), label="geometric")
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
    def test_zero_strip_is_identity(self):
        fn = lambda z: z ** 2
        cand = strip_head(fn, 0, [])
        z = np.exp(1j * np.array([0.3, 1.1]))
        assert np.allclose(cand.fn(z), fn(z))

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

    def test_head_length_checked(self):
        with pytest.raises(InvalidParameterError):
            strip_head(lambda z: z, 3, [1.0])


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
        report = verify_checkreg_nsira(p, grid_n)
        assert report.verdict == "pass"
        assert report.integral > 0.0

    @pytest.mark.parametrize("p", [0.2, 0.26])
    def test_bitreg_ara_passes(self, p):
        assert verify_bitreg_ara(p, GRID).verdict == "pass"

    def test_bitreg_ara_breaks_down(self):
        for grid_n in (GRID, 8192):
            assert verify_bitreg_ara(0.45, grid_n).verdict in ("fail", "inconclusive")

    def test_checkreg_nsira_tests_the_family_bit_side(self):
        # the verifier reads the construction's own evaluator, at 1 - p
        p = 0.3
        fn = build_catalog_pair("check-regular-nsira", p, order=16).bit_edge_fn()
        assert verify_checkreg_nsira(p, GRID) == polya_verify(PolyaCandidate(fn=fn), GRID)

    def test_bitreg_ara_tests_the_family_check_side(self):
        # R'(z)/z = R'(1) rho(z)/z with R'(1) = 3(1-p)/p and rho the pair's check edge
        p = 0.2
        rho = build_catalog_pair("bit-regular-ara", p, order=16).check_edge_fn()
        fn = lambda z: 3.0 * (1.0 - p) / p * rho(z) / z
        assert verify_bitreg_ara(p, GRID) == polya_verify(PolyaCandidate(fn=fn), GRID)

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
        with pytest.raises(InvalidParameterError):
            verify_family("bit-regular-nsira", 0.07)

    def test_oracle_equivalence(self):
        # whenever the circle criterion passes, direct extraction agrees
        cases = [
            ("check-regular-nsira", 0.5, verify_checkreg_nsira),
            ("check-regular-nsira", 0.9, verify_checkreg_nsira),
            ("bit-regular-ara", 0.2, verify_bitreg_ara),
        ]
        for family, p, verifier in cases:
            assert verifier(p, GRID).verdict == "pass"
            assert first_coefficients_min(family, p, order=200) >= -1e-9

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
