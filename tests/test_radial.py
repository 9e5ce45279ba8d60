"""Tests for exact radial (modulus) statistics.

The module's whole output is a sum of one-dimensional gamma expectations;
the oracles here attack that representation from the outside: the planar
determinantal kernel integrated on a 4-D grid, Monte Carlo over independent
gamma sums, and closed-form gamma moments.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ginfluct.radial import (
    Ensemble,
    RadialTestFunction,
    count_probabilities,
    radial_cov_exact,
    radial_count_cov,
    radial_count_var,
    radial_log_mgf,
    radial_mean_exact,
)
from ginfluct.specfun import gamma_interval_prob

from oracles import (
    quad4d_cov_rt,
    radial_count_cov_mp,
    radial_cov_quad_mp,
    radial_poly_indicator_cov_mp,
)

R2 = RadialTestFunction.poly([0.0, 0.0, 1.0])
R4 = RadialTestFunction.poly([0.0, 0.0, 0.0, 0.0, 1.0])


class TestTestFunctionValidation:
    def test_poly_needs_coefficients(self):
        with pytest.raises(ValueError):
            RadialTestFunction.poly([])

    def test_degree_cap(self):
        RadialTestFunction.poly([1.0] * 33)  # degree 32 allowed
        with pytest.raises(ValueError):
            RadialTestFunction.poly([1.0] * 34)

    def test_indicator_rejects_bad_window(self):
        with pytest.raises(ValueError):
            RadialTestFunction.indicator(0.8, 0.4)
        with pytest.raises(ValueError):
            RadialTestFunction.indicator(-0.1, 0.4)
        with pytest.raises(ValueError):
            RadialTestFunction.indicator(math.nan, 0.4)

    def test_callable_needs_fn_and_domain(self):
        with pytest.raises(ValueError):
            RadialTestFunction(fn=lambda r: r)  # no r_max
        with pytest.raises(ValueError):
            RadialTestFunction.from_callable(lambda r: r, r_max=1.5)

    def test_callable_rejects_nan_domain(self):
        with pytest.raises(ValueError, match="r_max"):
            RadialTestFunction.from_callable(lambda r: r, r_max=math.nan)

    @pytest.mark.parametrize("extra", [
        {"window": (0.4, 0.8)},
        {"window": (0.8, 0.4)},
        {"window": (0.0, math.nan)},
        {"coeffs": (0.0, 1.0)},
    ])
    def test_callable_rejects_coeffs_and_window(self, extra):
        # a callable would evaluate past the window and ignore the coefficients
        with pytest.raises(ValueError, match="callable"):
            RadialTestFunction(fn=lambda r: np.ones_like(r), r_max=8.0, **extra)
        # the defaults themselves stay accepted, in either sequence type
        RadialTestFunction(fn=lambda r: r, r_max=8.0, coeffs=[1.0], window=[0.0, math.inf])

    def test_evaluate_matches_kind(self):
        r = np.array([0.0, 0.5, 1.0, 2.0])
        p = RadialTestFunction.poly([1.0, -2.0, 3.0])
        assert np.allclose(p.evaluate(r), 1.0 - 2.0 * r + 3.0 * r**2)
        ind = RadialTestFunction.indicator(0.4, 1.0)
        assert ind.evaluate(r).tolist() == [0.0, 1.0, 1.0, 0.0]


class TestMeanExact:
    def test_constant_counts_points(self):
        one = RadialTestFunction.poly([1.0])
        for n in (1, 7, 64):
            for ens in Ensemble:
                assert radial_mean_exact(one, n, ens) == pytest.approx(n, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [1, 2, 10, 137])
    def test_r_squared_mean(self, n):
        # E sum r^2 = sum l/N = (N+1)/2 for both ensembles
        assert radial_mean_exact(R2, n) == pytest.approx((n + 1) / 2.0, rel=1e-13, abs=0.0)
        assert radial_mean_exact(R2, n, Ensemble.QUATERNION) == pytest.approx(
            (n + 1) / 2.0, rel=1e-13, abs=0.0
        )

    @pytest.mark.parametrize("ens", list(Ensemble))
    def test_mean_modulus_against_extended_precision(self, ens):
        # M_1 = Gamma(k + 1/2)/(Gamma(k) sqrt(scale)) summed over N = 10^4
        # factors; a difference of two log-gammas of size k ln k would lose
        # about 1e-13 here
        n = 10_000
        with mpmath.workdps(40):
            ref = mpmath.fsum(mpmath.exp(mpmath.loggamma(ens.shape(l) + mpmath.mpf(0.5))
                                         - mpmath.loggamma(ens.shape(l)))
                              for l in range(1, n + 1)) / mpmath.sqrt(ens.scale(n))
        got = radial_mean_exact(RadialTestFunction.poly([0.0, 1.0]), n, ens)
        assert got == pytest.approx(float(ref), rel=1e-14, abs=0.0)

    def test_indicator_mean_is_gamma_sum(self):
        n = 50
        got = radial_mean_exact(RadialTestFunction.indicator(0.4, 0.8), n)
        direct = math.fsum(
            gamma_interval_prob(k, n * 0.16, n * 0.64) for k in range(1, n + 1)
        )
        assert got == pytest.approx(direct, rel=1e-13, abs=0.0)

    def test_indicator_mean_against_monte_carlo(self):
        # 10^6 independent draws of the 50 gamma sums, 3-sigma agreement
        n, s = 50, 1_000_000
        rng = np.random.default_rng(20260825)
        shapes = np.arange(1, n + 1)
        draws = rng.standard_gamma(shapes, size=(s, n)) / n
        counts = np.sum((draws >= 0.16) & (draws <= 0.64), axis=1)
        est, se = counts.mean(), counts.std(ddof=1) / math.sqrt(s)
        exact = radial_mean_exact(RadialTestFunction.indicator(0.4, 0.8), n)
        assert abs(exact - est) <= 3.0 * se

    def test_callable_route_agrees_with_exact_moments(self):
        # quadrature contract: relative error <= 1e-9 on polynomials
        # (the N=1 gamma window stretches to r ~ 7.3, hence the wide domain)
        f = RadialTestFunction.from_callable(lambda r: r**2, r_max=8.0)
        for n in (1, 5, 40):
            got = radial_mean_exact(f, n)
            assert got == pytest.approx((n + 1) / 2.0, rel=1e-9, abs=0.0)

    def test_unevaluable_callable_domain_raises(self):
        f = RadialTestFunction.from_callable(lambda r: r, r_max=2.0)
        with pytest.raises(ValueError, match="r_max"):
            radial_mean_exact(f, 1)  # shape-1 window reaches far beyond r=2

    def test_n_valid___at_least_one(self):
        with pytest.raises(ValueError):
            radial_mean_exact(R2, 0)


class TestCovExact:
    def test_constant_has_zero_covariance(self):
        c = RadialTestFunction.poly([3.5])
        assert radial_cov_exact(c, c, 12) == pytest.approx(0.0, abs=1e-12)
        assert radial_cov_exact(c, R2, 12) == pytest.approx(0.0, abs=1e-10)

    def test_variance_of_r_squared(self):
        # Var(Gamma(l)) = l, so Var sum r^2 = sum l / N^2 = (N+1)/(2N)
        assert radial_cov_exact(R2, R2, 10) == pytest.approx(0.55, rel=1e-13, abs=0.0)

    def test_mixed_moment_example(self):
        # E s^3 = l(l+1)(l+2) gives Cov(r^2, r^4) = sum 2l(l+1)/N^3
        assert radial_cov_exact(R2, R4, 2) == pytest.approx(2.0, rel=1e-13, abs=0.0)

    def test_quaternion_variance_halves(self):
        # Var(Gamma(2l)/(2N)) = 2l/(2N)^2 -> (N+1)/(4N)
        got = radial_cov_exact(R2, R2, 10, Ensemble.QUATERNION)
        assert got == pytest.approx(0.275, rel=1e-13, abs=0.0)

    def test_symmetry(self):
        assert radial_cov_exact(R2, R4, 7) == radial_cov_exact(R4, R2, 7)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_planar_determinantal_oracle(self, n):
        # brute-force kernel quadrature on the plane, different primitives
        got = radial_cov_exact(R2, R2, n)
        oracle = quad4d_cov_rt(lambda r, t: r**2, lambda r, t: r**2, n, r_nodes=160)
        assert got == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_mixed_pair_against_planar_oracle(self):
        got = radial_cov_exact(R2, R4, 2)
        oracle = quad4d_cov_rt(lambda r, t: r**2, lambda r, t: r**4, 2, r_nodes=160)
        assert got == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_indicator_pair_routes(self):
        # indicator x indicator = probability of the intersection window
        f = RadialTestFunction.indicator(0.2, 0.7)
        g = RadialTestFunction.indicator(0.5, 0.9)
        n = 30
        direct = radial_count_cov(n, (0.2, 0.7), (0.5, 0.9))
        assert radial_cov_exact(f, g, n) == pytest.approx(direct, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("ens", list(Ensemble))
    @pytest.mark.parametrize("n", [30, 1024])
    @pytest.mark.parametrize("w1, w2", [
        ((0.2, 0.7), (0.5, 0.9)),       # overlapping
        ((0.3, 1.2), (0.5, 0.8)),       # nested
        ((0.2, 0.5), (0.6, math.inf)),  # disjoint, one unbounded
    ])
    def test_count_cov_against_extended_precision(self, ens, n, w1, w2):
        # an independent leg: mpmath incomplete gammas of each window and of
        # their intersection, not the library's product-statistic route
        ref = radial_count_cov_mp(w1, w2, [ens.shape(l) for l in range(1, n + 1)], ens.scale(n))
        assert radial_count_cov(n, w1, w2, ens) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("ens", list(Ensemble))
    @pytest.mark.parametrize("b", [1.1, math.inf])
    def test_poly_indicator_against_extended_precision(self, ens, b):
        # large N puts many half-integer shapes k + j/2 near the window edges
        coeffs, a, n = (0.3, -1.2, 0.7, 0.25), 0.6, 256
        ref = radial_poly_indicator_cov_mp(coeffs, a, b, [ens.shape(l) for l in range(1, n + 1)],
                                           ens.scale(n))
        got = radial_cov_exact(RadialTestFunction.poly(coeffs), RadialTestFunction.indicator(a, b),
                               n, ens)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_poly_indicator_route_against_scipy_moments(self):
        # The poly x indicator path uses interval moments
        # E[(s/N)^{j/2} 1] = Gamma(k + j/2)/Gamma(k) N^{-j/2} dP(k + j/2);
        # rebuild the whole covariance from scipy primitives instead.
        from scipy.special import gammainc, gammaln

        coeffs = {1: 1.0, 2: 2.0}  # f = r + 2 r^2
        a, b = 0.6, 1.1
        ind = RadialTestFunction.indicator(a, b)
        f = RadialTestFunction.poly([0.0, 1.0, 2.0])
        for n in (3, 17):
            s_lo, s_hi = n * a * a, n * b * b
            total = 0.0
            for k in range(1, n + 1):
                dp = gammainc(k, s_hi) - gammainc(k, s_lo)
                e_f = sum(
                    c
                    * math.exp(gammaln(k + 0.5 * j) - gammaln(k))
                    / n ** (0.5 * j)
                    for j, c in coeffs.items()
                )
                e_f_ind = sum(
                    c
                    * math.exp(gammaln(k + 0.5 * j) - gammaln(k))
                    / n ** (0.5 * j)
                    * (gammainc(k + 0.5 * j, s_hi) - gammainc(k + 0.5 * j, s_lo))
                    for j, c in coeffs.items()
                )
                total += e_f_ind - e_f * dp
            assert radial_cov_exact(f, ind, n) == pytest.approx(total, rel=1e-11, abs=0.0)

    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=-2.0, max_value=2.0),
        st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=1, max_size=4),
        st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=1, max_size=4),
        st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_bilinearity(self, n, alpha, c1, c2, cg):
        f1, f2, g = (RadialTestFunction.poly(c) for c in (c1, c2, cg))
        combo = RadialTestFunction.poly(
            [alpha * a + b for a, b in
             zip(list(c1) + [0.0] * (len(c2) - len(c1)),
                 list(c2) + [0.0] * (len(c1) - len(c2)))]
        )
        lhs = radial_cov_exact(combo, g, n)
        rhs = alpha * radial_cov_exact(f1, g, n) + radial_cov_exact(f2, g, n)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @given(
        st.integers(min_value=1, max_value=12),
        st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=5),
        st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_cauchy_schwarz(self, n, cf, cg):
        f, g = RadialTestFunction.poly(cf), RadialTestFunction.poly(cg)
        cov = radial_cov_exact(f, g, n)
        vf = radial_cov_exact(f, f, n)
        vg = radial_cov_exact(g, g, n)
        assert cov * cov <= vf * vg + 1e-9 * (1.0 + vf * vg)

    def test_variance_converges_to_gradient_limit(self):
        # Var_N(poly) -> (1/2) int_0^1 f' g' r dr, gap shrinking monotonically
        # f = g = r^2: limit 1/2; f = r^2, g = r^4: limit 2/3
        for f, g, limit in ((R2, R2, 0.5), (R2, R4, 2.0 / 3.0)):
            gaps = [
                abs(radial_cov_exact(f, g, n) - limit) for n in (100, 1000, 10000)
            ]
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] < 1e-3


class TestCountStatistics:
    def test_full_window_has_no_fluctuation(self):
        assert radial_count_var(100, 0.0, math.inf) == 0.0

    def test_degenerate_window(self):
        assert radial_count_var(50, 0.7, 0.7) == 0.0

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            radial_count_var(10, 0.8, 0.4)
        with pytest.raises(ValueError):
            count_probabilities(10, math.nan, 0.4)

    def test_probabilities_match_direct_incomplete_gamma(self):
        # one ladder call over all factors against one scalar call per shape
        for n, (a, b) in ((60, (0.9, 1.1)), (200, (0.0, 0.5)), (35, (0.3, math.inf))):
            p = count_probabilities(n, a, b)
            s_hi = n * b * b if math.isfinite(b) else math.inf
            direct = [
                gamma_interval_prob(k, n * a * a, s_hi) for k in range(1, n + 1)
            ]
            np.testing.assert_allclose(p, direct, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("n", [10_000, 100_000])
    @pytest.mark.parametrize("ens", list(Ensemble))
    def test_edges_against_extended_precision(self, n, ens):
        # the shapes nearest both window edges carry all of the variance
        a, b = 0.4, 0.8
        scale = ens.scale(n)
        s_lo, s_hi = scale * a * a, scale * b * b
        p = count_probabilities(n, a, b, ens)
        with mpmath.workdps(40):
            for edge in (s_lo, s_hi):
                for z in (-6.0, -2.0, -0.5, 0.0, 0.5, 2.0, 6.0):
                    l = round((edge + z * math.sqrt(edge)) / ens.shape(1))
                    ref = mpmath.gammainc(ens.shape(l), s_lo, s_hi, regularized=True)
                    assert abs(p[l - 1] - float(ref)) <= 1e-13, (edge, z, l)

    def test_quaternion_probabilities_use_doubled_shapes(self):
        n, a, b = 25, 0.5, 0.9
        p = count_probabilities(n, a, b, Ensemble.QUATERNION)
        direct = [
            gamma_interval_prob(2 * k, 2 * n * a * a, 2 * n * b * b)
            for k in range(1, n + 1)
        ]
        np.testing.assert_allclose(p, direct, rtol=0.0, atol=1e-13)

    @given(
        st.integers(min_value=1, max_value=80),
        st.floats(min_value=0.0, max_value=1.5),
        st.floats(min_value=0.0, max_value=1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_variance_bounds(self, n, a, b):
        a, b = min(a, b), max(a, b)
        v = radial_count_var(n, a, b)
        assert 0.0 <= v <= n / 4.0 + 1e-12

    def test_mesoscopic_window_example(self):
        # N = 10^4, [0.4, 0.8]: exact sum lands within an O(1) band of
        # sqrt(N) (a+b)/sqrt(pi) = 67.70
        exact = radial_count_var(10_000, 0.4, 0.8)
        assert abs(exact - 67.70) < 2.0

    def test_small_n_window_against_monte_carlo(self):
        # brute force over the 4 gamma sums, 10^7 replicas
        n, s = 4, 10_000_000
        rng = np.random.default_rng(77)
        draws = rng.standard_gamma(np.arange(1, n + 1), size=(s, n)) / n
        counts = np.sum((draws >= 0.25) & (draws <= 0.81), axis=1)
        est = counts.var(ddof=1)
        # SE of a sample variance ~ sqrt((m4 - var^2)/s)
        centered = counts - counts.mean()
        se = math.sqrt((np.mean(centered**4) - est**2) / s)
        exact = radial_count_var(n, 0.5, 0.9)
        assert abs(exact - est) <= 4.0 * se

    def test_cov_equals_var_on_identical_windows(self):
        for n in (3, 64, 1000):
            assert radial_count_cov(n, (0.4, 0.8), (0.4, 0.8)) == radial_count_var(
                n, 0.4, 0.8
            )

    def test_distant_windows_decorrelate_exponentially(self):
        # doubling N squares the (negative) covariance: e^{-cN} with c ~ 0.087
        v200 = radial_count_cov(200, (0.2, 0.4), (0.6, 0.8))
        v400 = radial_count_cov(400, (0.2, 0.4), (0.6, 0.8))
        v800 = radial_count_cov(800, (0.2, 0.4), (0.6, 0.8))
        assert v200 < 0.0 and abs(v200) < 1e-4
        assert abs(v400) <= 1e-6
        for big, small in ((v200, v400), (v400, v800)):
            assert math.log(abs(small)) / math.log(abs(big)) == pytest.approx(
                2.0, rel=0.1, abs=0.0
            )

    def test_abutting_windows_anticorrelate_at_sqrt_n(self):
        n = 4096
        got = radial_count_cov(n, (0.3, 0.6), (0.6, 0.9))
        assert got < 0.0
        assert 0.1 <= abs(got) / math.sqrt(n) <= 1.0

    def test_nested_window_cov_positive(self):
        # a window and a superset share all of the smaller window's mass
        got = radial_count_cov(500, (0.4, 0.6), (0.2, 0.9))
        assert got > 0.0

    def test_edge_window_allowed(self):
        v = radial_count_var(256, 1.0, math.inf)
        assert v > 0.0  # the edge really fluctuates


class TestLogMgf:
    def test_zero_tilt(self):
        assert radial_log_mgf(R2, 0.0, 5) == 0.0

    def test_r_squared_closed_form(self):
        # E exp(lam s_k/N) = (1 - lam/N)^{-k}; N=2, lam=1 -> 3 ln 2
        got = radial_log_mgf(R2, 1.0, 2)
        assert got == pytest.approx(3.0 * math.log(2.0), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("lam", [-0.7, 0.3])
    def test_r_squared_closed_form_general(self, lam):
        n = 4
        target = -sum(k * math.log(1.0 - lam / n) for k in range(1, n + 1))
        assert radial_log_mgf(R2, lam, n) == pytest.approx(target, rel=1e-10, abs=0.0)

    def test_indicator_closed_form(self):
        # E exp(lam 1_A) = 1 + (e^lam - 1) p_k
        n, lam = 6, 0.8
        f = RadialTestFunction.indicator(0.4, 1.0)
        p = count_probabilities(n, 0.4, 1.0)
        target = math.fsum(math.log1p(math.expm1(lam) * pk) for pk in p)
        assert radial_log_mgf(f, lam, n) == pytest.approx(target, rel=1e-12, abs=0.0)

    def test_second_derivative_is_variance(self):
        # central difference at 0 with step 1e-4, consistency <= 1e-5 relative
        h = 1e-4
        for f, n in ((R2, 3), (RadialTestFunction.indicator(0.3, 0.9), 5)):
            num = (
                radial_log_mgf(f, h, n)
                - 2.0 * radial_log_mgf(f, 0.0, n)
                + radial_log_mgf(f, -h, n)
            ) / (h * h)
            assert num == pytest.approx(radial_cov_exact(f, f, n), rel=1e-5, abs=0.0)

    def test_first_derivative_is_mean(self):
        # step large enough that quadrature noise (~1e-12 per factor) does
        # not dominate the difference quotient
        h = 1e-3
        f = RadialTestFunction.poly([0.0, 1.0])
        n = 4
        num = (radial_log_mgf(f, h, n) - radial_log_mgf(f, -h, n)) / (2.0 * h)
        assert num == pytest.approx(radial_mean_exact(f, n), rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("window", [(0.4, 0.8), (0.0, 0.63), (0.55, 1.3)])
    @pytest.mark.parametrize("lam", [0.3, -0.7, 2.5])
    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_windowed_r_squared_closed_form(self, n, lam, window):
        # E exp(lam r^2 1{a <= r <= b}) - 1 under Gamma(k)/N is
        # (1 - lam/N)^-k P_k((N - lam) a^2, (N - lam) b^2) - P_k(N a^2, N b^2);
        # the tilt jumps at both edges, so the quadrature must split there
        a, b = window
        f = RadialTestFunction(coeffs=(0, 0, 1), window=window)
        with mpmath.workdps(40):
            lam_mp, a2, b2 = mpmath.mpf(lam), mpmath.mpf(a) ** 2, mpmath.mpf(b) ** 2
            t = n - lam_mp
            ref = mpmath.fsum(
                mpmath.log1p((1 - lam_mp / n) ** -k * mpmath.gammainc(k, t * a2, t * b2,
                                                                      regularized=True)
                             - mpmath.gammainc(k, n * a2, n * b2, regularized=True))
                for k in range(1, n + 1))
        assert radial_log_mgf(f, lam, n) == pytest.approx(float(ref), rel=1e-12, abs=0.0)

    def test_divergent_tilt_names_offending_factor(self):
        with pytest.raises(ValueError, match="k=1"):
            radial_log_mgf(R4, 1.0, 3)  # exp(r^4) outruns the weight

    def test_supercritical_quadratic_tilt_rejected(self):
        # lam r^2 with lam >= N tips the integrand over
        with pytest.raises(ValueError, match="k=1"):
            radial_log_mgf(R2, 2.0, 2)


class TestCallableRoutes:
    """The quadrature route for callables against the exact routes, at the
    benchmark's 1e-10 relative gap (r_max covers the N=1 window, r ~ 7.3)."""

    R2_FN = RadialTestFunction.from_callable(lambda r: r * r, r_max=8.0)

    @pytest.mark.parametrize("ens", list(Ensemble))
    @pytest.mark.parametrize("n", [1, 8, 24])
    def test_callable_pair_against_polynomial(self, n, ens):
        got = radial_cov_exact(self.R2_FN, self.R2_FN, n, ens)
        assert got == pytest.approx(radial_cov_exact(R2, R2, n, ens), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("b", [0.8, math.inf])
    @pytest.mark.parametrize("ens", list(Ensemble))
    @pytest.mark.parametrize("n", [1, 8, 24])
    def test_callable_indicator_against_polynomial_indicator(self, n, ens, b):
        ind = RadialTestFunction.indicator(0.4, b)
        got = radial_cov_exact(self.R2_FN, ind, n, ens)
        assert got == pytest.approx(radial_cov_exact(R2, ind, n, ens), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("n", [1, 8, 24])
    def test_callable_log_mgf_closed_form(self, n):
        lam = 0.3
        target = -0.5 * n * (n + 1) * math.log1p(-lam / n)
        assert radial_log_mgf(self.R2_FN, lam, n) == pytest.approx(target, rel=1e-10, abs=0.0)

    def test_odd_powers_against_extended_precision(self):
        # odd powers of r are smooth in r but not in s = N r^2
        import mpmath

        cubic = (0.3, -1.2, 0.7, 0.25)
        f = RadialTestFunction.from_callable(lambda r: np.cos(3.0 * r))
        n = 16
        ref = radial_cov_quad_mp(lambda r: mpmath.cos(3 * r),
                                 lambda r: sum(c * r ** j for j, c in enumerate(cubic)),
                                 range(1, n + 1), n)
        got = radial_cov_exact(f, RadialTestFunction.poly(cubic), n)
        assert got == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_odd_power_mean_against_extended_precision(self):
        import mpmath

        h = RadialTestFunction.from_callable(lambda r: np.exp(-r) * r**3, r_max=8.0)
        with mpmath.workdps(30):
            ref = float(mpmath.quad(lambda r: mpmath.exp(-r) * r**3 * 2 * r * mpmath.exp(-r * r),
                                    [0, 1, mpmath.inf]))
        assert radial_mean_exact(h, 1) == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_log_mgf_tilt_stays_inside_r_max(self):
        seen = []

        def square(r):
            seen.append(float(np.max(r)))
            return r * r

        n, lam = 8, 0.3
        got = radial_log_mgf(RadialTestFunction.from_callable(square, r_max=4.0), lam, n)
        assert max(seen) <= 4.0
        assert got == pytest.approx(-0.5 * n * (n + 1) * math.log1p(-lam / n), rel=1e-10, abs=0.0)
