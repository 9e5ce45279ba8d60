"""Tests for the asymptotic predictors, the crossover scaling functions and
the large-N limits of exact count variances and covariances.  Each limit is
asserted with a bound on its gap that shrinks at a stated rate in N; the
scaling functions are regressed against independent oracles (closed
antiderivatives, scipy and mpmath quadrature, Monte Carlo integration)."""

import math

import numpy as np
import pytest

from ginfluct.angular import (
    ArcWindow,
    FourierStatistic,
    angular_count_cov,
    angular_count_var,
    angular_cov_exact,
)
from ginfluct.asymptotics import (
    RegimeReport,
    _g_arg,
    angular_smooth_coeff,
    count_var_prediction,
    edgeworth_density,
    i_arg,
    i_mod,
    radial_smooth_limit,
)
from ginfluct.radial import (
    Ensemble,
    RadialTestFunction,
    radial_count_cov,
    radial_count_var,
    radial_cov_exact,
)

from oracles import gamma_std_density, i_arg_closed

R2 = RadialTestFunction.poly([0.0, 0.0, 1.0])
R4 = RadialTestFunction.poly([0.0, 0.0, 0.0, 0.0, 1.0])
TWO_COS = FourierStatistic.cosine(1, amplitude=2.0)


class TestRadialSmoothLimit:
    def test_r_squared(self):
        assert radial_smooth_limit(R2, R2) == pytest.approx(0.5, rel=1e-12, abs=0.0)

    def test_constant_vanishes(self):
        c = RadialTestFunction.poly([4.0])
        assert radial_smooth_limit(c, R2) == pytest.approx(0.0, abs=1e-14)

    def test_mixed_pair(self):
        assert radial_smooth_limit(R2, R4) == pytest.approx(2.0 / 3.0, rel=1e-12, abs=0.0)

    def test_exact_module_converges_to_this_limit(self):
        target = radial_smooth_limit(R2, R4)
        gaps = [abs(radial_cov_exact(R2, R4, n) - target) for n in (100, 1000, 10000)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-3

    def test_callable_needs_supplied_derivative(self):
        f = RadialTestFunction.from_callable(lambda r: r**3, r_max=8.0)
        with pytest.raises(ValueError, match="derivative"):
            radial_smooth_limit(f, R2)
        got = radial_smooth_limit(f, R2, f_prime=lambda r: 3.0 * r**2)
        # (1/2) int 3r^2 * 2r * r dr = 3/5
        assert got == pytest.approx(0.6, rel=1e-12, abs=0.0)

    def test_indicator_rejected(self):
        ind = RadialTestFunction.indicator(0.2, 0.6)
        with pytest.raises(ValueError):
            radial_smooth_limit(ind, R2)


class TestAngularSmoothCoeff:
    def test_two_cos(self):
        assert angular_smooth_coeff(TWO_COS, TWO_COS) == pytest.approx(2.0, rel=1e-13, abs=0.0)

    def test_constant_vanishes(self):
        c = FourierStatistic.constant(5.0)
        assert angular_smooth_coeff(c, c) == 0.0

    def test_mixed_wave_orthogonality(self):
        # different frequencies never meet in sum_k k^2 fhat(k) ghat(-k)
        f = FourierStatistic.cosine(1)
        g = FourierStatistic.cosine(2)
        assert angular_smooth_coeff(f, g) == 0.0

    def test_against_scalar_loop(self):
        rng = np.random.default_rng(11)
        c = rng.normal(size=26) + 1j * rng.normal(size=26)
        c[0] = c[0].real
        f = FourierStatistic(coeffs=np.concatenate([np.conj(c[:0:-1]), c]))
        loop = sum(k * k * f.get(k) * TWO_COS.get(-k) for k in range(-25, 26))
        assert angular_smooth_coeff(f, TWO_COS) == pytest.approx(loop.real, rel=1e-14, abs=0.0)
        assert angular_smooth_coeff(f, f) == pytest.approx(
            sum(k * k * abs(f.get(k)) ** 2 for k in range(-25, 26)), rel=1e-13, abs=0.0)

    def test_log_law_ratio_shrinks_like_inverse_log(self):
        # exact = (log N)/2 + const for 2cos: (ratio-1)*log N is flat ~4.35
        devs = []
        for n in (100, 1000, 10000):
            exact = angular_cov_exact(TWO_COS, TWO_COS, n)
            pred = math.log(n) / 4.0 * angular_smooth_coeff(TWO_COS, TWO_COS)
            devs.append((exact / pred - 1.0) * math.log(n))
        assert all(4.2 <= d <= 4.5 for d in devs)
        assert max(devs) - min(devs) <= 0.02


class TestIArg:
    def test_domain(self):
        with pytest.raises(ValueError):
            i_arg(0.0)
        with pytest.raises(ValueError):
            i_arg(-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                i_arg(bad)

    def test_vanishes_at_zero(self):
        assert i_arg(1e-6) <= 1e-3

    def test_plateau_at_infinity(self):
        assert 0.999 <= i_arg(1e12) <= 1.0

    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1e4])
    def test_against_closed_antiderivative(self, beta):
        assert i_arg(beta) == pytest.approx(i_arg_closed(beta), abs=1e-9)

    @pytest.mark.parametrize("beta", [1e-3, 0.1, 1.0, 2.0, 10.0, 1e4])
    def test_against_scipy_quadrature(self, beta):
        # the defining display itself, not the closed form the library uses
        from scipy import integrate
        from scipy.special import erfc

        edge = min(1.0, (8.0 / beta) ** 2)  # erfc(beta sqrt x) < 1e-28 beyond
        opts = dict(epsabs=1e-14, epsrel=1e-12, limit=200)
        piece1 = sum(integrate.quad(
            lambda x: -math.expm1(-beta * x * x) / (2.0 * math.sqrt(x)), lo, hi, **opts)[0]
            for lo, hi in ((0.0, edge), (edge, 1.0)) if hi > lo)
        piece2 = integrate.quad(
            lambda x: 0.5 * math.sqrt(math.pi) * beta * erfc(beta * math.sqrt(x)),
            0.0, edge, **opts)[0]
        assert i_arg(beta) == pytest.approx(piece1 + piece2, abs=1e-12)

    @pytest.mark.parametrize("beta", [1e-200, 1e-30, 1e-12])
    def test_small_beta_keeps_relative_accuracy(self, beta):
        # I(beta) = (1/5 + sqrt(pi)/2) beta + O(beta^2): no term cancels to
        # an O(beta) remainder of O(1) pieces
        slope = 0.2 + 0.5 * math.sqrt(math.pi)
        assert i_arg(beta) == pytest.approx(slope * beta, rel=1e-12, abs=0.0)

    def test_positive_down_to_the_smallest_subnormal(self):
        # P(5/4, beta) is subnormal below beta ~ 1e-245, where the closed
        # form's terms no longer cancel to a positive value
        for beta in np.geomspace(5e-324, 1e-150, 4000):
            assert i_arg(float(beta)) > 0.0, beta

    def test_slope_for_every_normal_tiny_beta(self):
        slope = 0.2 + 0.5 * math.sqrt(math.pi)
        for beta in np.geomspace(2.3e-308, 1e-200, 400):
            assert i_arg(float(beta)) == pytest.approx(slope * beta, rel=1e-13, abs=0.0)

    def test_huge_beta(self):
        # the incomplete gamma terms sit where Q underflows; the plateau is
        # approached like 1 - Gamma(5/4) beta^{-1/4}
        for beta in (1e21, 1e200, 1e308):
            assert i_arg(beta) == pytest.approx(1.0 - math.gamma(1.25) * beta ** -0.25,
                                                abs=1e-15)

    def test_against_monte_carlo_integration(self):
        # 10^7 uniform points on each piece of the defining display
        from scipy.special import erfc

        beta = 1.0
        rng = np.random.default_rng(424242)
        x = rng.random(10_000_000)
        piece1 = (1.0 - np.exp(-beta * x**2)) / (2.0 * np.sqrt(x))
        piece2 = beta * 0.5 * math.sqrt(math.pi) * erfc(beta * np.sqrt(x))
        est = float(np.mean(piece1 + piece2))
        se = float(np.std(piece1 + piece2)) / math.sqrt(len(x))
        assert abs(i_arg(beta) - est) <= 3.0 * se

    def test_bounded_and_continuous(self):
        grid = np.arange(0.01, 3.0, 0.01)
        vals = [i_arg(float(b)) for b in grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
        diffs = np.abs(np.diff(vals))
        assert diffs.max() <= 0.02

    def test_monotone_outside_the_dip(self):
        # the defining display rises on (0, 1], dips on [1, ~2.2], then
        # climbs back to the plateau; monotonicity is only asserted where
        # the formula actually has it.  The exact variance's limit G rises
        # monotonically: the dip belongs to the display
        rising = [i_arg(b) for b in np.arange(0.05, 1.01, 0.05)]
        assert all(a < b for a, b in zip(rising, rising[1:]))
        recovering = [i_arg(b) for b in (2.5, 4.0, 8.0, 30.0, 1e3, 1e6)]
        assert all(a < b for a, b in zip(recovering, recovering[1:]))

    def test_dip_is_real(self):
        # regression pin on the non-monotone stretch
        assert i_arg(2.0) < i_arg(1.0)


class TestIMod:
    def test_domain(self):
        with pytest.raises(ValueError):
            i_mod(0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                i_mod(bad)

    def test_small_c_linear_law(self):
        c = 0.01
        assert i_mod(c) / (2.0 * math.sqrt(math.pi) * c) == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("c", [0.01, 0.5, 2.0, 10.0])
    def test_against_scipy_quadrature(self, c):
        from scipy import integrate
        from scipy.stats import norm

        def integrand(x):
            g = norm.cdf(x + 2.0 * c) - norm.cdf(x)
            return g - g * g

        ref, _ = integrate.quad(integrand, -2.0 * c - 14.0, 14.0, limit=200)
        assert i_mod(c) == pytest.approx(math.sqrt(math.pi) * ref, abs=1e-10)

    def test_monotone_on_grid(self):
        grid = [0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 10.0]
        vals = [i_mod(c) for c in grid]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 2.0 + 1e-9 for v in vals)

    def test_continuity(self):
        grid = np.arange(0.01, 3.0, 0.01)
        vals = [i_mod(float(c)) for c in grid]
        assert np.abs(np.diff(vals)).max() <= 0.05

    def test_reported_plateau(self):
        # the plateau is the analytic limit 2 of 2 sqrt(pi) c erfc(c) -
        # 2 expm1(-c^2), matching the fixed-window law
        assert i_mod(1e4) == pytest.approx(2.0, abs=1e-8)
        assert i_mod(50.0) == pytest.approx(i_mod(1e4), abs=1e-8)


class TestRegimeDispatch:
    def test_tags_are_a_function_of_width(self):
        rep = count_var_prediction(10_000, (0.4, 0.8), "radial")
        assert rep.regime == "fixed"
        rep = count_var_prediction(10_000, (0.4, 0.4 + 0.02), "radial")
        assert rep.regime == "critical"
        rep = count_var_prediction(10_000, (0.4, 0.4 + 5e-4), "radial")
        assert rep.regime == "subcritical"
        rep = count_var_prediction(1 << 20, (0.4, 0.4 + 0.05), "radial")
        assert rep.regime == "mesoscopic-supercritical"

    def test_report_fields(self):
        rep = count_var_prediction(4096, math.pi / 2.0, "angular")
        assert isinstance(rep, RegimeReport)
        assert rep.n == 4096 and rep.kind == "angular"
        assert math.isfinite(rep.ratio)
        assert rep.x == pytest.approx(64.0 * math.pi / 2.0)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            count_var_prediction(100, (0.1, 0.2), "spectral")
        with pytest.raises(ValueError):
            count_var_prediction(0, (0.1, 0.2), "radial")

    def test_angular_fixed_prediction(self):
        rep = count_var_prediction(4096, math.pi / 2.0, "angular")
        assert rep.predicted == pytest.approx(64.0 / math.pi**1.5, rel=1e-12, abs=0.0)
        assert abs(rep.ratio - 1.0) <= 0.05

    def test_angular_fixed_log_band_regression(self):
        for p in range(10, 15):
            n = 1 << p
            rep = count_var_prediction(n, math.pi / 2.0, "angular")
            assert abs(rep.ratio - 1.0) <= 0.25 * math.log(n) / math.sqrt(n)

    def test_radial_fixed_prediction(self):
        rep = count_var_prediction(10_000, (0.4, 0.8), "radial")
        assert rep.predicted == pytest.approx(100.0 * 1.2 / math.sqrt(math.pi), rel=1e-12, abs=0.0)
        assert abs(rep.ratio - 1.0) <= 1e-3

    def test_radial_fixed_law_sqrt_residual(self):
        for n in (100, 1000, 10_000):
            ratio = radial_count_var(n, 0.4, 0.8) / (
                math.sqrt(n) * 1.2 / math.sqrt(math.pi))
            assert abs(ratio - 1.0) <= 0.05 / math.sqrt(n)

    def test_radial_critical_prediction(self):
        n, a, c = 10_000, 0.4, 2.0
        b = a + c / math.sqrt(n)
        rep = count_var_prediction(n, (a, b), "radial")
        assert rep.regime == "critical"
        assert rep.predicted == pytest.approx(
            math.sqrt(n) * (a + b) / (2.0 * math.sqrt(math.pi)) * i_mod(c), rel=1e-10, abs=0.0)
        assert abs(rep.ratio - 1.0) <= 1e-4

    def test_radial_critical_window_at_the_origin(self):
        # the left edge a = 0 once gave a zero prediction and a ZeroDivisionError
        rep = count_var_prediction(16384, (0.0, 0.02), "radial")
        assert rep.regime == "critical" and rep.predicted > 0.0
        assert math.isfinite(rep.ratio)

    def test_angular_critical_prediction(self):
        n, x = 10_000, 2.0
        rep = count_var_prediction(n, x / math.sqrt(n), "angular")
        assert rep.regime == "critical"
        assert rep.predicted == pytest.approx(
            math.sqrt(n) / math.pi**1.5 * _g_arg(x), rel=1e-12, abs=0.0)
        assert abs(rep.ratio - 1.0) <= 0.01

    def test_subcritical_windows_are_poisson_like(self):
        rep = count_var_prediction(10_000, (0.4, 0.4 + 5e-4), "radial")
        assert 0.95 <= rep.ratio <= 1.0
        rep = count_var_prediction(10_000, 5e-4, "angular")
        assert 0.95 <= rep.ratio <= 1.0

    def test_subcritical_ratio_improves_as_x_shrinks(self):
        n = 1 << 16
        ratios = []
        for x in (0.08, 0.04, 0.02):
            w = x / math.sqrt(n)
            ratios.append(count_var_prediction(n, (0.4, 0.4 + w), "radial").ratio)
        assert ratios[0] < ratios[1] < ratios[2] <= 1.0

    def test_angular_window_accepts_arc_object(self):
        arc = ArcWindow(-0.3, 0.7)
        rep = count_var_prediction(256, arc, "angular")
        assert rep.window == (arc.alpha, arc.beta)


def _g_arg_quadrature(x: float) -> float:
    """int_0^1 (1 - e^{-x^2 u})/(2 sqrt u) du + (sqrt(pi)/2) x int_0^1 erfc(x sqrt u) du,
    in 40-digit mpmath."""
    import mpmath

    with mpmath.workdps(40):
        xm = mpmath.mpf(x)
        return float(mpmath.quad(
            lambda u: -mpmath.expm1(-xm * xm * u) / (2 * mpmath.sqrt(u))
            + mpmath.sqrt(mpmath.pi) / 2 * xm * mpmath.erfc(xm * mpmath.sqrt(u)),
            [0, min(1, 1 / xm**2), 1]))


class TestArcCriticalLimit:
    """Var(arc count) = sqrt(N)/pi^{3/2} * G(x) * (1 + c(x)/sqrt(N) + ...) at
    x = sqrt(N) * length.  The row formula Var = sum_d (N - C_d) |w(d)|^2 has
    C_d/N -> int_0^1 e^{-s^2/(4u)} du at d = s sqrt(N); integrating in s and
    then in u gives G."""

    @pytest.mark.parametrize("x", [0.1, 0.2, 0.5, 1.0, 2.0, 3.2, 5.0, 7.5, 10.0])
    def test_closed_form_against_extended_precision(self, x):
        assert _g_arg(x) == pytest.approx(_g_arg_quadrature(x), abs=1e-15)

    def test_differs_from_the_display(self):
        assert _g_arg(5.0) / i_arg(5.0) == pytest.approx(1.89, abs=5e-3)
        grid = np.geomspace(0.1, 10.0, 41)
        vals = [_g_arg(float(x)) for x in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("x", [0.1, 0.3, 1.0, 2.0, 5.0, 10.0])
    def test_exact_variance_tends_to_g_at_rate_inverse_sqrt_n(self, x):
        # c_N(x) = sqrt(N) (Var / (sqrt(N)/pi^{3/2} G(x)) - 1) stays in
        # (0, 1.05] and settles: each quadrupling of N moves it by at most
        # 2/sqrt(N), so the ratio is 1 + c(x)/sqrt(N) + O(1/N)
        cs = []
        for n in (4**5, 4**6, 4**7, 4**8):
            var = angular_count_var(n, ArcWindow.symmetric(x / math.sqrt(n)))
            cs.append(math.sqrt(n) * (var * math.pi**1.5 / (math.sqrt(n) * _g_arg(x)) - 1.0))
        assert all(0.0 < c <= 1.05 for c in cs), cs
        for n, prev, cur in zip((4**6, 4**7, 4**8), cs, cs[1:]):
            assert math.sqrt(n) * abs(cur - prev) <= 2.0, cs


class TestAnnulusCriticalLimit:
    def test_midpoint_scaling_at_rate_inverse_n(self):
        # Var(annulus count) = sqrt(N) (a+b)/2 / sqrt(pi) * i_mod(x) * (1 + O(1/N))
        # at x = sqrt(N) (b - a); scaling by the left edge a instead is off by
        # the factor (a + b)/(2a), which is 1 + O(1/sqrt(N))
        a = 0.4
        for n in (1024, 16384, 262144):
            for x in (0.1, 0.3, 1.0, 2.0, 5.0, 10.0):
                b = a + x / math.sqrt(n)
                pred = math.sqrt(n) * 0.5 * (a + b) / math.sqrt(math.pi) * i_mod(x)
                assert n * abs(radial_count_var(n, a, b) / pred - 1.0) <= 0.5, (n, x)


class TestQuaternionComplexRatio:
    """The quaternion moduli are those of a complex ensemble of size 2N that
    keeps every other shape, so Var_Q(N) ~ Var_C(2N)/2 on the same window."""

    NS = (256, 1024, 4096, 16384, 65536)
    CRITICAL = i_mod(2.0 * math.sqrt(2.0)) / (math.sqrt(2.0) * i_mod(2.0))

    @staticmethod
    def _ratio(n, a, b):
        return radial_count_var(n, a, b, Ensemble.QUATERNION) / radial_count_var(n, a, b)

    def test_fixed_window_tends_to_inverse_sqrt2_at_rate_inverse_n(self):
        for n in self.NS:
            r = self._ratio(n, 0.4, 0.8)
            assert n * abs(r - 1.0 / math.sqrt(2.0)) <= 0.07, n
            assert abs(r - 1.0 / math.sqrt(2.0)) < abs(r - self.CRITICAL)

    def test_critical_window_has_its_own_limit(self):
        # [a, a + 2/sqrt(N)] is x = 2 for the complex ensemble and x = 2 sqrt(2)
        # for its size-2N twin: i_mod(2 sqrt 2)/(sqrt 2 i_mod(2)), not 1/sqrt(2).
        # The two limits differ by 1.2e-3; both bounds are under half of it
        assert self.CRITICAL == pytest.approx(0.7083220, abs=5e-8)
        for n in self.NS:
            r = self._ratio(n, 0.4, 0.4 + 2.0 / math.sqrt(n))
            assert n * abs(r - self.CRITICAL) <= 0.14, n
            assert abs(r - self.CRITICAL) < abs(r - 1.0 / math.sqrt(2.0))


class TestEndpointCovariances:
    # one ray's share of an arc's variance sqrt(N)/pi^{3/2}
    RAY = 1.0 / (2.0 * math.pi**1.5)

    def test_shared_endpoint_tends_to_one_ray_at_rate_log_n_over_sqrt_n(self):
        gaps = []
        for p in range(6, 15):
            n = 2**p
            cov = angular_count_cov(n, ArcWindow(0.0, 0.8), ArcWindow(0.0, 1.6))
            gap = cov / (math.sqrt(n) * self.RAY) - 1.0
            assert 0.0 < gap <= 0.25 * math.log(n) / math.sqrt(n), (n, gap)
            gaps.append(gap)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_abutting_arcs_give_minus_one_ray(self):
        for p in range(6, 15):
            n = 2**p
            cov = angular_count_cov(n, ArcWindow(-0.8, 0.0), ArcWindow(0.0, 0.8))
            assert abs(cov / (math.sqrt(n) * self.RAY) + 1.0) <= 0.25 * math.log(n) / math.sqrt(n)

    def test_separated_annuli_decay_at_the_cramer_rate(self):
        # cov = -sum_k P_k(w1) P_k(w2).  The Cramer rates of Gamma(kappa N)/N
        # at b1^2 and a2^2 add to (a2 - b1)^2 at kappa = a2 b1; each tail is
        # ~ N^{-1/2} e^{-N I} and Laplace's method over the shapes near
        # kappa N gives sqrt(N), so |cov| ~ C N^{-1/2} e^{-(a2 - b1)^2 N} and
        # the slope (ln|cov(N)| - ln|cov(2N)|)/N is
        # (a2 - b1)^2 + ln(2)/(2N) + O(1/N^2)
        rate = (0.6 - 0.4) ** 2
        ns = (100, 200, 400, 800, 1600)
        covs = [radial_count_cov(n, (0.2, 0.4), (0.6, 0.8)) for n in ns]
        assert all(c < 0.0 for c in covs)
        gaps = []
        for n, c, c2 in zip(ns, covs, covs[1:]):
            gap = (math.log(-c) - math.log(-c2)) / n - rate
            assert 0.0 < math.log(2.0) / 2.0 - n * gap <= 20.0 / n, (n, gap)
            gaps.append(gap)
        assert all(a > b > 0.0 for a, b in zip(gaps, gaps[1:]))


class TestEdgeworth:
    def test_center_value(self):
        for m in (2, 25, 10_000):
            assert edgeworth_density(0.0, m) == pytest.approx(
                1.0 / math.sqrt(2.0 * math.pi), rel=1e-12, abs=0.0)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            edgeworth_density(0.0, 1)

    def test_reduces_to_gaussian(self):
        for a in (-2.0, -0.5, 1.0, 3.0):
            phi = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
            assert edgeworth_density(a, 10**12) == pytest.approx(phi, rel=1e-5, abs=0.0)

    def test_sup_error_bound_and_slope(self):
        grid = np.linspace(-4.0, 4.0, 801)
        sups = []
        for m in (25, 100, 400):
            sup = max(
                abs(edgeworth_density(float(a), m) - gamma_std_density(float(a), m))
                for a in grid
            )
            sups.append(sup)
            assert sup <= 0.15 / m
        slope1 = math.log(sups[1] / sups[0]) / math.log(4.0)
        slope2 = math.log(sups[2] / sups[1]) / math.log(4.0)
        for s in (slope1, slope2):
            assert -1.15 <= s <= -0.85

    def test_correction_beats_plain_gaussian(self):
        m = 100
        grid = np.linspace(-3.0, 3.0, 601)

        def sup_err(density):
            return max(abs(density(float(a)) - gamma_std_density(float(a), m)) for a in grid)

        plain = sup_err(lambda a: math.exp(-0.5 * a * a) / math.sqrt(2 * math.pi))
        corrected = sup_err(lambda a: edgeworth_density(a, m))
        assert corrected < 0.25 * plain
