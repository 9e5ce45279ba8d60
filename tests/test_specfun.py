import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sps

from ginfluct import specfun
from ginfluct.radial import RadialTestFunction, radial_cov_exact, radial_log_mgf
from ginfluct.specfun import (gamma_interval_prob, legendre_rule, log_gamma,
                              panel_integrate,
                              regularized_gamma_lower,
                              regularized_gamma_upper, std_normal_cdf)


class TestLogGamma:
    def test_gamma_one_is_zero(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14, abs=0.0)

    def test_log_domain_survives_gamma_overflow(self):
        # extended-precision sum of ln k
        target = float(mpmath.fsum(mpmath.log(k) for k in range(1, 171)))
        val = log_gamma(171.0)
        assert math.isfinite(val)
        assert val == pytest.approx(target, rel=1e-14, abs=0.0)
        # Gamma(171) = 170! ~ 7.3e306 still fits in a double; 171! does not.
        assert math.isfinite(math.exp(val))
        assert math.isfinite(log_gamma(172.0))
        with pytest.raises(OverflowError):
            math.exp(log_gamma(172.0))  # the un-logged value is out of range
        with pytest.raises(OverflowError):
            math.gamma(172.0)

    @pytest.mark.parametrize("x", np.geomspace(0.5, 1e6, 40).tolist())
    def test_relative_error_against_mpmath(self, x):
        target = float(mpmath.loggamma(x))
        if target == 0.0:
            assert abs(log_gamma(x)) < 1e-13
        else:
            assert abs(log_gamma(x) - target) <= 1e-13 * abs(target) + 1e-14

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, -0.5):
            with pytest.raises(ValueError):
                log_gamma(bad)

    @given(st.floats(min_value=0.5, max_value=1e5))
    def test_recurrence(self, x):
        lhs = log_gamma(x + 1.0)
        rhs = log_gamma(x) + math.log(x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_array_matches_scalar(self):
        # same Lanczos/Stirling split; np.log may differ from math.log in the last bit
        x = np.concatenate([np.geomspace(0.5, 1e6, 2000), 0.5 * np.arange(1, 400), [19.999, 20.0]])
        got = log_gamma(x)
        assert got.shape == x.shape
        np.testing.assert_allclose(got, [log_gamma(float(v)) for v in x], rtol=2e-15, atol=1e-15)

    def test_scalar_stays_a_float_and_arrays_are_checked(self):
        assert type(log_gamma(3.5)) is float
        with pytest.raises(ValueError):
            log_gamma(np.array([1.0, 0.0, 2.0]))

    def test_factorials_to_20(self):
        # Exponentiating a rounded log cannot hit every factorial to the last
        # ulp (even exp(log(float(n!))) misses for most n), so the honest
        # invariant is full relative precision, plus integer round-trip where
        # the spacing of doubles leaves room.
        for n in range(0, 21):
            via = math.exp(log_gamma(n + 1.0))
            assert via == pytest.approx(float(math.factorial(n)), rel=1e-13, abs=0.0)
        for n in range(0, 13):
            assert round(math.exp(log_gamma(n + 1.0))) == math.factorial(n)


class TestHalfStepLogRatio:
    @staticmethod
    def where_form(k):
        # both forms over every k, kept by np.where: the definition that the
        # library restricts to the k < 30 entries
        collapsed = (0.5 * np.log(k) + (k * np.log1p(0.5 / k) - 0.5)
                     + specfun._stirling_tail(k + 0.5) - specfun._stirling_tail(k))
        return np.where(k < 30.0, log_gamma(k + 0.5) - log_gamma(k), collapsed)

    def test_bit_identical_to_the_where_form(self):
        k = np.concatenate([0.5 * np.arange(1, 200), [29.5, 30.0, 30.5],
                            np.geomspace(0.5, 1e6, 3001)])
        assert np.array_equal(specfun._half_step_log_ratio(k), self.where_form(k))
        for x in (0.5, 1.0, 7.0, 29.5, 30.0, 30.5, 1234.5, 1e6):
            assert specfun._half_step_log_ratio(x) == self.where_form(x)


class TestRegularizedGamma:
    def test_exponential_median(self):
        assert regularized_gamma_lower(1.0, math.log(2.0)) == pytest.approx(0.5, abs=1e-14)

    def test_zero_argument(self):
        for k in (0.5, 1.0, 7.0, 300.0):
            assert regularized_gamma_lower(k, 0.0) == 0.0
            assert regularized_gamma_upper(k, 0.0) == 1.0

    def test_poisson_sum_oracle_at_100(self):
        # P(100, 100) = 1 - sum_{j<100} e^{-100} 100^j / j!, summed in mpmath
        with mpmath.workdps(60):
            target = 1 - mpmath.fsum(
                mpmath.e ** -100 * mpmath.mpf(100) ** j / mpmath.factorial(j)
                for j in range(100))
        assert regularized_gamma_lower(100.0, 100.0) == pytest.approx(float(target), abs=1e-12)

    @pytest.mark.parametrize("k", [0.25, 1.0, 3.5, 10.0, 100.0, 1e4])
    @pytest.mark.parametrize("frac", [0.1, 0.5, 1.0, 1.5, 3.0])
    def test_against_scipy(self, k, frac):
        x = k * frac
        assert regularized_gamma_lower(k, x) == pytest.approx(
            float(sps.gammainc(k, x)), abs=1e-12)
        assert regularized_gamma_upper(k, x) == pytest.approx(
            float(sps.gammaincc(k, x)), abs=1e-12)

    @pytest.mark.parametrize("k", [1.0, 10.0, 100.0, 1e4])
    def test_complementarity(self, k):
        for x in (k / 2.0, k, 2.0 * k):
            p = regularized_gamma_lower(k, x)
            q = regularized_gamma_upper(k, x)
            assert p + q == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [0.25, 1.0, 1.5, 10.0])
    @pytest.mark.parametrize("x", [1e21, 1e26, 1e100, 1e308])
    def test_far_tail_where_q_underflows(self, k, x):
        # the continued fraction once ran out of iterations here: d * c
        # rounded to 1 - eps on every step
        assert regularized_gamma_upper(k, x) == 0.0
        assert regularized_gamma_lower(k, x) == 1.0

    @pytest.mark.parametrize("k", [30, 31, 50, 100, 300, 1000, 2000, 3000, 3600])
    def test_below_half_the_shape_against_extended_precision(self, k):
        # the seeds a ladder takes at its top shape; the direct prefactor
        # k ln x - x - ln Gamma(k) lost k ln k eps here (5.3e-12 at k = 3000)
        with mpmath.workdps(40):
            for frac in (0.01, 0.1, 0.3, 0.45, 0.499):
                x = k * frac
                for got, ref in ((regularized_gamma_lower(k, x),
                                  mpmath.gammainc(k, 0, x, regularized=True)),
                                 (regularized_gamma_upper(k, x),
                                  mpmath.gammainc(k, x, mpmath.inf, regularized=True))):
                    if ref >= 1e-300:
                        assert abs(got - float(ref)) <= 2e-13 * float(ref), (frac, ref)

    def test_argument_lost_against_a_huge_shape(self):
        # x - k rounds to -k, so t = x/k - 1 is -1 and log1p(t) is -inf
        assert regularized_gamma_lower(1e5, 1e-13) == 0.0
        assert regularized_gamma_upper(1e5, 1e-13) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_gamma_lower(-1.0, 2.0)
        with pytest.raises(ValueError):
            regularized_gamma_lower(1.0, -2.0)


class TestGammaIntervalProb:
    def test_full_line(self):
        for k in (1, 5, 50):
            assert gamma_interval_prob(k, 0.0, math.inf) == pytest.approx(1.0, abs=1e-14)

    def test_exponential_unit_interval(self):
        assert gamma_interval_prob(1, 0.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0),
                                                                 rel=1e-13, abs=0.0)

    def test_four_exponentials_against_scipy(self):
        target = float(sps.gammainc(4, 6.0) - sps.gammainc(4, 2.0))
        assert gamma_interval_prob(4, 2.0, 6.0) == pytest.approx(target, abs=1e-13)

    def test_four_exponentials_monte_carlo(self):
        rng = np.random.default_rng(20240817)
        s = rng.standard_gamma(4.0, size=1_000_000)
        hits = np.mean((s >= 2.0) & (s <= 6.0))
        se = math.sqrt(hits * (1 - hits) / len(s))
        assert abs(gamma_interval_prob(4, 2.0, 6.0) - hits) <= 3.0 * se

    def test_degenerate_and_invalid(self):
        assert gamma_interval_prob(3, 2.0, 2.0) == 0.0
        with pytest.raises(ValueError):
            gamma_interval_prob(3, 2.0, 1.0)
        with pytest.raises(ValueError):
            gamma_interval_prob(0.0, 0.0, math.inf)

    @pytest.mark.parametrize("base, size", [(1.0, 1), (1.0, 300), (0.5, 300), (2.5, 41),
                                            (30.5, 120), (0.25, 80)])
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.0, math.inf), (16.0, 64.0),
                                        (40.0, math.inf), (100.0, 100.0), (3.0, 250.0)])
    def test_ladder_matches_scalar_calls(self, base, size, lo, hi):
        shapes = base + np.arange(size, dtype=float)
        got = gamma_interval_prob(shapes, lo, hi)
        assert isinstance(got, np.ndarray) and got.shape == shapes.shape
        scalar = [gamma_interval_prob(float(k), lo, hi) for k in shapes]
        assert all(type(v) is float for v in scalar)
        np.testing.assert_allclose(got, scalar, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("shapes", [np.arange(2.0, 20.0, 2.0), np.arange(5.0, 0.0, -1.0),
                                        np.array([1.0, 2.0, 3.5]), np.ones((2, 3)),
                                        np.arange(-1.0, 3.0), np.array([]),
                                        np.array([1.0, np.nan, 3.0])])
    def test_rejects_shapes_off_a_unit_ladder(self, shapes):
        with pytest.raises(ValueError):
            gamma_interval_prob(shapes, 1.0, 2.0)

    @pytest.mark.parametrize("edges", [(0.0, 16.0, 30.0, 64.0, math.inf), (0.0, 0.0, 5.0, 5.0),
                                       (2.0, 300.0), (0.0, math.inf)])
    def test_pieces_match_interval_calls_bitwise(self, edges):
        # ladders built for all edges in one pass give each piece exactly as
        # the two-edge call of that piece: batching across edges changes no bit
        shapes = 1.0 + np.arange(300.0)
        got = specfun.gamma_piece_probs(shapes, edges)
        assert got.shape == (len(edges) - 1, len(shapes))
        for row, lo, hi in zip(got, edges[:-1], edges[1:]):
            alone = specfun.gamma_piece_probs(shapes, (lo, hi))
            assert alone.shape == (1, len(shapes))
            assert np.array_equal(row, alone[0])

    @pytest.mark.parametrize("edges", [(1.0,), (2.0, 1.0), (-1.0, 2.0), (0.0, math.nan, 3.0),
                                       (0.0, 3.0, 2.0, 4.0)])
    def test_pieces_reject_unsorted_edges(self, edges):
        with pytest.raises(ValueError, match="edges"):
            specfun.gamma_piece_probs(np.arange(1.0, 5.0), edges)

    def test_half_integer_ladder_against_extended_precision(self):
        # shapes 1/2, 3/2, ... up to 2 * 10^4 across a window whose edges sit
        # deep inside the ladder
        shapes = 0.5 + np.arange(20_000, dtype=float)
        lo, hi = 2500.0, 12_000.0
        got = gamma_interval_prob(shapes, lo, hi)
        with mpmath.workdps(40):
            for edge in (lo, hi):
                for z in (-6.0, -2.0, -0.5, 0.0, 0.5, 2.0, 6.0):
                    i = round(edge + z * math.sqrt(edge))
                    ref = mpmath.gammainc(mpmath.mpf(shapes[i]), lo, hi, regularized=True)
                    assert abs(got[i] - float(ref)) <= 1e-13, (edge, z)

    @given(st.integers(min_value=1, max_value=200),
           st.floats(min_value=0.0, max_value=400.0),
           st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=200)
    def test_monotone_in_window(self, k, lo, grow_hi, shrink_lo):
        hi = lo + grow_hi
        p = gamma_interval_prob(k, lo, hi)
        assert 0.0 <= p <= 1.0
        # widening on the right cannot lose mass
        assert gamma_interval_prob(k, lo, hi + 1.0) >= p - 1e-13
        # moving the left edge up cannot gain mass
        lo2 = min(lo + shrink_lo, hi)
        assert gamma_interval_prob(k, lo2, hi) <= p + 1e-13


class TestNormalCdf:
    def test_center(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_quantile_1p96(self):
        assert std_normal_cdf(1.96) == pytest.approx(0.9750021, abs=5e-8)

    @pytest.mark.parametrize("x", [-8.0, -2.0, -0.3, 0.7, 3.0, 8.0])
    def test_against_scipy(self, x):
        assert std_normal_cdf(x) == pytest.approx(float(sps.ndtr(x)), abs=1e-14)

    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_symmetry(self, x):
        assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)


class TestLegendreRule:
    def test_cubic_exact_with_two_nodes(self):
        x, w = legendre_rule(2, 0.0, 1.0)
        val = x ** 3 @ w
        assert val == pytest.approx(0.25, abs=1e-15)

    def test_weights_and_nodes(self):
        x, w = legendre_rule(9, -2.0, 5.0)
        assert np.sum(w) == pytest.approx(7.0, rel=1e-14, abs=0.0)
        assert np.all(np.diff(x) > 0)
        assert x[0] > -2.0 and x[-1] < 5.0

    @given(st.integers(min_value=2, max_value=12), st.data())
    @settings(max_examples=60)
    def test_polynomial_exactness(self, n, data):
        degree = 2 * n - 1
        coeffs = [data.draw(st.floats(min_value=-3, max_value=3)) for _ in range(degree + 1)]
        x, w = legendre_rule(n, 0.0, 2.0)
        approx = np.polynomial.polynomial.polyval(x, coeffs) @ w
        exact = sum(c * 2.0 ** (j + 1) / (j + 1) for j, c in enumerate(coeffs))
        assert approx == pytest.approx(exact, rel=1e-12, abs=1e-9)

    def test_rejects_tiny_rules(self):
        with pytest.raises(ValueError):
            legendre_rule(1, 0.0, 1.0)


class TestReferenceRuleCache:
    @pytest.mark.parametrize("n", [2, 24, 96, 320, 328])
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-2.0, 5.0), (3.5, 3.75), (1e3, 1.2e3)])
    def test_matches_fresh_leggauss_bitwise(self, n, lo, hi):
        # a Legendre-Gauss rule built afresh, past the cache, maps bitwise
        # onto what legendre_rule returns
        x, w = specfun._reference_rule.__wrapped__(n)
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        nodes, weights = legendre_rule(n, lo, hi)
        np.testing.assert_array_equal(nodes, mid + half * x)
        np.testing.assert_array_equal(weights, half * w)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 12, 16, 24, 96, 320, 328])
    def test_moments_against_extended_precision(self, n):
        # sum w x^j against int_{-1}^{1} x^j for every 7th j < 2n (every j
        # for the small rules, where Tricomi's starting nodes are crudest);
        # numpy's own weights miss these by 2.3e-15 (n = 24) up to 7.5e-14
        # (n = 320), so its eigensolver's nodes serve only as an oracle
        x, w = specfun._reference_rule(n)
        assert np.max(np.abs(x - np.polynomial.legendre.leggauss(n)[0])) <= 4e-16
        with mpmath.workdps(40):
            xs = [mpmath.mpf(float(v)) for v in x]
            ws = [mpmath.mpf(float(v)) for v in w]
            for j in range(0, 2 * n, 7 if n > 12 else 1):
                exact = mpmath.mpf(2) / (j + 1) if j % 2 == 0 else 0
                got = mpmath.fsum(wi * xi ** j for wi, xi in zip(ws, xs))
                assert float(abs(got - exact)) <= 2e-15, j

    @pytest.mark.parametrize("n", [2, 3, 96, 320, 328])
    def test_mirror_symmetric_bitwise(self, n):
        x, w = specfun._reference_rule(n)
        np.testing.assert_array_equal(x[::-1], -x)
        np.testing.assert_array_equal(w[::-1], w)

    def test_reference_arrays_are_read_only(self):
        x, w = specfun._reference_rule(24)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_returned_rules_do_not_share_storage(self):
        x, w = legendre_rule(24, 0.0, 1.0)
        expected = x.copy()
        x[:] = -1.0
        w[:] = -1.0
        x, w = legendre_rule(24, 0.0, 1.0)
        np.testing.assert_array_equal(x, expected)
        assert np.sum(w) == pytest.approx(1.0, rel=1e-14, abs=0.0)

    def test_one_build_per_node_count(self):
        # every cache miss is one build
        specfun._reference_rule.cache_clear()
        legendre_rule(37, 0.0, 1.0)
        legendre_rule(37, 2.0, 9.0)
        info = specfun._reference_rule.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_radial_callables_share_one_rule(self):
        # every callable factor and every tilt window, whatever its length,
        # uses the same fixed node count
        specfun._reference_rule.cache_clear()
        f = RadialTestFunction.from_callable(lambda r: r * r, r_max=8.0)
        radial_cov_exact(f, RadialTestFunction.indicator(0.4, 0.8), 16)
        radial_log_mgf(f, 0.3, 8)
        assert specfun._reference_rule.cache_info().misses == 1


class TestPanelIntegrate:
    def test_matches_hand_loop_bitwise(self):
        def fn(x):
            return np.exp(-x) * np.cos(3.0 * x)

        panels = [(0.0, 0.5), (0.5, 2.0), (2.0, 2.0), (3.0, 2.5), (2.0, 9.0)]
        total = 0.0
        for lo, hi in panels:
            if hi > lo:
                x, w = legendre_rule(24, lo, hi)
                total += float(fn(x) @ w)
        assert panel_integrate(fn, panels, 24) == total


def _cancelling_terms():
    # mixed signs whose sum is 1e-10 of sum |t|, plus terms far below the cut
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, 500)
    tiny = rng.uniform(-1.0, 1.0, 500) * 10.0 ** rng.uniform(-300.0, -20.0, 500)
    t = np.concatenate([x, -x, tiny])
    t[-1] += 1e-10 * np.abs(t).sum()
    return t


class TestPrunedSum:
    """specfun._fsum against math.fsum over every term."""

    CASES = {
        "subnormals": np.array([5e-324, -1e-310, 3e-320, 2.5e-308, -7e-315]),
        "subnormals-under-one": np.array([1.0, 5e-324, -1e-310, 3e-320, 1e-300]),
        "spread": np.logspace(-300.0, 0.0, 1001) * np.where(np.arange(1001) % 3, 1.0, -1.0),
        "cancelling": _cancelling_terms(),
        "zeros": np.zeros(17),
        "empty": np.zeros(0),
        "one-term": np.array([0.3]),
        "one-subnormal": np.array([-5e-324]),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_within_the_cut_of_fsum(self, name):
        t = self.CASES[name]
        bound = 2.0 ** -60 * math.fsum(np.abs(t).tolist())
        assert abs(specfun._fsum(t) - math.fsum(t.tolist())) <= bound

    def test_keeps_small_terms_that_add_up(self):
        # 1 + 2^-60 is 1 in floats, but 2^-60 times 2^10 such terms is not
        t = np.concatenate([[1.0], np.full(1024, 2.0 ** -60), [2.0 ** -90]])
        assert specfun._fsum(t) == math.fsum(t[:-1].tolist())
        assert specfun._fsum(t) > 1.0

    @pytest.mark.parametrize("t", [[math.inf, 1.0, 1e-300], [-math.inf, 2.0],
                                   [math.nan, 1.0], [1.0, math.nan, math.inf]])
    def test_non_finite_propagates(self, t):
        got, want = specfun._fsum(np.array(t)), math.fsum(t)
        assert got == want or (math.isnan(got) and math.isnan(want))

    @pytest.mark.parametrize("t, exc", [([math.inf, -math.inf], ValueError),
                                        ([1e308, 1e308, 1e-300], OverflowError)])
    def test_fsum_errors_propagate(self, t, exc):
        with pytest.raises(exc):
            math.fsum(t)
        with pytest.raises(exc):
            specfun._fsum(np.array(t))
