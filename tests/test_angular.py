"""Tests for exact angular (argument) statistics.

Three independent attack routes: the 4-D brute-force determinantal
quadrature over the plane, closed-form kernel coefficients, and the
sector Gram operator (a different code path, built on `log_gamma` where the
library's double sum takes exact rational steps).  Extended-precision sums
check the rational steps themselves.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ginfluct import angular
from ginfluct.angular import (
    MAX_BAND,
    MAX_N,
    ArcWindow,
    ConvolvedStatistic,
    FourierStatistic,
    _chat_row,
    _diagonals,
    _row_sums,
    angular_count_cov,
    angular_count_var,
    angular_cov_decomposed,
    angular_cov_exact,
    kernel_c_eval,
    kernel_c_fourier,
    read_fourier_file,
    write_fourier_file,
)
from ginfluct.dpp import cumulants_from_gram, gram_sector

from oracles import (angular_count_cov_mp, angular_diagonal_sum_mp, angular_factor_mp,
                     angular_var_sesquilinear, kernel_c_apply_at_zero, kernel_fourier_mp,
                     quad4d_cov)

COS = FourierStatistic.cosine(1)
TWO_COS = FourierStatistic.cosine(1, amplitude=2.0)
STOP = 2.0 ** -60  # the row stops at the first C_d below STOP * N


def random_real_statistic(rng: np.random.Generator, band: int) -> FourierStatistic:
    c = np.zeros(2 * band + 1, dtype=complex)
    for k in range(1, band + 1):
        v = rng.normal() + 1j * rng.normal()
        c[band + k] = v
        c[band - k] = np.conj(v)
    c[band] = rng.normal()
    return FourierStatistic(coeffs=c)


class TestFourierStatistic:
    def test_odd_length_required(self):
        with pytest.raises(ValueError):
            FourierStatistic(coeffs=np.zeros(4, dtype=complex))

    def test_band_cap(self):
        with pytest.raises(ValueError, match="band"):
            FourierStatistic.from_dict({MAX_BAND + 1: 1.0})

    def test_real_flag_enforces_conjugate_symmetry(self):
        with pytest.raises(ValueError, match="conj"):
            FourierStatistic.from_dict({1: 1.0, -1: 0.5})
        FourierStatistic.from_dict({1: 0.5 + 0.25j, -1: 0.5 - 0.25j})  # fine

    def test_get_outside_band_is_zero(self):
        assert COS.get(5) == 0.0

    def test_constructors_evaluate_correctly(self):
        theta = np.linspace(-math.pi, math.pi, 9)
        np.testing.assert_allclose(
            FourierStatistic.cosine(3, 1.5).evaluate(theta),
            1.5 * np.cos(3 * theta), atol=1e-12)
        np.testing.assert_allclose(
            FourierStatistic.sine(2, 0.7).evaluate(theta),
            0.7 * np.sin(2 * theta), atol=1e-12)
        np.testing.assert_allclose(
            FourierStatistic.constant(2.5).evaluate(theta), 2.5, atol=1e-12)

    @pytest.mark.parametrize("band", [1, 10, 50, 64])
    def test_horner_matches_the_outer_product_form(self, band):
        rng = np.random.default_rng(band)
        theta = rng.uniform(-math.pi, math.pi, (40, 16))
        c = rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(2 * band + 1)
        c /= np.abs(c).sum()  # |f| <= 1
        ks = np.arange(-band, band + 1)
        for f in (FourierStatistic(coeffs=c, real=False),
                  FourierStatistic(coeffs=0.5 * (c + np.conj(c[::-1])))):
            table = np.exp(1j * np.multiply.outer(ks, theta))
            ref = np.tensordot(f.coeffs, table, axes=(0, 0))
            got = f.evaluate(theta)
            assert got.shape == theta.shape
            np.testing.assert_allclose(got, ref.real if f.real else ref, rtol=0.0, atol=1e-13)

    def test_evaluate_memory_does_not_grow_with_band(self):
        # z = e^{i theta} and the Horner accumulator are two complex arrays,
        # 4x the angles; a table of every e^{ik theta} would be 202x at K = 50
        theta = np.random.default_rng(2).uniform(-math.pi, math.pi, (200, 64))
        f = FourierStatistic.cosine(50)
        tracemalloc.start()
        try:
            f.evaluate(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * theta.nbytes

    def test_conjugate_of_complex_wave(self):
        f = FourierStatistic.from_dict({1: 1.0}, real=False)  # e^{i theta}
        g = f.conjugate()
        assert g.get(-1) == 1.0 and g.get(1) == 0.0

    def test_coefficients_match_quadrature_convention(self):
        # fhat(k) = (1/2pi) int e^{-ik theta} f dtheta
        f = FourierStatistic.from_dict({2: 0.3 - 0.1j, -2: 0.3 + 0.1j, 0: 1.2})
        theta = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
        vals = f.evaluate(theta)
        for k in (-2, 0, 2):
            num = np.mean(vals * np.exp(-1j * k * theta))
            assert abs(num - f.get(k)) < 1e-12


class TestConvolvedStatistic:
    def test_coefficients_are_products(self):
        f = FourierStatistic.from_dict({1: 0.5, -1: 0.5})
        g = FourierStatistic.from_dict({2: 1.0j, -2: -1.0j, 0: 0.4})
        phi = ConvolvedStatistic.from_pair(f, g)
        for k in range(-phi.band, phi.band + 1):
            assert phi.get(k) == f.get(k) * g.get(-k)

    @pytest.mark.parametrize("band_f, band_g", [(3, 3), (7, 2), (1, 40)])
    def test_products_against_scalar_loop(self, band_f, band_g):
        rng = np.random.default_rng(band_f + 100 * band_g)
        f = FourierStatistic(coeffs=rng.normal(size=2 * band_f + 1)
                             + 1j * rng.normal(size=2 * band_f + 1), real=False)
        g = random_real_statistic(rng, band_g)
        phi = ConvolvedStatistic.from_pair(f, g)
        assert phi.band == max(band_f, band_g)
        assert not phi.real_pair
        for k in range(-phi.band - 2, phi.band + 3):
            ref = f.get(k) * g.get(-k)
            # numpy and Python round a complex product differently, within a few ulp
            assert abs(phi.get(k) - ref) <= 4 * np.finfo(float).eps * abs(f.get(k)) * abs(g.get(-k))

    def test_phi0_is_sum(self):
        phi = ConvolvedStatistic.from_pair(COS, COS)
        assert phi.phi0 == pytest.approx(0.5)  # |1/2|^2 * 2

    def test_self_pair_has_nonnegative_density(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = random_real_statistic(rng, 4)
            phi = ConvolvedStatistic.from_pair(f, f)
            assert phi.phi0.real >= 0.0
            assert all(phi.get(k).real >= -1e-15 for k in range(-4, 5))

    def test_cross_pair_density_can_be_negative(self):
        g = FourierStatistic.cosine(1, amplitude=-1.0)
        phi = ConvolvedStatistic.from_pair(COS, g)
        assert phi.get(1).real < 0.0


class TestArcWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArcWindow(0.5, 0.5)
        with pytest.raises(ValueError):
            ArcWindow(-4.0, 0.0)
        with pytest.raises(ValueError):
            ArcWindow(0.0, 3.5)

    def test_symmetric_constructor(self):
        arc = ArcWindow.symmetric(1.0)
        assert arc.alpha == -0.5 and arc.beta == 0.5 and arc.length == 1.0

    def test_fourier_matches_quadrature(self):
        arc = ArcWindow(-0.7, 0.4)
        theta = np.linspace(-math.pi, math.pi, 1 << 18, endpoint=False)
        ind = ((theta >= arc.alpha) & (theta <= arc.beta)).astype(float)
        for d in (0, 1, 2, 7):
            num = np.mean(ind * np.exp(-1j * d * theta))
            assert abs(num - arc.fourier(d)) < 1e-5
        d = np.arange(-7, 8)
        np.testing.assert_allclose(
            arc.fourier(d), [arc.fourier(int(k)) for k in d], rtol=1e-14, atol=0.0)

    def test_tent_coefficients(self):
        # |what(d)|^2 = q^2 sinc(d q)^2, the coefficients of the indicator's
        # self-correlation (the tent (L - |theta|)/2pi on |theta| <= L)
        arc = ArcWindow.symmetric(1.2)
        q = 1.2 / (2 * math.pi)
        assert abs(arc.fourier(0)) ** 2 == q ** 2
        for d in (1, 3, 10):
            assert abs(arc.fourier(d)) ** 2 == pytest.approx(q ** 2 * np.sinc(d * q) ** 2,
                                                             rel=1e-12, abs=0.0)
        d = np.arange(0, 11)
        row = np.abs(arc.fourier(d)) ** 2
        assert row[0] == abs(arc.fourier(0)) ** 2
        np.testing.assert_allclose(row, q ** 2 * np.sinc(d * q) ** 2, rtol=1e-12, atol=0.0)

    def test_tent_peak_sums_to_arc_mass(self):
        # Parseval: phi(0) = L/2pi = sum_d |what(d)|^2; tail is O(1/K)
        arc = ArcWindow.symmetric(0.9)
        tent = np.abs(arc.fourier(np.arange(200_000))) ** 2
        total = tent[0] + 2.0 * tent[1:].sum()
        assert total == pytest.approx(0.9 / (2 * math.pi), abs=1e-6)


class TestKernelC:
    def test_value_at_zero(self):
        assert kernel_c_eval(0, 0.0) == pytest.approx(1.0 + math.pi / 2.0, rel=1e-13, abs=0.0)

    def test_zero_at_right_angle(self):
        for ell in (1, 2, 17):
            assert kernel_c_eval(ell, math.pi / 2.0) == pytest.approx(0.0, abs=1e-13)

    def test_sign_correct_for_negative_cosine(self):
        # at theta = pi: cos = -1, so a(l) - b(l); b(0) = pi/2 dominates
        assert kernel_c_eval(0, math.pi) == pytest.approx(1.0 - math.pi / 2.0, rel=1e-13, abs=0.0)
        assert kernel_c_eval(3, math.pi) < 0.0

    @pytest.mark.parametrize("ell", [1, 10, 100])
    def test_unit_mass(self, ell):
        x, w = np.polynomial.legendre.leggauss(600)
        theta = math.pi * x
        integral = np.dot(math.pi * w, kernel_c_eval(ell, theta)) / (2.0 * math.pi)
        assert integral == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("ell", [10**3, 10**5, 10**6])
    def test_value_at_zero_at_large_l(self, ell):
        # C_l(0) = a(l) + b(l) in 40 digits; exponentiated log-gamma
        # differences were off by 3.4e-13 at l = 10^3 and 1.2e-9 at 10^6
        import mpmath

        with mpmath.workdps(40):
            a = mpmath.mpf(4) ** ell * mpmath.factorial(ell) ** 2 / mpmath.factorial(2 * ell)
            b = (mpmath.mpf(2) ** (2 * ell + 1) * mpmath.gamma(ell + mpmath.mpf(3) / 2) ** 2
                 / mpmath.factorial(2 * ell + 1))
            target = float(a + b)
        assert kernel_c_eval(ell, 0.0) == pytest.approx(target, rel=1e-14, abs=0.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            kernel_c_eval(-1, 0.0)
        with pytest.raises(ValueError):
            kernel_c_eval(10**6 + 1, 0.0)

    def test_fourier_unit_mass_and_band(self):
        for ell in (0, 3, 40):
            assert kernel_c_fourier(ell, 0) == pytest.approx(1.0, rel=1e-13, abs=0.0)
            assert kernel_c_fourier(ell, 2 * ell + 2) == 0.0
            assert kernel_c_fourier(ell, -(2 * ell + 5)) == 0.0

    def test_fourier_evenness(self):
        for ell in (1, 4):
            for k in range(0, 2 * ell + 2):
                assert kernel_c_fourier(ell, k) == kernel_c_fourier(ell, -k)

    def test_fourier_closed_values(self):
        assert kernel_c_fourier(0, 1) == pytest.approx(math.pi / 4.0, rel=1e-13, abs=0.0)
        assert kernel_c_fourier(1, 1) == pytest.approx(9.0 * math.pi / 32.0, rel=1e-13, abs=0.0)
        assert kernel_c_fourier(1, 3) == pytest.approx(3.0 * math.pi / 32.0, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("ell", [1, 5])
    def test_fourier_against_quadrature(self, ell):
        x, w = np.polynomial.legendre.leggauss(800)
        theta = math.pi * x
        vals = kernel_c_eval(ell, theta)
        for k in range(0, 2 * ell + 3):
            num = np.dot(math.pi * w, vals * np.cos(k * theta)) / (2.0 * math.pi)
            assert kernel_c_fourier(ell, k) == pytest.approx(num, abs=1e-10)

    def test_smooth_approximation_of_identity(self):
        # (C_l * 2cos)(0) = 2 - 1/(2l) + O(l^{-2}); second-order envelope
        for ell in (16, 64, 256, 1024, 4096):
            v = 2.0 * kernel_c_fourier(ell, 1)
            resid = abs(v - 2.0 + 1.0 / (2.0 * ell))
            assert resid <= 0.2 / ell**1.5

    def test_corner_rate_of_the_tent(self):
        # the tent has slope gap 1/pi at its peak; the convolution deficit
        # is -(gap)/(2 sqrt(pi l)) with relative error ~ 1/l
        length = 1.0
        arc = ArcWindow.symmetric(length)
        for ell, rel_tol in ((64, 0.01), (1024, 5e-4), (4096, 2e-4)):
            s = kernel_c_fourier(ell, 0) * abs(arc.fourier(0)) ** 2
            for k in range(1, 2 * ell + 2):
                s += 2.0 * kernel_c_fourier(ell, k) * abs(arc.fourier(k)) ** 2
            diff = s - length / (2.0 * math.pi)
            pred = -(1.0 / math.pi) / (2.0 * math.sqrt(math.pi * ell))
            assert diff == pytest.approx(pred, rel=rel_tol, abs=0.0)

    @pytest.mark.parametrize("ell", [100, 10_000])
    def test_stirling_fact(self, ell):
        # 2^{2l} / binom(2l, l) = sqrt(pi l)(1 + 1/(8l) + O(l^{-2}))
        ratio = math.exp(
            2 * ell * math.log(2.0)
            + 2 * math.lgamma(ell + 1)
            - math.lgamma(2 * ell + 1)
        )
        resid = abs(ratio / math.sqrt(math.pi * ell) - 1.0 - 1.0 / (8.0 * ell))
        assert resid <= 0.05 / ell**2

    def test_mass_concentrates_in_any_bump(self):
        x, w = np.polynomial.legendre.leggauss(400)
        eps = 0.1
        vals = []
        for ell in (100, 400, 1600):
            vals.append(np.dot(eps * w, kernel_c_eval(ell, eps * x)) / (2.0 * math.pi))
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] == pytest.approx(1.0, abs=1e-5)

    def test_apply_at_zero_matches_row_sum(self):
        phi = ConvolvedStatistic.from_pair(TWO_COS, TWO_COS)
        for ell in (0, 2, 9):
            direct = sum(
                kernel_c_fourier(ell, k) * phi.get(k)
                for k in range(-phi.band, phi.band + 1)
            )
            assert kernel_c_apply_at_zero(ell, phi) == pytest.approx(direct, rel=1e-13, abs=0.0)

    def test_row_against_extended_precision(self):
        # ratio products from t(l, 1) against the closed forms in 30 digits
        row = _chat_row(20_000, 40)
        assert len(row) == 41
        for k, v in enumerate(row):
            assert v == pytest.approx(kernel_fourier_mp(20_000, k), rel=1e-14, abs=0.0)


def lgamma_diagonal_sum(n: int, d: int) -> float:
    """C_d = sum_{l<n-d} Gamma(l+d/2+1)^2 / ((l+d)! l!), term by term in
    math.lgamma and summed exactly with math.fsum."""
    return math.fsum(math.exp(2.0 * math.lgamma(l + 0.5 * d + 1.0)
                              - math.lgamma(l + d + 1.0) - math.lgamma(l + 1.0))
                     for l in range(n - d))


def stepped_row(n: int) -> np.ndarray:
    """C_d summed along the library's stepped diagonals t(., d), through the
    first C_d below STOP * N: the route the recurrence replaced."""
    out = np.zeros(n)
    for d, t in zip(range(n), _diagonals(n)):
        out[d] = t[:n - d].sum()
        if out[d] < STOP * n:
            break
    return out


class TestDiagonalSums:
    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_row_against_lgamma_oracle(self, n):
        row = _row_sums(n)
        assert len(row) == n
        stop = int(np.flatnonzero(row)[-1])
        for d in range(stop + 1):
            assert row[d] == pytest.approx(lgamma_diagonal_sum(n, d), rel=1e-12, abs=0.0)
        # strictly decreasing through the stop and zero past it; the first
        # zeroed sum is below the stop too
        assert np.all(np.diff(row[: stop + 1]) < 0.0)
        assert not row[stop + 1:].any()
        if stop + 1 < n:
            assert row[stop] < STOP * n <= row[stop - 1]
            assert lgamma_diagonal_sum(n, stop + 1) < STOP * n

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 300, 1024, 10_240, 40_960])
    def test_row_against_stepped_diagonals(self, n):
        # the recurrence in d against the diagonals summed along j: the same
        # stop, every kept C_d to 1e-14, strictly decreasing through the stop
        row, ref = _row_sums(n), stepped_row(n)
        stop = int(np.flatnonzero(ref)[-1])
        assert int(np.flatnonzero(row)[-1]) == stop
        np.testing.assert_allclose(row[: stop + 1], ref[: stop + 1], rtol=1e-14, atol=0.0)
        assert np.all(np.diff(row[: stop + 1]) < 0.0)

    @pytest.mark.parametrize("d", [1, 7, 1001, 1208, 3000])
    def test_large_n_against_extended_precision(self, d):
        # the row comes from the recurrence in d, the stepped sum along the
        # diagonal t(., d), the oracle along j in 30 digits.  The row's last
        # nonzero sum is d = 1208; d = 3000 lies past the stop, so only the
        # stepped sum reaches it
        n = 10_240
        row = _row_sums(n)
        assert np.flatnonzero(row)[-1] == 1208
        want = angular_diagonal_sum_mp(n, d)
        got = next(itertools.islice(_diagonals(n), d, None))[:n - d].sum()
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        if d <= 1208:
            assert row[d] == pytest.approx(want, rel=1e-14, abs=0.0)
        else:
            assert row[d] == 0.0

    def test_row_at_n_1e5_against_extended_precision(self):
        # the tau product runs some 1900 steps per parity to the stop here
        n = 100_000
        row = _row_sums(n)
        stop = int(np.flatnonzero(row)[-1])
        for d in (1, 2, 1000, stop):
            assert row[d] == pytest.approx(angular_diagonal_sum_mp(n, d), rel=1e-14, abs=0.0), d

    def test_entries_against_extended_precision(self):
        # each step rounds a product by (j + d/2)^2 and one by the rounded
        # 1/((j + d - 1)(j + d)), so t(j, d) may drift by a few eps per step:
        # sampled up to the row's stop and over all j < n - d (every j < 40
        # at small d, through t(j, 1)'s switch at j = 29), each normal double
        # lies within 4 d eps of 40 digits
        n, stop = 10_240, 1208
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        rng = np.random.default_rng(21)
        ds = {1, 2, 3, 4, 5, 30, 31, stop - 1, stop} | set(rng.integers(6, stop, 12).tolist())
        checked = 0
        for d, t in zip(range(stop + 1), _diagonals(n)):
            if d not in ds:
                continue
            js = np.concatenate([np.arange(40), rng.integers(0, n - d, 20),
                                 np.geomspace(40, n - d - 1, 12).astype(int)])
            for j in np.unique(js).tolist():
                ref = angular_factor_mp(j, d)
                if ref < tiny:  # subnormal or underflowed: no relative accuracy
                    continue
                assert abs(t[j] - ref) <= 4 * d * eps * ref, (j, d)
                checked += 1
        assert checked > 1000


class TestRowStop:
    """The stop at C_d < 2^-60 N against the same recurrence without it."""

    @pytest.mark.parametrize("n", [1024, 10_240, 40_960])
    def test_results_within_bound_of_full_row(self, n, monkeypatch):
        rng = np.random.default_rng(13)
        arcs = [ArcWindow.symmetric(x) for x in (0.05, 0.7, 2.0, 5.5)]
        pair = (ArcWindow(-2.0, 0.4), ArcWindow(-0.3, 2.9))
        f, g = random_real_statistic(rng, 4096), random_real_statistic(rng, 4096)
        calls = [lambda a=a: angular_count_var(n, a) for a in arcs]
        calls += [lambda: angular_count_cov(n, *pair), lambda: angular_cov_exact(f, g, n)]
        # the scale 2^-60 N sum_d |folded(d)| of each result's dropped tail,
        # folded(d) = phihat(d) + phihat(-d) for d < N
        d = np.arange(n)

        def count_folded(a1, a2):
            folded = (a1.fourier(d) * np.conj(a2.fourier(d))).real
            folded[1:] *= 2.0
            return folded

        folds = [count_folded(a, a) for a in arcs] + [count_folded(*pair)]
        folds.append(ConvolvedStatistic.from_pair(f, g).folded()[:n])
        scales = [STOP * n * np.abs(folded).sum() for folded in folds]
        got = [call() for call in calls]
        _row_sums.cache_clear()
        assert [call() for call in calls] == got  # bit-identical on a fresh row
        # with no stop the row runs until tau underflows or d = N - 1
        with monkeypatch.context() as patch:
            patch.setattr(angular, "STOP_FRACTION", 0.0)
            _row_sums.cache_clear()
            full = _row_sums(n)
        _row_sums.cache_clear()
        assert full[np.count_nonzero(_row_sums(n))] > 0.0
        monkeypatch.setattr(angular, "_row_sums", lambda n_: full)
        ref = [call() for call in calls]
        for new, want, bound in zip(got, ref, scales):
            assert abs(new - want) <= bound

    @pytest.mark.parametrize("n", [1024, 10_240, 40_960])
    def test_row_stops_near_12_sqrt_n(self, n):
        # the row ends at the stop, not where C_d underflows (about 46-49
        # sqrt(N) at these N)
        assert np.flatnonzero(_row_sums(n))[-1] <= 13 * math.sqrt(n)


class TestCovExact:
    def test_constant_statistic(self):
        c = FourierStatistic.constant(3.0)
        assert angular_cov_exact(c, c, 10) == pytest.approx(0.0, abs=1e-12)

    def test_single_point_variance(self):
        # one uniform angle: Var(2 cos) = 2
        assert angular_cov_exact(TWO_COS, TWO_COS, 1) == pytest.approx(2.0, rel=1e-13, abs=0.0)

    def test_two_point_value(self):
        assert angular_cov_exact(TWO_COS, TWO_COS, 2) == pytest.approx(
            4.0 - math.pi / 2.0, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_planar_determinantal_oracle(self, n):
        pairs = [
            (TWO_COS, TWO_COS, lambda t: 2 * np.cos(t), lambda t: 2 * np.cos(t)),
            (FourierStatistic.sine(2), FourierStatistic.sine(2),
             lambda t: np.sin(2 * t), lambda t: np.sin(2 * t)),
            (COS, FourierStatistic.sine(1),
             lambda t: np.cos(t), lambda t: np.sin(t)),
        ]
        for f, g, ft, gt in pairs:
            got = angular_cov_exact(f, g, n)
            oracle = quad4d_cov(ft, gt, n)
            assert got == pytest.approx(oracle, abs=1e-10)

    def test_real_pair_returns_float(self):
        assert isinstance(angular_cov_exact(COS, COS, 4), float)

    def test_complex_statistic_returns_complex(self):
        f = FourierStatistic.from_dict({1: 1.0}, real=False)
        out = angular_cov_exact(f, f, 3)
        assert isinstance(out, complex)

    def test_complex_wave_closed_form(self):
        # f = e^{i theta}, g = e^{-i theta}: phihat(1) = 1, so
        # Cov = N - sum_{l<N-1} Gamma(l + 3/2)^2 / (l! (l+1)!)
        f = FourierStatistic.from_dict({1: 1.0}, real=False)
        g = FourierStatistic.from_dict({-1: 1.0}, real=False)
        for n in (1, 2, 5):
            target = n - sum(
                math.exp(2 * math.lgamma(l + 1.5) - math.lgamma(l + 1) - math.lgamma(l + 2))
                for l in range(0, n - 1)
            )
            got = angular_cov_exact(f, g, n)
            assert got.real == pytest.approx(target, rel=1e-13, abs=0.0)
            assert got.imag == pytest.approx(0.0, abs=1e-13)

    def test_sesquilinear_variance_of_complex_wave(self):
        f = FourierStatistic.from_dict({1: 1.0}, real=False)
        # at N = 1, E X = 0 and |X| = 1, so the sesquilinear variance is 1
        assert angular_var_sesquilinear(f, 1) == pytest.approx(1.0, rel=1e-13, abs=0.0)
        for n in (2, 6):
            assert angular_var_sesquilinear(f, n) >= 0.0

    def test_symmetry_in_the_pair(self):
        f = FourierStatistic.cosine(2, 0.7)
        g = FourierStatistic.sine(1, 1.3)
        assert angular_cov_exact(f, g, 5) == pytest.approx(
            angular_cov_exact(g, f, 5), rel=1e-13, abs=1e-15)

    @given(st.integers(min_value=1, max_value=12), st.floats(min_value=-2, max_value=2))
    @settings(max_examples=25, deadline=None)
    def test_bilinearity_in_first_argument(self, n, alpha):
        f1 = FourierStatistic.cosine(1)
        f2 = FourierStatistic.sine(2, 0.5)
        combo = FourierStatistic.from_dict({
            k: alpha * f1.get(k) + f2.get(k) for k in range(-2, 3)
        })
        lhs = angular_cov_exact(combo, COS, n)
        rhs = alpha * angular_cov_exact(f1, COS, n) + angular_cov_exact(f2, COS, n)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            angular_cov_exact(COS, COS, 0)

    @pytest.mark.parametrize("call", [
        lambda n: angular_count_var(n, ArcWindow.symmetric(1.0)),
        lambda n: angular_count_cov(n, ArcWindow.symmetric(1.0), ArcWindow(0.0, 1.0)),
        lambda n: angular_cov_exact(COS, COS, n),
        lambda n: angular_cov_decomposed(COS, COS, n),
    ], ids=["count_var", "count_cov", "cov_exact", "cov_decomposed"])
    def test_n_above_cap_fails_before_allocating(self, call):
        assert MAX_N == 10 ** 6
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="N must be in"):
                call(MAX_N + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # one array of N doubles would be 8 MB


class TestDecomposed:
    def test_constant_pair_has_no_correction(self):
        c = FourierStatistic.constant(1.0)
        out = angular_cov_decomposed(c, c, 6)
        assert out.correction == 0.0
        assert out.total == pytest.approx(0.0, abs=1e-12)

    def test_two_cos_identity(self):
        out = angular_cov_decomposed(TWO_COS, TWO_COS, 2)
        assert out.total == pytest.approx(4.0 - math.pi / 2.0, rel=1e-12, abs=0.0)

    def test_band_one_n_four_correction_enumerates_the_exclusion_set(self):
        # |k| > 2N - 2l - 2 with |k| <= min(2l+1, 1): only l = 3, k = +/-1
        phi = ConvolvedStatistic.from_pair(COS, COS)
        out = angular_cov_decomposed(COS, COS, 4)
        expected = 2.0 * kernel_c_fourier(3, 1) * phi.get(1).real
        assert out.correction == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 16, 33, 64])
    def test_identity_randomized(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(5):
            band = int(rng.integers(1, 2 * n + 3))
            f = random_real_statistic(rng, band)
            g = random_real_statistic(rng, band)
            exact = angular_cov_exact(f, g, n)
            out = angular_cov_decomposed(f, g, n)
            scale = max(1e-30, abs(exact))
            assert abs(out.total - exact) / scale <= 1e-9

    @pytest.mark.parametrize("n", [1024, 10_240])
    def test_stepped_diagonals_against_recurrence_row(self, n):
        # two evaluations of one covariance: the decomposition sums the
        # stepped diagonals t(., d), angular_cov_exact reads the C_d row of
        # the recurrence in d
        rng = np.random.default_rng(3000 + n)
        for _ in range(5):
            band = int(rng.integers(1, 65))
            f = random_real_statistic(rng, band)
            g = random_real_statistic(rng, band)
            exact = angular_cov_exact(f, g, n)
            total = angular_cov_decomposed(f, g, n).total
            assert abs(total - exact) / max(1e-30, abs(exact)) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_parts_against_kernel_rows(self, n):
        # the decomposition reads the diagonals; rebuild both parts row by row
        rng = np.random.default_rng(2000 + n)
        band = 2 * n + 1
        f, g = random_real_statistic(rng, band), random_real_statistic(rng, band)
        phi = ConvolvedStatistic.from_pair(f, g)
        folded = phi.folded().real
        main = n * phi.phi0.real - math.fsum(
            kernel_c_apply_at_zero(ell, phi).real for ell in range(n))
        corr = math.fsum(kernel_c_fourier(ell, k) * folded[k] for ell in range(n)
                         for k in range(2 * n - 2 * ell - 1, 2 * ell + 2))
        out = angular_cov_decomposed(f, g, n)
        assert out.main == pytest.approx(main, rel=1e-13, abs=0.0)
        assert out.correction == pytest.approx(corr, rel=1e-13, abs=0.0)

    def test_complex_pair_rejected(self):
        f = FourierStatistic.from_dict({1: 1.0}, real=False)
        with pytest.raises(ValueError):
            angular_cov_decomposed(f, f, 4)


class TestCountVar:
    def test_full_circle_is_deterministic(self):
        assert angular_count_var(17, ArcWindow.symmetric(2.0 * math.pi)) == 0.0

    def test_single_point(self):
        # one uniform angle: Bernoulli(q) count
        arc = ArcWindow(-0.4, 1.1)
        q = arc.length / (2.0 * math.pi)
        assert angular_count_var(1, arc) == pytest.approx(q * (1 - q), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_against_planar_determinantal_oracle(self, n):
        # indicator aligned mid-cell so the angular rectangle rule is clean
        t_nodes = 256
        h = 2.0 * math.pi / t_nodes
        arc = ArcWindow(-math.pi + 40.5 * h, -math.pi + 120.5 * h)

        def ind(t):
            return ((t >= arc.alpha) & (t <= arc.beta)).astype(float)

        got = angular_count_var(n, arc)
        oracle = quad4d_cov(ind, ind, n, t_nodes=t_nodes, r_nodes=100)
        assert got == pytest.approx(oracle, rel=5e-4, abs=0.0)

    @pytest.mark.parametrize("n", [5, 50])
    def test_against_sector_gram_operator(self, n):
        # independent route: Var = sum p_j (1 - p_j) over the sector operator's spectrum
        arc = ArcWindow(-0.8, 0.45)
        var = cumulants_from_gram(gram_sector(n, arc), 2).cumulant(2)
        assert angular_count_var(n, arc) == pytest.approx(var, rel=1e-11, abs=0.0)

    def test_mesoscopic_example(self):
        got = angular_count_var(4096, ArcWindow.symmetric(math.pi / 2.0))
        assert got == pytest.approx(math.sqrt(4096) / math.pi**1.5, abs=1.0)

    def test_subcritical_window_is_poisson_like(self):
        n = 10_000
        arc = ArcWindow.symmetric(1e-3)
        mean = n * arc.length / (2.0 * math.pi)
        var = angular_count_var(n, arc)
        assert mean == pytest.approx(1.59155, abs=1e-4)
        assert var / mean == pytest.approx(1.0, abs=0.05)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(9)
        base = ArcWindow(-0.3, 0.5)
        ref = angular_count_var(64, base)
        for _ in range(10):
            shift = float(rng.uniform(-2.0, 2.0))
            arc = ArcWindow(base.alpha + shift, base.beta + shift)
            assert abs(angular_count_var(64, arc) - ref) <= 1e-10


class TestCountCov:
    def test_equal_arcs_reproduce_variance_bitwise(self):
        arc = ArcWindow(-0.9, 0.2)
        for n in (3, 64, 1024):
            assert angular_count_cov(n, arc, arc) == angular_count_var(n, arc)

    @pytest.mark.parametrize("n", [64, 512, 10240])
    def test_full_circle_has_no_covariance(self, n):
        # the full-circle count is N on every sample
        full, arc = ArcWindow(-math.pi, math.pi), ArcWindow(0.0, 1.0)
        assert angular_count_cov(n, full, arc) == 0.0
        assert angular_count_cov(n, arc, full) == 0.0

    def test_against_40_digit_sum(self):
        # the real coefficients against complex 40-digit ones over the same
        # C_d; the result is about 1/1000 of the terms that cancel to it
        n = 1024
        a1, a2 = ArcWindow.symmetric(1.3), ArcWindow(-0.4, 2.2)
        ref = angular_count_cov_mp(n, a1, a2, _row_sums(n))
        assert angular_count_cov(n, a1, a2) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_symmetry(self):
        a1, a2 = ArcWindow(-1.0, 0.1), ArcWindow(-0.2, 2.0)
        assert angular_count_cov(50, a1, a2) == pytest.approx(
            angular_count_cov(50, a2, a1), rel=1e-12, abs=0.0)

    def test_complementary_arcs_anticorrelate_exactly(self):
        # #arc1 + #arc2 = N when the arcs tile the circle
        a1, a2 = ArcWindow(-math.pi, 0.4), ArcWindow(0.4, math.pi)
        for n in (2, 7, 40):
            cov = angular_count_cov(n, a1, a2)
            assert cov == pytest.approx(-angular_count_var(n, a1), rel=1e-10, abs=0.0)

    def test_joint_rotation_invariance(self):
        rng = np.random.default_rng(33)
        a1, a2 = ArcWindow(0.0, 0.8), ArcWindow(0.3, 1.7)
        ref = angular_count_cov(128, a1, a2)
        for _ in range(10):
            shift = float(rng.uniform(-1.2, 1.2))
            got = angular_count_cov(
                128, ArcWindow(a1.alpha + shift, a1.beta + shift),
                ArcWindow(a2.alpha + shift, a2.beta + shift))
            assert abs(got - ref) <= 1e-10

    def test_shared_left_endpoint_constant(self):
        # nested arcs sharing an endpoint: + (1/2) sqrt(N / pi^3) fits the
        # exact sum (the prose candidate with pi^3 in the numerator is off
        # by a factor pi^3)
        n = 4096
        got = angular_count_cov(n, ArcWindow(0.0, 0.8), ArcWindow(0.0, 1.6))
        assert got > 0.0
        fitted = got / (0.5 * math.sqrt(n / math.pi**3))
        assert 0.95 <= fitted <= 1.1

    def test_disjoint_arcs_stay_order_one(self):
        v4096 = angular_count_cov(4096, ArcWindow(-2.0, -1.2), ArcWindow(0.5, 1.3))
        v1024 = angular_count_cov(1024, ArcWindow(-2.0, -1.2), ArcWindow(0.5, 1.3))
        assert abs(v4096) <= 0.05
        assert abs(v4096 - v1024) <= 1e-3  # no growth in N

    @pytest.mark.parametrize("n", [2, 3])
    def test_mixed_arcs_against_planar_oracle(self, n):
        t_nodes = 256
        h = 2.0 * math.pi / t_nodes
        a1 = ArcWindow(-math.pi + 30.5 * h, -math.pi + 100.5 * h)
        a2 = ArcWindow(-math.pi + 80.5 * h, -math.pi + 170.5 * h)

        def ind(arc):
            return lambda t: ((t >= arc.alpha) & (t <= arc.beta)).astype(float)

        got = angular_count_cov(n, a1, a2)
        oracle = quad4d_cov(ind(a1), ind(a2), n, t_nodes=t_nodes, r_nodes=100)
        assert got == pytest.approx(oracle, rel=5e-4, abs=1e-4)


class TestFourierFiles:
    def test_round_trip(self, tmp_path):
        f = FourierStatistic.from_dict({0: 1.5, 2: 0.5 - 0.25j, -2: 0.5 + 0.25j})
        path = tmp_path / "stat.txt"
        write_fourier_file(path, f)
        back = read_fourier_file(path)
        assert back.band == f.band
        for k in range(-2, 3):
            assert back.get(k) == pytest.approx(f.get(k), abs=1e-15)

    def test_duplicate_mode_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("1 0.5 0.0\n1 0.25 0.0\n-1 0.5 0.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_fourier_file(path)

    def test_malformed_line_names_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1.0 0.0\nnot-a-line\n")
        with pytest.raises(ValueError, match=":2:"):
            read_fourier_file(path)

    def test_symmetry_enforced_on_read(self, tmp_path):
        path = tmp_path / "asym.txt"
        path.write_text("1 1.0 0.0\n-1 0.5 0.0\n")
        with pytest.raises(ValueError):
            read_fourier_file(path, real=True)
        got = read_fourier_file(path, real=False)
        assert got.get(1) == 1.0 and got.get(-1) == 0.5

    def test_gaussian_bump_statistic_through_file(self, tmp_path):
        # smooth test function defined by decaying coefficients
        coeffs = {k: math.exp(-0.5 * k * k) for k in range(-6, 7)}
        f = FourierStatistic.from_dict(coeffs)
        path = tmp_path / "bump.txt"
        write_fourier_file(path, f)
        back = read_fourier_file(path)
        assert angular_cov_exact(back, back, 5) == pytest.approx(
            angular_cov_exact(f, f, 5), rel=1e-12, abs=0.0)
        # smooth angular variances grow like (log N / 4) sum k^2 |fhat(k)|^2;
        # check the N -> 2N increment against that slope
        v1 = angular_cov_exact(f, f, 64)
        v2 = angular_cov_exact(f, f, 128)
        slope = sum(k * k * abs(f.get(k)) ** 2 for k in range(-6, 7)) / 4.0
        assert v2 - v1 == pytest.approx(math.log(2.0) * slope, rel=0.05, abs=0.0)
