"""Tests for the Gram-operator route to counting statistics.

The cross-module identities here are the strongest checks in the suite:
the same variance must fall out of incomplete gammas (radial), the Fourier
double sum (angular), and the region operator's spectrum (this module), each
computed from different primitives.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ginfluct.angular import ArcWindow, angular_count_cov, angular_count_var
from ginfluct.dpp import (
    MAX_SECTOR_N,
    CltReport,
    CumulantSet,
    clt_certificate,
    cumulant_bound_factor,
    cumulants_from_gram,
    gram_annulus,
    gram_sector,
)
from ginfluct.radial import Ensemble, count_probabilities, radial_count_var

from oracles import (
    bernoulli_count_pmf,
    cumulants_from_pmf,
    cumulants_from_spectrum_mp,
    sector_gram_phased,
    sector_spectrum_mp,
    stirling_second_kind,
)


class TestGramAnnulus:
    def test_full_plane_is_identity(self):
        g = gram_annulus(16, 0.0, math.inf)
        np.testing.assert_allclose(g, 1.0, rtol=0.0, atol=1e-14)
        assert math.fsum(g) == pytest.approx(16.0, rel=1e-14, abs=0.0)

    def test_entries_match_radial_probabilities(self):
        n, a, b = 64, 0.4, 0.8
        g = gram_annulus(n, a, b)
        p = count_probabilities(n, a, b)
        np.testing.assert_allclose(g, p, rtol=0.0, atol=1e-12)

    def test_variance_identity_with_radial_module(self):
        n, a, b = 256, 0.4, 0.8
        cs = cumulants_from_gram(gram_annulus(n, a, b), 2)
        assert cs.cumulant(2) == pytest.approx(radial_count_var(n, a, b), abs=1e-10)

    def test_pruned_sums_keep_the_variance(self):
        # most of the 4096 terms are far below 2^-60 sum|t| / N and skipped
        cs = cumulants_from_gram(gram_annulus(4096, 0.4, 0.8), 12)
        assert cs.cumulant(2) == pytest.approx(radial_count_var(4096, 0.4, 0.8),
                                               rel=1e-12, abs=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            gram_annulus(0, 0.1, 0.2)
        with pytest.raises(ValueError):
            gram_annulus(4, 0.5, 0.2)
        with pytest.raises(ValueError):
            gram_annulus(4, math.nan, 0.2)

    def test_diagonal_entries_are_probabilities(self):
        g = gram_annulus(20, 0.5, 0.9)
        assert g.min() >= 0.0 and g.max() <= 1.0


class TestGramSector:
    def test_full_circle_is_identity(self):
        g = gram_sector(12, ArcWindow(-math.pi, math.pi))
        np.testing.assert_array_equal(g, np.eye(12))

    def test_trace_counts_mean(self):
        arc = ArcWindow(-0.4, 1.0)
        g = gram_sector(40, arc)
        assert math.fsum(np.diagonal(g).real) == pytest.approx(
            40.0 * arc.length / (2.0 * math.pi), rel=1e-12, abs=0.0)

    def test_real_symmetric(self):
        r = gram_sector(24, ArcWindow(-1.2, 0.3))
        assert r.dtype == np.float64
        assert np.array_equal(r, r.T)
        # in the basis rotated to the midpoint only the arc's length enters
        assert np.array_equal(gram_sector(24, ArcWindow(-1.0, 0.5)),
                              gram_sector(24, ArcWindow(0.5, 2.0)))

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("alpha,beta", [(-1.2, 0.3), (0.5, 2.5), (-3.0, 3.1)])
    def test_rotates_to_phased_monomial_matrix(self, n, alpha, beta):
        # D R D* with D = diag(e^{-i l c}), c the arc's midpoint, is the complex
        # Hermitian matrix of the monomial basis, whose angular factor carries
        # the arc's phase
        r = gram_sector(n, ArcWindow(alpha, beta))
        phase = np.exp(-1j * np.arange(n) * (0.5 * (alpha + beta)))
        ref = sector_gram_phased(n, alpha, beta)
        np.testing.assert_allclose(phase[:, None] * r * np.conj(phase)[None, :], ref,
                                   rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(np.linalg.eigvalsh(r), np.linalg.eigvalsh(ref),
                                   rtol=0.0, atol=1e-13)

    def test_size_cap_before_allocation(self):
        # N = 4097 would hold 134 MB of entries: refused before any of them
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=str(MAX_SECTOR_N)):
                gram_sector(MAX_SECTOR_N + 1, ArcWindow.symmetric(1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_variance_identity_with_angular_module(self):
        n = 128
        arc = ArcWindow.symmetric(math.pi / 2.0)
        cs = cumulants_from_gram(gram_sector(n, arc), 2)
        assert cs.cumulant(2) == pytest.approx(angular_count_var(n, arc), rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_spectrum_in_unit_interval(self, n):
        ev = np.linalg.eigvalsh(gram_sector(n, ArcWindow(-0.9, 0.7)))
        assert ev.min() >= -1e-10
        assert ev.max() <= 1.0 + 1e-10

    def test_cluster_integrals_match_dense_linear_algebra(self):
        # U_k = (-1)^{k-1} (k-1)! Tr G^k, with the trace from matrix powers
        g = gram_sector(10, ArcWindow(-0.5, 1.5))
        cs = cumulants_from_gram(g, 4)
        m = np.eye(10, dtype=complex)
        for k in range(1, 5):
            m = m @ g
            ref = (-1.0) ** (k - 1) * math.factorial(k - 1) * float(np.trace(m).real)
            assert cs.cluster(k) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_single_point_sector(self):
        arc = ArcWindow(-0.2, 0.9)
        g = gram_sector(1, arc)
        assert g[0, 0] == pytest.approx(arc.length / (2.0 * math.pi), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [16, 64, 200])
    @pytest.mark.parametrize("arc1,arc2", [
        (ArcWindow(0.3, 1.1), ArcWindow(-2.0, 2.5)),      # nested
        (ArcWindow(-0.01, 0.02), ArcWindow(-0.5, 1.5)),   # tiny arc inside
        (ArcWindow(-1.0, 0.4), ArcWindow(0.1, 2.9)),      # overlapping ends
        (ArcWindow(-3.0, -1.0), ArcWindow(0.2, 0.9)),     # disjoint
    ])
    def test_pair_covariance_matches_angular_module(self, n, arc1, arc2):
        # Cov(#A, #B) = N |A n B|/2pi - Tr(G_A G_B) depends on where the arcs
        # sit, not only on their spectra.  Each R is centered on its arc's
        # midpoint c, so the trace takes the relative rotation delta = c_A - c_B:
        # Tr(G_A G_B) = sum R_A o R_B^T o cos((l - m) delta)
        ra, rb = gram_sector(n, arc1), gram_sector(n, arc2)
        delta = 0.5 * (arc1.alpha + arc1.beta) - 0.5 * (arc2.alpha + arc2.beta)
        lag = np.subtract.outer(np.arange(n), np.arange(n))
        overlap = max(0.0, min(arc1.beta, arc2.beta) - max(arc1.alpha, arc2.alpha))
        cov = n * overlap / (2.0 * math.pi) - float(np.sum(ra * rb.T * np.cos(lag * delta)))
        assert cov == pytest.approx(angular_count_cov(n, arc1, arc2), rel=1e-10, abs=0.0)


class TestQuaternionProbabilities:
    def test_variance_identity(self):
        n, a, b = 256, 0.4, 0.8
        cs = cumulants_from_gram(count_probabilities(n, a, b, Ensemble.QUATERNION), 2)
        ref = radial_count_var(n, a, b, Ensemble.QUATERNION)
        assert cs.cumulant(2) == pytest.approx(ref, abs=1e-12)


class TestCumulants:
    def test_order_validation(self):
        with pytest.raises(ValueError):
            cumulants_from_gram([0.5], 0)
        with pytest.raises(ValueError):
            cumulants_from_gram([0.5], 13)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            cumulants_from_gram([], 2)
        with pytest.raises(ValueError):
            cumulants_from_gram([-0.1, 0.5], 2)
        with pytest.raises(ValueError):
            cumulants_from_gram([0.5, 1.2], 2)
        with pytest.raises(ValueError):
            cumulants_from_gram([0.5, math.nan], 2)

    def test_low_order_identities(self):
        p = np.array([0.1, 0.35, 0.8, 0.99])
        cs = cumulants_from_gram(p, 4)
        assert cs.cumulant(1) == pytest.approx(float(p.sum()), rel=1e-14, abs=0.0)
        assert cs.cumulant(2) == pytest.approx(float((p * (1 - p)).sum()), rel=1e-13, abs=0.0)
        assert cs.cumulant(3) == pytest.approx(
            float((p * (1 - p) * (1 - 2 * p)).sum()), rel=1e-12, abs=0.0)
        assert cs.cumulant(4) == pytest.approx(
            float((p * (1 - p) * (1 - 6 * p + 6 * p * p)).sum()), rel=1e-11, abs=0.0)

    def test_symmetric_bernoulli_has_no_skew(self):
        cs = cumulants_from_gram([0.5], 3)
        assert cs.cumulant(3) == pytest.approx(0.0, abs=1e-15)

    def test_simple_variance_example(self):
        cs = cumulants_from_gram([0.2, 0.7], 2)
        assert cs.cumulant(2) == pytest.approx(0.37, rel=1e-13, abs=0.0)

    def test_against_exact_enumeration(self):
        # brute-force pmf of the Bernoulli sum, then moments -> cumulants
        rng = np.random.default_rng(71)
        for _ in range(5):
            n = int(rng.integers(2, 11))
            p = rng.random(n)
            cs = cumulants_from_gram(p, 6)
            ref = cumulants_from_pmf(bernoulli_count_pmf(p), 6)
            for order in range(1, 7):
                assert cs.cumulant(order) == pytest.approx(
                    ref[order - 1], rel=1e-9, abs=1e-10)

    def test_cluster_integral_signs(self):
        cs = cumulants_from_gram([0.3, 0.6, 0.9], 5)
        for k in range(1, 6):
            sign = (-1.0) ** (k - 1)
            assert sign * cs.cluster(k) >= 0.0

    def test_dense_route_agrees_on_diagonal_matrices(self):
        # a matrix operator goes through its eigenvalues, which here are p
        p = np.array([0.15, 0.4, 0.85, 0.6])
        a = cumulants_from_gram(np.diag(p).astype(complex), 6)
        b = cumulants_from_gram(p, 6)
        for order in range(1, 7):
            assert a.cumulant(order) == pytest.approx(b.cumulant(order), rel=1e-12, abs=0.0)

    def test_bad_shape_rejected(self):
        # neither a diagonal nor a square matrix: 2 x 3, 3-d, and a scalar
        for g in (np.full((2, 3), 0.5), np.full((2, 2, 2), 0.5), 0.5):
            with pytest.raises(ValueError):
                cumulants_from_gram(g, 2)

    def test_sector_low_orders_match_angular_module(self):
        n = 96
        arc = ArcWindow.symmetric(1.1)
        cs = cumulants_from_gram(gram_sector(n, arc), 2)
        assert cs.cumulant(1) == pytest.approx(
            n * arc.length / (2.0 * math.pi), rel=1e-12, abs=0.0)
        assert cs.cumulant(2) == pytest.approx(angular_count_var(n, arc), rel=1e-9, abs=0.0)

    def test_out_of_range_order_lookup(self):
        cs = cumulants_from_gram([0.5], 3)
        with pytest.raises(ValueError):
            cs.cumulant(4)
        with pytest.raises(ValueError):
            cs.cluster(0)

    @pytest.mark.parametrize("maker", [
        lambda: gram_annulus(48, 0.5, 0.9),
        lambda: gram_sector(48, ArcWindow.symmetric(1.3)),
    ])
    def test_trace_power_deficit_bounds(self, maker):
        # 0 <= Tr(G - G^l) <= (l-1) Tr(G - G^2) for projections' restrictions
        g = maker()
        ev = g if g.ndim == 1 else np.linalg.eigvalsh(g)
        traces = [math.fsum(ev ** k) for k in range(1, 7)]
        t1 = traces[0]
        var = t1 - traces[1]
        for ell in range(3, 7):
            deficit = t1 - traces[ell - 1]
            assert -1e-12 <= deficit <= (ell - 1) * var + 1e-12


class TestExtendedPrecisionReference:
    """All orders against 50-digit Stirling recombination of power sums.

    The sector reference diagonalizes its own mpmath Gram matrix; the annulus
    reference takes the float64 probabilities, so both sides see one input.
    """

    @staticmethod
    def _assert_close(cs, ref):
        scale = ref[1]
        for order in range(1, 13):
            err = abs(cs.cumulant(order) - ref[order - 1])
            assert err <= 1e-10 * max(abs(ref[order - 1]), scale), order

    @pytest.mark.parametrize("n,arc", [(24, ArcWindow.symmetric(1.1)),
                                       (32, ArcWindow(-2.0, 0.3))])
    def test_sector(self, n, arc):
        cs = cumulants_from_gram(gram_sector(n, arc), 12)
        ref = cumulants_from_spectrum_mp(sector_spectrum_mp(n, arc.alpha, arc.beta), 12)
        self._assert_close(cs, ref)

    @pytest.mark.parametrize("n,a,b", [(64, 0.4, 0.8), (300, 0.5, 0.9)])
    def test_annulus(self, n, a, b):
        g = gram_annulus(n, a, b)
        cs = cumulants_from_gram(g, 12)
        self._assert_close(cs, cumulants_from_spectrum_mp(g, 12))


class TestCltCertificate:
    def test_deterministic_count_rejected(self):
        cs = cumulants_from_gram([1.0, 1.0], 4)
        with pytest.raises(ValueError):
            clt_certificate(cs)

    def test_annulus_example(self):
        cs = cumulants_from_gram(gram_annulus(1024, 0.4, 0.8), 4)
        rep = clt_certificate(cs)
        assert isinstance(rep, CltReport)
        assert abs(rep.normalized[0]) <= 0.1  # |C_3| / C_2^{3/2}
        assert rep.certified

    def test_sector_normalized_cumulants_decrease_in_n(self):
        vals3, vals4 = [], []
        for n in (64, 128, 256):
            cs = cumulants_from_gram(gram_sector(n, ArcWindow.symmetric(math.pi / 2)), 4)
            rep = clt_certificate(cs)
            vals3.append(abs(rep.normalized[0]))
            vals4.append(abs(rep.normalized[1]))
        assert vals3[0] > vals3[1] > vals3[2]
        assert vals4[0] > vals4[1] > vals4[2]

    def test_bound_witness_is_below_one(self):
        for cs in (
            cumulants_from_gram(gram_annulus(256, 0.4, 0.8), 6),
            cumulants_from_gram(gram_sector(96, ArcWindow.symmetric(1.0)), 6),
            cumulants_from_gram(np.linspace(0.05, 0.95, 17), 6),
        ):
            rep = clt_certificate(cs)
            assert 0.0 < rep.bound_witness <= 1.0

    def test_tolerance_controls_certification(self):
        cs = cumulants_from_gram([0.02, 0.03, 0.05], 3)  # very skewed
        strict = clt_certificate(cs, tolerance=1e-3)
        loose = clt_certificate(cs, tolerance=10.0)
        assert not strict.certified
        assert loose.certified
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                clt_certificate(cs, tolerance=bad)

    def test_bound_factor_values(self):
        # B_2 = 1, B_3 = S(3,2) 1! 1 + S(3,3) 2! 2 = 3 + 4 = 7
        assert cumulant_bound_factor(2) == 1.0
        assert cumulant_bound_factor(3) == 7.0
        for n in range(2, 13):
            ref = sum(stirling_second_kind(n, k) * math.factorial(k - 1) * (k - 1)
                      for k in range(2, n + 1))
            assert cumulant_bound_factor(n) == float(ref)
        with pytest.raises(ValueError):
            cumulant_bound_factor(13)
