"""Tests for the Monte Carlo samplers, estimators, and persistence layer.

Sampler-vs-exact comparisons use a 3-standard-error budget and fixed seeds,
so they are deterministic; a failure means a real defect in one leg of the
triangle (sampler, estimator, or exact formula), not an unlucky draw.
"""

import math
import struct

import numpy as np
import pytest

from ginfluct.angular import FourierStatistic, angular_cov_exact
from ginfluct.mc import (
    GENERATOR_NAME,
    MAX_MATRIX_N,
    KsResult,
    RngStream,
    SampleBatch,
    eig_dense,
    estimate_cov,
    estimate_mean,
    ks_normal_test,
    load_batch,
    normalized_count_samples,
    sample_ginibre_eigenvalues,
    sample_radial_moduli,
    save_batch,
    save_batch_csv,
)
from ginfluct.radial import (
    Ensemble,
    RadialTestFunction,
    radial_cov_exact,
    radial_mean_exact,
)

from oracles import eig_via_charpoly


class TestRngStream:
    def test_identical_pairs_reproduce_bitwise(self):
        a = RngStream(123, 4).generator().standard_gamma(2.5, size=1000)
        b = RngStream(123, 4).generator().standard_gamma(2.5, size=1000)
        assert a.tobytes() == b.tobytes()

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).generator().random(100)
        b = RngStream(123, 1).generator().random(100)
        assert not np.array_equal(a, b)

    def test_generator_is_counter_based(self):
        gen = RngStream(0, 0).generator()
        assert type(gen.bit_generator).__name__.lower() in GENERATOR_NAME


class TestRadialSampler:
    def test_validation(self):
        with pytest.raises(ValueError):
            sample_radial_moduli(0, Ensemble.COMPLEX, RngStream(1))

    def test_shapes(self):
        r = sample_radial_moduli(7, Ensemble.COMPLEX, RngStream(1))
        assert r.shape == (7,)
        r = sample_radial_moduli(7, Ensemble.COMPLEX, RngStream(1), size=5)
        assert r.shape == (5, 7)

    def test_mean_of_squared_radius_sum(self):
        r = sample_radial_moduli(50, Ensemble.COMPLEX, RngStream(2026, 1),
                                 size=100_000)
        vals = (r * r).sum(axis=1)
        mean, se = estimate_mean(vals)
        assert abs(mean - 25.5) <= 3.0 * se

    def test_variance_of_squared_radius_sum(self):
        f = RadialTestFunction.poly([0.0, 0.0, 1.0])
        exact = radial_cov_exact(f, f, 10)
        assert exact == pytest.approx(0.55, rel=1e-12, abs=0.0)
        r = sample_radial_moduli(10, Ensemble.COMPLEX, RngStream(2026, 2),
                                 size=100_000)
        var, se = estimate_cov((r * r).sum(axis=1), (r * r).sum(axis=1))
        assert abs(var - exact) <= 3.0 * se

    def test_quaternion_mean(self):
        r = sample_radial_moduli(50, Ensemble.QUATERNION, RngStream(2026, 3),
                                 size=100_000)
        mean, se = estimate_mean((r * r).sum(axis=1))
        assert abs(mean - 25.5) <= 3.0 * se

    def test_chunked_path_matches_stream_contract(self):
        # the chunk rule fixes generator consumption, so a second run with the
        # same stream must reproduce the block exactly
        a = sample_radial_moduli(32, Ensemble.COMPLEX, RngStream(9, 9), size=300)
        b = sample_radial_moduli(32, Ensemble.COMPLEX, RngStream(9, 9), size=300)
        assert a.tobytes() == b.tobytes()


class TestMatrixSampler:
    def test_validation(self):
        with pytest.raises(ValueError):
            sample_ginibre_eigenvalues(0, RngStream(1))
        with pytest.raises(ValueError):
            sample_ginibre_eigenvalues(MAX_MATRIX_N + 1, RngStream(1))

    def test_single_entry_matrix(self):
        lam = sample_ginibre_eigenvalues(1, RngStream(5, 0))
        gen = RngStream(5, 0).generator()
        z = gen.standard_normal((1, 1)) + 1j * gen.standard_normal((1, 1))
        assert lam[0] == z[0, 0] / math.sqrt(2.0)

    def test_entry_second_moment(self):
        # E|A_ij|^2 = 1/N: at N = 1 the eigenvalue is the entry itself
        lam = sample_ginibre_eigenvalues(1, RngStream(6, 0), size=30_000)
        mean, se = estimate_mean(np.abs(lam[:, 0]) ** 2)
        assert abs(mean - 1.0) <= 3.0 * se

    def test_eigenvalue_sum_is_trace(self):
        n = 24
        lam = sample_ginibre_eigenvalues(n, RngStream(7, 0), size=10)
        gen = RngStream(7, 0).generator()
        sig = 1.0 / math.sqrt(2.0 * n)
        for r in range(10):
            z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
            assert abs(lam[r].sum() - sig * np.trace(z)) <= 1e-10 * n

    def test_count_mean_against_radial_module(self):
        n, reps = 64, 20_000
        lam = sample_ginibre_eigenvalues(n, RngStream(2026, 8), size=reps)
        mod = np.abs(lam)
        counts = np.count_nonzero((mod >= 0.4) & (mod < 0.8), axis=1)
        exact = radial_mean_exact(RadialTestFunction.indicator(0.4, 0.8), n)
        mean, se = estimate_mean(counts)
        assert abs(mean - exact) <= 3.0 * se

    def test_determinism(self):
        a = sample_ginibre_eigenvalues(8, RngStream(11, 2), size=4)
        b = sample_ginibre_eigenvalues(8, RngStream(11, 2), size=4)
        assert a.tobytes() == b.tobytes()


class TestEigDense:
    def test_validation(self):
        with pytest.raises(ValueError):
            eig_dense(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            eig_dense(np.array([[math.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            eig_dense(np.eye(MAX_MATRIX_N + 1))

    def test_diagonal_matrix(self):
        d = np.array([3.0, -1.0, 2.5, 0.0])
        lam = eig_dense(np.diag(d))
        assert np.allclose(np.sort_complex(lam), np.sort_complex(d), atol=1e-12)

    def test_companion_cube_roots_of_unity(self):
        comp = np.array([[0.0, 0.0, 1.0],
                         [1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0]])
        lam = np.sort_complex(eig_dense(comp))
        roots = np.sort_complex(np.exp(2j * math.pi * np.arange(3) / 3.0))
        assert np.allclose(lam, roots, atol=1e-10)

    def test_random_8x8_against_charpoly_roots(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        lam = np.array(sorted(eig_dense(a),
                              key=lambda z: (z.real, z.imag)))
        ref = np.array(sorted(eig_via_charpoly(a),
                              key=lambda z: (z.real, z.imag)))
        assert np.max(np.abs(lam - ref)) <= 1e-8

    def test_trace_contract_fires(self, monkeypatch):
        # a LAPACK result shifted off the true spectrum must be refused
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: eigvals(m) + 1e-6)
        rng = np.random.default_rng(33)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        with pytest.raises(RuntimeError, match="trace contract"):
            eig_dense(a)
        with pytest.raises(RuntimeError, match=r"seed=5, stream=3\)"):
            sample_ginibre_eigenvalues(6, RngStream(5, 3), size=2)

    def test_empty_matrix(self):
        assert eig_dense(np.empty((0, 0))).shape == (0,)


class TestEstimators:
    def test_mean_validation(self):
        with pytest.raises(ValueError):
            estimate_mean([1.0])

    def test_cov_validation(self):
        with pytest.raises(ValueError):
            estimate_cov([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            estimate_cov([1.0], [1.0])

    def test_constants_give_zero(self):
        cov, se = estimate_cov([2.0] * 10, [5.0] * 10)
        assert cov == 0.0 and se == 0.0

    def test_self_cov_is_sample_variance(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(500)
        cov, _ = estimate_cov(v, v)
        assert cov == pytest.approx(float(np.var(v, ddof=1)), rel=1e-12, abs=0.0)

    def test_jackknife_matches_direct_leave_one_out(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal(40)
        g = f + 0.5 * rng.standard_normal(40)
        _, se = estimate_cov(f, g)
        s = len(f)
        loo = np.array([
            float(np.cov(np.delete(f, i), np.delete(g, i), ddof=1)[0, 1])
            for i in range(s)])
        ref = math.sqrt((s - 1) / s * np.sum((loo - loo.mean()) ** 2))
        assert se == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_angular_cov_triangle(self):
        n, reps = 32, 20_000
        f = FourierStatistic.cosine(1, amplitude=2.0)
        exact = angular_cov_exact(f, f, n)
        lam = sample_ginibre_eigenvalues(n, RngStream(2026, 9), size=reps)
        theta = np.angle(lam)
        vals = 2.0 * np.cos(theta).sum(axis=1)
        cov, se = estimate_cov(vals, vals)
        assert abs(cov - exact) <= 3.0 * se


class TestKsTest:
    def test_validation(self):
        with pytest.raises(ValueError):
            ks_normal_test(np.zeros(99))
        with pytest.raises(ValueError):
            ks_normal_test(np.full(200, 8.0))   # no spread to studentize

    def test_threshold_field(self):
        res = ks_normal_test(RngStream(3).generator().standard_normal(400))
        assert isinstance(res, KsResult)
        assert res.threshold == pytest.approx(1.63 / 20.0)
        assert res.size == 400

    def test_calibration_over_seeds(self):
        passes = 0
        for seed in range(50):
            x = RngStream(seed, 0).generator().standard_normal(10_000)
            if ks_normal_test(x).passed:
                passes += 1
        assert passes >= 49

    def test_uniform_samples_fail(self):
        # studentized uniform sits a fixed ~0.0595 from the normal, several
        # thresholds away at this sample size
        x = RngStream(4).generator().random(10_000)
        res = ks_normal_test(x)
        assert res.statistic > 3.0 * res.threshold
        assert not res.passed

    def test_normalized_counts_pass(self):
        z = normalized_count_samples(1000, 0.5, 0.9, Ensemble.COMPLEX,
                                     RngStream(2026, 10), size=10_000)
        assert ks_normal_test(z).passed

    def test_normalized_counts_validation(self):
        with pytest.raises(ValueError):
            normalized_count_samples(10, 0.5, 0.9, Ensemble.COMPLEX,
                                     RngStream(1), size=0)
        with pytest.raises(ValueError):
            # degenerate window: zero variance
            normalized_count_samples(10, 0.7, 0.7, Ensemble.COMPLEX,
                                     RngStream(1), size=100)

    def test_jitter_comes_after_counts(self):
        # with jitter off the counts are integers, and the two runs share the
        # count-generation prefix of the stream
        z_raw = normalized_count_samples(50, 0.5, 0.9, Ensemble.COMPLEX,
                                         RngStream(8, 1), size=500, jitter=False)
        z_jit = normalized_count_samples(50, 0.5, 0.9, Ensemble.COMPLEX,
                                         RngStream(8, 1), size=500, jitter=True)
        from ginfluct.radial import count_probabilities, radial_count_var
        p = count_probabilities(50, 0.5, 0.9)
        sd = math.sqrt(radial_count_var(50, 0.5, 0.9))
        counts = z_raw * sd + float(np.sum(p))
        assert np.allclose(counts, np.round(counts), atol=1e-9)
        assert np.max(np.abs(z_jit - z_raw) * sd) <= 0.5 + 1e-9

    @pytest.mark.parametrize("n", [100, 1000])
    def test_smooth_statistic_clt(self, n):
        r = sample_radial_moduli(n, Ensemble.COMPLEX, RngStream(2026, 11),
                                 size=10_000)
        vals = (r * r).sum(axis=1)
        assert ks_normal_test(vals).passed
        var, se = estimate_cov(vals, vals)
        assert abs(var - 0.5) <= 3.0 * se + (0.5 / n)  # finite-N mean (N+1)/2N


class TestPersistence:
    def make_batch(self):
        vals = RngStream(21, 0).generator().standard_normal(257)
        return SampleBatch(n=17, ensemble=Ensemble.QUATERNION, seed=21,
                           values=vals, statistic="test")

    def test_round_trip(self, tmp_path):
        batch = self.make_batch()
        path = tmp_path / "batch.gfsb"
        save_batch(batch, path)
        back = load_batch(path)
        assert back.n == 17
        assert back.ensemble is Ensemble.QUATERNION
        assert back.seed == 21
        assert back.size == 257
        assert back.values.tobytes() == np.asarray(batch.values).tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gfsb"
        save_batch(self.make_batch(), path)
        raw = bytearray(path.read_bytes())
        raw[0] = 0x58
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            load_batch(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.gfsb"
        path.write_bytes(b"GFSB\x01")
        with pytest.raises(ValueError, match="truncated"):
            load_batch(path)

    def test_short_data(self, tmp_path):
        path = tmp_path / "short.gfsb"
        save_batch(self.make_batch(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="short"):
            load_batch(path)

    def test_round_trip_keeps_stream_and_statistic(self, tmp_path):
        vals = RngStream(21, 5).generator().standard_normal(64)
        batch = SampleBatch(n=17, ensemble=Ensemble.COMPLEX, seed=21, values=vals,
                            stream=5, statistic="ind-mod:0.3,0.8", sampler="matrix")
        save_batch(batch, tmp_path / "batch.gfsb")
        back = load_batch(tmp_path / "batch.gfsb")
        assert (back.seed, back.stream) == (21, 5)
        assert (back.statistic, back.sampler) == ("ind-mod:0.3,0.8", "matrix")
        assert back.values.tobytes() == vals.tobytes()
        save_batch_csv(batch, tmp_path / "batch.csv")
        header = (tmp_path / "batch.csv").read_text().splitlines()[0].split()
        assert "stream=5" in header and "statistic=ind-mod:0.3,0.8" in header
        assert "sampler=matrix" in header

    def test_unknown_sampler_is_refused(self, tmp_path):
        batch = SampleBatch(n=4, ensemble=Ensemble.COMPLEX, seed=1, values=np.zeros(3),
                            sampler="auto")
        with pytest.raises(ValueError, match="sampler"):
            save_batch(batch, tmp_path / "batch.gfsb")

    def test_version_2_file_is_refused(self, tmp_path):
        # the version-2 header: magic, version, N, ensemble, seed, stream, S
        path = tmp_path / "v2.gfsb"
        path.write_bytes(struct.pack("<4sIQBQQQ", b"GFSB", 2, 8, 0, 1, 0, 2)
                         + np.zeros(2).tobytes())
        with pytest.raises(ValueError, match="unsupported format version 2"):
            load_batch(path)

    def test_truncated_statistic(self, tmp_path):
        path = tmp_path / "batch.gfsb"
        save_batch(self.make_batch(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 8 * 257 - 2])
        with pytest.raises(ValueError, match="truncated"):
            load_batch(path)

    def test_csv_header_and_exact_values(self, tmp_path):
        batch = self.make_batch()
        path = tmp_path / "batch.csv"
        save_batch_csv(batch, path)
        lines = path.read_text().splitlines()
        assert "n=17" in lines[0] and "seed=21" in lines[0]
        assert GENERATOR_NAME in lines[0]
        assert lines[1] == "index,value"
        # repr round-trips doubles exactly
        for i, line in enumerate(lines[2:]):
            idx, val = line.split(",")
            assert int(idx) == i
            assert float(val) == batch.values[i]
