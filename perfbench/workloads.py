"""The four workloads as op lists.

An op is one call into a public ginfluct function (or one command-line
invocation) plus a check of its result.  Each workload draws window
endpoints, arc lengths, lambda values, the order of N within each grid and
Monte Carlo stream keys from the seed, inside fixed ranges; the N grids
themselves are fixed so that different seeds cost about the same.

Checks compare independent routes where the package has two, and bounds
every count obeys (0 < Var <= mean, Cauchy-Schwarz) where it has one.  A
gauge value is a residual over its tolerance (or |z| for Monte Carlo) and an
op fails above 1 (or 5).  A check may read the results of earlier ops of the
same pass.

Layer functions are looked up through their module at call time, so the
wrappers a traced run installs are the ones called.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

Z_LIMIT = 5.0          # |z| a correct sampler exceeds with negligible probability
CROSS_ROUTE_TOL = 1e-8  # criterion 08's relative gap between exact and Gram routes
CLI_TIMEOUT_S = 120.0
EXIT_CODE_MISMATCH = "unexpected exit code"


def _no_check(value, done):
    return []


@dataclass
class Op:
    key: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], list] = _no_check


@dataclass
class Context:
    run_dir: Path                       # temporary files of this run
    cli: list[str] = field(default_factory=list)   # command prefix for cli-cold
    env: dict | None = None
    cli_records: list = field(default_factory=list)  # (wall_s, timing_seconds or None)


def rel_gap(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def close(layer: str, got: float, want: float, tol: float) -> tuple[str, float, float]:
    """Gauge entry: relative gap over tolerance, failing above 1."""
    return (f"{layer}.check_over_tol", rel_gap(got, want) / tol, 1.0)


def z_entry(est: float, se: float, exact: float) -> tuple[str, float, float]:
    z = abs(est - exact) / se if se > 0.0 else math.inf
    return ("mc.max_abs_z", z, Z_LIMIT)


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _square(r):
    return r * r


# ---------------------------------------------------------------------------
# exact-radial
# ---------------------------------------------------------------------------

def exact_radial(rng: random.Random, ctx: Context) -> list[Op]:
    from ginfluct import asymptotics as A
    from ginfluct import dpp as D
    from ginfluct import radial as R

    C, Q = R.Ensemble.COMPLEX, R.Ensemble.QUATERNION
    r2 = R.RadialTestFunction.poly([0.0, 0.0, 1.0])
    r2_fn = R.RadialTestFunction.from_callable(_square, r_max=4.0)
    ops: list[Op] = []

    # callable r^2 against the polynomial moment route
    for n in _shuffled(rng, (8, 16, 24)):
        ops.append(Op(f"cov.poly.N{n}", lambda d, n=n: R.radial_cov_exact(r2, r2, n)))
        ops.append(Op(f"cov.callable.N{n}",
                      lambda d, n=n: R.radial_cov_exact(r2_fn, r2_fn, n),
                      lambda v, d, n=n: [close("radial", v, d[f"cov.poly.N{n}"], 1e-10)]))

    # callable x indicator against polynomial x indicator
    ind = R.RadialTestFunction.indicator(rng.uniform(0.38, 0.42), rng.uniform(0.88, 0.92))
    for n in _shuffled(rng, (8, 16)):
        ops.append(Op(f"covx.poly.N{n}", lambda d, n=n: R.radial_cov_exact(r2, ind, n)))
        ops.append(Op(f"covx.callable.N{n}",
                      lambda d, n=n: R.radial_cov_exact(r2_fn, ind, n),
                      lambda v, d, n=n: [close("radial", v, d[f"covx.poly.N{n}"], 1e-10)]))

    # log-MGF of r^2 against -N(N+1)/2 log(1 - lam/N)
    for n in _shuffled(rng, (8, 16, 24)):
        lam = rng.uniform(0.28, 0.32)
        closed = -0.5 * n * (n + 1) * math.log1p(-lam / n)
        ops.append(Op(f"mgf.N{n}", lambda d, n=n, lam=lam: R.radial_log_mgf(r2, lam, n),
                      lambda v, d, closed=closed: [close("radial", v, closed, 1e-10)]))

    # indicator covariance, per-factor route against the count-probability route
    w1 = (rng.uniform(0.28, 0.32), rng.uniform(0.68, 0.72))
    w2 = (rng.uniform(0.58, 0.62), rng.uniform(0.98, 1.02))
    i1, i2 = R.RadialTestFunction.indicator(*w1), R.RadialTestFunction.indicator(*w2)
    ops.append(Op("icov.N256", lambda d: R.radial_cov_exact(i1, i2, 256)))
    ops.append(Op("ccov.N256", lambda d: R.radial_count_cov(256, w1, w2),
                  lambda v, d: [close("radial", v, d["icov.N256"], 1e-10)]))

    # count variances over an N grid, both ensembles; the complex one against
    # the annulus cumulants of the diagonal Gram route, the quaternion one
    # against the per-factor indicator covariance.  The op counts put the
    # median op inside the group of four ~10 ms ops at N=512, so that noise
    # reorders ops of like cost rather than moving op_p50_ms across a gap.
    a, b = rng.uniform(0.38, 0.42), rng.uniform(0.78, 0.82)
    ind_w = R.RadialTestFunction.indicator(a, b)
    for i, n in enumerate(_shuffled(rng, (64, 128, 256, 512, 1024))):
        n_max = (4, 8, 12)[i % 3]
        ops.append(Op(f"cvar.c.N{n}", lambda d, n=n: R.radial_count_var(n, a, b, C)))
        ops.append(Op(f"cmean.c.N{n}",
                      lambda d, n=n: float(R.count_probabilities(n, a, b, C).sum())))
        ops.append(Op(f"annulus.N{n}",
                      lambda d, n=n, k=n_max: D.cumulants_from_gram(D.gram_annulus(n, a, b), k).c,
                      lambda v, d, n=n: [close("dpp", v[0], d[f"cmean.c.N{n}"], 1e-10),
                                         close("dpp", v[1], d[f"cvar.c.N{n}"], 1e-10)]))
        if n == 64:
            continue
        ops.append(Op(f"cvar.q.N{n}", lambda d, n=n: R.radial_count_var(n, a, b, Q)))
        ops.append(Op(f"icov.q.N{n}", lambda d, n=n: R.radial_cov_exact(ind_w, ind_w, n, Q),
                      lambda v, d, n=n: [close("radial", v, d[f"cvar.q.N{n}"], 1e-10)]))

    # radial regime table in the critical window (calls i_mod)
    ra = rng.uniform(0.48, 0.52)
    rb = ra + rng.uniform(0.04, 0.06)
    for n in (64, 512, 4096):
        ops.append(Op(f"regime.radial.N{n}",
                      lambda d, n=n: _regime_row(A.count_var_prediction(n, (ra, rb), "radial")),
                      _regime_check))
    return ops


def _regime_row(rep) -> tuple:
    return (rep.regime, rep.x, rep.predicted, rep.exact)


def _regime_check(v, d):
    regime, _x, predicted, exact = v
    if regime != "critical" or not predicted > 0.0 or not exact > 0.0:
        raise AssertionError(f"regime row out of range: {v}")
    return []


# ---------------------------------------------------------------------------
# exact-angular
# ---------------------------------------------------------------------------

def exact_angular(rng: random.Random, ctx: Context) -> list[Op]:
    from ginfluct import angular as G
    from ginfluct import asymptotics as A
    from ginfluct import dpp as D

    def arc(lo, hi):
        length = rng.uniform(lo, hi)
        alpha = rng.uniform(-math.pi, math.pi - length)
        return G.ArcWindow(alpha=alpha, beta=alpha + length)

    arc1, arc2, arc3 = arc(0.5, 2.5), arc(0.5, 2.5), arc(0.5, 2.5)
    extra_cov = [(arc(0.5, 2.5), arc(0.5, 2.5)) for _ in range(3)]
    extra_var = [arc(0.5, 2.5) for _ in range(2)]
    ops: list[Op] = []

    # six distinct N, more than the four the row-sum cache keeps: each N is
    # computed once new, then reused at once and again after the next N is
    # new (an LRU cache of four hits on both).  The extra ops at the largest
    # N set the op counts: 45 ops put the 90th percentile mid-way through an
    # op's copies, and as many ops above as below the group of five ~2 ms
    # ops put the median inside that group, not on a gap between costs.
    prev = None
    grid = (1024, 2048, 3072, 4096, 6144, 10240)
    for n in _shuffled(rng, grid):
        ops.append(Op(f"count.var1.N{n}", lambda d, n=n: G.angular_count_var(n, arc1),
                      lambda v, d, n=n: _var_bounds(v, n, arc1)))
        ops.append(Op(f"count.var3.N{n}", lambda d, n=n: G.angular_count_var(n, arc3),
                      lambda v, d, n=n: _var_bounds(v, n, arc3)))
        ops.append(Op(f"count.cov13.N{n}", lambda d, n=n: G.angular_count_cov(n, arc1, arc3),
                      lambda v, d, n=n: _cauchy_schwarz(v, d[f"count.var1.N{n}"],
                                                        d[f"count.var3.N{n}"])))
        if prev is not None:
            ops.append(Op(f"count.var2.N{prev}", lambda d, n=prev: G.angular_count_var(n, arc2),
                          lambda v, d, n=prev: _var_bounds(v, n, arc2)))
        if n == max(grid):
            for j, (x, y) in enumerate(extra_cov):
                ops.append(Op(f"count.cov.extra{j}.N{n}",
                              lambda d, n=n, x=x, y=y: G.angular_count_cov(n, x, y),
                              lambda v, d, n=n, x=x, y=y: _cov_bound(v, n, x, y)))
            for j, x in enumerate(extra_var):
                ops.append(Op(f"count.var.extra{j}.N{n}",
                              lambda d, n=n, x=x: G.angular_count_var(n, x),
                              lambda v, d, n=n, x=x: _var_bounds(v, n, x)))
        prev = n

    # Fourier covariances beside the kernel decomposition
    f, g = _fourier(rng, G, 6), _fourier(rng, G, 4)
    for n in _shuffled(rng, (256, 2048)):
        ops.append(Op(f"fourier.cov.N{n}", lambda d, n=n: G.angular_cov_exact(f, g, n)))
        ops.append(Op(f"fourier.dec.N{n}", lambda d, n=n: tuple(G.angular_cov_decomposed(f, g, n)),
                      lambda v, d, n=n: [close("angular", v[0] + v[1],
                                               d[f"fourier.cov.N{n}"], 1e-9)]))

    # sector cumulants to order 12 on the Gram route, against the exact module
    sector = arc(0.5, 2.5)
    q = sector.length / (2.0 * math.pi)
    for n in _shuffled(rng, (128, 256, 512)):
        ops.append(Op(f"sector.ref.N{n}", lambda d, n=n: G.angular_count_var(n, sector)))
        ops.append(Op(f"sector.N{n}", lambda d, n=n: _sector_cumulants(D, n, sector),
                      lambda v, d, n=n: [
                          close("dpp", v[0][0], n * q, CROSS_ROUTE_TOL),
                          close("dpp", v[0][1], d[f"sector.ref.N{n}"], CROSS_ROUTE_TOL)]))

    # angular regime table in the critical window (calls i_arg), at N the
    # ops above have not cached.  The window is 0.1 <= sqrt(N) * length <= 10,
    # so over N in [64, 2560] the length stays within [0.0125, 0.1976].
    length = rng.uniform(0.02, 0.19)
    for n in (64, 384, 768, 1280, 1536, 1792, 2560):
        ops.append(Op(f"regime.angular.N{n}",
                      lambda d, n=n: _regime_row(A.count_var_prediction(n, length, "angular")),
                      _regime_check))
    return ops


def _sector_cumulants(D, n, sector):
    cs = D.cumulants_from_gram(D.gram_sector(n, sector), 12)
    rep = D.clt_certificate(cs)
    return (cs.c, rep.normalized, rep.bound_witness)


def _fourier(rng: random.Random, G, band: int):
    coeffs = {0: complex(rng.uniform(-1.0, 1.0))}
    for k in range(1, band + 1):
        c = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        coeffs[k], coeffs[-k] = c, c.conjugate()
    return G.FourierStatistic.from_dict(coeffs)


def _var_bounds(v, n, arc):
    # a determinantal count is a sum of independent Bernoullis: 0 < Var <= mean
    mean = n * arc.length / (2.0 * math.pi)
    if not 0.0 < v <= mean:
        raise AssertionError(f"count variance {v} outside (0, {mean}]")
    return []


def _cov_bound(cov, n, arc1, arc2):
    # |cov| <= sqrt(var1 var2) <= sqrt(mean1 mean2)
    means = n * arc1.length / (2.0 * math.pi) * n * arc2.length / (2.0 * math.pi)
    if abs(cov) > math.sqrt(means):
        raise AssertionError(f"|cov| {cov} exceeds sqrt(mean1 mean2)")
    return []


def _cauchy_schwarz(cov, var1, var2):
    if abs(cov) > math.sqrt(var1 * var2) * (1.0 + 1e-12):
        raise AssertionError(f"|cov| {cov} exceeds sqrt(var1 var2)")
    return []


# ---------------------------------------------------------------------------
# mc-crosscheck
# ---------------------------------------------------------------------------

def mc_crosscheck(rng: random.Random, ctx: Context) -> list[Op]:
    import numpy as np

    from ginfluct import angular as G
    from ginfluct import mc as M
    from ginfluct import radial as R

    seed = rng.randrange(1, 2 ** 31)
    streams = itertools.count(rng.randrange(0, 2 ** 20) * 64)  # distinct stream keys
    a, b = rng.uniform(0.3, 0.45), rng.uniform(0.7, 0.85)
    length = rng.uniform(1.0, 2.5)
    alpha = rng.uniform(-math.pi, math.pi - length)
    arc = G.ArcWindow(alpha=alpha, beta=alpha + length)
    sizes = {64: 40, 128: 12}       # replicas per batch
    batches = [64] * 5 + [128] * 7
    ops: list[Op] = []

    # matrix-sampler batches on distinct streams
    keys = {64: [], 128: []}
    for i, n in enumerate(_shuffled(rng, batches)):
        key = f"batch{i}.N{n}"
        keys[n].append(key)
        ops.append(Op(key, lambda d, n=n, s=next(streams):
                      M.sample_ginibre_eigenvalues(n, M.RngStream(seed, s), size=sizes[n])))

    def pooled(d, n, what):
        eigs = np.concatenate([d[k] for k in keys[n]])
        if what == "annulus":
            mod = np.abs(eigs)
            return np.count_nonzero((mod >= a) & (mod < b), axis=1).astype(float)
        ang = np.angle(eigs)
        return np.count_nonzero((ang >= arc.alpha) & (ang < arc.beta), axis=1).astype(float)

    # exact side, then jackknife estimators checked by z-score
    for n in (64, 128):
        ops.append(Op(f"exact.rvar.N{n}", lambda d, n=n: R.radial_count_var(n, a, b)))
        ops.append(Op(f"exact.rmean.N{n}",
                      lambda d, n=n: float(R.count_probabilities(n, a, b).sum())))
        ops.append(Op(f"exact.avar.N{n}", lambda d, n=n: G.angular_count_var(n, arc)))
        amean = n * arc.length / (2.0 * math.pi)
        for what, exact_key in (("annulus", "rvar"), ("arc", "avar")):
            ops.append(Op(f"mc.{what}.var.N{n}",
                          lambda d, n=n, w=what: M.estimate_cov(pooled(d, n, w), pooled(d, n, w)),
                          lambda v, d, n=n, k=exact_key: [z_entry(*v, d[f"exact.{k}.N{n}"])]))
        ops.append(Op(f"mc.annulus.mean.N{n}",
                      lambda d, n=n: M.estimate_mean(pooled(d, n, "annulus")),
                      lambda v, d, n=n: [z_entry(*v, d[f"exact.rmean.N{n}"])]))
        ops.append(Op(f"mc.arc.mean.N{n}", lambda d, n=n: M.estimate_mean(pooled(d, n, "arc")),
                      lambda v, d, m=amean: [z_entry(*v, m)]))

    # gamma sampler: r^2 statistic against its exact variance
    r2 = R.RadialTestFunction.poly([0.0, 0.0, 1.0])
    gamma_stream = next(streams)
    ops.append(Op("gamma.sample", lambda d: r2.evaluate(
        M.sample_radial_moduli(256, R.Ensemble.COMPLEX, M.RngStream(seed, gamma_stream),
                               size=2000)).sum(axis=-1)))
    ops.append(Op("gamma.exact.var", lambda d: R.radial_cov_exact(r2, r2, 256)))
    ops.append(Op("gamma.var", lambda d: M.estimate_cov(d["gamma.sample"], d["gamma.sample"]),
                  lambda v, d: [z_entry(*v, d["gamma.exact.var"])]))

    # standardized counts and the KS harness: the KS verdict is reported, not
    # gated (its level is a known open defect); the mean is gated by z
    ks_stream = next(streams)
    ops.append(Op("normalized", lambda d: M.normalized_count_samples(
        256, a, b, R.Ensemble.COMPLEX, M.RngStream(seed, ks_stream), 2000)))
    ops.append(Op("normalized.mean", lambda d: M.estimate_mean(d["normalized"]),
                  lambda v, d: [z_entry(*v, 0.0)]))
    ops.append(Op("ks", lambda d: _ks_row(M.ks_normal_test(d["normalized"])),
                  lambda v, d: [("mc.ks_statistic", v[0], math.inf)]))

    # persistence round trip must be bit-exact
    path = ctx.run_dir / "mc-batch.gfsb"

    def round_trip(d):
        batch = M.SampleBatch(n=256, ensemble=R.Ensemble.COMPLEX, seed=seed,
                              values=d["gamma.sample"])
        M.save_batch(batch, path)
        return M.load_batch(path)

    ops.append(Op("batch.io", lambda d: _batch_row(round_trip(d)),
                  lambda v, d: _same_batch(v, d["gamma.sample"], seed)))
    return ops


def _ks_row(ks) -> tuple:
    return (ks.statistic, ks.threshold, ks.size, ks.passed)


def _batch_row(batch) -> tuple:
    return (batch.n, batch.ensemble.value, batch.seed, batch.values)


def _same_batch(v, values, seed):
    n, ensemble, got_seed, got = v
    if (n, ensemble, got_seed) != (256, "complex", seed) or got.tobytes() != values.tobytes():
        raise AssertionError("load_batch(save_batch(x)) differs from x")
    return []


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

def _fmt(*xs) -> str:
    return ",".join(repr(float(x)) for x in xs)


def cli_cold(rng: random.Random, ctx: Context) -> list[Op]:
    import numpy as np

    from ginfluct import angular as G
    from ginfluct import asymptotics as A
    from ginfluct import dpp as D
    from ginfluct import mc as M
    from ginfluct import radial as R

    C, Q = R.Ensemble.COMPLEX, R.Ensemble.QUATERNION
    u = rng.uniform
    ops: list[Op] = []

    def cli(key, argv, reference=None, expect=0, z=False):
        def run(d):
            return _run_cli(ctx, argv)

        def check(v, d):
            code, outputs = v
            if code != expect:
                raise AssertionError(f"{EXIT_CODE_MISMATCH} {code}, expected {expect}")
            if reference is not None:
                want = reference()
                if outputs != want:
                    raise AssertionError(f"CLI outputs {outputs} differ from library {want}")
            gauges = [("mc.max_abs_z", abs(outputs["z_score"]), Z_LIMIT)] if z else []
            if outputs and "ks_statistic" in outputs:
                gauges.append(("mc.ks_statistic", outputs["ks_statistic"], math.inf))
            return gauges

        ops.append(Op(key, run, check))

    def poly(cs):
        return R.RadialTestFunction.poly(cs)

    # cov
    c = (0.0, u(-1, 1), u(-1, 1))
    f, g = poly([0.0, 0.0, 1.0]), poly(c)
    cli("cov.radial", ["cov", "radial", "--n", "10", "--f", "poly:0,0,1", "--g", "poly:" + _fmt(*c)],
        lambda: {"cov": R.radial_cov_exact(f, g, 10), "mean_f": R.radial_mean_exact(f, 10),
                 "mean_g": R.radial_mean_exact(g, 10)})
    wa, wb = u(0.2, 0.5), u(0.6, 1.0)
    ind = R.RadialTestFunction.indicator(wa, wb)
    lin = poly([0.0, 1.0])
    cli("cov.radial.q", ["cov", "radial", "--n", "12", "--ensemble", "quaternion",
                         "--f", "ind-mod:" + _fmt(wa, wb), "--g", "poly:0,1"],
        lambda: {"cov": R.radial_cov_exact(ind, lin, 12, Q),
                 "mean_f": R.radial_mean_exact(ind, 12, Q),
                 "mean_g": R.radial_mean_exact(lin, 12, Q)})
    k, amp1, amp2 = rng.randint(1, 5), u(0.5, 2.0), u(0.5, 2.0)
    fc, gc = G.FourierStatistic.cosine(k, amp1), G.FourierStatistic.cosine(k, amp2)

    def decomposed():
        cov = G.angular_cov_exact(fc, gc, 64)
        dec = G.angular_cov_decomposed(fc, gc, 64)
        return {"cov": cov, "main": dec.main, "correction": dec.correction,
                "total": dec.total, "identity_gap": abs(dec.total - cov)}

    cli("cov.angular", ["cov", "angular", "--n", "64", "--f", f"cos:{k},{amp1!r}",
                        "--g", f"cos:{k},{amp2!r}", "--decompose"], decomposed)
    fs = G.FourierStatistic.sine(k, amp1)
    cli("cov.angular.sin", ["cov", "angular", "--n", "48", "--f", f"sin:{k},{amp1!r}",
                            "--g", f"sin:{k},{amp1!r}"],
        lambda: {"cov": G.angular_cov_exact(fs, fs, 48)})

    # count
    def prediction(n, window, kind):
        rep = A.count_var_prediction(n, window, kind)
        return {"regime": rep.regime, "x": rep.x, "predicted": rep.predicted, "ratio": rep.ratio}

    cli("count.var.radial", ["count", "var", "--kind", "radial", "--n", "256",
                             "--window", _fmt(wa, wb), "--compare-asymptotic"],
        lambda: {"var": R.radial_count_var(256, wa, wb, C),
                 "mean": float(R.count_probabilities(256, wa, wb, C).sum()),
                 **prediction(256, (wa, wb), "radial")})
    q = u(0.05, 0.45)
    sym = G.ArcWindow.symmetric(2.0 * math.pi * q)
    cli("count.var.angular", ["count", "var", "--kind", "angular", "--n", "512",
                              "--arc-frac", repr(q), "--compare-asymptotic"],
        lambda: {"var": G.angular_count_var(512, sym),
                 "mean": 512 * sym.length / (2.0 * math.pi), **prediction(512, sym, "angular")})
    w2 = (u(0.3, 0.6), u(0.7, 1.0))
    cli("count.cov.radial", ["count", "cov", "--kind", "radial", "--n", "128",
                             "--window", _fmt(wa, wb), "--window2", _fmt(*w2)],
        lambda: {"cov": R.radial_count_cov(128, (wa, wb), w2, C)})
    arc1 = G.ArcWindow(alpha=u(-3.0, -0.5), beta=u(0.0, 1.0))
    arc2 = G.ArcWindow(alpha=u(-1.0, 0.5), beta=u(1.0, 3.0))
    cli("count.cov.angular", ["count", "cov", "--kind", "angular", "--n", "256",
                              "--arc=" + _fmt(arc1.alpha, arc1.beta),
                              "--arc2=" + _fmt(arc2.alpha, arc2.beta)],
        lambda: {"cov": G.angular_count_cov(256, arc1, arc2)})
    cli("count.var.radial.q", ["count", "var", "--kind", "radial", "--n", "200",
                               "--ensemble", "quaternion", "--window", _fmt(wa, wb)],
        lambda: {"var": R.radial_count_var(200, wa, wb, Q),
                 "mean": float(R.count_probabilities(200, wa, wb, Q).sum())})

    # asymptotics tables
    betas = (u(0.1, 1.0), u(1.0, 50.0))
    cli("asym.i_arg", ["asymptotics", "table", "--function", "i-arg", "--args", _fmt(*betas)],
        lambda: {"rows": [{"argument": x, "value": A.i_arg(x)} for x in betas]})
    cmod = u(0.1, 3.0)
    cli("asym.i_mod", ["asymptotics", "table", "--function", "i-mod", "--args", _fmt(cmod)],
        lambda: {"rows": [{"argument": cmod, "value": A.i_mod(cmod)}]})

    def regime_rows(ns, window, kind):
        rows = []
        for n in ns:
            rep = A.count_var_prediction(n, window, kind)
            rows.append({"n": n, "x": rep.x, "regime": rep.regime, "predicted": rep.predicted,
                         "exact": rep.exact, "ratio": rep.ratio})
        return {"rows": rows}

    cli("asym.table.radial", ["asymptotics", "table", "--kind", "radial", "--window",
                              _fmt(wa, wb), "--n-list", "64,256"],
        lambda: regime_rows((64, 256), (wa, wb), "radial"))
    cli("asym.table.angular", ["asymptotics", "table", "--kind", "angular", "--arc-frac",
                               repr(q), "--n-list", "128,512"],
        lambda: regime_rows((128, 512), sym, "angular"))

    # cumulants
    def cumulants(gram, n_max, certify):
        cs = D.cumulants_from_gram(gram, n_max)
        out = {"cluster": list(cs.u), "cumulants": list(cs.c)}
        if certify:
            rep = D.clt_certificate(cs, tolerance=0.1)
            out.update({"normalized": list(rep.normalized), "bound_witness": rep.bound_witness,
                        "certified": rep.certified, "tolerance": rep.tolerance})
        return out

    cli("cumulants.annulus", ["cumulants", "--mode", "annulus", "--n", "128", "--window",
                              _fmt(wa, wb), "--n-max", "4", "--certify"],
        lambda: cumulants(D.gram_annulus(128, wa, wb), 4, True))
    cli("cumulants.annulus.8", ["cumulants", "--mode", "annulus", "--n", "300", "--window",
                                _fmt(*w2), "--n-max", "8"],
        lambda: cumulants(D.gram_annulus(300, *w2), 8, False))
    cli("cumulants.sector", ["cumulants", "--mode", "sector", "--n", "64", "--arc-frac",
                             repr(q), "--n-max", "6", "--certify"],
        lambda: cumulants(D.gram_sector(64, sym), 6, True))

    # Monte Carlo
    seed, stream = rng.randrange(1, 2 ** 31), rng.randrange(0, 2 ** 20)

    def mc_outputs(values, exact, label="var", vg=None):
        mean, mean_se = M.estimate_mean(values)
        cov, cov_se = M.estimate_cov(values, values if vg is None else vg)
        out = {"mean": mean, "mean_se": mean_se, label: cov, f"{label}_se": cov_se}
        if exact is not None:
            out.update({"exact": exact,
                        "z_score": (cov - exact) / cov_se if cov_se > 0 else math.inf})
        return out

    def gamma_run():
        moduli = M.sample_radial_moduli(32, C, M.RngStream(seed, stream), size=400)
        return mc_outputs(ind.evaluate(moduli).sum(axis=-1), R.radial_cov_exact(ind, ind, 32, C))

    cli("mc.gamma", ["mc", "run", "--n", "32", "--samples", "400", "--seed", str(seed),
                     "--stream", str(stream), "--statistic", "ind-mod:" + _fmt(wa, wb),
                     "--check-exact"], gamma_run, z=True)
    mc_arc = G.ArcWindow(alpha=u(-3.0, -1.0), beta=u(0.0, 3.0))

    def matrix_run():
        eigs = M.sample_ginibre_eigenvalues(16, M.RngStream(seed, stream + 1), size=40)
        ang = np.angle(eigs)
        vals = ((ang >= mc_arc.alpha) & (ang < mc_arc.beta)).sum(axis=-1).astype(float)
        return mc_outputs(vals, G.angular_count_cov(16, mc_arc, mc_arc))

    cli("mc.matrix", ["mc", "run", "--n", "16", "--samples", "40", "--sampler", "matrix",
                      "--seed", str(seed), "--stream", str(stream + 1), "--statistic",
                      "ind-arg:" + _fmt(mc_arc.alpha, mc_arc.beta), "--check-exact"],
        matrix_run, z=True)
    save_path = ctx.run_dir / "cli-batch.gfsb"
    r2 = poly([0.0, 0.0, 1.0])

    def saved_run():
        moduli = M.sample_radial_moduli(24, C, M.RngStream(seed, stream + 2), size=300)
        vf = r2.evaluate(moduli).sum(axis=-1)
        out = mc_outputs(vf, None, "cov", ind.evaluate(moduli).sum(axis=-1))
        if M.load_batch(save_path).values.tobytes() != vf.tobytes():
            raise AssertionError("saved batch differs from the in-process sample")
        return out

    cli("mc.save", ["mc", "run", "--n", "24", "--samples", "300", "--seed", str(seed),
                    "--stream", str(stream + 2), "--statistic", "poly:0,0,1",
                    "--statistic2", "ind-mod:" + _fmt(wa, wb), "--save", str(save_path)],
        saved_run)

    def clt_run():
        x = M.normalized_count_samples(64, wa, wb, C, M.RngStream(seed, stream + 3), 400)
        ks = M.ks_normal_test(x)
        return {"ks_statistic": ks.statistic, "threshold": ks.threshold, "size": ks.size,
                "passed": ks.passed, "normalization": "exact-moments+jitter"}

    cli("clt", ["clt", "test", "--n", "64", "--samples", "400", "--seed", str(seed),
                "--stream", str(stream + 3), "--statistic", "ind-mod:" + _fmt(wa, wb)], clt_run)

    # kernel tables, in CSV
    ells = (rng.randint(0, 4), rng.randint(5, 12))

    def kernel_rows():
        rows = []
        grid = np.linspace(-math.pi, math.pi, 5)
        for ell in ells:
            for i, (t, v) in enumerate(zip(grid, G.kernel_c_eval(ell, grid))):
                rows.append(["ell", ell, "theta", i, float(t), float(v)])
        for ell in ells:
            for kk in range(min(4, 2 * ell + 1) + 1):
                rows.append(["ell", ell, "fourier", kk, float(kk), G.kernel_c_fourier(ell, kk)])
        return {"csv": [",".join(map(_csv_cell, r[1:])) for r in rows]}

    cli("kernel.csv", ["kernel", "dump", "--ell", f"{ells[0]},{ells[1]}", "--kmax", "4",
                       "--theta-count", "5", "--format", "csv"], kernel_rows)

    # invalid invocations must exit 2, through each of the three routes: a
    # usage error, a library ValueError and an argparse error
    cli("invalid.spec", ["cov", "radial", "--n", "10", "--f", "bogus:1", "--g", "poly:1"],
        expect=2)
    cli("invalid.n", ["count", "var", "--kind", "angular", "--n", "0", "--arc-frac",
                      repr(u(0.1, 0.9))], expect=2)
    cli("invalid.usage", ["cumulants", "--mode", "annulus"], expect=2)
    return ops


def _csv_cell(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def _run_cli(ctx: Context, argv: list[str]) -> tuple:
    """Run one command; returns (exit code, outputs).  Records its wall time
    and the report's timing_seconds for the cli layer figures."""
    import time

    start = time.perf_counter()
    proc = subprocess.run(ctx.cli + argv, env=ctx.env, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    wall = time.perf_counter() - start
    outputs, timing = None, None
    if proc.returncode == 0:
        if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
            lines = proc.stdout.splitlines()
            timing = float(lines[2].split("=", 1)[1])
            outputs = {"csv": lines[4:]}
        else:
            report = json.loads(proc.stdout)
            outputs, timing = report["outputs"], report["timing_seconds"]
    ctx.cli_records.append((wall, timing))
    return proc.returncode, outputs


BUILDERS = {
    "exact-radial": exact_radial,
    "exact-angular": exact_angular,
    "mc-crosscheck": mc_crosscheck,
    "cli-cold": cli_cold,
}


def build(workload: str, seed: int, ctx: Context) -> list[Op]:
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), ctx)
