"""Metric names, the percentile rule, and per-layer figures from spans.

The names and units here are the ones ``BENCHMARK.json`` lists; a test keeps
the two in step.
"""

from __future__ import annotations

import math
from collections import defaultdict

# (name, unit, better) of the metrics every untraced run prints
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_CALLS_AND_SELF = {
    "specfun": ("legendre_rule", "gamma_interval_prob", "log_gamma", "std_normal_cdf"),
    "radial": ("radial_cov_exact", "radial_log_mgf", "count_probabilities",
               "radial_count_var"),
    "angular": ("angular_count_var", "angular_count_cov", "angular_cov_exact",
                "angular_cov_decomposed"),
    "dpp": ("gram_sector", "gram_annulus", "cumulants_from_gram", "clt_certificate"),
    "asymptotics": ("i_arg", "i_mod", "count_var_prediction"),
}
_MC_SELF_ONLY = ("sample_ginibre_eigenvalues", "sample_radial_moduli",
                 "normalized_count_samples", "ks_normal_test", "estimate_cov")

# gauges: worst residual over tolerance per layer, plus MC z and KS distance;
# deterministic, reported, never gating here
GAUGES = ("radial.check_over_tol", "angular.check_over_tol", "dpp.check_over_tol",
          "mc.max_abs_z", "mc.ks_statistic")


def _per_layer() -> tuple:
    out = []
    for layer, fns in _CALLS_AND_SELF.items():
        for fn in fns:
            out += [(f"{layer}.{fn}.calls", "count", "lower"),
                    (f"{layer}.{fn}.self_s", "s", "lower")]
    out += [("specfun.leggauss.builds", "count", "lower"),
            ("specfun.leggauss.self_s", "s", "lower"),
            ("specfun.leggauss.distinct_ratio", "ratio", "higher"),
            ("angular.count.first_n_s", "s", "lower"),
            ("angular.count.repeat_n_s", "s", "lower")]
    out += [(f"mc.{fn}.self_s", "s", "lower") for fn in _MC_SELF_ONLY]
    out += [("mc.eig_dense.calls", "count", "lower"), ("mc.eig_dense.self_s", "s", "lower"),
            ("mc.eigvals.self_s", "s", "lower"), ("mc.replicas", "count", "higher"),
            ("mc.contract_failures", "count", "lower"),
            ("mc.replicas_per_s", "1/s", "higher"),
            ("cli.handler_s", "s", "lower"), ("cli.overhead_s", "s", "lower"),
            ("cli.exit_code_mismatches", "count", "lower"),
            ("trace.overhead_s", "s", "lower")]
    out += [(g, "ratio", "lower") for g in GAUGES if g.endswith("over_tol")]
    out += [("mc.max_abs_z", "sd", "lower"), ("mc.ks_statistic", "fraction", "lower")]
    return tuple(out)


# (name, unit, better) of the metrics every traced run prints
PER_LAYER = _per_layer()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it.  With S samples, S - ceil(q*S/100) lie above it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered) / 100.0) - 1]


def samples_above(count: int, q: float) -> int:
    """How many of `count` samples lie above the nearest-rank q-th percentile."""
    return count - math.ceil(q * count / 100.0)


def min_samples(q: float, beyond: int = 10) -> int:
    """Fewest samples that leave at least `beyond` above the q-th percentile."""
    count = 1
    while samples_above(count, q) < beyond:
        count += 1
    return count


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    children = defaultdict(float)
    for sid, parent, _name, start, end, *_ in spans:
        if parent >= 0:
            children[parent] += end - start
    return {sid: (end - start) - children[sid] for sid, _p, _n, start, end, *_ in spans}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer calls, self time and derived counts from one process's spans."""
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    out = {name: 0.0 for name, _unit, _better in PER_LAYER}
    leggauss_n = set()
    replicas = 0
    replicas128 = 0
    sampler128_s = 0.0
    for sid, _parent, name, start, end, _op, tag, error in spans:
        calls[name] += 1
        self_s[name] += own[sid]
        if name == "specfun.leggauss":
            leggauss_n.add(tag)
        elif name in ("angular.angular_count_var", "angular.angular_count_cov"):
            out[f"angular.count.{tag}_n_s"] += own[sid]
        elif name == "mc.sample_ginibre_eigenvalues" and error is None:
            replicas += tag[1]
            if tag[0] == 128:
                replicas128 += tag[1]
                sampler128_s += end - start
        elif name == "mc.eig_dense" and error == "RuntimeError":
            out["mc.contract_failures"] += 1
    for layer, fns in _CALLS_AND_SELF.items():
        for fn in fns:
            out[f"{layer}.{fn}.calls"] = calls[f"{layer}.{fn}"]
            out[f"{layer}.{fn}.self_s"] = self_s[f"{layer}.{fn}"]
    for fn in _MC_SELF_ONLY + ("eig_dense", "eigvals"):
        out[f"mc.{fn}.self_s"] = self_s[f"mc.{fn}"]
    out["mc.eig_dense.calls"] = calls["mc.eig_dense"]
    out["specfun.leggauss.builds"] = calls["specfun.leggauss"]
    out["specfun.leggauss.self_s"] = self_s["specfun.leggauss"]
    if calls["specfun.leggauss"]:
        out["specfun.leggauss.distinct_ratio"] = len(leggauss_n) / calls["specfun.leggauss"]
    out["mc.replicas"] = replicas
    if sampler128_s > 0.0:
        out["mc.replicas_per_s"] = replicas128 / sampler128_s
    return out


def dominant_layer(per_layer: dict[str, float]) -> str:
    """Name of the largest self-time figure, to confirm a workload's rationale.

    The CLI's process overhead competes too; ``cli.handler_s`` does not,
    because it overlaps the layer spans recorded inside the child."""
    timed = {k: v for k, v in per_layer.items()
             if k.endswith(".self_s") or k == "cli.overhead_s"}
    return max(timed, key=timed.get)


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> dict:
    """The JSON object a run prints last: every metric with its unit."""
    return {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units.items()}}
