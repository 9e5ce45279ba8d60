"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

import json
import math
from pathlib import Path

import pytest

import metrics
import run
import spans

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_direct_children_only():
    # op -> a [0, 10] -> b [1, 4] -> c [2, 3];  a -> d [5, 9]
    tree = [
        (2, 1, "c", 2.0, 3.0, 0, None, None),
        (1, 0, "b", 1.0, 4.0, 0, None, None),
        (3, 0, "d", 5.0, 9.0, 0, None, None),
        (0, -1, "a", 0.0, 10.0, 0, None, None),
    ]
    own = metrics.self_times(tree)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(own.values()) == 10.0  # self times tile the root span


def test_layer_metrics_from_spans():
    tree = [
        (1, 0, "specfun.leggauss", 1.0, 3.0, 0, 320, None),
        (2, 0, "specfun.leggauss", 4.0, 6.0, 0, 320, None),
        (0, -1, "specfun.legendre_rule", 0.0, 7.0, 0, None, None),
        (4, 3, "mc.eigvals", 8.5, 9.5, 1, None, None),
        (5, 3, "mc.eig_dense", 9.6, 9.8, 1, None, "RuntimeError"),
        (3, -1, "mc.sample_ginibre_eigenvalues", 8.0, 10.0, 1, [128, 4], "RuntimeError"),
        (6, -1, "mc.sample_ginibre_eigenvalues", 10.0, 12.0, 2, [128, 8], None),
        (7, -1, "angular.angular_count_var", 20.0, 21.0, 3, "first", None),
        (8, -1, "angular.angular_count_cov", 22.0, 22.5, 3, "repeat", None),
    ]
    m = metrics.layer_metrics(tree)
    assert m["specfun.legendre_rule.calls"] == 1
    assert m["specfun.legendre_rule.self_s"] == pytest.approx(3.0)
    assert m["specfun.leggauss.builds"] == 2
    assert m["specfun.leggauss.self_s"] == pytest.approx(4.0)
    assert m["specfun.leggauss.distinct_ratio"] == 0.5
    assert m["mc.eigvals.self_s"] == pytest.approx(1.0)
    assert m["mc.contract_failures"] == 1
    assert m["mc.replicas"] == 8  # the failed batch completed no replicas
    assert m["mc.replicas_per_s"] == pytest.approx(4.0)
    assert m["angular.count.first_n_s"] == pytest.approx(1.0)
    assert m["angular.count.repeat_n_s"] == pytest.approx(0.5)
    assert set(m) == {name for name, _unit, _better in metrics.PER_LAYER}


def test_nearest_rank_percentile_and_its_sample_count():
    values = list(range(1, 101))
    assert metrics.percentile(values, 90.0) == 90
    assert metrics.percentile(values, 50.0) == 50
    assert metrics.percentile([7.0], 90.0) == 7.0
    assert metrics.percentile(list(reversed(values)), 100.0) == 100
    assert metrics.samples_above(100, 90.0) == 10
    assert metrics.samples_above(99, 90.0) == 9
    # the smallest run that leaves ten samples beyond the 90th percentile
    assert metrics.min_samples(90.0) == 100 == run.MIN_OPS
    with pytest.raises(ValueError):
        metrics.percentile([], 90.0)


def test_printed_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]}
    assert e2e == set(metrics.END_TO_END)
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])
    layer = {(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]}
    assert layer == set(metrics.PER_LAYER)
    assert len(layer) == len(metrics.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)

    units = {name: unit for name, unit, _b in metrics.END_TO_END}
    line = metrics.result_line(True, 100, 0, {n: 1.0 for n in units}, units)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for name, entry in line["metrics"].items():
        assert (name, entry["unit"]) in {(n, u) for n, u, _b in e2e}


def test_tracer_records_parents_tags_and_errors():
    tracer = spans.Tracer()

    def inner(n):
        if n < 0:
            raise ValueError("negative")
        return n

    traced_inner = tracer.wrap("angular.angular_count_var", inner)
    outer = tracer.wrap("asymptotics.count_var_prediction", lambda n: traced_inner(n))
    outer(64)
    traced_inner(64)
    with pytest.raises(ValueError):
        traced_inner(-1)
    (_i1, p1, *_r1, tag1, _e1), (o1, po, *_), (_i2, p2, *_r2, tag2, _e2), last = tracer.spans
    assert p1 == o1 and po == -1 and p2 == -1
    assert (tag1, tag2) == ("first", "repeat")
    assert last[-1] == "ValueError"
    assert all(end >= start for _i, _p, _n, start, end, *_ in tracer.spans)


def test_worker_digest_is_bit_exact():
    import worker

    assert worker.digest((0.1, [1, 2.0])) == worker.digest((0.1, [1, 2.0]))
    assert worker.digest(0.1) != worker.digest(math.nextafter(0.1, 1.0))
    assert worker.finite({"a": (1.0, 2.0)}) and not worker.finite([1.0, math.nan])


def test_check_repeats_flags_a_changed_result():
    first = {"ops": [["a", 1.0, None, "x"], ["b", 1.0, None, "y"]]}
    second = {"ops": [["a", 1.0, None, "x"], ["b", 1.0, None, "z"]]}
    stored = {}
    assert run.check_repeats([first, second], stored) == 1
    assert second["ops"][1][2] is not None and stored == {"a": "x", "b": "y"}
    # a later run of the same seed is held to the stored digests
    again = {"ops": [["a", 1.0, None, "w"], ["b", 1.0, None, "y"]]}
    assert run.check_repeats([again], stored) == 1


@pytest.mark.parametrize("workload, kind", [("exact-radial", "radial"),
                                            ("exact-angular", "angular")])
def test_regime_tables_stay_in_the_critical_window_for_every_seed(monkeypatch, workload, kind):
    # the regime ops expect the critical tag; the exact value is stubbed out,
    # so only the drawn windows and the package's own tagging are exercised
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import workloads
    from ginfluct import asymptotics as A

    def tag_only(n, window, kind):
        width = window[1] - window[0] if kind == "radial" else window
        regime, x = A._tag(n, width)
        return A.RegimeReport(n=n, kind=kind, window=(0.0, 0.0), regime=regime, x=x,
                              predicted=1.0, exact=1.0)

    monkeypatch.setattr(A, "count_var_prediction", tag_only)
    ctx = workloads.Context(run_dir=ROOT)
    for seed in range(400):
        regime_ops = [op for op in workloads.build(workload, seed, ctx)
                      if op.key.startswith(f"regime.{kind}.")]
        assert len(regime_ops) >= 3
        for op in regime_ops:
            op.check(op.run({}), {})
