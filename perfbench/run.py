"""Benchmark for ginfluct: four closed-loop workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-radial --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

One client in one process issues ops back to back; an op is one call into a
public ginfluct function, or one command-line invocation in ``cli-cold``, and
every op's result is checked.  Each pass of the op list runs in a fresh
worker process with the BLAS thread count pinned, and passes repeat until
``--seconds`` have gone by and at least 100 ops have run.  Every pass issues
identical inputs, so its results must match the first pass bit for bit; the
digests also persist per seed and program source, so repeated runs of one
seed must match each other too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, with the
tracing overhead.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads

WORKLOADS = ("exact-radial", "exact-angular", "mc-crosscheck", "cli-cold")

# what set-up imports for each workload: numpy and the layers it calls
SETUP_IMPORTS = {
    "exact-radial": "numpy, ginfluct.radial, ginfluct.dpp, ginfluct.asymptotics",
    "exact-angular": "numpy, ginfluct.angular, ginfluct.dpp, ginfluct.asymptotics",
    "mc-crosscheck": "numpy, ginfluct.mc, ginfluct.radial, ginfluct.angular",
    "cli-cold": "numpy, ginfluct.cli",
}
SETUP_PROBES = 7                # at least; one more before every pass
BLAS_THREADS = "1"              # identical on every commit, never above nproc
MIN_OPS = metrics.min_samples(90.0)   # ten ops beyond the 90th percentile
START_BUDGET_S = 140.0          # no new pass after this, so a run ends within 180 s
WORKER_TIMEOUT_S = 170.0

BENCH_DIR = Path(__file__).resolve().parent


def pinned_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "GINFLUCT_THREADS"):
        env[var] = BLAS_THREADS
    return env


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit_of(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def setup_time(workload: str, env: dict) -> float:
    """A fresh interpreter that imports what the workload uses and does
    nothing else."""
    cmd = [sys.executable, "-c", f"import {SETUP_IMPORTS[workload]}"]
    start = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, timeout=60)
    return time.perf_counter() - start


def run_worker(workload: str, seed: int, trace: int, index: int, env: dict,
               run_dir: Path) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--run-dir", str(run_dir),
           "--pass-index", str(index)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_repeats(passes: list[dict], stored: dict) -> int:
    """Count ops whose result digest differs from the first pass or from an
    earlier run of the same seed and source; mark them failed."""
    reference = dict(stored)
    for key, _ms, error, dig in passes[0]["ops"]:
        if error is None:
            reference.setdefault(key, dig)
    mismatches = 0
    for p in passes:
        for row in p["ops"]:
            key, _ms, error, dig = row
            if error is None and reference.get(key, dig) != dig:
                row[2] = "result differs from an earlier pass or run of this seed"
                mismatches += 1
    stored.update(reference)
    return mismatches


def measure(workload: str, seed: int, seconds: int, trace: int, root: Path) -> tuple:
    env = pinned_env(root)
    run_dir = BENCH_DIR / ".run"
    run_dir.mkdir(exist_ok=True)
    setup_time(workload, env)  # warms the bytecode and file caches; not counted

    # set-up probes run between passes, so they sample the same stretch of
    # time as the passes do
    setup, passes, traced = [], [], []
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        total = len(passes) + len(traced)
        if trace:
            enough = elapsed >= seconds and bool(traced)
        else:
            enough = elapsed >= seconds and sum(len(p["ops"]) for p in passes) >= MIN_OPS
        if total >= 2 and (enough or elapsed + last > START_BUDGET_S):
            break
        setup.append(setup_time(workload, env))
        t0 = time.perf_counter()
        want_trace = int(bool(trace) and total % 2 == 1)
        p = run_worker(workload, seed, want_trace, total, env, run_dir)
        (traced if want_trace else passes).append(p)
        last = time.perf_counter() - t0

    while len(setup) < SETUP_PROBES:
        setup.append(setup_time(workload, env))

    digest_file = run_dir / f"digests-{workload}-{seed}-{source_digest(root)}.json"
    stored = json.loads(digest_file.read_text()) if digest_file.exists() else {}
    check_repeats(passes + traced, stored)
    tmp = digest_file.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored, sort_keys=True))
    os.replace(tmp, digest_file)
    return setup, passes, traced


def summarize(workload, seed, seconds, trace, root, setup, passes, traced) -> dict:
    every = passes + traced
    rows = [row for p in every for row in p["ops"]]
    failed = [row for row in rows if row[2] is not None]
    fp = every[0]["fingerprint"]
    print(f"perfbench workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print(f"environment: nproc={fp['nproc']} python={fp['python']} numpy={fp['numpy']} "
          f"blas={fp['blas']} blas_threads={fp['blas_threads']} commit={commit_of(root)} "
          f"source={source_digest(root)}")
    print(f"closed loop, 1 client; {len(every)} passes of {len(every[0]['ops'])} ops")
    for key, _ms, error, _d in failed[:20]:
        print(f"FAILED {key}: {error}")
    print(f"error_rate {len(failed) / len(rows):.6g} fraction ({len(failed)} of {len(rows)} ops)")
    gauges = {g: max(p["gauges"][g] for p in every) for g in metrics.GAUGES}

    if not trace:
        lat = [row[1] for p in passes for row in p["ops"]]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median([p["wall_s"] for p in passes]),
            "op_p50_ms": statistics.median(lat),
            "op_p90_ms": metrics.percentile(lat, 90.0),
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
        }
        counts = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "wall_s": f"median of {len(passes)} passes",
            "op_p50_ms": f"median of {len(lat)} ops",
            "op_p90_ms": f"nearest-rank p90 of {len(lat)} ops, "
                         f"{metrics.samples_above(len(lat), 90.0)} above",
            "peak_rss_mb": f"median of {len(passes)} pass processes"
                           + (" (max over each pass's children)" if workload == "cli-cold" else ""),
        }
        units = {name: unit for name, unit, _better in metrics.END_TO_END}
        for name, unit in units.items():
            print(f"{name:<14} {values[name]:12.6g} {unit:<3} {counts[name]}")
    else:
        layer = {name: statistics.median([p["per_layer"][name] for p in traced])
                 for name, _u, _b in metrics.PER_LAYER}
        layer.update(gauges)
        layer["cli.exit_code_mismatches"] = sum(
            1 for row in rows if row[2] and workloads.EXIT_CODE_MISMATCH in row[2])
        if workload == "cli-cold":
            for key in ("handler_s", "overhead_s"):
                layer[f"cli.{key}"] = statistics.median([p["cli"][key] for p in traced])
        untraced_wall = statistics.median([p["wall_s"] for p in passes])
        traced_wall = statistics.median([p["wall_s"] for p in traced])
        layer["trace.overhead_s"] = traced_wall - untraced_wall
        values = layer
        units = {name: unit for name, unit, _better in metrics.PER_LAYER}
        print(f"traced wall_s {traced_wall:.6g} s (median of {len(traced)}), untraced "
              f"{untraced_wall:.6g} s (median of {len(passes)}): overhead "
              f"{layer['trace.overhead_s']:.6g} s")
        print(f"dominant layer: {metrics.dominant_layer(layer)}")
        for name, unit in units.items():
            print(f"{name:<44} {values[name]:14.6g} {unit} (median of {len(traced)} traced passes)")
    for g in metrics.GAUGES:
        print(f"gauge {g} = {gauges[g]:.4g}")
    return metrics.result_line(not failed, len(rows), len(failed), values, units)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ginfluct" / "__init__.py").is_file():
        print("error: run from the root of a ginfluct checkout (no src/ginfluct here)",
              file=sys.stderr)
        return 2
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        setup, passes, traced = measure(workload, args.seed, args.seconds, args.trace, root)
        result = summarize(workload, args.seed, args.seconds, args.trace, root,
                           setup, passes, traced)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
