"""One pass of a workload's op list, in a fresh process.

Prints one JSON object: per-op latency, outcome and result digest, the
pass's wall time, peak resident memory, check gauges, the command-line
layer figures and, when traced, the per-layer figures.  ``run.py`` starts
one of these per pass, so every pass starts with cold in-process caches.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import metrics
import spans
import workloads


def _feed(h, value) -> None:
    """Hash a result exactly: floats by their bits, arrays by their bytes."""
    if isinstance(value, dict):
        h.update(b"{")
        for k in sorted(value):
            _feed(h, k)
            _feed(h, value[k])
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for v in value:
            _feed(h, v)
        h.update(b"]")
    elif isinstance(value, float):
        h.update(b"f" + value.hex().encode())
    elif isinstance(value, complex):
        h.update(b"c" + value.real.hex().encode() + value.imag.hex().encode())
    elif hasattr(value, "tobytes") and hasattr(value, "dtype"):
        h.update(f"a{value.dtype.str}{value.shape}".encode() + value.tobytes())
    else:
        h.update(f"{type(value).__name__}:{value!r}".encode())


def digest(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()[:24]


def finite(value) -> bool:
    if isinstance(value, dict):
        return all(finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(finite(v) for v in value)
    if isinstance(value, (float, complex)):
        return math.isfinite(abs(value))
    if hasattr(value, "dtype") and value.dtype.kind in "fc":
        import numpy as np

        return bool(np.all(np.isfinite(value)))
    return True


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def run_pass(ops, tracer) -> tuple[list, dict, float]:
    done: dict = {}
    rows = []
    gauges = {g: 0.0 for g in metrics.GAUGES}
    wall = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        error = None
        start = time.perf_counter()
        try:
            value = op.run(done)
        except Exception as exc:  # an op that raises is a failed op; keep going
            value, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        wall += elapsed
        if error is None and not finite(value):
            error = "non-finite result"
        if error is None:
            try:
                for gauge, level, limit in op.check(value, done):
                    gauges[gauge] = max(gauges[gauge], level)
                    if not level <= limit:
                        error = f"{gauge} = {level:.3g} over its limit {limit:g}"
            except Exception as exc:
                error = f"check failed: {type(exc).__name__}: {exc}"
        if error is None:
            done[op.key] = value
        rows.append([op.key, 1e3 * elapsed, error, None if error else digest(value)])
    return rows, gauges, wall


def _child_spans(span_dir: Path) -> list:
    """Spans of every traced command-line child, with ids made unique."""
    merged = []
    for index, path in enumerate(sorted(span_dir.glob("*.json"))):
        offset = index * 10 ** 9
        for sid, parent, *rest in json.loads(path.read_text()):
            merged.append([sid + offset, parent + offset if parent >= 0 else -1, *rest])
        path.unlink()
    span_dir.rmdir()
    return merged


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", type=Path, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    args = ap.parse_args()

    cli = args.workload == "cli-cold"
    tracer = None
    if args.trace and not cli:
        tracer = spans.Tracer()
        spans.install(tracer)
    ctx = workloads.Context(run_dir=args.run_dir, env=dict(os.environ))
    if cli and args.trace:
        span_dir = args.run_dir / f"spans-{args.workload}-{args.pass_index}"
        span_dir.mkdir(exist_ok=True)
        boot = Path(__file__).with_name("cli_boot.py")
        ctx.cli = [sys.executable, str(boot), str(span_dir)]
    elif cli:
        ctx.cli = [sys.executable, "-m", "ginfluct.cli"]

    import ginfluct

    src = Path(ginfluct.__file__).resolve().parent
    expected = Path.cwd().resolve() / "src" / "ginfluct"
    if src != expected:
        print(f"error: imported ginfluct from {src}, not {expected}", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed, ctx)
    rows, gauges, wall = run_pass(ops, tracer)

    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    out = {"ops": rows, "wall_s": wall, "gauges": gauges,
           "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
           "fingerprint": fingerprint()}
    if cli:
        out["cli"] = {
            "handler_s": sum(t for _w, t in ctx.cli_records if t is not None),
            "overhead_s": sum(w - t for w, t in ctx.cli_records if t is not None),
        }
    if args.trace:
        if cli:
            tracer = spans.Tracer()
            tracer.spans = _child_spans(span_dir)
        out["per_layer"] = metrics.layer_metrics(tracer.spans)
        tracer.dump(args.run_dir / f"spans-{args.workload}.json")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
