"""Command-line front end: every library capability behind one binary.

Reports go to stdout (JSON by default, CSV on request), logs to stderr.
Exit codes: 0 success, 2 usage error or input too large (MemoryError, or
an angular --n above 10^6), 3 numerical failure, 130 interrupted.  Exact
computations reproduce bit-for-bit on re-run; Monte Carlo reproduces for a
fixed --seed.  The timing field is informational and excluded from that
guarantee.

Statistic mini-language:
    poly:c0,c1,...      polynomial in the modulus r
    ind-mod:a,b         indicator of a <= r < b  (counting statistic)
    ind-arg:alpha,beta  indicator of an arc, radians in [-pi, pi]
    cos:k[,amp]         amp*cos(k theta)   (amp defaults to 1)
    sin:k[,amp]         amp*sin(k theta)
    fourier:@file       coefficients from a file of "k re im" lines
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import sys
import tempfile
import time
from dataclasses import dataclass

from ._version import VERSION


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

@dataclass
class Report:
    command: str
    version: str
    inputs: dict
    outputs: dict
    timing_seconds: float

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "version": self.version,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "timing_seconds": self.timing_seconds,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        lines = [
            f"# command={self.command}",
            f"# version={self.version}",
            f"# timing_seconds={self.timing_seconds!r}",
        ]
        rows = self.outputs.get("rows")
        scalars = {k: v for k, v in self.outputs.items() if k != "rows"}
        for key in sorted(scalars):
            for item in _flatten(key, scalars[key]):
                lines.append(item)
        if rows:
            header = list(rows[0].keys())
            lines.append(",".join(header))
            for row in rows:
                lines.append(",".join(_csv_cell(row.get(h)) for h in header))
        elif not scalars:
            lines.append("key,index,value")
        return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _flatten(key: str, value) -> list[str]:
    if isinstance(value, dict):
        out = []
        for sub in sorted(value):
            out.extend(_flatten(f"{key}.{sub}", value[sub]))
        return out
    if isinstance(value, (list, tuple)):
        return [f"{key},{i},{_csv_cell(v)}" for i, v in enumerate(value)]
    return [f"# {key}={_csv_cell(value)}"]


def _emit(report: Report, fmt: str, out_path: str | None) -> None:
    text = report.to_json() if fmt == "json" else report.to_csv()
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ginfluct-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# statistic mini-language
# ---------------------------------------------------------------------------

def _floats(text: str, expect: int | None = None, what: str = "value",
            open_top: bool = False) -> list[float]:
    """Comma-separated finite floats; open_top also admits +inf as the last
    value (the open upper edge of a modulus window)."""
    try:
        vals = [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise UsageError(f"cannot parse {what} list {text!r}") from exc
    if expect is not None and len(vals) != expect:
        raise UsageError(f"expected {expect} comma-separated {what}s, got {text!r}")
    bounded = vals[:-1] if open_top and vals[-1] == math.inf else vals
    if not all(math.isfinite(v) for v in bounded):
        raise UsageError(f"{what} list {text!r} has a non-finite value")
    return vals


def _modulus_window(text: str | None, flag: str) -> list[float]:
    if text is None:
        raise UsageError(f"radial window required: {flag} a,b")
    return _floats(text, 2, "modulus", open_top=True)


def parse_statistic(spec: str):
    """Returns (tag, object): tag in {radial, angular, arc}."""
    from .angular import ArcWindow, FourierStatistic, read_fourier_file
    from .radial import RadialTestFunction

    kind, sep, rest = spec.partition(":")
    if not sep:
        raise UsageError(f"statistic spec {spec!r} needs a 'kind:args' form")
    if kind == "poly":
        coeffs = _floats(rest, what="coefficient")
        if not coeffs:
            raise UsageError("poly: needs at least one coefficient")
        return "radial", RadialTestFunction.poly(coeffs)
    if kind == "ind-mod":
        a, b = _modulus_window(rest, "ind-mod:")
        return "radial", RadialTestFunction.indicator(a, b)
    if kind == "ind-arg":
        alpha, beta = _floats(rest, 2, "angle")
        return "arc", ArcWindow(alpha=alpha, beta=beta)
    if kind in ("cos", "sin"):
        vals = _floats(rest, what="parameter")
        if len(vals) not in (1, 2):
            raise UsageError(f"{kind}: takes k or k,amplitude")
        k = int(vals[0])
        if k != vals[0] or k < 0:
            raise UsageError(f"{kind}: mode index must be a nonnegative integer")
        amp = vals[1] if len(vals) == 2 else 1.0
        make = FourierStatistic.cosine if kind == "cos" else FourierStatistic.sine
        return "angular", make(k, amp)
    if kind == "fourier":
        if not rest.startswith("@"):
            raise UsageError("fourier: expects @path-to-coefficient-file")
        return "angular", read_fourier_file(rest[1:], real=True)
    raise UsageError(f"unknown statistic kind {kind!r}")


def _ensemble(name: str):
    from .radial import Ensemble

    try:
        return Ensemble(name)
    except ValueError as exc:
        raise UsageError(f"unknown ensemble {name!r}") from exc


def _arc_from_args(args):
    from .angular import ArcWindow

    arc, frac = args.arc, args.arc_frac
    if arc is not None and frac is not None:
        raise UsageError("give either --arc or --arc-frac, not both")
    if arc is not None:
        a, b = _floats(arc, 2, "angle")
        return ArcWindow(alpha=a, beta=b)
    if frac is not None:
        if not 0.0 < frac <= 1.0:
            raise UsageError("--arc-frac must be in (0, 1]")
        return ArcWindow.symmetric(2.0 * math.pi * frac)
    raise UsageError("angular window required: --arc alpha,beta or --arc-frac q")


def _angular_n(n: int) -> int:
    from .angular import MAX_N

    if not 1 <= n <= MAX_N:
        raise UsageError(f"--n must be in 1..{MAX_N} for angular statistics, got {n}")
    return n


def _banded_arc(arc, band: int):
    """Arc-indicator Fourier coefficients truncated to a band (exact when the
    partner statistic is band-limited)."""
    import numpy as np

    from .angular import FourierStatistic

    return FourierStatistic(coeffs=arc.fourier(np.arange(-band, band + 1)), real=True)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (inputs, outputs)
# ---------------------------------------------------------------------------

def cmd_cov(args) -> tuple[dict, dict]:
    if args.family == "radial":
        from .radial import radial_cov_exact, radial_mean_exact

        ens = _ensemble(args.ensemble)
        tag_f, f = parse_statistic(args.f)
        tag_g, g = parse_statistic(args.g)
        if tag_f != "radial" or tag_g != "radial":
            raise UsageError("cov radial needs radial statistics (poly:/ind-mod:)")
        inputs = {"n": args.n, "ensemble": ens.value, "f": args.f, "g": args.g}
        outputs = {
            "cov": radial_cov_exact(f, g, args.n, ens),
            "mean_f": radial_mean_exact(f, args.n, ens),
            "mean_g": radial_mean_exact(g, args.n, ens),
        }
        return inputs, outputs

    from .angular import angular_cov_decomposed, angular_cov_exact

    tag_f, f = parse_statistic(args.f)
    tag_g, g = parse_statistic(args.g)
    if tag_f != "angular" or tag_g != "angular":
        raise UsageError("cov angular needs band-limited statistics (cos:/sin:/fourier:)")
    n = _angular_n(args.n)
    inputs = {"n": n, "f": args.f, "g": args.g}
    value = angular_cov_exact(f, g, n)
    outputs = {"cov": value}
    if args.decompose:
        dec = angular_cov_decomposed(f, g, n)
        outputs.update({
            "main": dec.main,
            "correction": dec.correction,
            "total": dec.total,
            "identity_gap": abs(dec.total - value),
        })
    return inputs, outputs


def cmd_count(args) -> tuple[dict, dict]:
    compare = getattr(args, "compare_asymptotic", False)
    if args.kind == "radial":
        from .radial import _count_mean_var, radial_count_cov

        ens = _ensemble(args.ensemble)
        a, b = _modulus_window(args.window, "--window")
        inputs = {"kind": "radial", "n": args.n, "ensemble": ens.value,
                  "window": [a, b]}
        if args.action == "var":
            mean, var = _count_mean_var(args.n, a, b, ens)
            outputs = {"var": var, "mean": mean}
            if compare:
                if ens.value != "complex":
                    raise UsageError("--compare-asymptotic targets the complex ensemble")
                outputs.update(_prediction_fields(args.n, (a, b), "radial"))
            return inputs, outputs
        a2, b2 = _modulus_window(args.window2, "--window2")
        inputs["window2"] = [a2, b2]
        return inputs, {"cov": radial_count_cov(args.n, (a, b), (a2, b2), ens)}

    if args.ensemble != "complex":
        raise UsageError("angular counts are exact for the complex ensemble only")
    from .angular import angular_count_cov, angular_count_var

    n = _angular_n(args.n)
    arc = _arc_from_args(args)
    inputs = {"kind": "angular", "n": n, "arc": [arc.alpha, arc.beta]}
    if args.action == "var":
        var = angular_count_var(n, arc)
        outputs = {"var": var, "mean": n * arc.length / (2.0 * math.pi)}
        if compare:
            outputs.update(_prediction_fields(n, arc, "angular"))
        return inputs, outputs
    if args.arc2 is None:
        raise UsageError("count cov needs --arc2 alpha,beta")
    a2, b2 = _floats(args.arc2, 2, "angle")
    from .angular import ArcWindow

    arc2 = ArcWindow(alpha=a2, beta=b2)
    inputs["arc2"] = [arc2.alpha, arc2.beta]
    return inputs, {"cov": angular_count_cov(n, arc, arc2)}


def _prediction_fields(n: int, window, kind: str) -> dict:
    from .asymptotics import count_var_prediction

    rep = count_var_prediction(n, window, kind)
    return {"regime": rep.regime, "x": rep.x, "predicted": rep.predicted,
            "ratio": rep.ratio}


def cmd_asymptotics(args) -> tuple[dict, dict]:
    if args.function is not None:
        from .asymptotics import i_arg, i_mod

        fn = {"i-arg": i_arg, "i-mod": i_mod}[args.function]
        if not args.args:
            raise UsageError("--args list required with --function")
        points = _floats(args.args, what="argument")
        rows = [{"argument": x, "value": fn(x)} for x in points]
        return {"function": args.function, "args": points}, {"rows": rows}

    if not args.n_list:
        raise UsageError("--n-list required (or use --function)")
    ns = _floats(args.n_list, what="N")
    if not all(v.is_integer() for v in ns):
        raise UsageError(f"--n-list needs integers, got {args.n_list!r}")
    ns = [int(v) for v in ns]
    if args.kind == "radial":
        a, b = _modulus_window(args.window, "--window")
        window = (a, b)
        inputs = {"kind": "radial", "n_list": ns, "window": [a, b]}
    else:
        window = _arc_from_args(args)
        inputs = {"kind": "angular", "n_list": ns,
                  "arc": [window.alpha, window.beta]}
    from .asymptotics import count_var_prediction

    rows = []
    for n in ns:
        rep = count_var_prediction(n, window, args.kind)
        rows.append({"n": n, "x": rep.x, "regime": rep.regime,
                     "predicted": rep.predicted, "exact": rep.exact,
                     "ratio": rep.ratio})
    return inputs, {"rows": rows}


def cmd_cumulants(args) -> tuple[dict, dict]:
    from .dpp import clt_certificate, cumulants_from_gram, gram_annulus, gram_sector
    from .radial import Ensemble, count_probabilities

    if args.mode == "sector":
        arc = _arc_from_args(args)
        inputs = {"mode": "sector", "n": args.n,
                  "arc": [arc.alpha, arc.beta], "n_max": args.n_max}
        g = gram_sector(args.n, arc)
    else:
        a, b = _modulus_window(args.window, "--window")
        inputs = {"mode": args.mode, "n": args.n, "window": [a, b],
                  "n_max": args.n_max}
        g = (gram_annulus(args.n, a, b) if args.mode == "annulus"
             else count_probabilities(args.n, a, b, Ensemble.QUATERNION))
    cs = cumulants_from_gram(g, args.n_max)
    outputs = {"cluster": list(cs.u), "cumulants": list(cs.c)}
    if args.certify:
        rep = clt_certificate(cs, tolerance=args.tolerance)
        outputs.update({
            "normalized": list(rep.normalized),
            "bound_witness": rep.bound_witness,
            "certified": rep.certified,
            "tolerance": rep.tolerance,
        })
    return inputs, outputs


def _mc_values(args, specs, ens):
    """Per-replica statistic values for each requested spec, plus sampler tag."""
    import numpy as np

    from .mc import RngStream, sample_ginibre_eigenvalues, sample_radial_moduli

    tags = [t for t, _ in specs]
    sampler = args.sampler
    if sampler == "auto":
        sampler = "gamma" if all(t == "radial" for t in tags) else "matrix"
    rng = RngStream(seed=args.seed, stream=args.stream)
    if sampler == "gamma":
        if any(t != "radial" for t in tags):
            raise UsageError("gamma sampler covers radial statistics only")
        moduli = sample_radial_moduli(args.n, ens, rng, size=args.samples)
        values = [np.asarray(obj.evaluate(moduli)).sum(axis=-1) for _, obj in specs]
        return values, "gamma"
    if ens.value != "complex":
        raise UsageError("matrix sampler is complex-ensemble only")
    print(f"sampling {args.samples} matrices at N={args.n} (seed={args.seed})",
          file=sys.stderr)
    eigs = sample_ginibre_eigenvalues(args.n, rng, size=args.samples)
    values = []
    for tag, obj in specs:
        if tag == "radial":
            values.append(np.asarray(obj.evaluate(np.abs(eigs))).sum(axis=-1))
        elif tag == "angular":
            values.append(np.asarray(obj.evaluate(np.angle(eigs))).sum(axis=-1))
        else:  # arc window count
            ang = np.angle(eigs)
            values.append(((ang >= obj.alpha) & (ang < obj.beta)).sum(axis=-1).astype(float))
    return values, "matrix"


def _exact_pair_cov(spec_f, spec_g, n: int, ens):
    """Exact covariance for a statistic pair, or None when out of scope."""
    tag_f, f = spec_f
    tag_g, g = spec_g
    if tag_f == "radial" and tag_g == "radial":
        from .radial import radial_cov_exact

        return radial_cov_exact(f, g, n, ens)
    if "radial" in (tag_f, tag_g):
        return None  # no exact joint radial-angular reference
    if ens.value != "complex":
        return None
    from .angular import angular_count_cov, angular_cov_exact

    if tag_f == "arc" and tag_g == "arc":
        return angular_count_cov(n, f, g)
    if tag_f == "arc":
        return angular_cov_exact(_banded_arc(f, g.band), g, n)
    if tag_g == "arc":
        return angular_cov_exact(f, _banded_arc(g, f.band), n)
    return angular_cov_exact(f, g, n)


def cmd_mc(args) -> tuple[dict, dict]:
    from .mc import SampleBatch, estimate_cov, estimate_mean, save_batch, save_batch_csv

    ens = _ensemble(args.ensemble)
    spec_f = parse_statistic(args.statistic)
    specs = [spec_f]
    if args.statistic2 is not None:
        specs.append(parse_statistic(args.statistic2))
    values, sampler = _mc_values(args, specs, ens)
    vf = values[0]
    vg = values[1] if len(values) > 1 else values[0]
    mean, mean_se = estimate_mean(vf)
    cov, cov_se = estimate_cov(vf, vg)
    inputs = {"n": args.n, "samples": args.samples, "seed": args.seed,
              "stream": args.stream, "ensemble": ens.value, "sampler": sampler,
              "statistic": args.statistic}
    if args.statistic2 is not None:
        inputs["statistic2"] = args.statistic2
    label = "var" if len(values) == 1 else "cov"
    outputs = {"mean": mean, "mean_se": mean_se, label: cov,
               f"{label}_se": cov_se}
    if args.check_exact:
        spec_g = specs[1] if len(specs) > 1 else specs[0]
        exact = _exact_pair_cov(spec_f, spec_g, args.n, ens)
        if exact is None:
            raise UsageError("no exact reference for this statistic pair")
        outputs["exact"] = exact
        outputs["z_score"] = (cov - exact) / cov_se if cov_se > 0 else math.inf
    batch = SampleBatch(n=args.n, ensemble=ens, seed=args.seed, values=vf,
                        statistic=args.statistic)
    if args.save is not None:
        save_batch(batch, args.save)
        print(f"wrote {args.save}", file=sys.stderr)
    if args.save_csv is not None:
        save_batch_csv(batch, args.save_csv)
        print(f"wrote {args.save_csv}", file=sys.stderr)
    return inputs, outputs


def cmd_clt(args) -> tuple[dict, dict]:
    import numpy as np

    from .mc import (RngStream, ks_normal_test, normalized_count_samples,
                     sample_radial_moduli)

    ens = _ensemble(args.ensemble)
    tag, obj = parse_statistic(args.statistic)
    rng = RngStream(seed=args.seed, stream=args.stream)
    inputs = {"n": args.n, "samples": args.samples, "seed": args.seed,
              "ensemble": ens.value, "statistic": args.statistic}
    if tag == "radial" and obj.fn is None and obj.coeffs == (1.0,):
        samples = normalized_count_samples(args.n, *obj.window, ens, rng,
                                           args.samples, jitter=not args.no_jitter)
        normalization = "exact-moments+jitter" if not args.no_jitter else "exact-moments"
    elif tag == "radial":
        moduli = sample_radial_moduli(args.n, ens, rng, size=args.samples)
        samples = np.asarray(obj.evaluate(moduli)).sum(axis=-1)
        normalization = "studentized"
    else:
        raise UsageError("clt test covers radial statistics (poly:/ind-mod:)")
    ks = ks_normal_test(samples)
    outputs = {"ks_statistic": ks.statistic, "threshold": ks.threshold,
               "size": ks.size, "passed": ks.passed,
               "normalization": normalization}
    return inputs, outputs


def cmd_kernel(args) -> tuple[dict, dict]:
    import numpy as np

    from .angular import _chat_row, kernel_c_eval

    try:
        ells = [int(tok) for tok in args.ell.split(",") if tok != ""]
    except ValueError as exc:
        raise UsageError(f"cannot parse --ell list {args.ell!r}") from exc
    if not ells or any(e < 0 for e in ells):
        raise UsageError("--ell needs nonnegative integers")
    if args.kmax < 0:
        raise UsageError(f"--kmax must be >= 0, got {args.kmax}")
    if args.theta_count < 0 or args.theta_count == 1:
        raise UsageError(f"--theta-count must be 0 or >= 2, got {args.theta_count}")
    rows = []
    if args.theta_count > 0:
        grid = np.linspace(-math.pi, math.pi, args.theta_count)
        for ell in ells:
            vals = kernel_c_eval(ell, grid)
            for i, (t, v) in enumerate(zip(grid, vals)):
                rows.append({"ell": ell, "series": "theta", "index": i,
                             "argument": float(t), "value": float(v)})
    for ell in ells:
        for k, v in enumerate(_chat_row(ell, args.kmax)):
            rows.append({"ell": ell, "series": "fourier", "index": k,
                         "argument": float(k), "value": float(v)})
    inputs = {"ell": ells, "theta_count": args.theta_count, "kmax": args.kmax}
    return inputs, {"rows": rows}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the report atomically to this path")
    p.add_argument("--threads", type=int, default=None,
                   help="cap numeric worker threads (or set GINFLUCT_THREADS)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ginfluct", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    cov = sub.add_parser("cov", help="exact covariances of linear statistics")
    cov_sub = cov.add_subparsers(dest="family", required=True)
    for fam in ("radial", "angular"):
        p = cov_sub.add_parser(fam)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--f", required=True, help="statistic spec")
        p.add_argument("--g", required=True, help="statistic spec")
        if fam == "radial":
            p.add_argument("--ensemble", default="complex",
                           choices=("complex", "quaternion"))
        else:
            p.add_argument("--decompose", action="store_true",
                           help="also report the kernel-form split")
        _add_common(p)
        p.set_defaults(handler=cmd_cov)

    count = sub.add_parser("count", help="counting-statistic variance/covariance")
    count_sub = count.add_subparsers(dest="action", required=True)
    for action in ("var", "cov"):
        p = count_sub.add_parser(action)
        p.add_argument("--kind", choices=("radial", "angular"), required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--window", help="radial window a,b")
        p.add_argument("--arc", help="angular window alpha,beta (radians)")
        p.add_argument("--arc-frac", type=float, default=None,
                       help="symmetric arc as a fraction of the circle")
        p.add_argument("--ensemble", default="complex",
                       choices=("complex", "quaternion"))
        if action == "var":
            p.add_argument("--compare-asymptotic", action="store_true")
        else:
            p.add_argument("--window2", help="second radial window")
            p.add_argument("--arc2", help="second angular window")
        _add_common(p)
        p.set_defaults(handler=cmd_count)

    asym = sub.add_parser("asymptotics", help="limit-law predictions and tables")
    asym_sub = asym.add_subparsers(dest="action", required=True)
    p = asym_sub.add_parser("table")
    p.add_argument("--kind", choices=("radial", "angular"), default="radial")
    p.add_argument("--n-list", help="comma-separated N values")
    p.add_argument("--window", help="radial window a,b")
    p.add_argument("--arc", help="angular window alpha,beta")
    p.add_argument("--arc-frac", type=float, default=None)
    p.add_argument("--function", choices=("i-arg", "i-mod"), default=None,
                   help="tabulate a scaling function instead")
    p.add_argument("--args", help="comma-separated arguments for --function")
    _add_common(p)
    p.set_defaults(handler=cmd_asymptotics)

    cum = sub.add_parser("cumulants", help="count cumulants over the region operator's spectrum")
    cum.add_argument("--mode", choices=("annulus", "sector", "quaternion-annulus"),
                     required=True)
    cum.add_argument("--n", type=int, required=True)
    cum.add_argument("--window", help="radial window a,b")
    cum.add_argument("--arc", help="angular window alpha,beta")
    cum.add_argument("--arc-frac", type=float, default=None)
    cum.add_argument("--n-max", type=int, default=6)
    cum.add_argument("--certify", action="store_true")
    cum.add_argument("--tolerance", type=float, default=0.1)
    _add_common(cum)
    cum.set_defaults(handler=cmd_cumulants)

    mc = sub.add_parser("mc", help="Monte Carlo estimators")
    mc_sub = mc.add_subparsers(dest="action", required=True)
    p = mc_sub.add_parser("run")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--statistic", required=True)
    p.add_argument("--statistic2", default=None)
    p.add_argument("--ensemble", default="complex",
                   choices=("complex", "quaternion"))
    p.add_argument("--sampler", choices=("auto", "gamma", "matrix"), default="auto")
    p.add_argument("--check-exact", action="store_true")
    p.add_argument("--save", default=None, help="persist per-replica values (binary)")
    p.add_argument("--save-csv", default=None, help="persist per-replica values (CSV)")
    _add_common(p)
    p.set_defaults(handler=cmd_mc)

    clt = sub.add_parser("clt", help="central-limit checks")
    clt_sub = clt.add_subparsers(dest="action", required=True)
    p = clt_sub.add_parser("test")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--statistic", default="ind-mod:0.5,0.9")
    p.add_argument("--ensemble", default="complex",
                   choices=("complex", "quaternion"))
    p.add_argument("--no-jitter", action="store_true",
                   help="skip the lattice dither for counting statistics")
    _add_common(p)
    p.set_defaults(handler=cmd_clt)

    ker = sub.add_parser("kernel", help="kernel tables for plotting")
    ker_sub = ker.add_subparsers(dest="action", required=True)
    p = ker_sub.add_parser("dump")
    p.add_argument("--ell", required=True, help="comma-separated kernel indices")
    p.add_argument("--theta-count", type=int, default=0,
                   help="evaluate on this many grid points over [-pi, pi]")
    p.add_argument("--kmax", type=int, default=16,
                   help="largest Fourier index to emit")
    _add_common(p)
    p.set_defaults(handler=cmd_kernel)

    return top


def _configure_threads(threads: int | None) -> None:
    if threads is None:
        env = os.environ.get("GINFLUCT_THREADS")
        threads = int(env) if env else None
    if threads is None:
        return
    if threads < 1:
        raise UsageError("--threads must be >= 1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        _configure_threads(args.threads)
        inputs, outputs = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: input too large: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError, OverflowError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    elapsed = time.perf_counter() - start
    report = Report(command=shlex.join([parser.prog] + argv), version=VERSION,
                    inputs=inputs, outputs=outputs, timing_seconds=elapsed)
    _emit(report, args.format, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
