"""Span tracing of ginfluct from outside the package.

The benchmark never edits the library.  It wraps each layer's public
functions where they live and, because the wrapping happens as each module
finishes importing, every module that later imports such a name binds the
wrapper too (``ginfluct.radial.legendre_rule``, ``ginfluct.angular.log_gamma``,
...).  Two numpy entry points that ginfluct looks up at call time are wrapped
as well: Gauss-Legendre rule construction and the dense eigensolve.

A span is ``(id, parent, name, start, end, op, tag, error)``.  Spans stay in
memory and are written once, at the end of the process.
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import json
import sys
import time

# public functions wrapped in each layer module; span name "<layer>.<function>"
TRACED = {
    "ginfluct.specfun": ("legendre_rule", "gamma_interval_prob", "log_gamma",
                         "std_normal_cdf"),
    "ginfluct.radial": ("radial_cov_exact", "radial_log_mgf", "count_probabilities",
                        "radial_count_var"),
    "ginfluct.angular": ("angular_count_var", "angular_count_cov", "angular_cov_exact",
                         "angular_cov_decomposed"),
    "ginfluct.dpp": ("gram_sector", "gram_annulus", "cumulants_from_gram",
                     "clt_certificate"),
    "ginfluct.mc": ("sample_ginibre_eigenvalues", "sample_radial_moduli",
                    "normalized_count_samples", "ks_normal_test", "estimate_cov",
                    "eig_dense"),
    "ginfluct.asymptotics": ("i_arg", "i_mod", "count_var_prediction"),
}

# (module, attribute, span name) of numpy functions ginfluct calls by attribute
NUMPY_TRACED = (
    ("numpy.polynomial.legendre", "leggauss", "specfun.leggauss"),
    ("numpy.linalg", "eigvals", "mc.eigvals"),
)

COUNT_OPS = ("angular.angular_count_var", "angular.angular_count_cov")


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


class Tracer:
    """Collects spans for one process.  ``op`` is set by the caller before
    each benchmark op so that spans carry the op they belong to."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._count_n_seen: set[int] = set()

    def _tag(self, name: str, args, kwargs):
        if name == "specfun.leggauss":
            return int(_first_arg(args, kwargs, "deg"))
        if name in COUNT_OPS:
            n = int(_first_arg(args, kwargs, "n"))
            return "repeat" if n in self._count_n_seen else "first"
        if name == "mc.sample_ginibre_eigenvalues":
            n = int(_first_arg(args, kwargs, "n"))
            size = args[2] if len(args) > 2 else kwargs.get("size")
            return [n, 1 if size is None else int(size)]
        return None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            tag = self._tag(name, args, kwargs)
            self._stack.append(sid)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end, self.op, tag, error))
                if name in COUNT_OPS:
                    # marked seen on exit, so a count op nested inside another
                    # at the same N is tagged like its caller
                    self._count_n_seen.add(int(_first_arg(args, kwargs, "n")))

        traced.__wrapped_by_perfbench__ = True
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _patch_numpy(tracer: Tracer) -> None:
    for modname, attr, span in NUMPY_TRACED:
        mod = importlib.import_module(modname)
        fn = getattr(mod, attr)
        if not getattr(fn, "__wrapped_by_perfbench__", False):
            setattr(mod, attr, tracer.wrap(span, fn))


def _patch_module(tracer: Tracer, module) -> None:
    layer = module.__name__.rsplit(".", 1)[1]
    for attr in TRACED[module.__name__]:
        setattr(module, attr, tracer.wrap(f"{layer}.{attr}", getattr(module, attr)))
    _patch_numpy(tracer)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Finds traced modules through the other finders and patches each one
    right after its body has run, before any importer binds its names."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname not in TRACED:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        run_body = spec.loader.exec_module
        tracer = self._tracer

        def exec_module(module):
            run_body(module)
            _patch_module(tracer, module)

        spec.loader.exec_module = exec_module
        return spec


def install(tracer: Tracer) -> None:
    """Trace every layer module imported from now on.

    Must run before any ginfluct layer module is imported, so that no module
    binds an unwrapped name.
    """
    already = sorted(m for m in TRACED if m in sys.modules)
    if already:
        raise RuntimeError(f"tracing installed after {already} were imported")
    sys.meta_path.insert(0, _PatchOnImport(tracer))
