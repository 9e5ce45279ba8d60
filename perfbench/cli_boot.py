"""Run ``ginfluct.cli.main`` with span tracing installed first.

Usage: python perfbench/cli_boot.py SPAN_DIR [ginfluct arguments...]

Layer modules are wrapped as the command imports them, so the command keeps
its own lazy import order and its ``timing_seconds`` still includes the
numpy import.  Spans are written to SPAN_DIR/<pid>.json at exit.
"""

import atexit
import os
import sys

import spans

tracer = spans.Tracer()
spans.install(tracer)
atexit.register(tracer.dump, os.path.join(sys.argv[1], f"{os.getpid()}.json"))

from ginfluct.cli import main  # noqa: E402  (after the import hook)

sys.exit(main(sys.argv[2:]))
