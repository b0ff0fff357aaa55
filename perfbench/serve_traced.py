"""Start ``repro serve`` with the serving layers traced.

Usage: ``python3 perfbench/serve_traced.py <dump.json> serve [options]``.

Installs the class patches of :mod:`perfbench.tracing`, then runs the
ordinary CLI.  On ``SIGUSR1`` the server writes its layer totals to
``<dump.json>``; the benchmark reads them without stopping the server.
"""

from __future__ import annotations

import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import tracing  # noqa: E402
from repro.cli import main  # noqa: E402


def run(dump_path: str, argv: list) -> int:
    signal.signal(signal.SIGUSR1, lambda *_: tracing.TRACER.dump(dump_path))
    with tracing.tracing():
        return main(argv)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
