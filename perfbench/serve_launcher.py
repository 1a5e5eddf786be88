"""Run ``repro serve`` with the serving-layer span wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py TRACE_DIR serve STORE ...``
(everything after ``TRACE_DIR`` is passed to the ``repro`` CLI).  The
wrappers go in before the CLI forks its workers, so every worker
inherits them; each worker writes its spans and aggregates into
``TRACE_DIR`` when it exits.
"""

from __future__ import annotations

import sys
from pathlib import Path

import tracer


def main(argv: list[str]) -> int:
    from repro import cli

    tracer.install_serving(tracer.Tracer(), Path(argv[0]))
    return cli.main(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
