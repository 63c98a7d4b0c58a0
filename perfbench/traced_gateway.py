"""Start ``repro serve`` with the traced pass's wrappers installed.

Usage: ``python perfbench/traced_gateway.py SPANS.jsonl serve [ARGS...]``

Installs :func:`perfbench.instrument.install_gateway` in this process,
then hands the remaining arguments to the ``repro`` command line.  The
spans are written to ``SPANS.jsonl`` when the gateway stops (SIGINT).
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The package, not this directory: ``trace.py`` would shadow the
# standard library's ``trace``.
sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]


def main(argv) -> int:
    from perfbench.instrument import install_gateway
    from perfbench.trace import Tracer, write_spans
    from repro.cli import main as repro_main

    out, serve_argv = argv[0], argv[1:]
    tracer = Tracer()
    install_gateway(tracer)
    try:
        return repro_main(serve_argv)
    finally:
        write_spans(out, tracer.spans)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
