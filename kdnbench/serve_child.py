"""Run ``kdn serve`` as a child of the benchmark, optionally traced.

    python3 -u serve_child.py TRACE_OUT serve --root DIR --port 0

With ``TRACE_OUT`` other than ``-``, spans are installed before the server
starts; each SIGUSR1 writes the spans gathered since the previous one to
``TRACE_OUT`` (atomically, via rename) and starts a fresh count.  SIGINT
stops the server the way it stops ``kdn serve`` at a terminal.  The BLAS
thread caps come from the parent's environment.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
from kdn import cli  # noqa: E402


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    if trace_out != "-":
        tracer = tracing.Tracer()
        tracing.install(tracer)

        def dump(signum, frame):
            tmp = trace_out + ".tmp"
            with open(tmp, "w") as f:
                json.dump(tracer.snapshot(), f)
            os.replace(tmp, trace_out)
            tracer.reset()

        signal.signal(signal.SIGUSR1, dump)
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
