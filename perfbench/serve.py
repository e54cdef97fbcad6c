"""Launch ``repro serve`` for the ``service_http`` workload.

Usage: ``python3 perfbench/serve.py [--trace-out FILE] -- serve ARGS...``
with ``PYTHONPATH`` pointing at the program's ``src``.

Without ``--trace-out`` this is exactly ``python -m repro serve ARGS``.
With it, the span wrappers of ``layers.py`` are installed before the
service starts, switched off (the preload is recorded all the same);
``SIGUSR1`` switches them on, and on exit (``SIGINT``) the recorded
spans and counters are digested to FILE as JSON, with a Chrome trace
beside it.
"""

import json
import os
import signal
import sys


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    # The benchmark stops the server with SIGINT, on which ``repro
    # serve`` flushes its store and exits; a parent started in the
    # background may have left SIGINT ignored, so restore its default.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    spans = None
    if trace_out:
        from layers import Spans, install

        spans = install(Spans(enabled=False))
        signal.signal(signal.SIGUSR1, lambda signum, frame: spans.start_timed())
    from repro.cli import main as cli_main

    status = cli_main(argv)
    if spans is not None:
        spans.enabled = False
        with open(trace_out, "w") as handle:
            json.dump(spans.digest(), handle)
        spans.chrome_trace(os.path.splitext(trace_out)[0] + ".trace.json",
                           pid=os.getpid())
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
