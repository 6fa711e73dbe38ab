"""One benchmark sample: a fresh interpreter that imports skv.cli and runs
one operation (a fixed list of ``skv.cli.main`` calls), then reports.

Usage: python3 perfbench/child.py '<job json>', with skv importable (the
parent puts ``src`` on PYTHONPATH).  The job is ``{"calls": [argv, ...],
"trace": bool}``.  The last stdout line is one JSON object: the monotonic
time at which the child was ready (imports done), the summed duration of
the main() calls, each call's exit code and captured stdout, peak RSS, and
the tracer's counters when tracing.  CLOCK_MONOTONIC is system-wide, so the
parent can subtract its own spawn time from ``ready``.
"""

import contextlib
import io
import json
import resource
import sys
import time

import skv.cli

job = json.loads(sys.argv[1])
tracer = None
if job["trace"]:
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
ready = time.monotonic()

calls = []
wall = 0.0
for argv in job["calls"]:
    out, err = io.StringIO(), io.StringIO()
    call = {"argv": argv}
    t0 = time.monotonic()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            call["rc"] = skv.cli.main(argv)
    except Exception as exc:  # a raising call is a failed operation
        call["error"] = repr(exc)
    wall += time.monotonic() - t0
    call["stdout"] = out.getvalue()
    call["stderr"] = err.getvalue()
    calls.append(call)

result = {
    "ready": ready,
    "wall_s": wall,
    "calls": calls,
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "trace": tracer.snapshot() if tracer else None,
}
sys.stdout.write(json.dumps(result) + "\n")
