"""The process that runs opcalc for perfbench/run.py.

    python3 perfbench/worker.py serve [--trace SPANS]

Imports opcalc.cli and prints {"ready": true, "setup_cpu_s": ...,
"calibration_s": [...]}, then answers one JSON message per stdin line:
{"argv": [...]} calls opcalc.cli.run with stdout and stderr captured;
{"calibrate": true} times calibrate() in this process;
{"stop": true} stops the worker and reports the peak resident set size.

Times are CPU time of the main thread, not wall time: a guest
kernel does not charge the time the host takes its vCPU away (steal) to
the process, so steal drops out of every measured time.  calibrate() is
timed the same way, first thing and right before "ready", so that run.py
can take it out of the start-up time and scale the rest to nominal
seconds.  With --trace every public opcalc function is wrapped by
spans.Recorder and the spans are written to SPANS when the worker stops.
The worker needs opcalc on PYTHONPATH; run.py sets it to the checkout's
src/.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction

# calibrate()'s typical CPU time in a worker on the machine the benchmark
# was defined on (2-vCPU VM; see perfbench/README.md): a nominal second is
# a second at that speed.
CALIBRATION_NOMINAL_S = 0.005


def calibrate() -> float:
    """Thread CPU seconds taken by a fixed pure-Python loop of Fraction and
    dict work, the kind opcalc does.  The host this benchmark was defined
    on runs a core at half speed for seconds at a time; a timing divided
    by this loop's time, taken in the same process next to it, does not
    move with it.  The collector is off so that the size of the calling
    process's heap does not change the loop's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        total = Fraction(0)
        table: dict = {}
        for k in range(1, 1000):
            total += Fraction(k % 7 + 1, k % 97 + 1)
            table[k % 61] = table.get(k % 61, 0) + k
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def _recorder():
    from spans import Recorder
    recorder = Recorder()
    recorder.install()
    return recorder


def _reply(out, message: dict) -> None:
    out.write(json.dumps(message) + "\n")
    out.flush()


def serve(trace_path, first_calibration: float) -> None:
    from opcalc import cli

    recorder = _recorder() if trace_path else None
    out = sys.stdout
    last_calibration = calibrate()
    # The main thread's CPU time since the process was created: interpreter
    # start, the imports and both calibration runs, but not the helper
    # threads a numerical library may start.
    _reply(out, {"ready": True, "setup_cpu_s": time.thread_time(),
                 "calibration_s": [first_calibration, last_calibration]})
    for line in sys.stdin:
        message = json.loads(line)
        if message.get("stop"):
            if recorder is not None:
                recorder.dump(trace_path)
            _reply(out, {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return
        if message.get("calibrate"):
            _reply(out, {"calibration_s": calibrate()})
            continue
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        code = None
        if recorder is not None:
            recorder.begin_request()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.thread_time_ns()
            try:
                code = cli.run(message["argv"])
            except SystemExit as exc:  # argparse rejects an argv this way
                code = exc.code
            except Exception:  # a traceback is a failed request, not a dead worker
                error = traceback.format_exc(limit=3)
            cpu_ns = time.thread_time_ns() - start
        if recorder is not None:
            recorder.end_request(cpu_ns)
        _reply(out, {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                     "error": error, "cpu_ns": cpu_ns})


def main(argv) -> int:
    first_calibration = calibrate()
    trace_path = None
    if argv[:2] == ["serve", "--trace"] and len(argv) == 3:
        trace_path = argv[2]
    elif argv != ["serve"]:
        print(__doc__, file=sys.stderr)
        return 2
    serve(trace_path, first_calibration)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
