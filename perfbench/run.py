"""opcalc benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding src/opcalc).  It
generates the workload's requests from the seed, sends them to
opcalc one at a time (the next request starts only after the previous
one returned), checks every answer against a reference computed without
opcalc, and prints a human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 serves the same
rounds once untraced and once with spans around every public opcalc
function, and reports the per-module table.

End-to-end times are the serving worker's CPU time, in nominal seconds.
CPU time leaves out the time the host takes the vCPU away (steal).  The
worker also times a fixed calibration loop (worker.calibrate) right
before and right after each request or start-up, and the measured times
of a round are scaled by the loop's nominal time over the median of the
round's loop times.  A core of the host this was defined on runs at half
speed for seconds at a time; scaled times do not follow it.  A run
serves whole rounds until --seconds nominal seconds of answering time
have been measured.

Exit status is 0 when the run completed (wrong answers only raise the
failure count), 2 on bad usage or when src/opcalc is missing, and 3 when
the harness itself could not serve or check requests.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

import reference
import spans as spanlib
import workloads
from worker import CALIBRATION_NOMINAL_S

HERE = Path(__file__).resolve().parent
SETUP_STARTS = 11     # fresh workers timed for setup_s (after one warm-up)
IMPORT_PROBES = 3     # -X importtime runs behind the import.* rows
RUN_DEADLINE_S = 150  # no round starts after this, so a run ends within 3 minutes
# No round starts once serving has taken this many times --seconds of wall
# time: when the host takes the vCPU away, a run serves fewer rounds
# instead of running long.
SERVE_WALL_FACTOR = 1.6


class HarnessError(Exception):
    """The benchmark could not serve or check requests."""


def speed_factor(calibrations: Iterable[float]) -> float:
    """Nominal seconds per measured second over a stretch of work, from
    the calibration loop's times taken in it.  The median of many loop
    times, not the pair around one request, because the host changes
    speed faster than the longest requests last."""
    return CALIBRATION_NOMINAL_S / statistics.median(calibrations)


# ---------------------------------------------------------------------------
# Serving requests
# ---------------------------------------------------------------------------

@dataclass
class Reply:
    code: Optional[int]
    stdout: str
    error: Optional[str]
    elapsed: Optional[float]          # worker CPU seconds; None if it died
    calibration: Tuple[float, float]  # loop times before and after, same process


@dataclass
class Tally:
    attempted: int = 0
    latencies: List[float] = field(default_factory=list)  # nominal seconds
    failures: List[tuple] = field(default_factory=list)
    busy_s: float = 0.0       # nominal answering time
    raw_busy_s: float = 0.0   # answering time as measured

    @property
    def failed(self) -> int:
        return len(self.failures)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """A long-lived `worker.py serve` process.  raw_setup_s is its start-up
    time: its CPU time from process start until opcalc.cli is imported and
    ready, with the calibration runs taken out."""

    def __init__(self, root: Path, trace_path: Optional[Path] = None):
        cmd = [sys.executable, str(HERE / "worker.py"), "serve"]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        self.log = open(root / ".perfbench" / "worker-stderr.log", "a")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True, env=child_env(root),
                                     cwd=root)
        line = self.proc.stdout.readline()
        if not line.startswith('{"ready"'):
            self.kill()
            raise HarnessError("worker did not start; see .perfbench/worker-stderr.log")
        ready = json.loads(line)
        self.setup_calibration = tuple(ready["calibration_s"])
        self.raw_setup_s = ready["setup_cpu_s"] - sum(self.setup_calibration)
        self.last_calibration = self.setup_calibration[1]

    def _send(self, message: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(message) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        if not line:
            raise EOFError("worker exited")
        return json.loads(line)

    def call(self, argv) -> Reply:
        """One request; the calibration after it serves as the one before
        the next request."""
        before = self.last_calibration
        reply = self._send({"argv": list(argv)})
        self.last_calibration = self._send({"calibrate": True})["calibration_s"]
        return Reply(reply["code"], reply["stdout"], reply["error"], reply["cpu_ns"] / 1e9,
                     (before, self.last_calibration))

    def close(self) -> float:
        """Stop the worker; returns its peak resident set size in MB."""
        try:
            peak_kb = self._send({"stop": True})["peak_rss_kb"]
            self.proc.wait(timeout=30)
        finally:
            self.kill()
        return peak_kb / 1024.0

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()
        self.log.close()


class InProcess:
    """Requests answered by opcalc.cli.run inside one long-lived worker."""

    def __init__(self, root: Path, trace_path: Optional[Path] = None):
        self.root, self.trace_path = root, trace_path
        self.worker = Worker(root, trace_path)
        self.peak_rss_mb = 0.0

    def __call__(self, argv) -> Reply:
        try:
            return self.worker.call(argv)
        except EOFError:
            # A dead worker fails this request, which has no measured
            # time; a fresh one serves the rest.
            self.worker.kill()
            self.worker = Worker(self.root, self.trace_path)
            return Reply(None, "", "worker process died", None,
                         (CALIBRATION_NOMINAL_S, CALIBRATION_NOMINAL_S))

    def close(self) -> None:
        try:
            self.peak_rss_mb = self.worker.close()
        finally:
            self.worker.kill()


def serve(server, batches: Iterable[list], seconds: float, deadline: float,
          tally: Tally, cache: dict) -> List[list]:
    """Closed loop with one client, in whole rounds, until *seconds* of
    nominal answering time have passed or the wall clock reaches
    *deadline*.  References are computed before a round starts and
    answers checked between requests, outside every timing."""
    deadline = min(deadline, time.monotonic() + SERVE_WALL_FACTOR * seconds)
    served = []
    for batch in batches:
        if tally.busy_s >= seconds or time.monotonic() >= deadline:
            break
        expected = []
        for request in batch:
            if request.argv not in cache:
                try:
                    cache[request.argv] = request.expect()
                except Exception as exc:
                    raise HarnessError(f"no reference for {list(request.argv)}: {exc!r}")
            expected.append(cache[request.argv])
        replies = []
        for request, want in zip(batch, expected):
            reply = server(request.argv)
            replies.append(reply)
            if reply.error is not None:
                why = "raised: " + reply.error.strip().splitlines()[-1]
            else:
                why = reference.check(want, reply.code, reply.stdout)
            if why is not None:
                tally.failures.append((list(request.argv), why))
        speed = speed_factor(c for reply in replies for c in reply.calibration)
        tally.attempted += len(replies)
        for reply in replies:
            if reply.elapsed is None:
                continue
            tally.latencies.append(reply.elapsed * speed)
            tally.busy_s += reply.elapsed * speed
            tally.raw_busy_s += reply.elapsed
        served.append(batch)
    return served


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

def tail_percentile(values: List[float], q: float = 0.9, beyond: int = 10):
    """Nearest-rank q-quantile, lowered until at least *beyond* samples lie
    above it; returns (value, quantile actually used)."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(math.ceil(q * n) - 1, 0)
    if n - 1 - index < beyond:
        index = max(n - 1 - beyond, 0)
    return ordered[index], (index + 1) / n


def time_process(cmd: List[str], root: Path) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=child_env(root), cwd=root, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def import_rows(root: Path) -> dict:
    """Median import.* rows over fresh interpreters, as measured: bare
    start-up, numpy and mpmath (cumulative) and opcalc's own modules (self)."""
    samples = {"import.interpreter_s": [], "import.numpy_s": [],
               "import.mpmath_s": [], "import.opcalc_s": []}
    for _ in range(IMPORT_PROBES):
        samples["import.interpreter_s"].append(time_process([sys.executable, "-c", "pass"], root))
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import opcalc.cli"],
                              env=child_env(root), cwd=root, capture_output=True, text=True)
        if done.returncode != 0:
            raise HarnessError(f"import opcalc.cli failed: {done.stderr.strip()[-300:]}")
        numpy = mpmath = own = 0
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or line.count("|") != 2:
                continue
            self_us, cumulative_us, name = (part.strip() for part in line[12:].split("|"))
            if not self_us.isdigit():
                continue  # the header line
            if name == "numpy":
                numpy = int(cumulative_us)
            elif name == "mpmath":
                mpmath = int(cumulative_us)
            elif name == "opcalc" or name.startswith("opcalc."):
                own += int(self_us)
        samples["import.numpy_s"].append(numpy / 1e6)
        samples["import.mpmath_s"].append(mpmath / 1e6)
        samples["import.opcalc_s"].append(own / 1e6)
    return {key: statistics.median(values) for key, values in samples.items()}


def setup_times(root: Path, starts: int) -> List[Tuple[float, tuple]]:
    """Start-up times of fresh workers with their calibration loop times,
    after one untimed start that fills the bytecode caches."""
    def start_worker():
        worker = Worker(root)
        worker.close()
        return worker.raw_setup_s, worker.setup_calibration

    return [start_worker() for _ in range(starts + 1)][1:]


def nominal_setup_s(setups: List[Tuple[float, tuple]]) -> float:
    speed = speed_factor(c for _elapsed, calibration in setups for c in calibration)
    return statistics.median(elapsed for elapsed, _calibration in setups) * speed


def end_to_end(root: Path, workload: str, seed: int, seconds: float, deadline: float):
    tally = Tally()
    # The serving worker's own start is the last setup sample.
    setups = setup_times(root, SETUP_STARTS - 1)
    server = InProcess(root)
    setups.append((server.worker.raw_setup_s, server.worker.setup_calibration))
    try:
        serve(server, workloads.rounds(workload, seed), seconds, deadline, tally, {})
    finally:
        server.close()
    if not tally.latencies:
        raise HarnessError("no request was answered")
    answered = len(tally.latencies)
    p90, q = tail_percentile(tally.latencies)
    metrics = {
        "setup_s": (nominal_setup_s(setups), "s", f"{len(setups)} starts"),
        "solves_per_s": ((tally.attempted - tally.failed) / tally.busy_s, "1/s",
                         f"{tally.attempted} requests"),
        "latency_p50_s": (statistics.median(tally.latencies), "s", f"{answered} requests"),
        "latency_p90_s": (p90, "s", f"{answered} requests, p{100 * q:.1f}"),
        "peak_rss_mb": (server.peak_rss_mb, "MB", "serving worker"),
    }
    notes = [f"{tally.raw_busy_s:.3f} s of measured answering CPU time count as "
             f"{tally.busy_s:.3f} nominal seconds"]
    if answered < tally.attempted:
        notes.append(f"{tally.attempted - answered} requests killed their worker and "
                     "have no latency")
    if q < 0.9:
        notes.append(f"latency_p90_s is the p{100 * q:.1f} latency: {answered} "
                     "requests leave fewer than ten samples above p90")
    return metrics, tally, notes


def traced(root: Path, workload: str, seed: int, seconds: float, deadline: float):
    """Half the time untraced, then the same rounds traced."""
    trace_path = root / ".perfbench" / f"spans-{workload}-{seed}.jsonl"
    if trace_path.exists():
        trace_path.unlink()
    plain, spanned = Tally(), Tally()
    cache: dict = {}
    server = InProcess(root)
    try:
        rounds_run = serve(server, workloads.rounds(workload, seed), seconds / 2,
                           deadline, plain, cache)
    finally:
        server.close()
    server = InProcess(root, trace_path)
    try:
        serve(server, rounds_run, math.inf, math.inf, spanned, cache)
    finally:
        server.close()
    if not spanned.latencies or not plain.busy_s:
        raise HarnessError("no request was answered")
    try:
        spans, counters, requests = spanlib.load(str(trace_path))
    except (OSError, ValueError) as exc:
        raise HarnessError(f"no spans: {exc}")
    problem = spanlib.accounting_error(spans, requests)
    if problem is not None:
        raise HarnessError(f"trace accounting: {problem}")
    # The last traced worker's requests and its own start.
    traced_ns = (sum(total for total, _collector in requests)
                 + int(server.worker.raw_setup_s * 1e9))
    table = spanlib.layer_table(spans, traced_ns)
    table.update(counters)
    imports = import_rows(root)
    table.update(imports)
    table["import.share"] = sum(imports.values()) / (traced_ns / 1e9)
    table["trace.overhead_share"] = spanned.busy_s / plain.busy_s - 1.0
    tally = Tally(plain.attempted + spanned.attempted, plain.latencies + spanned.latencies,
                  plain.failures + spanned.failures)
    notes = [f"spans written to {trace_path.relative_to(root)} ({len(spans)} spans)"]
    return table, tally, notes


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "share": "ratio"}


def per_layer_unit(name: str) -> str:
    if name in spanlib.COUNTER_NAMES:
        return "count"
    suffix = name.split(".", 1)[1]
    if suffix in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[suffix]
    return "s" if name.endswith("_s") else "ratio"


def machine() -> str:
    versions = []
    for package in ("numpy", "mpmath"):
        try:
            versions.append(f"{package} {metadata.version(package)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{package} missing")
    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
            + ", ".join(versions))


def src_lines(root: Path) -> int:
    return sum(len(path.read_text().splitlines())
               for path in sorted((root / "src" / "opcalc").glob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUND_BUILDERS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "opcalc" / "cli.py").is_file():
        print("perfbench: run from a checkout root holding src/opcalc", file=sys.stderr)
        return 2
    (root / ".perfbench").mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if args.trace:
            table, tally, notes = traced(root, args.workload, args.seed, args.seconds, deadline)
            metrics = {name: (value, per_layer_unit(name), "") for name, value in table.items()}
        else:
            metrics, tally, notes = end_to_end(root, args.workload, args.seed, args.seconds,
                                               deadline)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    print(f"workload {args.workload}, seed {args.seed}, closed loop with one client, "
          f"trace {args.trace}")
    print(f"machine: {machine()}; src/opcalc lines: {src_lines(root)}")
    for name, (value, unit, base) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} {base}")
    share = tally.failed / tally.attempted
    print(f"  {'failed_share':28s} {share:14.6g} ratio  {tally.failed} failed of "
          f"{tally.attempted} attempted")
    for note in notes:
        print(f"note: {note}")
    for argv_, why in tally.failures:
        print(f"FAILED {json.dumps(argv_)}: {why}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _base) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
