"""One benchmark sample in a fresh interpreter.

Started by run.py with a JSON job as its only argument.  It imports
``weylq.cli`` from the checkout's ``src``, reports how long that took from
the parent's spawn time, then feeds the job's queries to ``weylq.cli.main``
one at a time, each under its own wall-clock cap.  It prints one JSON line:
setup time, the query loop's wall and CPU seconds, peak RSS, and each
query's exit status and output.  With tracing on, the layer wrappers are
installed after the setup stamp and the spans are written to a file.

Untraced, a speed probe (``SpeedProbe``) runs from the first line of
``main`` on: every PROBE_PERIOD_S of the process's CPU time it times a
fixed reference loop.  Setup and the query loop each report how many probe
ticks they held, how long the probe ran in all and how long its timed
loops took, so run.py can subtract the probe's own cost and scale the
times to the interpreter speed of the moment (see run.py).
"""

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback


PROBE_PERIOD_S = 0.005


def reference_loop(n: int = 150) -> int:
    """Fixed interpreter work: integer arithmetic, a big-int mask, a dict
    and a list, as in weylq's own inner loops.  About 0.1 ms."""
    acc, mask, table, seen = 1, 0, {}, []
    for i in range(n):
        acc = (acc * 1103515245 + i) % 2147483648
        mask |= 1 << (acc & 127)
        table[acc & 63] = (i, acc)
        seen.append(acc >> 7)
    return mask ^ len(table) ^ len(seen)


class SpeedProbe:
    """Times reference_loop on every SIGPROF tick of process CPU time.

    The ticks sample the interpreter's speed over exactly the span being
    measured and in the same thread, so a host that runs this process
    slower for a while shows in the probe as much as in the workload.
    Each tick runs the loop twice and times only the second run: the first
    refills the caches the workload evicted, so the timed run measures the
    core's speed and not the workload's memory footprint, which a change
    to weylq may move.
    """

    def __init__(self):
        self.ticks = 0
        self.ns = 0  # the probe's whole cost, both runs
        self.loop_ns = 0  # the timed runs alone

    def _tick(self, signum, frame):
        t0 = time.perf_counter_ns()
        reference_loop()
        t1 = time.perf_counter_ns()
        reference_loop()
        t2 = time.perf_counter_ns()
        self.ns += t2 - t0
        self.loop_ns += t2 - t1
        self.ticks += 1

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def take(self) -> dict:
        """Ticks, probe seconds and timed-loop seconds since the last take."""
        out = {"ticks": self.ticks, "seconds": self.ns / 1e9, "loop_seconds": self.loop_ns / 1e9}
        self.ticks = self.ns = self.loop_ns = 0
        return out


class QueryTimeout(Exception):
    """Raised from the alarm handler when a query runs past its cap."""


_armed = [False]


def _on_alarm(signum, frame):
    if _armed[0]:
        _armed[0] = False
        raise QueryTimeout()


def run_query(cli, query: dict, cap_s: float) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rec = {"id": query["id"]}
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            _armed[0] = True
            signal.setitimer(signal.ITIMER_REAL, cap_s)
            try:
                rc = cli.main(query["argv"])
            finally:
                _armed[0] = False
                signal.setitimer(signal.ITIMER_REAL, 0)
    except QueryTimeout:
        rc, rec["status"] = None, "timeout"
        rec["reason"] = f"ran past its {cap_s:.1f} s cap"
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code
    except Exception:
        rc, rec["status"] = None, "error"
        rec["reason"] = traceback.format_exc(limit=3)
    rec["seconds"] = time.perf_counter() - start
    rec["rc"] = rc
    if "status" not in rec:
        if rc == 0:
            rec["status"] = "ok"
        else:
            rec["status"] = "refused" if rc == 3 else "error"
            rec["reason"] = f"exit {rc}: {err.getvalue().strip()}"
    rec["stdout"] = out.getvalue()
    return rec


def main() -> int:
    job = json.loads(sys.argv[1])
    probe = None if job["trace"] else SpeedProbe()
    if probe is not None:
        probe.start()
    sys.path.insert(0, os.path.join(job["root"], "src"))
    import weylq.cli
    import weylq.kernels

    # CLOCK_MONOTONIC is shared by every process of the machine, so the
    # parent's stamp taken before spawning is comparable with this one.
    setup_s = (time.monotonic_ns() - job["spawn_ns"]) / 1e9
    report = {"setup_s": setup_s, "backend": weylq.kernels.BACKEND,
              "python": sys.version.split()[0], "weylq_file": weylq.cli.__file__}
    if probe is not None:
        report["setup_probe"] = probe.take()
    queries = job["queries"]
    if not queries:
        if probe is not None:
            probe.stop()
        print(json.dumps(report))
        return 0
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        report["bindings"] = tracer.bindings
    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    if probe is not None:
        probe.take()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for index, query in enumerate(queries):
        cap = min(query["cap_s"], (job["deadline_ns"] - time.monotonic_ns()) / 1e9)
        if cap <= 0:
            records.append({"id": query["id"], "status": "timeout", "rc": None,
                            "seconds": 0.0, "stdout": "",
                            "reason": "the run's deadline passed before it started"})
            continue
        if tracer is not None:
            tracer.query = index
        records.append(run_query(weylq.cli, query, cap))
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if probe is not None:
        probe.stop()
        report["query_probe"] = probe.take()
    report.update(
        wall_s=wall,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mib=ru1.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        queries=records,
    )
    if tracer is not None:
        tracer.write_spans(job["spans_out"], [q["id"] for q in queries])
        report["spans_file"] = job["spans_out"]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
