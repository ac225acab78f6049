"""Query-level benchmark of the weylq CLI, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compat-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each sample is a fresh interpreter (child.py) that imports ``weylq.cli``
and sends the workload's seeded queries to ``weylq.cli.main`` one at a
time, so no in-process cache survives from one sample to the next.  Every
answer is checked (workloads.py); a wrong answer, a non-zero exit, a
refusal (exit 3) or a query past its cap is a failed query and its sample
gives no timing.

``--trace 0`` repeats samples for about ``--seconds`` and reports the
medians of wall_s, cpu_s and peak_rss_mib over the clean samples, and the
median setup_s over every interpreter started, including setup-only ones.

The three times are in seconds at a fixed reference speed.  The machines
this runs on are shared, and the speed at which one interpreter runs
drifts by up to a factor of two over seconds to minutes, which no number
of repeats inside a 30 s run averages out.  So every untraced interpreter
runs child.py's speed probe: on every 5 ms of its CPU time it times a
fixed reference loop.  A time T over which the probe ran n ticks, taking
P seconds in all of which L were timed loops, is reported as
(T - P) * REFERENCE_LOOP_S / (L / n): the probe's own cost taken out, and
the rest scaled from the mean reference-loop time of that very span to
REFERENCE_LOOP_S.  At full speed this is close to the raw time; the raw
times stay in the record (``raw`` of each sample, ``raw_metrics``) and are
printed beside the scaled ones.

``--trace 1`` runs one untraced and two traced samples and reports the
per-layer metrics of tracing.py; it checks that every layer the workload
uses recorded spans, that the exact counts of the two traced samples
agree, and that the layer self times add up to the traced wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record, stamped with
backend, Python version, nproc, commit, source digest, seed and tracing,
goes to ``perfbench/out/``; compare.py compares such records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import tracing
from workloads import WORKLOADS, check_answer, load_pinned, make_queries, result_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")

RUN_BUDGET_S = 165  # every run must end within 180 s
SETUP_REPEATS = 9  # setup-only interpreters per run, besides each sample's own
TRACED_SAMPLES = 2
# Mean duration of the probe's timed child.reference_loop on the machine
# the baseline was recorded on, a 2-vCPU virtual machine with CPython 3.11,
# when it ran at full speed.  A fixed constant, so that scaled times of
# different runs and commits compare.
REFERENCE_LOOP_S = 100e-6
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(job: dict, timeout_s: float) -> Optional[dict]:
    """Run child.py on one job; None when it had to be killed."""
    job = dict(job, root=ROOT, spawn_ns=time.monotonic_ns())
    proc = subprocess.Popen(
        [sys.executable, CHILD, json.dumps(job)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"sample interpreter exited {proc.returncode}:\n{err.strip()[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def at_reference_speed(rep: dict) -> None:
    """Replace the probed times of a child's report by their values at the
    reference speed (see the module docstring); keep the raw ones."""
    spans = [("setup_s", "setup_probe", "setup_s")]
    if "query_probe" in rep:
        spans += [("wall_s", "query_probe", "wall_s"), ("cpu_s", "query_probe", "cpu_s")]
    rep["raw"] = {}
    for name, probe_key, raw_key in spans:
        probe = rep[probe_key]
        if probe["ticks"] == 0:
            raise BenchError(f"the speed probe took no sample during {name}")
        loop_s = probe["loop_seconds"] / probe["ticks"]
        rep["raw"][name] = rep[raw_key]
        rep[name] = (rep[raw_key] - probe["seconds"]) * REFERENCE_LOOP_S / loop_s


class Run:
    """One invocation on one workload: its samples, checks and record."""

    def __init__(self, workload: str, seed: int, deadline_ns: int):
        self.workload, self.seed, self.deadline_ns = workload, seed, deadline_ns
        self.queries = make_queries(workload, seed)
        self.pinned = load_pinned()
        self.samples: List[dict] = []
        self.setups: List[float] = []
        self.raw_setups: List[float] = []
        self.raw_metrics: Dict[str, float] = {}
        self.stamp: Dict[str, object] = {}

    def remaining_s(self) -> float:
        return (self.deadline_ns - time.monotonic_ns()) / 1e9

    def setup_only(self, keep: bool) -> None:
        rep = spawn({"queries": [], "trace": False}, self.remaining_s())
        if rep is None:
            raise BenchError("a setup-only interpreter did not finish")
        self.stamp.update(backend=rep["backend"], python=rep["python"])
        if keep:
            self.keep_setup(rep)

    def keep_setup(self, rep: dict) -> None:
        at_reference_speed(rep)
        self.setups.append(rep["setup_s"])
        self.raw_setups.append(rep["raw"]["setup_s"])

    def sample(self, trace: bool, spans_out: str = "") -> dict:
        """One fresh interpreter over the workload's queries, answers checked."""
        job = {"queries": [{k: q[k] for k in ("id", "argv", "cap_s")} for q in self.queries],
               "trace": trace, "spans_out": spans_out, "deadline_ns": self.deadline_ns}
        cap = sum(q["cap_s"] for q in self.queries) + 30
        rep = spawn(job, min(cap, self.remaining_s() + 5))
        if rep is None:
            rep = {"queries": [{"id": q["id"], "status": "timeout", "rc": None, "stdout": "",
                                "reason": "sample interpreter killed at the run's deadline"}
                               for q in self.queries]}
        else:
            if not trace:
                self.keep_setup(rep)
            self.stamp.update(backend=rep["backend"], python=rep["python"])
        for query, rec in zip(self.queries, rep["queries"]):
            out = rec.pop("stdout")
            if rec["status"] == "ok":
                reason = check_answer(query, out, self.pinned)
                if reason is not None:
                    rec["status"], rec["reason"] = "wrong", reason
                else:
                    rec["digest"] = result_digest(json.loads(out))
        rep["traced"] = trace
        rep["clean"] = all(r["status"] == "ok" for r in rep["queries"])
        self.samples.append(rep)
        return rep

    @property
    def attempted(self) -> int:
        return sum(len(s["queries"]) for s in self.samples)

    @property
    def failed(self) -> int:
        return sum(r["status"] != "ok" for s in self.samples for r in s["queries"])

    def end_to_end(self, seconds: float) -> Dict[str, float]:
        self.setup_only(keep=False)  # warm-up: writes bytecode caches
        start = time.monotonic()
        durations = []
        while True:
            t = time.monotonic()
            self.sample(trace=False)
            durations.append(time.monotonic() - t)
            expected_s = statistics.median(durations)
            if (time.monotonic() - start + expected_s > seconds
                    or self.remaining_s() < expected_s + 15):
                break
        for _ in range(SETUP_REPEATS):
            self.setup_only(keep=True)
        clean = [s for s in self.samples if s["clean"]]
        if not clean:
            raise BenchError("no sample answered every query correctly; see the record")
        metrics = {m: statistics.median(s[m] for s in clean)
                   for m in ("wall_s", "cpu_s", "peak_rss_mib")}
        metrics["setup_s"] = statistics.median(self.setups)
        self.raw_metrics = {m: statistics.median(s["raw"][m] for s in clean)
                            for m in ("wall_s", "cpu_s")}
        self.raw_metrics["setup_s"] = statistics.median(self.raw_setups)
        return metrics

    def per_layer(self, problems: List[str]) -> Dict[str, float]:
        self.setup_only(keep=False)
        untraced = self.sample(trace=False)
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        traced, layers = [], []
        for k in range(TRACED_SAMPLES):
            path = os.path.join(OUT, "spans", f"{self.workload}-{k}.spans")
            rep = self.sample(trace=True, spans_out=path)
            if "spans_file" not in rep:
                raise BenchError("a traced sample was killed before writing its spans")
            traced.append(rep)
            summary = tracing.summarize(path)
            rep["layers"] = tracing.layer_metrics(summary)
            rep["span_count"] = summary["span_count"]
            rep["self_sum_s"] = sum(summary["self_s"].values())
            layers.append((summary, rep["layers"]))
        if not all(s["clean"] for s in [untraced] + traced):
            raise BenchError("a sample gave a wrong or missing answer; see the record")
        for layer in tracing.LAYERS:
            for summary, _ in layers:
                n = summary["spans"][layer.name]
                if self.workload in layer.used_on and n == 0:
                    problems.append(f"layer {layer.name} recorded no span")
                if self.workload in layer.idle_on and n:
                    problems.append(f"layer {layer.name} recorded {n} spans; it should be idle")
        first, second = layers[0][1], layers[1][1]
        for name in tracing.count_metrics():
            if first[name] != second[name]:
                problems.append(f"count {name} differs between traced samples: "
                                f"{first[name]} vs {second[name]}")
        metrics = {name: statistics.median(m[name] for _, m in layers) for name in first}
        traced_wall = statistics.median(s["wall_s"] for s in traced)
        # the untraced sample's wall time without its probe, unscaled like the traced ones
        untraced_wall = untraced["raw"]["wall_s"] - untraced["query_probe"]["seconds"]
        metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1
        tolerance = max(abs(metrics["trace.overhead_frac"]), 0.01)
        for rep in traced:
            gap = abs(rep["self_sum_s"] - rep["wall_s"]) / rep["wall_s"]
            if gap > tolerance:
                problems.append(f"layer self times sum to {rep['self_sum_s']:.3f} s but the "
                                f"traced wall time is {rep['wall_s']:.3f} s")
        return metrics


def source_stamp() -> Dict[str, object]:
    """Commit (when the checkout is a git repository) and a digest of src/."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = res.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = os.path.join(ROOT, "src")
    paths = []
    for base, dirs, files in os.walk(src):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        paths += [os.path.join(base, name) for name in files]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, src).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def metric_unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name == "kernels.ns_per_work":
        return "ns"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline_ns: int) -> dict:
    """Measure one workload; the record is written even when the run fails."""
    run = Run(workload, seed, deadline_ns)
    problems: List[str] = []
    metrics: Dict[str, float] = {}
    try:
        metrics = run.per_layer(problems) if trace else run.end_to_end(seconds)
    finally:
        write_record(run, trace, seconds, metrics, problems)
    return {"correct": run.failed == 0 and not problems, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": metric_unit(k)} for k, v in metrics.items()}}


def write_record(run: Run, trace: bool, seconds: float, metrics: Dict[str, float],
                 problems: List[str]) -> None:
    failed_frac = run.failed / run.attempted if run.attempted else 0.0
    stamp = dict(run.stamp, nproc=os.cpu_count(), seed=run.seed, trace=trace,
                 workload=run.workload, seconds=seconds, clients=1, loop="closed",
                 **source_stamp())
    record = {"stamp": stamp, "metrics": metrics, "failed_frac": failed_frac,
              "attempted": run.attempted, "failed": run.failed, "problems": problems,
              "raw_metrics": run.raw_metrics, "setups_s": run.setups,
              "raw_setups_s": run.raw_setups, "samples": run.samples}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{run.workload}-seed{run.seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{run.workload} seed={run.seed} backend={stamp.get('backend')} trace={int(trace)} "
          f"samples={len(run.samples)} attempted={run.attempted} failed={run.failed}")
    for sample in run.samples:
        for rec in sample["queries"]:
            if rec["status"] != "ok":
                print(f"  {rec['id']}: {rec['status']}: {rec.get('reason')}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {metric_unit(name)}")
    for name, value in run.raw_metrics.items():
        print(f"  {name} {value:.6g} s raw, not scaled to the reference speed")
    print(f"  failed_frac {failed_frac:.6g} ratio")
    for sample in run.samples:
        if "self_sum_s" in sample:
            print(f"  traced sample: layer self times sum to {sample['self_sum_s']:.6g} s, "
                  f"wall_s {sample['wall_s']:.6g} s, {sample['span_count']} spans")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "weylq", "cli.py")):
        print(f"error: no weylq sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic_ns() + RUN_BUDGET_S * 10**9
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
