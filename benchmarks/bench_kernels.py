"""Benchmark the counting kernel backends on realistic workloads.

Each workload counts the points of (Z/q)^rank avoiding the congruences of
a root-theoretic arrangement.  Every backend importable in this process is
timed (median of a few repeats) and the results are printed as a table, so
the script also works in a pure-Python build where no extension exists.

Run from the repository root:

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --repeats 7
"""

from __future__ import annotations

import argparse
import statistics
import time

from weylq import kernels
from weylq.charquasi import from_root_subset
from weylq.deform import type1_spec
from weylq.rootsys import build_root_system


def workloads():
    """Label, modulus and congruence spec for each benchmark case."""
    g2 = build_root_system("G", 2)
    a3 = build_root_system("A", 3)
    b3 = build_root_system("B", 3)
    d4 = build_root_system("D", 4)
    full = lambda rs: tuple(range(len(rs.positive_roots)))
    return [
        ("G2 full, plain", 211, from_root_subset(g2, full(g2))),
        ("A3 full, plain", 101, from_root_subset(a3, full(a3))),
        ("B3 full, offsets {0,1}", 60, from_root_subset(b3, full(b3), offsets=(0, 1))),
        ("D4 full, plain", 36, from_root_subset(d4, full(d4))),
        ("D4 full, offsets -1..2", 49, type1_spec(d4, full(d4), -1, 2)),
    ]


def time_call(fn, repeats: int) -> float:
    """Median wall-clock seconds of `fn()` over `repeats` runs."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="runs per timing (median is reported)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    backends = kernels.available_backends()
    names = list(backends)
    print(f"active backend: {kernels.BACKEND}")
    print(f"timing backends: {', '.join(names)} (median of {args.repeats})")
    print()

    both = "pure" in backends and "compiled" in backends
    header = f"{'workload':<24} {'q':>4}" + "".join(f" {n + ' (ms)':>15}" for n in names)
    if both:
        header += f" {'pure/compiled':>14}"
    print(header)
    print("-" * len(header))

    for label, q, spec in workloads():
        counts = {}
        timings = {}
        for name, module in backends.items():
            counts[name] = module.complement_count(q, spec.rank, spec.items)
            timings[name] = time_call(lambda m=module: m.complement_count(q, spec.rank, spec.items), args.repeats)
        if len(set(counts.values())) != 1:
            raise SystemExit(f"backend disagreement on {label!r}: {counts}")
        row = f"{label:<24} {q:>4}" + "".join(f" {timings[n] * 1e3:>15.3f}" for n in names)
        if both:
            row += f" {timings['pure'] / timings['compiled']:>13.1f}x"
        print(row)


if __name__ == "__main__":
    main()
