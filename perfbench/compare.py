"""Summarize run records, or compare two sets of them at equal seeds.

    python3 perfbench/compare.py perfbench/out/*-trace0.json
    python3 perfbench/compare.py --base old/*.json -- perfbench/out/*.json
    python3 perfbench/compare.py --json perfbench/out/*.json > summary.json

A summary gives, per workload and metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median.  A comparison pairs base and head records of the same
workload, seed and tracing, reports both medians and how many pairs the
head won, and refuses records whose backends differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List


def load(paths: List[str]) -> List[dict]:
    out = []
    for path in paths:
        with open(path) as fh:
            out.append(json.load(fh))
    return out


def summarize(records: List[dict]) -> Dict[str, Dict[str, dict]]:
    by_metric: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    stamps: Dict[str, set] = defaultdict(set)
    for rec in records:
        st = rec["stamp"]
        key = f"{st['workload']}/trace{int(st['trace'])}"
        stamps[key].add((st["backend"], st["python"], st["nproc"], st["commit"],
                         st["source_sha256"]))
        for name, value in rec["metrics"].items():
            by_metric[key][name].append(value)
        by_metric[key]["failed_frac"].append(rec["failed_frac"])
    out: Dict[str, Dict[str, dict]] = {}
    for key, metrics in sorted(by_metric.items()):
        out[key] = {"stamps": sorted(list(s) for s in stamps[key])}
        for name, values in metrics.items():
            median = statistics.median(values)
            row = {"n": len(values), "median": median}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
            out[key][name] = row
    return out


def compare(base: List[dict], head: List[dict]) -> int:
    def key(rec):
        st = rec["stamp"]
        return st["workload"], st["seed"], bool(st["trace"])

    base_by = {key(r): r for r in base}
    pairs = [(base_by[key(h)], h) for h in head if key(h) in base_by]
    if not pairs:
        print("error: no base and head records share a workload, seed and tracing")
        return 2
    for b, h in pairs:
        if b["stamp"]["backend"] != h["stamp"]["backend"]:
            print(f"error: refusing to compare {key(h)}: backend "
                  f"{b['stamp']['backend']} vs {h['stamp']['backend']}")
            return 2
    grouped = defaultdict(list)
    for b, h in pairs:
        grouped[(key(h)[0], key(h)[2])].append((b, h))
    for (workload, trace), group in sorted(grouped.items()):
        print(f"{workload} trace={int(trace)} pairs={len(group)}")
        for name in group[0][1]["metrics"]:
            bv = [b["metrics"][name] for b, _ in group]
            hv = [h["metrics"][name] for _, h in group]
            wins = sum(h < b for b, h in zip(bv, hv))
            bm, hm = statistics.median(bv), statistics.median(hv)
            change = f"{(hm / bm - 1) * 100:+.1f}%" if bm else "n/a"
            print(f"  {name}: base {bm:.6g} head {hm:.6g} ({change}); head lower in {wins}/{len(group)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="+")
    parser.add_argument("--base", nargs="+", default=None)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    head = load(args.records)
    if args.base is not None:
        return compare(load(args.base), head)
    summary = summarize(head)
    if args.json:
        print(json.dumps(summary, indent=1))
        return 0
    for key, metrics in summary.items():
        print(key, "stamps:", metrics.pop("stamps"))
        for name, row in metrics.items():
            extra = (f" q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.3f}"
                     if "q1" in row else "")
            print(f"  {name}: median {row['median']:.6g} n {row['n']}{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
