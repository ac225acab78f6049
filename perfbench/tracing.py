"""Per-layer spans recorded from outside the package.

Each layer is a module of ``weylq``; its boundary is one or more public
functions.  ``install`` replaces every ``weylq.*`` module binding of those
functions with a wrapper that records a span (layer, start, end, parent
span, query, work count), because call sites use ``from ... import`` and
keep their own binding.  Spans stay in memory until ``write_spans``.
``summarize`` turns a spans file into per-layer self times and counts: a
layer's self time is its spans' durations minus the time their direct
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

COMPAT, EULER, DEFORM = "compat-sweep", "eulerian-e6", "deform-verify"
ALL = (COMPAT, EULER, DEFORM)


# Work counts, computed from a call's bound arguments.


def _spec_sublists(a) -> int:
    return 2 ** len(a["spec"].items)


def _kernel_work(a) -> int:
    return a["q"] ** (a["rank"] - 1) * len(a["items"])


def _shift_terms(a) -> int:
    return len(a["shift"].terms)


SAMPLES = "samples"  # counted by wrapping interpolate_qp's sampler argument


@dataclass(frozen=True)
class Layer:
    """A layer: its metric prefix, the functions that bound it, and the
    modules expected to bind each function.

    ``used_on`` names the workloads that must record at least one span in
    the layer, ``idle_on`` those that must record none.  The time metric
    is the layer's self time, except that an ``inclusive`` layer reports
    its whole span duration, its child layers' time included.
    """

    name: str
    targets: Tuple[Tuple[str, str, Tuple[str, ...]], ...]
    calls: bool = False
    work: Optional[Tuple[str, object]] = None
    used_on: Tuple[str, ...] = ()
    idle_on: Tuple[str, ...] = ()
    inclusive: bool = False

    @property
    def time_metric(self) -> str:
        return "cli.self_s" if self.name == "cli" else f"{self.name}_s"


LAYERS: Tuple[Layer, ...] = (
    Layer("rootsys.build", (("rootsys", "build_root_system", ("rootsys", "cli")),),
          used_on=ALL),
    Layer("rootsys.weyl", (("rootsys", "enumerate_weyl", ("rootsys", "eulerian")),),
          calls=True, used_on=(EULER,)),
    Layer("rootsys.ideals", (("rootsys", "enumerate_ideals", ("rootsys", "cli")),),
          used_on=(COMPAT,)),
    # the Smith normal forms are part of the period search, so the period
    # time includes them and charquasi.snf_s is their share of it
    Layer("charquasi.period", (("charquasi", "lcm_period", ("charquasi",)),),
          calls=True, work=("sublists", _spec_sublists),
          used_on=(COMPAT,), idle_on=(EULER,), inclusive=True),
    Layer("charquasi.snf", (("charquasi", "smith_invariants", ("charquasi",)),),
          calls=True, used_on=(COMPAT,)),
    Layer("kernels.count", (("kernels", "complement_count", ("kernels",)),),
          calls=True, work=("work", _kernel_work),
          used_on=(DEFORM,), idle_on=(EULER,)),
    Layer("quasipoly.interp",
          (("quasipoly", "interpolate_qp", ("quasipoly", "charquasi", "ehrhart")),),
          work=("samples", SAMPLES), used_on=(COMPAT,)),
    Layer("quasipoly.lagrange", (("quasipoly", "lagrange_polynomial", ("quasipoly",)),),
          used_on=(COMPAT, DEFORM)),
    Layer("quasipoly.shift",
          (("quasipoly", "apply_shift", ("quasipoly", "compat", "deform")),),
          work=("terms", _shift_terms), used_on=(DEFORM, COMPAT)),
    Layer("quasipoly.compare",
          (("quasipoly", "qp_equal", ("quasipoly", "compat", "deform")),),
          used_on=(COMPAT, DEFORM)),
    Layer("ehrhart.knapsack",
          (("ehrhart", "count_closed", ("ehrhart",)), ("ehrhart", "count_open", ("ehrhart",))),
          calls=True, used_on=(COMPAT,)),
    Layer("eulerian.classify", (("eulerian", "descent_profile", ("eulerian",)),),
          calls=True, used_on=(EULER, COMPAT)),
    Layer("eulerian.fiber",
          (("eulerian", "eulerian_poly", ("eulerian", "cli", "compat")),
           ("eulerian", "m_poly", ("eulerian", "cli"))),
          used_on=(EULER,)),
    Layer("compat.decide", (("compat", "is_compatible", ("compat", "cli", "deform")),),
          calls=True, used_on=(COMPAT,)),
    Layer("deform.formula",
          (("deform", "cqp_type1_formula", ("deform", "cli")),
           ("deform", "cqp_type2_formula", ("deform", "cli"))),
          used_on=(DEFORM,)),
    Layer("deform.verify", (("deform", "verify_deform", ("deform", "cli")),),
          used_on=(DEFORM,)),
    Layer("cli", (("cli", "main", ("cli",)),), used_on=ALL),
)


def count_metrics() -> List[str]:
    """Names of the metrics that are exact counts, in table order."""
    out = []
    for layer in LAYERS:
        if layer.calls:
            out.append(f"{layer.name}.calls")
        if layer.work is not None:
            out.append(f"{layer.name}.{layer.work[0]}")
    return out


class BindingError(RuntimeError):
    """A wrapped function is missing from a module expected to bind it."""


@dataclass
class Tracer:
    """In-memory span store.  A span is the list
    [layer index, start ns, end ns, parent span index or -1, query index, work]."""

    spans: List[list] = field(default_factory=list)
    stack: List[int] = field(default_factory=list)
    query: int = -1
    bindings: Dict[str, List[str]] = field(default_factory=dict)

    def _wrap(self, fn: Callable, layer_index: int, work) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        bind = inspect.signature(fn).bind

        def enter(n: int) -> list:
            rec = [layer_index, 0, 0, stack[-1] if stack else -1, self.query, n]
            stack.append(len(spans))
            spans.append(rec)
            return rec

        if work == SAMPLES:
            def wrapper(sampler, *args, **kwargs):
                rec = enter(0)

                def counted(q):
                    rec[5] += 1
                    return sampler(q)

                rec[1] = clock()
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
        else:
            def wrapper(*args, **kwargs):
                rec = enter(work(bind(*args, **kwargs).arguments) if work else 0)
                rec[1] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Patch every weylq module binding of every layer function, then
        check that each expected binding was among those patched."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "weylq" or name.startswith("weylq."))]
        missing = []
        for index, layer in enumerate(LAYERS):
            work = layer.work and layer.work[1]
            for module, name, expected in layer.targets:
                original = getattr(sys.modules[f"weylq.{module}"], name)
                wrapper = self._wrap(original, index, work)
                found = []
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            found.append(mod.__name__.split(".", 1)[-1])
                self.bindings[f"{module}.{name}"] = sorted(found)
                missing += [f"weylq.{m}.{name}" for m in expected if m not in found]
        if missing:
            raise BindingError("layer functions not bound where expected: " + ", ".join(missing))

    def write_spans(self, path: str, query_ids: List[str]) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"layers": [l.name for l in LAYERS], "queries": query_ids}) + "\n")
            fh.writelines("%d %d %d %d %d %d\n" % tuple(rec) for rec in self.spans)


def summarize(path: str) -> Dict[str, object]:
    """Per-layer self and total seconds, span counts and work counts of a
    spans file."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        rows = [tuple(map(int, line.split())) for line in fh]
    names = header["layers"]
    child_ns = [0] * len(rows)
    for layer, start, end, parent, _, _ in rows:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns = {n: 0 for n in names}
    total_ns = {n: 0 for n in names}
    spans = {n: 0 for n in names}
    work = {n: 0 for n in names}
    for i, (layer, start, end, parent, _, n) in enumerate(rows):
        name = names[layer]
        self_ns[name] += end - start - child_ns[i]
        total_ns[name] += end - start
        spans[name] += 1
        work[name] += n
    return {
        "self_s": {n: v / 1e9 for n, v in self_ns.items()},
        "total_s": {n: v / 1e9 for n, v in total_ns.items()},
        "spans": spans,
        "work": work,
        "span_count": len(rows),
    }


def layer_metrics(summary: Dict[str, object]) -> Dict[str, float]:
    """The per-layer metrics of one traced sample, by metric name."""
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[layer.time_metric] = summary["total_s" if layer.inclusive else "self_s"][layer.name]
        if layer.calls:
            out[f"{layer.name}.calls"] = summary["spans"][layer.name]
        if layer.work is not None:
            out[f"{layer.name}.{layer.work[0]}"] = summary["work"][layer.name]
    work = summary["work"]["kernels.count"]
    out["kernels.ns_per_work"] = (
        summary["self_s"]["kernels.count"] * 1e9 / work if work else 0.0
    )
    return out
