"""Kernel selection: the compiled extension when built, else pure Python.

Both backends expose the same complement_count signature and give the same
counts, which the test suite checks, but they split the coordinates
differently.  The pure kernel tabulates a block of trailing coordinates
(the last one below rank 4, the last rank // 2 from rank 4 on) as Python
big-int masks and loops over the remaining outer prefixes; the compiled
one tabulates only the last coordinate, in machine words, and loops over
q^(rank-1) prefixes.  benchmarks/bench_kernels.py compares their speed on
realistic workloads.
"""

from __future__ import annotations

from weylq import _kernels_py

try:
    from weylq import _speedups

    BACKEND = "compiled"
    _active = _speedups
except ImportError:  # extension not built; fall back to pure Python
    _speedups = None
    BACKEND = "pure"
    _active = _kernels_py


def complement_count(q, rank, items):
    """Count points of (Z/q)^rank avoiding every (coeffs, offsets) congruence."""
    return _active.complement_count(q, rank, items)


def available_backends() -> dict:
    """Name to module map of the kernels importable in this process."""
    out = {"pure": _kernels_py}
    if _speedups is not None:
        out["compiled"] = _speedups
    return out
