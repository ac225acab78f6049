"""Lattice-point counts for the dilated fundamental alcove.

In fundamental-coweight coordinates the q-dilated closed alcove is the set
of integer vectors z >= 0 with sum of marks[i] * z[i] at most q, so every
count here is a one-dimensional knapsack recursion over that weighted sum.
Walls are numbered 0..rank: wall i >= 1 is z[i-1] = 0 with mark marks[i-1],
and wall 0 is the affine one, weighted sum = q, with mark 1.  The open
quasi-polynomial is the closed one shifted by the Coxeter number h.
"""

from __future__ import annotations

import functools
import math
from typing import List, Sequence

from weylq.errors import ValidationError
from weylq.quasipoly import QuasiPolynomial, RationalPolynomial, apply_shift, interpolate_qp
from weylq.rootsys import RootSystem


def _check_q(q: int, minimum: int) -> None:
    if not isinstance(q, int) or isinstance(q, bool):
        raise ValidationError(f"dilation must be an integer, got {q!r}")
    if q < minimum:
        raise ValidationError(f"dilation must be at least {minimum}, got {q}")


def _exact_counts(weights: Sequence[int], lows: Sequence[int], limit: int) -> List[int]:
    """Entry s, for s = 0..limit, is the number of integer vectors z with
    z[i] >= lows[i] and sum weights[i] * z[i] == s, by one knapsack pass
    per coordinate."""
    dp = [0] * (limit + 1)
    dp[0] = 1
    for c, low in zip(weights, lows):
        new = [0] * (limit + 1)
        base = low * c
        for s in range(base, limit + 1):
            new[s] = dp[s - base]
            if s >= c:
                new[s] += new[s - c]
        dp = new
    return dp


def _sum_counts(weights: Sequence[int], lows: Sequence[int], limit: int) -> int:
    """Number of integer vectors z with z[i] >= lows[i] and
    sum weights[i] * z[i] <= limit."""
    if limit < 0:
        return 0
    return sum(_exact_counts(weights, lows, limit))


def count_closed(rs: RootSystem, q: int) -> int:
    """Points of the q-dilated closed alcove."""
    _check_q(q, 0)
    return _sum_counts(rs.marks, (0,) * rs.rank, q)


def count_open(rs: RootSystem, q: int) -> int:
    """Points of the q-dilated open alcove: all coordinates positive and
    the weighted sum strictly below q."""
    _check_q(q, 1)
    return _sum_counts(rs.marks, (1,) * rs.rank, q - 1)


@functools.lru_cache(maxsize=4)
def ehrhart_closed_qp(rs: RootSystem) -> QuasiPolynomial:
    """Quasi-polynomial of count_closed, period lcm of the marks."""
    return interpolate_qp(lambda q: count_closed(rs, q), math.lcm(*rs.marks), rs.rank)


def ehrhart_open_qp(rs: RootSystem) -> QuasiPolynomial:
    """Quasi-polynomial of count_open: the closed one shifted by h.  The
    open alcove is the face with every wall off it, so its series is
    t^h / D(t) (charquasi.char_quasi_faces proves the shift exact)."""
    return apply_shift(RationalPolynomial.monomial(rs.coxeter_number), ehrhart_closed_qp(rs))
