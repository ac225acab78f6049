"""Lattice-point counts for the dilated fundamental alcove.

In fundamental-coweight coordinates the q-dilated closed alcove is the set
of integer vectors z >= 0 with sum of marks[i] * z[i] at most q, so every
count here is a one-dimensional knapsack recursion over that weighted sum.
Walls are numbered 0..rank: wall i >= 1 is z[i-1] = 0 with mark marks[i-1],
and wall 0 is the affine one, weighted sum = q, with mark 1.
"""

from __future__ import annotations

import functools
import math
from typing import List, Sequence, Tuple

from weylq.errors import ValidationError
from weylq.quasipoly import QuasiPolynomial, interpolate_qp
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


@functools.lru_cache(maxsize=4)
def ehrhart_open_qp(rs: RootSystem) -> QuasiPolynomial:
    """Quasi-polynomial of count_open, period lcm of the marks: the open
    face of the alcove with every wall off it."""
    return open_face_qp(tuple(sorted(_facet_marks(rs))))


# Keyed by a sorted tuple of marks, so systems with equal extended marks
# (B4 and C4) share entries.  E8 never takes the face route; E7, the largest
# system that does, uses 71 distinct keys.
@functools.lru_cache(maxsize=256)
def open_face_qp(marks: Tuple[int, ...]) -> QuasiPolynomial:
    """Points of an open face of the q-dilated alcove whose off-face walls
    carry these marks (the affine wall carries 1): the vectors z >= 1 with
    sum marks[i] * z[i] == q.

    The count depends only on the multiset of marks, has period their lcm
    and degree one less than their number, and is read from one knapsack
    table that reaches every interpolation sample.
    """
    period = math.lcm(*marks)
    degree = len(marks) - 1
    counts = _exact_counts(marks, (1,) * len(marks), (degree + 3) * period)
    return interpolate_qp(counts.__getitem__, period, degree)


def _facet_marks(rs: RootSystem) -> Tuple[int, ...]:
    """Mark of each wall 0..rank; the affine wall counts 1."""
    return (1,) + tuple(rs.marks)
