"""Counting kernel for the complements of congruence arrangements.

Counts points of (Z/q)^rank avoiding a list of congruences.  The
coordinates split into an outer prefix and an inner block of the last k
(k = 1 below rank 4, k = rank // 2 from rank 4 on).  The q^k points of the
block are the bits of one Python int: for every residue s, a class mask
holds the block points on which the block's part of an item's inner
product is s.  The masks grow one coordinate at a time: q shifted masks of
the smaller block give the residue-0 mask, and rotating the block one step
along a coordinate gives every other attained residue.  An item's
forbidden block points for an outer residue r are the OR of the class
masks at (b - r) mod q over its bad residues b, one list rotation per bad
residue; items with equal outer coefficients share one such table of q
masks.  The outer prefixes are walked in rows of q along their last
coordinate.  Along a row a table's masks are a rotation of one list when
that coordinate's coefficient is a unit mod q, a list memoised per leading
residue when it is another nonzero residue, and one mask when it is 0; the
tables of the last kind are ORed once per row.  The rows of all tables are
ORed elementwise and popcounted, so the Python-level loop runs over the
q^(rank-k-1) rows, and the count is q^rank minus the popcounts.  The
kernel holds q masks of q^k bits per distinct inner or outer tuple.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import repeat
from math import gcd
from operator import or_
from typing import Iterator, List, Sequence, Tuple

from weylq.errors import ValidationError

# perfbench records this; perfbench/compare.py refuses records whose backends differ.
BACKEND = "pure"

Item = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _block_size(rank: int) -> int:
    """Number of trailing coordinates tabulated as bitmasks."""
    return 1 if rank < 4 else rank // 2


def _class_masks(q: int, coeffs: Sequence[int]) -> List[int]:
    """masks[s] is the bitmask over the q^len(coeffs) block points z with
    sum(c * z) == s mod q, where point z is bit sum_j z[j] * q^(k-1-j)
    (the last coordinate least significant)."""
    masks = [1] + [0] * (q - 1)  # the empty block: one point, residue 0
    steps = []  # (coefficient, bit stride) of each coordinate, the leading one last
    width = 1
    divisor = q  # the attained residues are the multiples of this
    for c in reversed(coeffs):
        # prepend one coordinate: its value z shifts the residue by a * z
        # and the points by z whole copies of the block built so far
        a = c % q
        zero = 0
        for z in range(q):
            zero |= masks[-a * z % q] << (z * width)
        steps.append((a, width))
        width *= q
        divisor = gcd(divisor, a)
        masks = [0] * q
        masks[0] = zero
        reached = [0]
        # z -> z + 1 along a coordinate of coefficient step sends the points
        # of residue s to those of s + step: shift by the stride, wrapping
        # the points at z = q - 1 back to z = 0
        for step, stride in reversed(steps):
            if len(reached) == q // divisor:
                break
            if not step:
                continue
            back = (q - 1) * stride
            # the points with z = q - 1: one run of stride bits per q * stride
            runs = ((1 << width) - 1) // ((1 << q * stride) - 1)
            top = runs * (((1 << stride) - 1) << back)
            for s in reached[:]:
                mask = masks[s]
                s = (s + step) % q
                while not masks[s]:
                    high = mask & top
                    mask = (mask ^ high) << stride | high >> back
                    masks[s] = mask
                    reached.append(s)
                    s = (s + step) % q
    return masks


def _residues(q: int, coeffs: Sequence[int]) -> List[int]:
    """Residues of the inner product with coeffs over (Z/q)^len(coeffs),
    prefix-major then coordinate."""
    res = [0]
    for a in coeffs:
        if a == 0:
            res = [r for r in res for _ in range(q)]
        else:
            res = [(r + a * z) % q for r in res for z in range(q)]
    return res


def _rows(q: int, coeffs: Tuple[int, ...], table: List[int]) -> Iterator[Sequence[int]]:
    """For every row start (all outer coordinates but the last, in the
    order of _residues), the table's masks at the q prefixes of that row;
    the last outer coefficient is nonzero mod q."""
    *head, a = coeffs
    if gcd(a, q) == 1:
        # table[(r + a * z) % q] is line[(r / a + z) % q]
        inverse = pow(a, -1, q)
        line = [table[a * z % q] for z in range(q)]
        starts = _residues(q, [c * inverse % q for c in head])
        return (line[u:] + line[:u] for u in starts)
    memo = {}

    def row(r: int) -> List[int]:
        got = memo.get(r)
        if got is None:
            got = memo[r] = [table[(r + a * z) % q] for z in range(q)]
        return got

    return map(row, _residues(q, head))


def complement_count(q: int, rank: int, items: Sequence[Item]) -> int:
    """Number of points of (Z/q)^rank on which, for every item
    (coeffs, offsets), the inner product avoids every offset mod q."""
    if q < 1:
        raise ValidationError("modulus must be a positive integer")
    if rank < 1:
        raise ValidationError("rank must be a positive integer")
    prepared = []
    for coeffs, offsets in items:
        if len(coeffs) != rank:
            raise ValidationError("item length does not match the rank")
        bad = frozenset(m % q for m in offsets)
        if bad:
            prepared.append((coeffs, bad))
    if not prepared:
        return q**rank

    outer = rank - _block_size(rank)
    reversed_masks = {}
    forbidden_by = {}
    tables = {}
    for coeffs, bad in prepared:
        inner = tuple(c % q for c in coeffs[outer:])
        # forbid[r] is the OR of the class masks at (b - r) % q over bad b
        forbid = forbidden_by.get((inner, bad))
        if forbid is None:
            rev = reversed_masks.get(inner)
            if rev is None:
                masks = _class_masks(q, inner)
                rev = reversed_masks[inner] = masks[:1] + masks[:0:-1]  # masks[-r % q]
            for b in bad:
                rotated = rev[q - b :] + rev[: q - b]  # rev[(r - b) % q]
                forbid = rotated if forbid is None else list(map(or_, forbid, rotated))
            forbidden_by[inner, bad] = forbid
        # items with the same outer coefficients see the same outer residue
        # at every prefix, so they share one table
        key = tuple(c % q for c in coeffs[:outer])
        table = tables.get(key)
        tables[key] = forbid if table is None else list(map(or_, table, forbid))

    if not outer:  # rank 1: one table, and its block is the whole space
        (table,) = tables.values()
        return q - table[0].bit_count()
    # a table whose last outer coefficient is 0 holds one mask along each
    # row, so those tables, the all-zero tuple among them, are ORed once
    # per row start
    constant = [
        map(table.__getitem__, _residues(q, key[:-1]))
        for key, table in tables.items()
        if not key[-1]
    ]
    per_table = [_rows(q, key, table) for key, table in tables.items() if key[-1]]
    if constant:
        per_table.append(repeat(reduce(or_, masks), q) for masks in zip(*constant))
    forbidden = sum(
        sum(map(int.bit_count, reduce(partial(map, or_), rows)))
        for rows in zip(*per_table)
    )
    return q**rank - forbidden
