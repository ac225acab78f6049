"""Counting kernel for the complements of congruence arrangements.

Counts points of (Z/q)^rank avoiding a list of congruences.  The
coordinates split into an outer prefix and an inner block of the last k
(k = 1 below rank 4, k = rank // 2 from rank 4 on).  The q^k points of the
block are the bits of one Python int: for every residue s, a class mask
holds the block points on which the block's part of an item's inner
product is s.  An item's forbidden block points for an outer residue r are
then the OR of the class masks at (b - r) mod q over its bad residues b;
items with equal outer coefficients share one such table.  The loop runs
over the q^(rank-k) outer prefixes only, one big-int OR per prefix and
table, and the count is q^rank minus the popcounts.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

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
    a = coeffs[-1] % q
    masks = [0] * q
    for z in range(q):
        masks[(a * z) % q] |= 1 << z
    width = q
    for c in reversed(coeffs[:-1]):
        # prepend one coordinate: its value z shifts the residue by c * z
        # and the points by z whole copies of the block built so far
        a = c % q
        grown = [0] * q
        for z in range(q):
            step = (a * z) % q
            shift = z * width
            rotated = masks[q - step :] + masks[: q - step]
            grown = [g | (m << shift) for g, m in zip(grown, rotated)]
        masks = grown
        width *= q
    return masks


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
        bad = {m % q for m in offsets}
        if bad:
            prepared.append((coeffs, bad))
    if not prepared:
        return q**rank

    outer = rank - _block_size(rank)
    class_masks = {}
    tables = {}
    for coeffs, bad in prepared:
        inner = tuple(c % q for c in coeffs[outer:])
        masks = class_masks.get(inner)
        if masks is None:
            masks = class_masks[inner] = _class_masks(q, inner)
        # items with the same outer coefficients see the same outer residue
        # at every prefix, so they share one table
        table = tables.setdefault(tuple(c % q for c in coeffs[:outer]), [0] * q)
        for r in range(q):
            for b in bad:
                table[r] |= masks[(b - r) % q]

    merged = [0] * q**outer
    for outer_coeffs, table in tables.items():
        # residues of the outer inner product, prefix-major then coordinate
        res = [0]
        for a in outer_coeffs:
            if a == 0:
                res = [r for r in res for _ in range(q)]
            else:
                res = [(r + a * z) % q for r in res for z in range(q)]
        merged = [m | table[r] for m, r in zip(merged, res)]

    return q**rank - sum(map(int.bit_count, merged))
