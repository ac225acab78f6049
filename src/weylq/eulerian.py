"""Mark-weighted descent and ascent statistics over the Weyl group.

The extended base consists of the negative of the highest root (position 0,
mark 1) followed by the simple roots (position i, mark c_i).  For a subset
of the positive roots, a group element sorts each extended-base image into
one of four classes: negative outside or inside the subset (descents), or
positive outside or inside it (ascents), each weighted by the mark.
The group is its image table (rootsys.enumerate_weyl): rank + 1 bytes
per element, one element per coset u * Omega-bar.  Omega-bar permutes the
extended base keeping its marks, so every statistic is constant on a
coset, and every count here is the count over W divided by the index of
connection f.

A statistic (one field of a profile) is the sum, over the extended-base
positions, of the position's mark where its image's class is the field's,
so it is added up over all elements at once: each position's images, one
bytes column sliced from the table, are translated to the mark or 0, and
the columns, read as integers, add up bytewise without carries (every
field is at most the Coxeter number, below 256).
eulerian_poly reads the descent lane and m_poly the ascent_bar lane alone
(_lane): each value's count is read off the summed lane, and one element
per value is classified by descent_profile, which must agree.  Only deform
reads the joint histogram of all four fields (profile_counts), whose
shift statistic weighs them all.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from typing import FrozenSet, Iterable, NamedTuple, Sequence, Tuple

from weylq.errors import InconsistencyError
from weylq.quasipoly import RationalPolynomial
from weylq.rootsys import (
    RootSubset,
    RootSystem,
    enumerate_weyl,
    normalize_subset,
)


class DescentProfile(NamedTuple):
    """Mark-weighted image counts of one element against one subset.

    descent: images that are negatives of roots outside the subset;
    descent_bar: negatives of roots inside it; ascent: roots outside;
    ascent_bar: roots inside.  The four always add up to the Coxeter
    number.  A named tuple, so counting profiles hashes plain 4-tuples.
    """

    descent: int
    descent_bar: int
    ascent: int
    ascent_bar: int


Histogram = Tuple[Tuple[DescentProfile, int], ...]


@functools.lru_cache(maxsize=4)
def _inside(rs: RootSystem, subset: Tuple[int, ...]) -> FrozenSet[int]:
    """The validated subset as a set, shared by a run of classifications."""
    return frozenset(normalize_subset(rs, subset))


def descent_profile(rs: RootSystem, subset: Iterable[int], images: Iterable[int]) -> DescentProfile:
    """Classify one element from its extended-base images: a row of the
    image table (rootsys.enumerate_weyl) or any sequence of signed-root
    indices, one per extended-base position."""
    psi = _inside(rs, tuple(subset))
    n = len(rs.positive_roots)
    descent = descent_bar = ascent = ascent_bar = 0
    # signed index i < n is the positive root i, else the negative of i - n
    for image, mark in zip(images, (1,) + rs.marks):
        if image < n:
            if image in psi:
                ascent_bar += mark
            else:
                ascent += mark
        elif image - n in psi:
            descent_bar += mark
        else:
            descent += mark
    return DescentProfile(descent, descent_bar, ascent, ascent_bar)


def _class_codes(rs: RootSystem, psi: RootSubset) -> bytes:
    """A bytes.translate table sending each signed-root index to its class
    against the subset, in DescentProfile field order: 0 descent,
    1 descent_bar, 2 ascent, 3 ascent_bar."""
    n = len(rs.positive_roots)
    inside = _inside(rs, psi)
    codes = bytearray(256)
    for i in range(n):
        codes[i] = 3 if i in inside else 2
        codes[n + i] = 1 if i in inside else 0
    return bytes(codes)


# Per field (DescentProfile order) and mark, a bytes.translate table
# sending that field's class code to the mark and the other codes to 0.
# Marks run up to 6 (E8).
_LANES = tuple(
    tuple(bytes(mark if code == field else 0 for code in range(256)) for mark in range(7))
    for field in range(4)
)


def _lane_sum(table: bytes, tables: Sequence[bytes]) -> bytes:
    """Per element, the sum over the extended-base positions of its image
    translated by that position's table, one byte per element: each
    position's column is sliced from the image table and the translated
    columns are added as little-endian integers, so no byte may pass 255."""
    width = len(tables)
    total = 0
    for i, marks in enumerate(tables):
        total += int.from_bytes(table[i::width].translate(marks), "little")
    return total.to_bytes(len(table) // width, "little")


# One entry per statistic of a subset: e and m of one query, or the e of
# each ideal of a sweep.  The table bound depends on rs alone, so a hit
# means it already passed.
@functools.lru_cache(maxsize=4)
def _lane(rs: RootSystem, psi: RootSubset, field: str) -> Tuple[Tuple[int, int], ...]:
    """Each value of one profile field (a DescentProfile field name) over
    the group with its number of elements, in increasing order.  The first
    row of each value (at most h + 1 of them) is also classified one by
    one (descent_profile), and its profile must read that value."""
    table = enumerate_weyl(rs)
    width = rs.rank + 1
    codes = _class_codes(rs, psi)
    k = DescentProfile._fields.index(field)
    lane = _lane_sum(table, [codes.translate(_LANES[k][mark]) for mark in (1,) + rs.marks])
    counts = []
    for value in range(rs.coxeter_number + 1):
        count = lane.count(value)
        if count:
            index = lane.index(value)
            profile = descent_profile(rs, psi, table[index * width : (index + 1) * width])
            if profile[k] != value:
                raise InconsistencyError(
                    f"element {index} has profile {tuple(profile)}, but its image "
                    f"columns sum to {value} in field {field}"
                )
            counts.append((value, count))
    return tuple(counts)


# The joint histogram, which only deform reads (e and m read one lane
# each).  A few subsets at a time: the deformation formulas of one query,
# or one ideal with its deformation checks; an entry holds only the
# distinct profiles; as with _lane, a hit means the table bound already
# passed.  The lane sums of descent, descent_bar and ascent (module
# docstring) are interleaved into one 4-byte key per element and the keys
# counted; the first row of each distinct key is also classified one by
# one (descent_profile), and its profile must read the key (its
# ascent_bar, h minus the other three, then agrees too).
@functools.lru_cache(maxsize=4)
def _profiles(rs: RootSystem, psi: RootSubset) -> Histogram:
    table = enumerate_weyl(rs)
    width = rs.rank + 1
    size = len(table) // width
    codes = _class_codes(rs, psi)
    marks = (1,) + rs.marks
    packed = bytearray(4 * size)
    for field, lanes in enumerate(_LANES[:3]):
        tables = [codes.translate(lanes[mark]) for mark in marks]
        packed[field::4] = _lane_sum(table, tables)
    keys = array("I", packed)
    hist = {}
    index = -1
    # the Counter lists the keys in the order of their first elements, so
    # each search for a key's first element starts after the previous one
    for key, count in Counter(keys).items():
        index = keys.index(key, index + 1)
        profile = descent_profile(rs, psi, table[index * width : (index + 1) * width])
        summed = tuple(packed[4 * index : 4 * index + 3])
        if profile[:3] != summed:
            raise InconsistencyError(
                f"element {index} has profile {tuple(profile)}, but its image "
                f"columns sum to {summed}"
            )
        hist[profile] = count
    return tuple(sorted(hist.items()))


def profile_counts(rs: RootSystem, subset: Iterable[int]) -> Histogram:
    """Histogram of the profiles over W/Omega-bar: each distinct profile
    with the number of cosets that have it, its count over W divided by
    the index of connection, in increasing profile order.  The deformation
    formulas read it; e and m read one lane each (_lane).
    """
    return _profiles(rs, normalize_subset(rs, subset))


def eulerian_poly(rs: RootSystem, subset: Iterable[int]) -> RationalPolynomial:
    """Generating polynomial of h minus the descent statistic over W/Omega,
    the paper's sum over W divided by the index of connection."""
    h = rs.coxeter_number
    fibers = _lane(rs, normalize_subset(rs, subset), "descent")
    return RationalPolynomial.from_terms((h - v, c) for v, c in fibers)


def m_poly(rs: RootSystem, subset: Iterable[int]) -> RationalPolynomial:
    """Generating polynomial of h plus the inside-ascent statistic over
    W/Omega, the sum over W divided by the index of connection."""
    h = rs.coxeter_number
    fibers = _lane(rs, normalize_subset(rs, subset), "ascent_bar")
    return RationalPolynomial.from_terms((h + v, c) for v, c in fibers)
