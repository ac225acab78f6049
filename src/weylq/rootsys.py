"""Irreducible crystallographic root systems in simple-root coordinates.

Every root is a tuple of integers: its coefficients on the simple basis.
The bilinear form is normalised so long roots have squared length 2, which
makes all reflection matrices integral.  Positive roots are stored in a
canonical order (height ascending, then lexicographic), and all indices
into that list are 0-based.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import attrgetter
from typing import Dict, Iterable, List, Tuple

from weylq.errors import InconsistencyError, ResourceCapError, ValidationError

Vector = Tuple[int, ...]
RootSubset = Tuple[int, ...]

# Admissible ranks: from _MIN_RANK on, up to _MAX_RANK where it is set.
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"E": 8, "F": 4, "G": 2}
FAMILIES = tuple(_MIN_RANK)

# The Weyl group image table, counted while built as if it held all of W
# (rank + 1 bytes per element, twice that during the last join), though it
# holds |W|/f rows: the bound also admits systems to the face route.  E7,
# A9, D8, B8 and C8 fit, A10 (878 MB) and E8 do not.
MAX_WEYL_TABLE_BYTES = 1 << 28

# The root closure (_build) reflects each of its rank * h roots in rank
# simple roots, a rank-term pairing each: rank^3 * h steps, about 1e7 a
# second.  B60 (2.6e7 steps, 2.4 s) and B64 (2^25, 3.3 s) build; A76, B65,
# D65 and larger are refused, A100 (1.0e8) among them.
MAX_BUILD_STEPS = 1 << 25


class RootSystem:
    """An immutable root system with its classical numeric invariants,
    built by keyword, one per field.

    positive_roots is sorted by height then lexicographically; marks are the
    coefficients of the highest root; coxeter_number is 1 plus its height;
    weyl_order is read from the root heights (_order_from_heights) and
    index_of_connection is f = |W| / (rank! * prod(marks)), which equals the
    determinant of the Cartan matrix.
    """

    __slots__ = ("family", "rank", "cartan", "gram", "positive_roots", "highest_root_index",
                 "marks", "coxeter_number", "index_of_connection", "weyl_order")
    # the fields in slot order, which __eq__ compares
    _values = property(attrgetter(*__slots__))

    def __init__(self, **fields):
        for name in self.__slots__:
            object.__setattr__(self, name, fields.pop(name))
        if fields:
            raise TypeError("unexpected RootSystem fields: " + ", ".join(fields))

    # also serves as __delattr__, which passes no value
    def __setattr__(self, name, *value):
        raise AttributeError("RootSystem is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values == other._values if type(other) is RootSystem else NotImplemented

    def __hash__(self):
        # Equal systems share family and rank, so this agrees with equality
        # and spares every cache keyed on a system from hashing the Fraction
        # Gram matrix.
        return hash((self.family, self.rank))

    def __repr__(self):
        return f"RootSystem({self.family}{self.rank})"

    @property
    def highest_root(self) -> Vector:
        return self.positive_roots[self.highest_root_index]


def height(root: Vector) -> int:
    """Sum of simple-root coefficients."""
    return sum(root)


def _dynkin_edges(family: str, rank: int) -> Tuple[Tuple[int, int], ...]:
    """Edges of the Dynkin diagram on 0-based node indices."""
    chain = tuple((i, i + 1) for i in range(rank - 1))
    if family == "D":
        return chain[:-1] + ((rank - 3, rank - 1),)
    if family == "E":
        # Bourbaki's 1-3-4-...-rank chain with 2 on 4, 0-based
        return ((0, 2), (1, 3)) + chain[2:]
    return chain


def _simple_norms(family: str, rank: int) -> Tuple[Fraction, ...]:
    """Squared lengths of the simple roots, long roots normalised to 2."""
    two, one = Fraction(2), Fraction(1)
    # A, D and E have one root length.  G2: the first simple root is the
    # short one, so the highest root is 3*a1 + 2*a2.
    return {
        "B": (two,) * (rank - 1) + (one,),
        "C": (one,) * (rank - 1) + (two,),
        "F": (two, two, one, one),
        "G": (Fraction(2, 3), two),
    }.get(family, (two,) * rank)


def _order_from_heights(heights: Iterable[int]) -> int:
    """Order of the Weyl group of a root system, from the heights of its
    positive roots in some base: prod (ht + 1) / ht, Macdonald's Poincare
    product at t = 1.  Raises InconsistencyError when that is no integer."""
    num = den = 1
    for ht in heights:
        num *= ht + 1
        den *= ht
    order, rem = divmod(num, den)
    if rem:
        raise InconsistencyError(f"height product {num}/{den} is not an integer")
    return order


def _reflect(cartan, v, j):
    """The simple reflection s_j applied to the root with coefficients v."""
    return v[:j] + (v[j] - sum(row[j] * x for row, x in zip(cartan, v)),) + v[j + 1:]


@functools.lru_cache(maxsize=None)
def _build(family: str, rank: int) -> RootSystem:
    norms = _simple_norms(family, rank)
    gram = [[norms[i] if i == j else Fraction(0) for j in range(rank)] for i in range(rank)]
    for a, b in _dynkin_edges(family, rank):
        # Adjacent simple roots always pair to minus half the longer norm.
        gram[a][b] = gram[b][a] = -max(norms[a], norms[b]) / 2

    cartan = [[2 * x / norms[j] for j, x in enumerate(row)] for row in gram]
    if any(entry.denominator != 1 for row in cartan for entry in row):
        raise InconsistencyError("non-integral Cartan entry")
    cartan = tuple(tuple(map(int, row)) for row in cartan)

    # Close the simple roots under simple reflections; positives are the
    # orbit vectors with nonnegative coefficients.
    frontier = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    seen = set(frontier)
    while frontier:
        frontier = {_reflect(cartan, v, j) for v in frontier for j in range(rank)} - seen
        seen |= frontier
    positives = sorted((v for v in seen if min(v) >= 0), key=lambda v: (height(v), v))
    if 2 * len(positives) != len(seen):
        raise InconsistencyError("root orbit is not symmetric")

    highest = positives[-1]
    if any(height(v) == height(highest) for v in positives[:-1]):
        raise InconsistencyError("highest root is not unique")
    h = 1 + height(highest)
    if 2 * len(positives) != rank * h:
        raise InconsistencyError("positive root count disagrees with Coxeter number")
    order = _order_from_heights(map(height, positives))
    # |W| = rank! * f * prod(marks) (Humphreys, Reflection Groups and
    # Coxeter Groups, 4.9)
    f, rem = divmod(order, math.factorial(rank) * math.prod(highest))
    if rem:
        raise InconsistencyError("rank! times the marks does not divide the group order")

    return RootSystem(
        family=family,
        rank=rank,
        cartan=cartan,
        gram=tuple(map(tuple, gram)),
        positive_roots=tuple(positives),
        highest_root_index=len(positives) - 1,
        marks=highest,
        coxeter_number=h,
        index_of_connection=f,
        weyl_order=order,
    )


def build_root_system(family: str, rank: int) -> RootSystem:
    """Build the root system for a family letter and rank, validated first."""
    family = str(family)
    if family not in FAMILIES:
        raise ValidationError(
            f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}"
        )
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise ValidationError(f"rank must be an integer, got {rank!r}")
    lo, hi = _MIN_RANK[family], _MAX_RANK.get(family, rank)
    if not lo <= rank <= hi:
        bound = "6, 7 or 8" if family == "E" else f"exactly {hi}" if lo == hi else f"at least {lo}"
        raise ValidationError(f"family {family} requires rank {bound}")
    # h by family, the largest degree of W (Humphreys, Reflection Groups and
    # Coxeter Groups, table 3.1); E6, E7 and E8 at rank % 3 = 0, 1 and 2
    h = {"A": rank + 1, "D": 2 * rank - 2, "E": (12, 18, 30)[rank % 3], "F": 12, "G": 6}
    steps = rank**3 * h.get(family, 2 * rank)
    if steps > MAX_BUILD_STEPS:
        raise ResourceCapError(
            f"building {family}{rank} takes {steps} root closure steps, "
            f"above the limit of {MAX_BUILD_STEPS}"
        )
    return _build(family, rank)


@functools.lru_cache(maxsize=None)
def root_index(rs: RootSystem) -> Dict[Vector, int]:
    """Map each positive root to its index in the canonical order."""
    return {v: i for i, v in enumerate(rs.positive_roots)}


@functools.lru_cache(maxsize=None)
def signed_roots(rs: RootSystem) -> Tuple[Vector, ...]:
    """All 2N roots: the positive roots in canonical order, then their
    negatives in the same order, so root i and root i + N are opposite."""
    return rs.positive_roots + tuple(
        tuple(-c for c in v) for v in rs.positive_roots
    )


@functools.lru_cache(maxsize=None)
def extended_base_indices(rs: RootSystem) -> Tuple[int, ...]:
    """Signed-root indices of the extended base: the negative of the
    highest root, then the simple roots in coordinate order.  The simple
    roots have height 1, so the canonical order lists them first, the
    last coordinate's first."""
    n = len(rs.positive_roots)
    return (n + rs.highest_root_index,) + tuple(range(rs.rank - 1, -1, -1))


@functools.lru_cache(maxsize=None)
def _reflection_permutations(rs: RootSystem) -> Tuple[Tuple[int, ...], ...]:
    """Each simple reflection as a permutation of the signed-root indices:
    entry i of the j-th tuple is the index of s_j applied to root i."""
    roots = signed_roots(rs)
    lookup = {v: i for i, v in enumerate(roots)}
    return tuple(tuple(lookup[_reflect(rs.cartan, v, j)] for v in roots) for j in range(rs.rank))


def _coset_representatives(gens, simple, n):
    """The minimal coset representatives ^JW of W_J in W, for W generated by
    gens and J all of them but the last: the elements with no left descent
    in J, as permutations, the identity first.

    A permutation is an element's action on the 2n signed roots as a
    256-byte translate table (the identity past 2n), and simple[j] is the
    signed-root index of alpha_j, the positive root that gens[j] negates.
    s_j is a right descent of u when u(alpha_j) is negative, and a left
    descent when u^-1(alpha_j) is, that is when alpha_j sits at a negative
    root's position in u's table.

    ^JW is closed under prefixes, so every u in it of length k + 1 is w * s_j
    with w in ^JW of length k and s_j the smallest right descent of u; the
    walk keeps u only when reached that way, so it finds each element once.
    Each level is one longer than the last, and none is longer than n.
    """
    found, level = [], [bytes(range(256))]
    while level:
        found += level
        level = [
            longer
            for perm in level
            for j, gen in enumerate(gens)
            if perm[simple[j]] < n
            for longer in [gen.translate(perm)]
            if all(longer[a] < n for a in simple[:j])
            and all(longer.index(a) < n for a in simple[:-1])
        ]
    return found


def _omega_bar(rs: RootSystem, gens, simple, n) -> List[bytes]:
    """The linear parts of Omega, as translate tables: w0^(J_k) * w0 for
    each special node k (mark 1, the affine node first, giving the
    identity), J_k the simple reflections but s_k.  Each longest element
    is walked up by generators that are no right descent until all are."""
    def longest(js):
        perm = bytes(range(256))
        while (j := next((j for j in js if perm[simple[j]] < n), None)) is not None:
            perm = gens[j].translate(perm)
        return perm

    w0 = longest(range(rs.rank))
    special = [k for k, mark in enumerate(rs.marks) if mark == 1]
    return [w0.translate(longest([j for j in range(rs.rank) if j != k])) for k in [-1] + special]


# Two groups: a sweep over two systems (B4, then C4) reuses each group
# while it runs, and at most two large groups stay resident.
@functools.lru_cache(maxsize=2)
def _weyl_elements(rs: RootSystem) -> bytes:
    """The image table (enumerate_weyl) of one element per coset
    u * Omega-bar, the identity first, built by bytes.translate alone; no
    element is hashed.

    Every w factors uniquely as v * u, v in W_J and u in ^JW, the elements
    with no left descent in J (Bjorner and Brenti, Combinatorics of Coxeter
    Groups, 2.4.4), and v * u sends the extended base to P_v of u's images
    (P_v: v on the signed roots, 2N <= 256, see check_weyl_cap), so one
    translate moves a whole table of u's.  Down the chain W_m = <s_1..s_m>
    (_coset_representatives) each w is u_1 * ... * u_r, u_m in ^JW_m for J
    the first m - 1 generators, joined from the last factor outwards.

    After d factors the products p are ^JW for J the first rank - d
    generators, one per coset W_J * p, which the coefficients of the
    p(alpha_i) at the last d coordinates k key: they are the pairings
    <alpha_i, p^-1(omega_k)>, and the coweights omega_k off J have the
    stabiliser W_J.  At the first d where every Omega-bar orbit of keys has
    f members, one p per orbit times W_J is one element per coset of
    Omega-bar.  The counts are checked before the table is joined.
    """
    n = len(rs.positive_roots)
    gens = [bytes(perm) + bytes(range(2 * n, 256)) for perm in _reflection_permutations(rs)]
    # each generator's simple root, the one positive root it maps a negative
    # root to, read off the generator so the walks go by length whatever
    # the generators
    simple = bytes(min(gen[n:]) for gen in gens)
    cosets = [_coset_representatives(gens[:m], simple[:m], n) for m in range(rs.rank, 0, -1)]
    found = math.prod(map(len, cosets))
    if found != rs.weyl_order:
        raise InconsistencyError(f"closure found {found} elements, expected {rs.weyl_order}")
    f = rs.index_of_connection
    omega = [simple.translate(w) for w in _omega_bar(rs, gens, simple, n)]
    products = [bytes(range(256))]
    for depth, reps in enumerate(cosets, 1):
        products = [p.translate(v) for v in reps for p in products]
        codes = {}
        pack = bytes(codes.setdefault(r[-depth:], len(codes)) for r in signed_roots(rs))
        pack = pack.ljust(256, b"\0")
        orbits = [{w.translate(p).translate(pack) for w in omega} for p in products]
        if all(len(orbit) == f for orbit in orbits):
            break
    else:
        raise InconsistencyError(f"some Omega orbit has fewer than {f} cosets at every depth")
    seen, kept = set(), []
    for p, orbit in zip(products, orbits):
        if orbit.isdisjoint(seen):
            kept.append(p)
            seen |= orbit
    rows = len(kept) * math.prod(map(len, cosets[depth:]))
    if rows * f != rs.weyl_order:
        raise InconsistencyError(f"kept {rows} elements, expected |W|/f = {rs.weyl_order // f}")
    base = bytes(extended_base_indices(rs))
    table = b"".join(base.translate(p) for p in kept)
    for reps in cosets[depth:]:
        table = b"".join(table.translate(perm) for perm in reps)
    return table


def check_weyl_cap(rs: RootSystem) -> None:
    """Refuse with ResourceCapError when the signed roots do not fit the
    one-byte indices of the enumeration's translate tables, or when the
    image table would pass MAX_WEYL_TABLE_BYTES while built.  The check
    reads rs alone, so a cached group has already passed it."""
    if 2 * len(rs.positive_roots) > 256:
        raise ResourceCapError(
            f"{rs.family}{rs.rank} has {2 * len(rs.positive_roots)} signed roots; "
            "the Weyl group enumeration indexes at most 256"
        )
    # the image table, rank + 1 bytes per element, and its last join
    need = 2 * (rs.rank + 1) * rs.weyl_order
    if need > MAX_WEYL_TABLE_BYTES:
        raise ResourceCapError(
            f"building the Weyl group image table of {rs.family}{rs.rank} "
            f"takes {need} bytes, above the limit of {MAX_WEYL_TABLE_BYTES}"
        )


def enumerate_weyl(rs: RootSystem) -> bytes:
    """The Weyl group as its image table: rank + 1 bytes per element, the
    signed-root indices (signed_roots) of the images of the extended base
    (extended_base_indices), which determine the element.  The identity
    comes first, then one element per coset u * Omega-bar (|W|/f rows in
    all), in no other promised order.  Omega-bar, the linear parts of the
    alcove's stabiliser Omega = P^/Q^, permutes the extended base keeping
    its marks (Bourbaki, Lie Groups, VI.2.3; Iwahori and Matsumoto 1965),
    so each descent statistic is constant on a coset.  Refuses upfront
    when the table is too large (check_weyl_cap).
    """
    check_weyl_cap(rs)
    return _weyl_elements(rs)


def poset_leq(a: Vector, b: Vector) -> bool:
    """Componentwise order on coefficient vectors (the root poset order)."""
    if len(a) != len(b):
        raise ValidationError("cannot compare vectors of different lengths")
    return all(x <= y for x, y in zip(a, b))


def normalize_subset(rs: RootSystem, indices: Iterable[int]) -> RootSubset:
    """Sorted duplicate-free index tuple, validated against the root list."""
    n = len(rs.positive_roots)
    out = set()
    # each index is checked before any is compared with another, so a
    # mixed list fails here rather than in the sort
    for i in indices:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < n:
            raise ValidationError(f"root index {i!r} out of range 0..{n - 1}")
        out.add(i)
    return tuple(sorted(out))


def subset_complement(rs: RootSystem, indices: Iterable[int]) -> RootSubset:
    chosen = set(normalize_subset(rs, indices))
    return tuple(i for i in range(len(rs.positive_roots)) if i not in chosen)


def subset_from_roots(rs: RootSystem, roots: Iterable[Vector]) -> RootSubset:
    lookup = root_index(rs)
    out = set()
    for r in map(tuple, roots):
        if r not in lookup:
            raise ValidationError(
                f"{r} is not a positive root of {rs.family}{rs.rank}; "
                f"valid roots: {list(lookup)}"
            )
        out.add(lookup[r])
    return tuple(sorted(out))


def lower_closure(rs: RootSystem, indices: Iterable[int]) -> RootSubset:
    """Smallest ideal of the root poset containing the given roots."""
    base = normalize_subset(rs, indices)
    roots = rs.positive_roots
    return tuple(j for j, root in enumerate(roots) if any(poset_leq(root, roots[i]) for i in base))


@functools.lru_cache(maxsize=None)
def enumerate_ideals(rs: RootSystem) -> Tuple[RootSubset, ...]:
    """All ideals of the positive root poset, sorted by size then indices.

    The canonical root order ascends in height, so it is a linear extension
    of the poset and a left-to-right scan can decide membership greedily.
    """
    roots = rs.positive_roots
    n = len(roots)
    preds = [
        [j for j in range(i) if poset_leq(roots[j], roots[i])] for i in range(n)
    ]
    found: List[RootSubset] = []
    chosen = [False] * n

    def walk(i: int) -> None:
        if i == n:
            found.append(tuple(k for k in range(n) if chosen[k]))
            return
        walk(i + 1)
        if all(chosen[j] for j in preds[i]):
            chosen[i] = True
            walk(i + 1)
            chosen[i] = False

    walk(0)
    found.sort(key=lambda s: (len(s), s))
    return tuple(found)
