"""Characteristic quasi-polynomials of congruence arrangements.

An arrangement is a list of integer coefficient vectors, each carrying a
set of forbidden offsets.  For a modulus q the complement count is the
number of points of (Z/q)^rank avoiding every congruence; interpolating
that count over a verified period yields the characteristic
quasi-polynomial.  Subsets of a positive system need no counting: their
generating function is N(t)/D(t), N read from Weyl orbits of the alcove's
faces, so their quasi-polynomial is the closed alcove's shifted by N
(char_quasi_faces).  char_quasi_subset counts only short subsets whose
period search gives 1, and refuses systems whose Weyl group passes the
table bound (rootsys.check_weyl_cap).
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from weylq import kernels
from weylq.ehrhart import ehrhart_closed_qp
from weylq.errors import ResourceCapError, ValidationError
from weylq.quasipoly import QuasiPolynomial, RationalPolynomial
from weylq.quasipoly import apply_shift, fold_period, interpolate_qp
from weylq.rootsys import (
    RootSubset,
    RootSystem,
    _order_from_heights,
    _reflection_permutations,
    check_weyl_cap,
    height,
    normalize_subset,
)

Vector = Tuple[int, ...]

# A work bound: at modulus q the counting kernel ORs and popcounts q^rank
# bits per table of outer coefficients (q^k block bits at each of the
# q^(rank-k) outer prefixes), though it holds only q masks of q^k bits per
# distinct coefficient tuple.  Counting is refused up front when q^rank
# passes 2^33 at the largest sample: every arrangement of rank 8 or more
# from period 2 on (q up to 22), and nonempty ones of rank 10 or more at
# any period.  The empty arrangement is counted as q^rank without the kernel.
MAX_COUNT_BITS = 2**33

# Building the face table takes as long as a period search over |W| / 24
# (E6, 0.06 s) to |W| / 106 sublists (E7, 0.9 s), and a search over n
# vectors visits at most 2^n of them.  A subset with 2^n <= |W| /
# COUNT_FIRST_SHARE has its period searched first and is counted when that
# period is 1: the count is then a polynomial, read from the samples
# q = 1..rank + 1.
COUNT_FIRST_SHARE = 100


@dataclass(frozen=True)
class ArrangementSpec:
    """Deduplicated, canonically ordered congruence items.

    Each item pairs a nonzero integer vector with the sorted tuple of its
    forbidden offsets; items with equal vectors are merged.
    """

    rank: int
    items: Tuple[Tuple[Vector, Tuple[int, ...]], ...]


def make_spec(rank: int, items: Iterable[Tuple[Sequence[int], Iterable[int]]]) -> ArrangementSpec:
    """Validate and normalise raw (coeffs, offsets) pairs."""
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise ValidationError("rank must be a positive integer")
    merged: Dict[Vector, set] = {}
    for coeffs, offsets in items:
        vec = tuple(coeffs)
        if len(vec) != rank:
            raise ValidationError(f"item {vec} does not have length {rank}")
        if any(not isinstance(c, int) or isinstance(c, bool) for c in vec):
            raise ValidationError(f"item {vec} has non-integer entries")
        if not any(vec):
            raise ValidationError("zero coefficient vectors are not allowed")
        offs = set()
        for m in offsets:
            if not isinstance(m, int) or isinstance(m, bool):
                raise ValidationError(f"offset {m!r} is not an integer")
            offs.add(m)
        if not offs:
            raise ValidationError(f"item {vec} has an empty offset set")
        merged.setdefault(vec, set()).update(offs)
    return ArrangementSpec(
        rank,
        tuple((vec, tuple(sorted(offs))) for vec, offs in sorted(merged.items())),
    )


def from_root_subset(rs: RootSystem, subset: Iterable[int]) -> ArrangementSpec:
    """The congruence arrangement of a subset of the positive roots."""
    psi = normalize_subset(rs, subset)
    return make_spec(rs.rank, ((rs.positive_roots[i], (0,)) for i in psi))


def count_complement(spec: ArrangementSpec, q: int) -> int:
    """Points of (Z/q)^rank avoiding every congruence of the arrangement."""
    if not isinstance(q, int) or isinstance(q, bool) or q < 1:
        raise ValidationError("modulus must be a positive integer")
    return kernels.complement_count(q, spec.rank, spec.items)


def smith_invariants(rows: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Invariant factors (positive, each dividing the next) of an integer
    matrix; zero rows and columns contribute nothing."""
    a = [list(map(int, r)) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if any(len(r) != ncols for r in a):
        raise ValidationError("matrix rows must have equal length")
    out = []
    t = 0
    while t < min(nrows, ncols):
        piv = next(
            (
                (i, j)
                for i in range(t, nrows)
                for j in range(t, ncols)
                if a[i][j]
            ),
            None,
        )
        if piv is None:
            break
        a[t], a[piv[0]] = a[piv[0]], a[t]
        for row in a:
            row[t], row[piv[1]] = row[piv[1]], row[t]
        while True:
            # clear column t, swapping any remainder up to shrink the pivot
            changed = True
            while changed:
                changed = False
                for i in range(t + 1, nrows):
                    if not a[i][t]:
                        continue
                    k = a[i][t] // a[t][t]
                    for j in range(t, ncols):
                        a[i][j] -= k * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        changed = True
                for j in range(t + 1, ncols):
                    if not a[t][j]:
                        continue
                    k = a[t][j] // a[t][t]
                    for i in range(t, nrows):
                        a[i][j] -= k * a[i][t]
                    if a[t][j]:
                        for i in range(t, nrows):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        changed = True
            # the pivot must also divide the trailing submatrix
            p = a[t][t]
            offender = next(
                (
                    i
                    for i in range(t + 1, nrows)
                    for j in range(t + 1, ncols)
                    if a[i][j] % p
                ),
                None,
            )
            if offender is None:
                break
            for j in range(t, ncols):
                a[t][j] += a[offender][j]
        out.append(abs(a[t][t]))
        t += 1
    return tuple(out)


def lcm_period(spec: ArrangementSpec) -> int:
    """Least common multiple, over every sublist J of the distinct
    coefficient vectors, of the exponent (largest invariant factor) of the
    torsion of Z^rank / <J>: the lcm period of Kamiya, Takemura and Terao.
    char_quasi_subset calls it only on subsets short enough for
    COUNT_FIRST_SHARE, to find those of period 1.
    """
    return _vector_period(spec.rank, tuple(vec for vec, _ in spec.items))


@functools.lru_cache(maxsize=4)
def _vector_period(rank: int, vectors: Tuple[Vector, ...]) -> int:
    """The lcm period of the vectors (lcm_period), visiting only linearly
    independent sublists: a dependent J contains a maximal independent J'
    with the same saturation S, so S/<J> is a quotient of S/<J'> and its
    exponent divides that of J'.  Sublists grow in index order, up to rank
    rows, while their Smith normal form keeps a factor per row."""
    period = 1
    stack = [((), 0)]
    while stack:
        rows, start = stack.pop()
        for i in range(start, len(vectors)):
            grown = rows + (vectors[i],)
            factors = smith_invariants(grown)
            if len(factors) == len(grown):
                period = math.lcm(period, factors[-1])
                if len(grown) < rank:
                    stack.append((grown, i + 1))
    return period


def _mirror(spec: ArrangementSpec) -> ArrangementSpec:
    """The arrangement with every offset negated: x -> -x maps one
    complement onto the other, so both count the same."""
    return ArrangementSpec(
        spec.rank,
        tuple((vec, tuple(sorted(-m for m in offs))) for vec, offs in spec.items),
    )


def char_quasi(spec: ArrangementSpec) -> QuasiPolynomial:
    """The characteristic quasi-polynomial of an arrangement without
    offsets, counted from q = 1 on over lcm_period.  It answers the root
    subsets that char_quasi_subset counts: those whose count-first period
    search gives 1.  Raises ResourceCapError before counting when the
    arrangement is not empty and the largest modulus q to count has
    q^rank above MAX_COUNT_BITS.
    """
    if any(m for _, offs in spec.items for m in offs):
        raise ValidationError("char_quasi counts arrangements without offsets")
    return _char_quasi(spec, lcm_period(spec), 1)


def char_quasi_deformation(rs: RootSystem, spec: ArrangementSpec) -> QuasiPolynomial:
    """The characteristic quasi-polynomial of positive roots of rs with
    offsets in [-B, B], counted over lcm(marks) from q = B*h + 1 on; only
    root arrangements have that floor, so other vectors are refused.

    A root's value v in [0, q] on a point of the q-dilated closed alcove
    meets an offset mod q (q > 2B) only if v <= B or q - v <= B.  So
    grouping the points by which wall values are 0..B gives count(q) =
    sum_k n_k L(q - k), every k <= (B + 1)h and L the closed alcove's
    count (Athanasiadis, Adv. Math. 1996).  L's quasi-polynomial has period
    lcm(marks) and vanishes on -h < m < 0, so it gives the count from
    q = B*h + 1 on; B = 0 is the face formula (char_quasi_faces).  The
    mirror (_mirror) shares the memo entry.
    """
    roots = set(rs.positive_roots)
    if spec.rank != rs.rank or not all(vec in roots for vec, _ in spec.items):
        raise ValidationError(f"not an arrangement of positive roots of {rs.family}{rs.rank}")
    bound = max((abs(m) for _, offs in spec.items for m in offs), default=0)
    period = math.lcm(*rs.marks)
    key = min(spec, _mirror(spec), key=lambda s: s.items)
    return _char_quasi(key, period, bound * rs.coxeter_number + 1)


@functools.lru_cache(maxsize=4)
def _char_quasi(spec: ArrangementSpec, period: int, start: int) -> QuasiPolynomial:
    """The counts interpolated over period from q = start on."""
    # interpolate_qp's residues start at start .. start + period - 1, and
    # each reads rank + 1 samples and two checks one period apart
    top = start - 1 + (spec.rank + 3) * period
    if spec.items and top**spec.rank > MAX_COUNT_BITS:
        raise ResourceCapError(
            f"counting up to q={top} in rank {spec.rank} needs about "
            f"{top}^{spec.rank} = {top**spec.rank} bits, which exceeds the "
            f"counting cap {MAX_COUNT_BITS}"
        )
    return interpolate_qp(
        lambda q: count_complement(spec, q), period, spec.rank, min_q=start
    )


def face_roots(rs: RootSystem, face: Iterable[int]) -> RootSubset:
    """Positive roots that take integer values on the open face of the
    alcove cut out by the given walls (wall 0 is the affine one): those
    whose coefficients vanish off the face and, when wall 0 is among the
    walls, those whose coefficients equal the marks off the face.  They are
    the roots of the face's stabiliser.  The face must omit some wall.
    """
    walls = set(face)
    if not walls < set(range(rs.rank + 1)):
        raise ValidationError(f"a face omits some of the walls 0..{rs.rank}")
    off = [i for i in range(rs.rank) if i + 1 not in walls]
    return tuple(
        k
        for k, root in enumerate(rs.positive_roots)
        if all(root[i] == 0 for i in off)
        or (0 in walls and all(root[i] == rs.marks[i] for i in off))
    )


def face_weyl_order(rs: RootSystem, face: Iterable[int]) -> int:
    """Order of the stabiliser of the open face: the Weyl group of
    face_roots, from their heights in its base, the walls' roots (minus
    the highest root for wall 0).

    A root with zero coefficients off the face keeps its height.  One with
    the marks off the face is minus wall 0 plus the walls where it falls
    short of the marks, so its height there is h - ht.
    """
    walls = set(face)
    # a face root is nonzero at an off-face coordinate only if it has the marks there
    off = next((i for i in range(rs.rank) if i + 1 not in walls), None)
    h = rs.coxeter_number
    return _order_from_heights(
        h - height(root) if off is not None and root[off] else height(root)
        for root in map(rs.positive_roots.__getitem__, face_roots(rs, walls))
    )


@functools.lru_cache(maxsize=8)
def _mask_reflections(rs: RootSystem) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """Each simple reflection acting on sets of roots up to sign, given as
    bitmasks over the positive-root indices: for every byte of a mask, a
    table from the byte's value to the image of its bits."""
    n = len(rs.positive_roots)
    out = []
    for perm in _reflection_permutations(rs):
        image = [1 << (perm[i] % n) for i in range(n)]
        chunks = []
        for lo in range(0, n, 8):
            bits = image[lo:lo + 8]
            table = [0] * (1 << len(bits))
            for b in range(1, len(table)):
                low = b & -b
                table[b] = table[b ^ low] | bits[low.bit_length() - 1]
            chunks.append(tuple(table))
        out.append(tuple(chunks))
    return tuple(out)


def root_set_orbit(rs: RootSystem, mask: int) -> Tuple[int, ...]:
    """The Weyl orbit of a set of roots taken up to sign, as bitmasks over
    the positive-root indices (bit i for root i), by breadth-first closure
    under the simple reflections; the given mask comes first."""
    gens = _mask_reflections(rs)
    seen = {mask}
    order = [mask]
    for m in order:
        for chunks in gens:
            image = 0
            shift = 0
            for table in chunks:
                image |= table[(m >> shift) & 255]
                shift += 8
            if image not in seen:
                seen.add(image)
                order.append(image)
    return tuple(order)


FaceTable = Tuple[int, Tuple[Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]], ...]]


@functools.lru_cache(maxsize=4)
def _face_table(rs: RootSystem) -> FaceTable:
    """The faces of the alcove grouped by the W-orbit of their root sets:
    per orbit, its member masks and its numerator, the face formula's N
    (char_quasi_faces) for one free member, as (exponent, integer) pairs
    over one denominator returned first."""
    walls = rs.rank + 1
    marks = (1,) + rs.marks
    orbit_of: Dict[int, int] = {}
    orbits: List[Tuple[int, ...]] = []
    numerators: List[Counter] = []  # each f * |orbit| times the orbit's N
    for bits in range((1 << walls) - 1):
        face = [i for i in range(walls) if bits >> i & 1]
        mask = sum(1 << k for k in face_roots(rs, face))
        if mask not in orbit_of:
            orbit = root_set_orbit(rs, mask)
            orbit_of.update((m, len(orbits)) for m in orbit)
            orbits.append(orbit)
            numerators.append(Counter())
        # |W| / |W_J| * t^(off-face marks) * prod over the face of (1 - t^c),
        # the marks of all walls summing to h
        off = rs.coxeter_number - sum(marks[i] for i in face)
        term = Counter({off: rs.weyl_order // face_weyl_order(rs, face)})
        for i in face:
            term.subtract({e + marks[i]: c for e, c in term.items()})
        numerators[orbit_of[mask]].update(term)
    f = rs.index_of_connection
    den = f * math.lcm(*map(len, orbits))
    return den, tuple(
        (o, tuple((e, c * (den // (f * len(o)))) for e, c in n.items() if c))
        for o, n in zip(orbits, numerators)
    )


def _face_numerator(rs: RootSystem, psi: Iterable[int]) -> RationalPolynomial:
    """The face formula's N(t) for a subset (char_quasi_faces): the orbit
    numerators, each weighted by its members that miss the subset.  Read in
    t with t^k as the shift q -> q - k, it sends the closed alcove's count
    to the subset's; its powers are 1..h, all nonnegative."""
    den, table = _face_table(rs)
    avoided = sum(1 << k for k in psi)
    terms: List[Tuple[int, int]] = []
    for orbit, numerator in table:
        free = sum(1 for m in orbit if not m & avoided)
        if free:
            terms.extend((e, free * n) for e, n in numerator)
    return RationalPolynomial.from_terms(terms, den)


def char_quasi_subset(rs: RootSystem, subset: Iterable[int]) -> QuasiPolynomial:
    """Characteristic quasi-polynomial of a subset of the positive system,
    over its minimal period.

    Subsets small enough for a short period search (COUNT_FIRST_SHARE) are
    counted when that period is 1, unless counting even at period 1 would
    pass MAX_COUNT_BITS (nonempty subsets in rank 10 and more), where no
    search is made.  Every other subset takes the face formula
    (char_quasi_faces), whose table grows with |W|: a system whose Weyl
    group passes the table bound is refused first (check_weyl_cap).
    """
    psi = normalize_subset(rs, subset)
    countable = not psi or (rs.rank + 3) ** rs.rank <= MAX_COUNT_BITS
    if countable and COUNT_FIRST_SHARE << len(psi) <= rs.weyl_order:
        spec = from_root_subset(rs, psi)
        if lcm_period(spec) == 1:
            return fold_period(char_quasi(spec))
    check_weyl_cap(rs)
    return char_quasi_faces(rs, psi)


def char_quasi_faces(rs: RootSystem, subset: Iterable[int]) -> QuasiPolynomial:
    """Characteristic quasi-polynomial of a subset of the positive system,
    over its minimal period, from the faces of the alcove.

    A point of the q-dilated closed alcove on the open face J has
    |W| / |W_J| images under W modulo q times the coroot lattice, and its
    image under w avoids the subset's hyperplanes exactly when w maps the
    face's roots (face_roots, up to sign) off the subset.  Counting those w
    by the W-orbit of the face's root set, and dividing by the index of
    connection f to pass to the coweight lattice mod q, gives (Yoshinaga,
    Tohoku Math. J. 2018)

        chi(q) = (1/f) sum_J (|W| / |O_J|) #{S in O_J : S misses the subset}
                 / |W_J| * F_J(q),

    with F_J the points of the open face J: the z >= 0 with sum c_i z_i = q
    over the walls i = 0..rank (c_0 = 1, z_0 the slack of the affine wall)
    that vanish on J alone.  With D(t) = prod_i (1 - t^(c_i)), the closed
    alcove's count L has generating function 1/D(t), and F_J has
    t^(sum of c_i off J) * prod_{i in J} (1 - t^(c_i)) / D(t).  So the sum
    is N(t)/D(t), and chi(q) = sum_k n_k L(q - k) for N = sum_k n_k t^k,
    L counting nothing below 0.  Every face omits a wall and the c_i sum
    to h, so N has degrees 1..h; the closed quasi-polynomial vanishes on
    -h < m < 0 by Ehrhart reciprocity (the open m-dilate has no point
    before m = h).  So the shift of it by N is exact at every q >= 1, and
    therefore as a quasi-polynomial.  _face_table keeps each orbit's
    numerator, so a subset costs the mask tests, the weighted sum of the
    numerators (_face_numerator) and one apply_shift; the result has period
    lcm(marks), folded to the minimal one.
    """
    numerator = _face_numerator(rs, normalize_subset(rs, subset))
    return fold_period(apply_shift(numerator, ehrhart_closed_qp(rs)))
