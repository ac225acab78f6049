"""Independent routes to the package's answers, for the tests only.

These are identities of the paper and closed forms from its literature
that no query computes: root lengths, Weyl elements from words, the
whole Weyl group's image table, its rows and the linear parts of Omega in
it, the Eulerian polynomial with one root removed and its Omega-fibers, the
counts of the dilated alcove with walls or bands of walls removed, the
open-face counts and the face formula summed face by face, the
compatibility defect, Lagrange interpolation in Fraction arithmetic,
quasi-polynomial arithmetic and equality over a common period, a reader
for the --json quasi-polynomials the command line prints, generating
series expanded term by term, and the Shi, Catalan and Linial closed
forms that check deformations where counting refuses.
The tests compare each with what the package computes another way.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

from weylq.charquasi import char_quasi_subset, face_roots, face_weyl_order, root_set_orbit
from weylq.compat import shift_formula_qp
from weylq.deform import int_pair
from weylq.ehrhart import _check_q, _exact_counts, _sum_counts, count_closed
from weylq.errors import InconsistencyError, ValidationError
from weylq.eulerian import eulerian_poly
from weylq.quasipoly import (
    QuasiPolynomial,
    RationalPolynomial,
    fold_period,
    interpolate_qp,
)
from weylq.rootsys import (
    RootSystem,
    Vector,
    _coset_representatives,
    _reflection_permutations,
    extended_base_indices,
    height,
    lower_closure,
    normalize_subset,
    root_index,
    signed_roots,
)


class DomainError(ValidationError):
    """Input is well formed but outside the domain where a result is asserted,
    for example a dilation below a removal threshold."""


# ---------------------------------------------------------------------------
# roots, words and ideals


def root_norm2(rs: RootSystem, v: Vector) -> Fraction:
    total = Fraction(0)
    for i, vi in enumerate(v):
        if not vi:
            continue
        for j, vj in enumerate(v):
            if vj:
                total += vi * vj * rs.gram[i][j]
    return total


def classify_length(rs: RootSystem, v: Vector) -> str:
    """Classify a root (given by coordinates, either sign) as long or short.

    The highest root is long, and in a simply laced system every root has
    its norm, so one comparison decides.
    """
    vv = tuple(v)
    if vv not in root_index(rs) and tuple(-c for c in vv) not in root_index(rs):
        raise ValidationError(f"{vv} is not a root of {rs.family}{rs.rank}")
    return "long" if root_norm2(rs, vv) == root_norm2(rs, rs.highest_root) else "short"


def weyl_from_word(rs: RootSystem, word: Iterable[int]) -> Tuple[int, ...]:
    """Product of simple reflections, as its extended-base images (one row
    of an image table); word entries are 1-based."""
    w = tuple(word)
    for j in w:
        if not isinstance(j, int) or isinstance(j, bool) or not 1 <= j <= rs.rank:
            raise ValidationError(f"generator index {j!r} out of range 1..{rs.rank}")
    gens = _reflection_permutations(rs)
    images = extended_base_indices(rs)
    # the last letter acts first
    for j in reversed(w):
        images = tuple(map(gens[j - 1].__getitem__, images))
    return images


def weyl_rows(table: bytes, width: int) -> Iterator[Tuple[int, ...]]:
    """The rows of an image table (rootsys.enumerate_weyl), each element's
    extended-base images as a tuple, in table order."""
    return zip(*[iter(table)] * width)


# Two groups, as in rootsys: E7's full table is 23 MB.
@functools.lru_cache(maxsize=2)
def full_weyl(rs: RootSystem) -> bytes:
    """The image table of every Weyl group element, the identity first:
    the parabolic chain of minimal coset representatives joined from its
    last factor outwards, without the one-per-Omega-coset choice that
    rootsys.enumerate_weyl makes."""
    n = len(rs.positive_roots)
    gens = [bytes(perm) + bytes(range(2 * n, 256)) for perm in _reflection_permutations(rs)]
    simple = bytes(min(gen[n:]) for gen in gens)
    table = bytes(extended_base_indices(rs))
    for m in range(rs.rank, 0, -1):
        reps = _coset_representatives(gens[:m], simple[:m], n)
        table = b"".join(table.translate(perm) for perm in reps)
    return table


def omega_positions(rs: RootSystem) -> Tuple[Tuple[int, ...], ...]:
    """The elements of W that permute the extended base, the linear parts
    of Omega, each as the permutation sigma of base positions with
    w(beta_i) = beta_sigma(i), read off full_weyl: the rows whose images
    all lie in the base, found by AND-ing the columns' membership bytes."""
    table = full_weyl(rs)
    width = rs.rank + 1
    base = extended_base_indices(rs)
    inside = bytes(i in base for i in range(256))
    hits = -1
    for i in range(width):
        hits &= int.from_bytes(table[i::width].translate(inside), "little")
    rows = hits.to_bytes(len(table) // width, "little")
    found, k = [], rows.find(1)
    while k >= 0:
        found.append(tuple(map(base.index, table[k * width : (k + 1) * width])))
        k = rows.find(1, k + 1)
    return tuple(found)


def is_ideal(rs: RootSystem, indices: Iterable[int]) -> bool:
    """True when the subset is downward closed in the root poset."""
    subset = normalize_subset(rs, indices)
    return subset == lower_closure(rs, subset)


# ---------------------------------------------------------------------------
# quasi-polynomial arithmetic


def lagrange_by_fractions(
    points: Sequence[int], values: Sequence
) -> RationalPolynomial:
    """The polynomial through the given points as a sum of Lagrange basis
    polynomials, each built as a product of Fraction polynomials."""
    if len(points) != len(values) or not points:
        raise ValidationError("need equally many points and values")
    if len(set(points)) != len(points):
        raise ValidationError("interpolation points must be distinct")
    total = RationalPolynomial()
    for i, (xi, yi) in enumerate(zip(points, values)):
        if yi == 0:
            continue
        basis = RationalPolynomial((1,))
        denom = Fraction(1)
        for j, xj in enumerate(points):
            if j == i:
                continue
            basis = basis * RationalPolynomial((-xj, 1))
            denom *= xi - xj
        total = total + (Fraction(yi) / denom) * basis
    return total


def normalize_period(qp: QuasiPolynomial, new_period: int) -> QuasiPolynomial:
    """Rewrite with a larger period that the current one divides."""
    if new_period < 1 or new_period % qp.period:
        raise ValidationError(
            f"new period {new_period} is not a multiple of {qp.period}"
        )
    if new_period == qp.period:
        return qp
    return QuasiPolynomial(
        new_period,
        tuple(qp.constituent_for(k) for k in range(1, new_period + 1)),
    )


def qp_from_json(doc: Mapping) -> QuasiPolynomial:
    """The quasi-polynomial of a --json result (cli.qp_to_json): residues
    1..period in order, exact rational coefficient strings, and a degree
    that must be the constituents'."""
    constituents = doc["constituents"]
    if [c["residue"] for c in constituents] != list(range(1, doc["period"] + 1)):
        raise ValidationError(f"residues are not 1..{doc['period']} in order")
    qp = QuasiPolynomial(doc["period"], tuple(
        RationalPolynomial(map(Fraction, c["coeffs_ascending"])) for c in constituents
    ))
    if qp.degree != doc["degree"]:
        raise ValidationError(f"degree {doc['degree']} is not the constituents' {qp.degree}")
    return qp


def qp_equal_over_common_period(a: QuasiPolynomial, b: QuasiPolynomial) -> bool:
    """Exact equality as functions, read over the lcm of the two periods."""
    common = math.lcm(a.period, b.period)
    return (
        normalize_period(a, common).constituents
        == normalize_period(b, common).constituents
    )


def period_one(p: RationalPolynomial) -> QuasiPolynomial:
    """A polynomial seen as a quasi-polynomial of period 1."""
    return QuasiPolynomial(1, (p,))


def qp_add(a: QuasiPolynomial, b: QuasiPolynomial) -> QuasiPolynomial:
    common = math.lcm(a.period, b.period)
    aa = normalize_period(a, common)
    bb = normalize_period(b, common)
    return QuasiPolynomial(
        common,
        tuple(x + y for x, y in zip(aa.constituents, bb.constituents)),
    )


def qp_scale(qp: QuasiPolynomial, factor) -> QuasiPolynomial:
    return QuasiPolynomial(
        qp.period, tuple(factor * p for p in qp.constituents)
    )


def qp_sub(a: QuasiPolynomial, b: QuasiPolynomial) -> QuasiPolynomial:
    return qp_add(a, qp_scale(b, -1))


def defect_qp(rs: RootSystem, subset: Iterable[int]) -> QuasiPolynomial:
    """Shift formula minus characteristic quasi-polynomial."""
    psi = normalize_subset(rs, subset)
    return qp_sub(shift_formula_qp(rs, psi), char_quasi_subset(rs, psi))


# ---------------------------------------------------------------------------
# generating series


def series_of_qp(qp: QuasiPolynomial, order: int) -> Tuple[Fraction, ...]:
    """Coefficients t^0 .. t^order of the ordinary generating series of the
    qp values at q = 1..order."""
    if order < 0:
        raise ValidationError("order must be nonnegative")
    return (Fraction(0),) + tuple(Fraction(qp(q)) for q in range(1, order + 1))


def expand_rational_series(
    numerator: RationalPolynomial,
    denominator_exponents: Sequence[int],
    order: int,
) -> Tuple[Fraction, ...]:
    """Coefficients t^0 .. t^order of numerator / product of (1 - t^c)."""
    if order < 0:
        raise ValidationError("order must be nonnegative")
    coeffs = [Fraction(numerator.coeff(n)) for n in range(order + 1)]
    for c in denominator_exponents:
        if not isinstance(c, int) or isinstance(c, bool) or c < 1:
            raise ValidationError("denominator exponents must be positive integers")
        # multiply by the geometric series of t^c, i.e. divide by 1 - t^c
        for n in range(c, order + 1):
            coeffs[n] += coeffs[n - c]
    return tuple(coeffs)


def genfunc_by_series(rs: RootSystem, subset: Iterable[int], order: int) -> bool:
    """The generating-function check term by term: the series of the
    characteristic quasi-polynomial against the descent polynomial over
    the product of (1 - t^mark), both expanded to the given order."""
    if order < 3 * rs.coxeter_number:
        raise ValidationError(
            f"order must be at least three Coxeter numbers ({3 * rs.coxeter_number})"
        )
    psi = normalize_subset(rs, subset)
    lhs = series_of_qp(char_quasi_subset(rs, psi), order)
    rhs = expand_rational_series(eulerian_poly(rs, psi), (1,) + tuple(rs.marks), order)
    return lhs == rhs


# ---------------------------------------------------------------------------
# the positive system without one root


def extended_base(rs: RootSystem) -> Tuple[Tuple[Vector, int], ...]:
    """Pairs (root, mark) for positions 0..rank of the extended base."""
    roots = signed_roots(rs)
    base = map(roots.__getitem__, extended_base_indices(rs))
    return tuple(zip(base, (1,) + rs.marks))


def _length_class_size(rs: RootSystem, cls: str) -> int:
    """Number of roots (both signs) in a length class."""
    n = sum(1 for r in rs.positive_roots if classify_length(rs, r) == cls)
    return 2 * n


def eulerian_delta_complement(rs: RootSystem, delta_index: int) -> RationalPolynomial:
    """Closed form for the subset missing exactly one root.

    Only the length class of the removed root matters: each extended-base
    root of that class contributes a fiber of equal size below the top
    exponent, everything else lands at the top.
    """
    n = len(rs.positive_roots)
    if not isinstance(delta_index, int) or isinstance(delta_index, bool) or not 0 <= delta_index < n:
        raise ValidationError(f"root index {delta_index!r} out of range 0..{n - 1}")
    delta = rs.positive_roots[delta_index]
    cls = classify_length(rs, delta)
    h = rs.coxeter_number
    f = rs.index_of_connection
    w_order = rs.weyl_order
    class_size = _length_class_size(rs, cls)
    base = [
        (root, mark)
        for root, mark in extended_base(rs)
        if classify_length(rs, root) == cls
    ]
    coeffs = [Fraction(0)] * (h + 1)
    unit = Fraction(w_order, f * class_size)
    for _, mark in base:
        coeffs[h - mark] += unit
    coeffs[h] += Fraction(w_order * (class_size - len(base)), f * class_size)
    poly = RationalPolynomial(coeffs)
    if not poly.is_integral:
        raise InconsistencyError("single-root closed form is not integral")
    return poly


def omega_partition(rs: RootSystem, delta_index: int) -> Dict[int, Tuple[Tuple[int, ...], ...]]:
    """Group elements sending some extended-base root onto the negative of
    the chosen root, fibered by the extended-base position.

    Keys are the positions whose root shares the chosen root's length
    class; each value is a tuple of the elements' rows (weyl_rows) read
    from full_weyl's table, in its order.
    """
    n = len(rs.positive_roots)
    if not isinstance(delta_index, int) or isinstance(delta_index, bool) or not 0 <= delta_index < n:
        raise ValidationError(f"root index {delta_index!r} out of range 0..{n - 1}")
    cls = classify_length(rs, rs.positive_roots[delta_index])
    target = len(rs.positive_roots) + delta_index
    fibers: Dict[int, list] = {
        i: []
        for i, (root, _) in enumerate(extended_base(rs))
        if classify_length(rs, root) == cls
    }
    for w in weyl_rows(full_weyl(rs), rs.rank + 1):
        for i, image in enumerate(w):
            if image == target:
                if i not in fibers:
                    raise InconsistencyError(
                        "length classes are not preserved by the action"
                    )
                fibers[i].append(w)
    return {i: tuple(ws) for i, ws in fibers.items()}


# ---------------------------------------------------------------------------
# the dilated closed alcove with walls removed (walls numbered as in ehrhart)


def _facet_marks(rs: RootSystem) -> Tuple[int, ...]:
    """Mark of each wall 0..rank; the affine wall counts 1."""
    return (1,) + tuple(rs.marks)


def _normalize_facets(rs: RootSystem, facet_indices: Iterable[int]) -> Tuple[int, ...]:
    out = sorted(set(facet_indices))
    for i in out:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i <= rs.rank:
            raise ValidationError(f"facet index {i!r} out of range 0..{rs.rank}")
    return tuple(out)


def count_minus_facets(rs: RootSystem, q: int, facet_indices: Iterable[int]) -> int:
    """Points of the q-dilated closed alcove off the selected walls.

    Only asserted above the removal threshold: q must exceed the sum of the
    selected walls' marks.
    """
    _check_q(q, 0)
    facets = _normalize_facets(rs, facet_indices)
    cmarks = _facet_marks(rs)
    threshold = sum(cmarks[i] for i in facets)
    if q <= threshold:
        raise DomainError(
            f"removal needs q > {threshold} (sum of selected marks), got {q}"
        )
    lows = [1 if (i + 1) in facets else 0 for i in range(rs.rank)]
    limit = q - 1 if 0 in facets else q
    return _sum_counts(rs.marks, lows, limit)


def count_minus_bands(
    rs: RootSystem, q: int, bands: Mapping[int, Sequence[int]]
) -> int:
    """Points of the closed alcove off a band [0..b_i] of parallel walls at
    each selected facet; each band must start at 0."""
    _check_q(q, 0)
    widths: Dict[int, int] = {}
    for i, interval in bands.items():
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i <= rs.rank:
            raise ValidationError(f"facet index {i!r} out of range 0..{rs.rank}")
        a, b = int_pair(interval)
        if a != 0:
            raise ValidationError(
                "bands here start at 0; use count_minus_band_general for [a,b] with a >= 1"
            )
        if b < 0:
            raise ValidationError(f"band width must be a nonnegative integer, got {b!r}")
        widths[i] = b
    cmarks = _facet_marks(rs)
    threshold = sum((b + 1) * cmarks[i] for i, b in widths.items())
    if q <= threshold:
        raise DomainError(
            f"band removal needs q > {threshold}, got {q}"
        )
    lows = [widths[i + 1] + 1 if (i + 1) in widths else 0 for i in range(rs.rank)]
    limit = q - (widths[0] + 1) if 0 in widths else q
    return _sum_counts(rs.marks, lows, limit)


def count_minus_band_general(
    rs: RootSystem, q: int, facet: int, interval: Sequence[int]
) -> int:
    """Points of the closed alcove off the walls a..b parallel to one facet,
    for a band not touching the facet itself (a >= 1)."""
    _check_q(q, 0)
    if not isinstance(facet, int) or isinstance(facet, bool) or not 0 <= facet <= rs.rank:
        raise ValidationError(f"facet index {facet!r} out of range 0..{rs.rank}")
    a, b = int_pair(interval)
    if a < 1 or b < a:
        raise ValidationError("interval must be integers 1 <= a <= b")
    c = _facet_marks(rs)[facet]
    threshold = (b + 1) * c
    if q <= threshold:
        raise DomainError(f"band removal needs q > {threshold}, got {q}")

    def at_least(t: int) -> int:
        # points whose facet coordinate (for wall 0, whose slack) is >= t
        if facet == 0:
            return _sum_counts(rs.marks, (0,) * rs.rank, q - t)
        lows = [0] * rs.rank
        lows[facet - 1] = t
        return _sum_counts(rs.marks, lows, q)

    # all points minus those whose facet coordinate lies in a..b
    return count_closed(rs, q) - at_least(a) + at_least(b + 1)


# ---------------------------------------------------------------------------
# open faces of the alcove and the face formula, one face at a time


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


@functools.lru_cache(maxsize=4)
def _faces(rs: RootSystem) -> Tuple[Tuple[Fraction, Tuple[int, ...], Tuple[int, ...]], ...]:
    """Per face J of the alcove: |W| / (f * |O_J| * |W_J|), the W-orbit
    O_J of its root set as bitmasks, and the marks of the walls off J."""
    walls = rs.rank + 1
    marks = _facet_marks(rs)
    out = []
    for bits in range((1 << walls) - 1):
        face = [i for i in range(walls) if bits >> i & 1]
        orbit = root_set_orbit(rs, sum(1 << k for k in face_roots(rs, face)))
        weight = Fraction(
            rs.weyl_order,
            rs.index_of_connection * len(orbit) * face_weyl_order(rs, face),
        )
        key = tuple(sorted(marks[i] for i in range(walls) if i not in face))
        out.append((weight, orbit, key))
    return tuple(out)


def char_quasi_face_sum(rs: RootSystem, subset: Iterable[int]) -> QuasiPolynomial:
    """The face formula as README states it, summed face by face:
    weight_J times the members of O_J that miss the subset times the
    open-face count of J's off-face marks, folded to the minimal period."""
    avoided = sum(1 << k for k in normalize_subset(rs, subset))
    total = period_one(RationalPolynomial())
    for weight, orbit, key in _faces(rs):
        free = sum(1 for m in orbit if not m & avoided)
        if free:
            total = qp_add(total, qp_scale(open_face_qp(key), weight * free))
    return fold_period(total)


# ---------------------------------------------------------------------------
# closed forms of the full system's Shi, Catalan and Linial deformations


def exponents(rs: RootSystem) -> Tuple[int, ...]:
    """The exponents e_1 <= ... <= e_rank, read off the root heights: the
    partition dual to the numbers of positive roots of each height
    (Kostant; Humphreys, Reflection Groups and Coxeter Groups, 3.20)."""
    per_height = Counter(map(height, rs.positive_roots)).values()
    return tuple(sorted(
        sum(1 for count in per_height if count >= i) for i in range(1, rs.rank + 1)
    ))


def shi_closed_form(rs: RootSystem, m: int) -> RationalPolynomial:
    """(q - mh)^rank: the characteristic quasi-polynomial of Shi^m, the
    offsets 1 - m..m on every positive root, on every residue (Yoshinaga,
    Tohoku Math. J. 2018, settling Kamiya-Takemura-Terao's conjecture)."""
    factor = RationalPolynomial((-m * rs.coxeter_number, 1))
    return math.prod((factor,) * rs.rank, start=RationalPolynomial((1,)))


def catalan_closed_form(rs: RootSystem, m: int) -> RationalPolynomial:
    """prod (q - mh - e_i): the characteristic quasi-polynomial of
    Catalan^m, the offsets -m..m on every positive root, on the residues
    prime to the period (Athanasiadis, Bull. LMS 2004; Yoshinaga, Invent.
    Math. 2004)."""
    h = rs.coxeter_number
    return math.prod(
        (RationalPolynomial((-m * h - e, 1)) for e in exponents(rs)),
        start=RationalPolynomial((1,)),
    )


def linial_closed_form(n: int) -> RationalPolynomial:
    """2^-(n+1) sum over k = 0..n+1 of C(n+1, k) (q - k)^n: the
    characteristic polynomial of the Linial arrangement of A_n, the offset
    1 on every positive root (Postnikov and Stanley, J. Combin. Theory
    Ser. A 2000), in rank-n coordinates: their form for n + 1 coordinates
    divided by the factor q of the line the arrangement is constant on."""
    power = RationalPolynomial.monomial(n)
    total = sum(
        (math.comb(n + 1, k) * power.shift_arg(-k) for k in range(n + 2)),
        RationalPolynomial.zero(),
    )
    return total * Fraction(1, 2 ** (n + 1))
