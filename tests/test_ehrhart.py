"""Lattice point counts of dilated fundamental alcoves and wall removals."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from weylq.errors import ValidationError
from weylq.ehrhart import (
    count_closed,
    count_open,
    ehrhart_closed_qp,
    ehrhart_open_qp,
)
from weylq.quasipoly import RationalPolynomial
from weylq.rootsys import build_root_system

from oracles import (
    DomainError,
    count_minus_band_general,
    count_minus_bands,
    count_minus_facets,
    expand_rational_series,
    open_face_qp,
    series_of_qp,
)

TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)]


def brute_closed(rs, q):
    """Vectors z >= 0 with sum of marks[i] * z[i] <= q, by direct walk."""
    return sum(
        1
        for z in product(range(q + 1), repeat=rs.rank)
        if sum(m * zi for m, zi in zip(rs.marks, z)) <= q
    )


def brute_open(rs, q):
    return sum(
        1
        for z in product(range(1, q + 1), repeat=rs.rank)
        if sum(m * zi for m, zi in zip(rs.marks, z)) < q
    )


@pytest.mark.parametrize("family, rank", TYPES)
def test_counts_match_brute_force(family, rank):
    rs = build_root_system(family, rank)
    for q in range(0, 13):
        assert count_closed(rs, q) == brute_closed(rs, q)
    for q in range(1, 13):
        assert count_open(rs, q) == brute_open(rs, q)


def test_count_validation():
    rs = build_root_system("A", 2)
    with pytest.raises(ValidationError):
        count_closed(rs, -1)


@pytest.mark.parametrize("family, rank", TYPES)
def test_quasi_polynomials_match_counts(family, rank):
    rs = build_root_system(family, rank)
    closed = ehrhart_closed_qp(rs)
    opened = ehrhart_open_qp(rs)
    for q in range(1, 31):
        assert closed(q) == count_closed(rs, q)
        assert opened(q) == count_open(rs, q)
    assert closed.degree == rs.rank
    assert opened.degree == rs.rank


def test_a1_and_a2_closed_forms():
    a1 = ehrhart_closed_qp(build_root_system("A", 1))
    assert a1.period == 1
    assert a1.constituents[0] == RationalPolynomial((1, 1))
    a2 = ehrhart_closed_qp(build_root_system("A", 2))
    assert a2.period == 1
    assert a2.constituents[0] == RationalPolynomial((1, Fraction(3, 2), Fraction(1, 2)))


def test_g2_closed_constituents():
    """Closed alcove counts for the hexagonal system, residue by residue."""
    qp = ehrhart_closed_qp(build_root_system("G", 2))
    assert qp.period == 6

    def c(a0, a1):
        return RationalPolynomial((Fraction(a0, 12), Fraction(a1, 12), Fraction(1, 12)))

    assert qp.constituents[0] == c(5, 6)   # (q+1)(q+5)/12
    assert qp.constituents[1] == c(8, 6)   # (q+2)(q+4)/12
    assert qp.constituents[2] == c(9, 6)   # (q+3)^2/12
    assert qp.constituents[3] == c(8, 6)
    assert qp.constituents[4] == c(5, 6)
    assert qp.constituents[5] == c(12, 6)  # (q^2+6q+12)/12


@pytest.mark.parametrize("family, rank", TYPES)
def test_reciprocity(family, rank):
    """Closed count at -q equals the open count at q, up to sign."""
    rs = build_root_system(family, rank)
    closed = ehrhart_closed_qp(rs)
    opened = ehrhart_open_qp(rs)
    sign = (-1) ** rs.rank
    for q in range(1, 31):
        assert closed(-q) == sign * opened(q)


@pytest.mark.parametrize("family, rank", TYPES)
def test_open_is_translated_closed(family, rank):
    rs = build_root_system(family, rank)
    closed = ehrhart_closed_qp(rs)
    h = rs.coxeter_number
    for q in range(1, 31):
        assert count_open(rs, q) == closed(q - h)


@pytest.mark.parametrize("family, rank", TYPES)
def test_open_positivity_threshold(family, rank):
    rs = build_root_system(family, rank)
    h = rs.coxeter_number
    for q in range(1, 3 * h + 1):
        if q >= h:
            assert count_open(rs, q) > 0
        else:
            assert count_open(rs, q) == 0


@pytest.mark.parametrize("family, rank", TYPES)
def test_alcove_generating_series(family, rank):
    """Open counts sum to t^h over the product of (1 - t^mark) factors."""
    rs = build_root_system(family, rank)
    lhs = series_of_qp(ehrhart_open_qp(rs), 40)
    numerator = RationalPolynomial.monomial(rs.coxeter_number)
    rhs = expand_rational_series(numerator, (1,) + rs.marks, 40)
    assert lhs == rhs


def facet_mark(rs, i):
    return 1 if i == 0 else rs.marks[i - 1]


def brute_minus_facets(rs, q, facets):
    total = 0
    for z in product(range(q + 1), repeat=rs.rank):
        s = sum(m * zi for m, zi in zip(rs.marks, z))
        if s > q:
            continue
        if 0 in facets and s == q:
            continue
        if any(z[i - 1] == 0 for i in facets if i > 0):
            continue
        total += 1
    return total


@pytest.mark.parametrize("family, rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)])
def test_minus_facets(family, rank):
    rs = build_root_system(family, rank)
    rng = random.Random(101)
    all_facets = list(range(rs.rank + 1))
    for _ in range(10):
        k = rng.randint(1, rs.rank + 1)
        facets = tuple(sorted(rng.sample(all_facets, k)))
        shift = sum(facet_mark(rs, i) for i in facets)
        q = shift + rng.randint(1, 9)
        got = count_minus_facets(rs, q, facets)
        assert got == brute_minus_facets(rs, q, facets)
        assert got == count_closed(rs, q - shift)


def test_minus_facets_full_set():
    """Removing every wall leaves the open alcove."""
    rs = build_root_system("G", 2)
    for q in range(7, 20):
        assert count_minus_facets(rs, q, range(rs.rank + 1)) == count_open(rs, q)


def test_minus_facets_validation():
    rs = build_root_system("B", 2)
    with pytest.raises(DomainError):
        count_minus_facets(rs, 3, (0, 2))  # threshold is 1 + 2
    with pytest.raises(ValidationError):
        count_minus_facets(rs, 10, (3,))


def brute_minus_bands(rs, q, bands):
    total = 0
    for z in product(range(q + 1), repeat=rs.rank):
        s = sum(m * zi for m, zi in zip(rs.marks, z))
        if s > q:
            continue
        hit = False
        for i, (a, b) in bands.items():
            coord = (q - s) if i == 0 else z[i - 1]
            if a <= coord <= b:
                hit = True
                break
        if not hit:
            total += 1
    return total


@pytest.mark.parametrize("family, rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)])
def test_minus_bands(family, rank):
    """Bands [0..b] of walls at several facets shift the closed count."""
    rs = build_root_system(family, rank)
    rng = random.Random(202)
    all_facets = list(range(rs.rank + 1))
    for _ in range(10):
        k = rng.randint(1, rs.rank + 1)
        chosen = sorted(rng.sample(all_facets, k))
        bands = {i: (0, rng.randint(0, 3)) for i in chosen}
        shift = sum((b + 1) * facet_mark(rs, i) for i, (_, b) in bands.items())
        q = shift + rng.randint(1, 9)
        got = count_minus_bands(rs, q, bands)
        assert got == brute_minus_bands(rs, q, bands)
        assert got == count_closed(rs, q - shift)


def test_minus_bands_validation():
    rs = build_root_system("B", 2)
    with pytest.raises(ValidationError, match="start at 0"):
        count_minus_bands(rs, 10, {1: (1, 2)})
    with pytest.raises(DomainError):
        count_minus_bands(rs, 2, {0: (0, 1)})
    with pytest.raises(ValidationError):
        count_minus_bands(rs, 10, {5: (0, 1)})
    with pytest.raises(ValidationError):
        count_minus_bands(rs, 10, {1: 5})
    with pytest.raises(ValidationError):
        count_minus_bands(rs, 10, {1: (0,)})


@pytest.mark.parametrize("family, rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)])
def test_minus_band_general(family, rank):
    """A detached band [a..b] at one facet splits into three closed counts."""
    rs = build_root_system(family, rank)
    rng = random.Random(303)
    for facet in range(rs.rank + 1):
        c = facet_mark(rs, facet)
        for _ in range(10):
            a = rng.randint(1, 3)
            b = rng.randint(a, 4)
            q = (b + 1) * c + rng.randint(1, 8)
            got = count_minus_band_general(rs, q, facet, (a, b))
            assert got == brute_minus_bands(rs, q, {facet: (a, b)})
            assert got == (
                count_closed(rs, q - (b + 1) * c)
                + count_closed(rs, q)
                - count_closed(rs, q - a * c)
            )


def test_minus_band_general_validation():
    rs = build_root_system("G", 2)
    with pytest.raises(ValidationError):
        count_minus_band_general(rs, 20, 1, (0, 2))
    with pytest.raises(ValidationError):
        count_minus_band_general(rs, 20, 1, (3, 2))
    with pytest.raises(ValidationError):
        count_minus_band_general(rs, 20, 7, (1, 2))
    with pytest.raises(ValidationError):
        count_minus_band_general(rs, 20, 1, (1,))
    with pytest.raises(DomainError):
        count_minus_band_general(rs, 6, 1, (1, 1))  # threshold is 2 * 3


@pytest.mark.parametrize("marks", [(1,), (3,), (1, 1), (1, 2), (2, 3), (1, 2, 2), (1, 1, 2, 3)])
def test_open_face_qp_matches_direct_count(marks):
    """Vectors z >= 1 with sum of marks[i] * z[i] == q, by direct walk."""
    qp = open_face_qp(marks)
    assert qp.period == math.lcm(*marks)
    for q in range(1, 25):
        direct = sum(
            1
            for z in product(*(range(1, q // m + 1) for m in marks))
            if sum(m * zi for m, zi in zip(marks, z)) == q
        )
        assert qp(q) == direct, (marks, q)


def test_open_face_of_the_whole_alcove_is_the_open_count():
    """The face with no walls is the open alcove, with the affine mark 1."""
    for family, rank in TYPES:
        rs = build_root_system(family, rank)
        face = open_face_qp(tuple(sorted((1,) + rs.marks)))
        for q in range(1, 16):
            assert face(q) == count_open(rs, q)


@pytest.mark.parametrize(
    "family, rank",
    [("F", 4), ("E", 6), ("E", 7), ("E", 8), ("B", 8), ("C", 8), ("D", 8)],
)
def test_open_quasi_polynomial_is_the_open_count_past_the_small_types(family, rank):
    """The open quasi-polynomial, a shift of the closed one by h, against
    the knapsack count of the open alcove, which does not shift, for
    q = 1 .. h + 2 * period."""
    rs = build_root_system(family, rank)
    opened = ehrhart_open_qp(rs)
    assert opened.period == math.lcm(*rs.marks)
    for q in range(1, rs.coxeter_number + 2 * opened.period + 1):
        assert opened(q) == count_open(rs, q), q
