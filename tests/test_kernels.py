"""Correctness of the congruence-complement counter."""

from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylq import kernels
from weylq.deform import type1_spec
from weylq.rootsys import build_root_system


def brute_complement(q, rank, items):
    """Count points of (Z/q)^rank avoiding every congruence directly."""
    total = 0
    for point in product(range(q), repeat=rank):
        hit = False
        for coeffs, offsets in items:
            value = sum(c * x for c, x in zip(coeffs, point)) % q
            if any(value == off % q for off in offsets):
                hit = True
                break
        if not hit:
            total += 1
    return total


vectors = st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3)


# largest modulus drawn per rank, so that brute force stays cheap while
# ranks 4 and 5 reach a block of several tabulated coordinates, and rank 6
# the first block of three with rows started over two leading coordinates
MAX_Q = {1: 8, 2: 8, 3: 8, 4: 6, 5: 5, 6: 3}


@st.composite
def instances(draw):
    rank = draw(st.integers(min_value=1, max_value=6))
    q = draw(st.integers(min_value=1, max_value=MAX_Q[rank]))
    n_items = draw(st.integers(min_value=0, max_value=4))
    items = []
    for _ in range(n_items):
        coeffs = tuple(draw(st.integers(min_value=-3, max_value=3)) for _ in range(rank))
        offsets = tuple(
            sorted(draw(st.sets(st.integers(min_value=-2, max_value=3), min_size=1, max_size=3)))
        )
        items.append((coeffs, offsets))
    return q, rank, tuple(items)


def test_empty_arrangement():
    assert kernels.complement_count(7, 2, ()) == 49
    assert kernels.complement_count(1, 3, ()) == 1


def test_single_hyperplane():
    # x = 0 in (Z/5)^2 kills 5 of 25 points
    assert kernels.complement_count(5, 2, (((1, 0), (0,)),)) == 20


@settings(max_examples=120, deadline=None)
@given(instance=instances())
def test_pure_backend_matches_brute_force(instance):
    q, rank, items = instance
    assert kernels.complement_count(q, rank, items) == brute_complement(q, rank, items)


@pytest.mark.parametrize(
    "q, rank, items, expected",
    [
        # a negative offset must reduce to the floored residue, never to a
        # truncated one that silently drops the congruence
        (3, 2, (((1, 0), (-1,)),), 6),
        (5, 2, (((1, 0), (-2, -1)),), 15),
        (4, 2, (((1, 3), (-2, -1)), ((2, 0), (1,))), 8),
        # negative coefficients reduce the same way
        (3, 2, (((-1, 0), (0, -1, 3)),), 3),
        (7, 3, (((-2, -3, -1), (-6,)),), 294),
        # and inside a block of several tabulated coordinates
        (5, 4, (((1, 1, -2, 3), (-1, -4)), ((0, 2, 1, -1), (-3,))), 300),
        (4, 5, (((1, 0, -1, 2, -3), (-2,)), ((1, 1, 1, 1, 1), (-1, 0))), 384),
        # a negative coefficient beside an item with two bad residues
        (6, 2, (((1, 1), (0, 1)), ((2, -1), (0,))), 21),
    ],
)
def test_negative_entries_reduce_to_floored_residues(q, rank, items, expected):
    assert brute_complement(q, rank, items) == expected
    assert kernels.complement_count(q, rank, items) == expected


@pytest.mark.parametrize("q", [1, 2, 5, 6, 4])
@pytest.mark.parametrize(
    "coeffs",
    [
        (3,), (0,), (1, -2), (0, 0), (2, 0, -1), (4, 3, 6),
        # residues generating a proper subgroup of Z/q (at q = 6, 4 or 2),
        # so some residues are never attained
        (2, 4), (3, 0, 3), (2, -2), (0, 0, 0),
    ],
)
def test_class_masks_enumerate_block(q, coeffs):
    """Bit sum_j z[j] * q^(k-1-j) of masks[s] is set exactly when the block
    point z has sum(c * z) == s mod q."""
    k = len(coeffs)
    expected = [0] * q
    for index, z in enumerate(product(range(q), repeat=k)):
        expected[sum(c * x for c, x in zip(coeffs, z)) % q] |= 1 << index
    masks = kernels._class_masks(q, coeffs)
    assert masks == expected
    # the attained residues are the multiples of gcd(q, coeffs); every
    # other residue has the empty mask
    step = gcd(q, *coeffs)
    assert [s for s in range(q) if masks[s]] == list(range(0, q, step))


def test_block_size_by_rank():
    assert [kernels._block_size(r) for r in range(1, 9)] == [1, 1, 1, 2, 2, 3, 3, 4]


@pytest.mark.parametrize("q", [1, 2, 5, 7, 4, 6])
def test_d4_deformation_matches_brute_force(q):
    """The shape that dominates deform verification: every positive root of
    D4 with offsets -1..2, so each item forbids four residues.  At even q
    the outer coefficient 2 of the highest root is not a unit."""
    d4 = build_root_system("D", 4)
    spec = type1_spec(d4, range(len(d4.positive_roots)), (-1, 2))
    expected = brute_complement(q, spec.rank, spec.items)
    assert kernels.complement_count(q, spec.rank, spec.items) == expected


@pytest.mark.parametrize(
    "q, rank, items",
    [
        # inner block coefficients all vanish mod q: an item forbids the
        # whole block on a bad outer residue and nothing elsewhere
        (3, 4, (((1, 2, 3, -3), (1,)),)),
        (3, 4, (((1, 2, 3, -3), (1,)), ((0, 1, 1, 1), (0, 2)))),
        (4, 5, (((1, -1, 0, 4, 8), (0, 3)), ((2, 1, 1, 0, 1), (1,)))),
        # and an item with no outer coefficient at all
        (5, 4, (((0, 0, 1, 2), (3,)),)),
        # an all-zero outer tuple alone, also in rank 5 and once zero only
        # mod q, and in rank 1, where the whole space is the block
        (4, 5, (((0, 0, 0, 1, 3), (0, 1)), ((0, 0, 0, 2, 2), (1,)))),
        (3, 4, (((3, -3, 1, 1), (0, 2)),)),
        (7, 1, (((3,), (0, 2)), ((-1,), (1,)))),
        (6, 1, (((2,), (0, 1)), ((3,), (3,)))),
        # and beside tables whose last outer coefficient is 0, a unit and
        # a nonzero non-unit
        (5, 4, (((0, 0, 1, 2), (3,)), ((1, 2, 0, 1), (0,)),
                ((2, 0, 1, 1), (1, 4)))),
        (6, 4, (((0, 6, 1, 1), (0,)), ((1, 0, 1, 0), (2,)),
                ((3, 5, 0, 1), (1,)), ((1, 2, 2, 1), (0, 3)))),
        (4, 5, (((0, 0, 0, 1, 1), (0,)), ((1, 3, 2, 0, 1), (1, 2)),
                ((0, 1, 0, 1, 0), (3,)), ((2, 0, 0, 1, 1), (0,)))),
    ],
)
def test_block_or_prefix_coefficients_vanish(q, rank, items):
    assert kernels.complement_count(q, rank, items) == brute_complement(q, rank, items)


# Counts for D4 full with offsets -1..2 at q = 37..50, the moduli deform
# verification samples, pinned from the earlier kernel that built each block
# of class masks by q^2 shift-ORs; each is (q - 12)^4.
D4_FULL_COUNTS = [
    390625, 456976, 531441, 614656, 707281, 810000, 923521,
    1048576, 1185921, 1336336, 1500625, 1679616, 1874161, 2085136,
]


def test_d4_deformation_counts_at_workload_moduli():
    """Moduli that brute force cannot reach; the offsets -2..1 give the same
    counts, since x -> -x maps one complement onto the other."""
    d4 = build_root_system("D", 4)
    roots = range(len(d4.positive_roots))
    for interval in ((-1, 2), (-2, 1)):
        spec = type1_spec(d4, roots, interval)
        counts = [kernels.complement_count(q, 4, spec.items) for q in range(37, 51)]
        assert counts == D4_FULL_COUNTS
