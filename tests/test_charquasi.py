"""Characteristic quasi-polynomials of congruence arrangements."""

import math
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylq import charquasi, rootsys
from weylq.charquasi import (
    ArrangementSpec,
    char_quasi,
    char_quasi_deformation,
    char_quasi_faces,
    char_quasi_subset,
    count_complement,
    from_root_subset,
    lcm_period,
    make_spec,
    smith_invariants,
)
from weylq.deform import type1_spec, type2_spec
from weylq.errors import ResourceCapError, ValidationError
from weylq.quasipoly import RationalPolynomial, qp_equal
from weylq.rootsys import build_root_system, enumerate_ideals

from oracles import char_quasi_face_sum, period_one


@pytest.fixture(scope="module")
def g2():
    return build_root_system("G", 2)


def brute_complement(q, rank, items):
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


def test_make_spec_normalises():
    spec = make_spec(2, [((1, 1), (0,)), ((1, 0), (1, -1)), ((1, 1), (2,))])
    assert spec.rank == 2
    assert spec.items == (((1, 0), (-1, 1)), ((1, 1), (0, 2)))


def test_arrangement_spec_is_an_immutable_value():
    """Specs of equal rank and items are equal and hash alike, a field
    cannot be set, and the repr shows both fields."""
    spec = make_spec(2, [((1, 1), (0,)), ((1, 0), (1, -1))])
    twin = ArrangementSpec(rank=2, items=(((1, 0), (-1, 1)), ((1, 1), (0,))))
    assert twin == spec and hash(twin) == hash(spec) == hash((2, spec.items))
    assert {spec: 1}[twin] == 1
    assert spec != make_spec(2, [((1, 1), (0,))]) and spec != make_spec(3, [((1, 1, 0), (0,))])
    with pytest.raises(AttributeError):
        spec.rank = 3
    assert spec.rank == 2
    assert repr(make_spec(1, [((2,), (0,))])) == "ArrangementSpec(rank=1, items=(((2,), (0,)),))"


@pytest.mark.parametrize(
    "rank, items",
    [
        (0, []),
        (2, [((1,), (0,))]),
        (2, [((1, 0, 0), (0,))]),
        (2, [((1, "x"), (0,))]),
        (2, [((0, 0), (0,))]),
        (2, [((1, 1), ())]),
        (2, [((1, 1), ("a",))]),
        (2, [((1, True), (0,))]),
    ],
)
def test_make_spec_validation(rank, items):
    with pytest.raises(ValidationError):
        make_spec(rank, items)


def test_from_root_subset(g2):
    spec = from_root_subset(g2, (1, 5))
    assert spec.rank == 2
    assert spec.items == (((1, 0), (0,)), ((3, 2), (0,)))


def test_count_complement_matches_brute_force(g2):
    spec = from_root_subset(g2, range(6))
    for q in range(1, 9):
        assert count_complement(spec, q) == brute_complement(q, 2, spec.items)
    with pytest.raises(ValidationError):
        count_complement(spec, 0)


@settings(max_examples=60, deadline=None)
@given(
    subset=st.sets(st.integers(min_value=0, max_value=3), max_size=4),
    q=st.integers(min_value=1, max_value=9),
)
def test_count_complement_random_subsets(subset, q):
    rs = build_root_system("B", 2)
    spec = from_root_subset(rs, tuple(subset))
    assert count_complement(spec, q) == brute_complement(q, 2, spec.items)


def det(matrix):
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += term
    return total


def minors_gcd_invariants(rows):
    """Invariant factors from the gcds of all k-by-k minors."""
    if not rows:
        return ()
    nr, nc = len(rows), len(rows[0])
    gcds = [1]
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ris in combinations(range(nr), k):
            for cis in combinations(range(nc), k):
                sub = [[rows[i][j] for j in cis] for i in ris]
                g = math.gcd(g, abs(det(sub)))
        if g == 0:
            break
        gcds.append(g)
    return tuple(gcds[k] // gcds[k - 1] for k in range(1, len(gcds)))


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([], ()),
        ([[0, 0]], ()),
        ([[4, 6]], (2,)),
        ([[2, 0], [0, 3]], (1, 6)),
        ([[2, 4], [6, 8]], (2, 4)),
        ([[3, 2]], (1,)),
        ([[1, 0], [1, 1]], (1, 1)),
        ([[2, 0], [0, 2], [2, 2]], (2, 2)),
    ],
)
def test_smith_invariants_known(rows, expected):
    assert smith_invariants(rows) == expected


def test_smith_invariants_validation():
    with pytest.raises(ValidationError):
        smith_invariants([[1, 2], [3]])


@settings(max_examples=120, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    )
)
def test_smith_invariants_match_minor_gcds(rows):
    got = smith_invariants(rows)
    assert got == minors_gcd_invariants(rows)
    for a, b in zip(got, got[1:]):
        assert b % a == 0


def test_lcm_period_values(g2):
    assert lcm_period(from_root_subset(g2, range(6))) == 6
    assert lcm_period(from_root_subset(g2, (1, 2, 5))) == 2
    assert lcm_period(from_root_subset(g2, ())) == 1
    b2 = build_root_system("B", 2)
    assert lcm_period(from_root_subset(b2, range(4))) == 2
    a3 = build_root_system("A", 3)
    for subset in [(0,), (0, 3), (1, 2, 4), tuple(range(6))]:
        assert lcm_period(from_root_subset(a3, subset)) == 1
    f4 = build_root_system("F", 4)
    assert lcm_period(from_root_subset(f4, range(24))) == 12


@pytest.mark.parametrize(
    "family, rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4),
     ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4)],
)
def test_lcm_period_of_the_positive_system_is_the_lcm_of_the_marks(family, rank):
    """lcm period of Phi+ = lcm(marks) (Kamiya-Takemura-Terao), on every
    system with at most 24 positive roots, the period search's cap."""
    rs = build_root_system(family, rank)
    full = from_root_subset(rs, range(len(rs.positive_roots)))
    assert lcm_period(full) == math.lcm(*rs.marks)


def definition_lcm_period(spec):
    """The lcm period by its definition: every one of the 2^n sublists."""
    vectors = [vec for vec, _ in spec.items]
    period = 1
    for mask in range(1 << len(vectors)):
        chosen = [v for i, v in enumerate(vectors) if mask >> i & 1]
        factors = smith_invariants(chosen) if chosen else ()
        period = math.lcm(period, factors[-1] if factors else 1)
    return period


@st.composite
def random_specs(draw):
    rank = draw(st.integers(min_value=1, max_value=3))
    entry = st.integers(min_value=-4, max_value=4)
    vectors = draw(
        st.lists(
            st.lists(entry, min_size=rank, max_size=rank).filter(any),
            min_size=1,
            max_size=8,
        )
    )
    # scaled copies make non-primitive and dependent vectors common
    scales = draw(st.lists(st.integers(min_value=2, max_value=3), max_size=3))
    vectors += [[k * c for c in vec] for k, vec in zip(scales, vectors)]
    return make_spec(rank, ((vec, (0,)) for vec in vectors[:8]))


@settings(max_examples=200, deadline=None)
@given(spec=random_specs())
def test_lcm_period_matches_definition(spec):
    assert lcm_period(spec) == definition_lcm_period(spec)


def test_lcm_period_takes_any_number_of_vectors():
    """The search has no vector cap: in rank 1 the vector (k) alone has
    torsion Z/k, so 30 of them give lcm(1..30)."""
    spec = make_spec(1, [((k,), (0,)) for k in range(1, 31)])
    assert lcm_period(spec) == math.lcm(*range(1, 31))


def test_counting_cap_bounds_the_largest_sample(monkeypatch, g2):
    """The counting cap weighs the largest modulus counted, checks
    included: G2 full interpolates over its period 6 up to q = 30."""
    spec = from_root_subset(g2, range(6))
    monkeypatch.setattr(charquasi, "MAX_COUNT_BITS", 30**2 - 1)
    charquasi._char_quasi.cache_clear()
    with pytest.raises(ResourceCapError, match="counting cap"):
        char_quasi(spec)
    monkeypatch.setattr(charquasi, "MAX_COUNT_BITS", 30**2)
    assert char_quasi(spec).period == 6


def test_counting_cap_spares_the_empty_arrangement():
    """The empty arrangement is counted as q^rank without the kernel's
    masks, so it answers in rank 10 too."""
    qp = char_quasi(make_spec(10, []))
    assert qp.period == 1
    assert qp(13) == 13**10


def old_sampling_floor(spec):
    """The floor deformations were counted from before B*h + 1 was proven:
    (span of the offsets + 3) times one more than the tallest item height,
    plus one."""
    offsets = [m for _, offs in spec.items for m in offs]
    height = max(sum(vec) for vec, _ in spec.items)
    return (max(0, -min(offsets)) + max(0, max(offsets)) + 3) * (height + 1) + 1


def deformation_grid(rs, subsets):
    """The distinct arrangements of the closed-formula verdict grid: Type I
    over [0, 0], [0, 1], [-1, 1], [1, 1] and [1, 2], and Type II over the
    pairs of variants i, ii and iii."""
    around, positive = [(0, 0), (0, 1), (-1, 1)], [(1, 1), (1, 2)]
    specs = set()
    for subset in subsets:
        specs.update(type1_spec(rs, subset, i) for i in around + positive)
        for inside, outside in [(around, around), (around, positive), (positive, positive)]:
            specs.update(type2_spec(rs, subset, i, o) for i in inside for o in outside)
    return specs


def test_deformations_are_counted_from_b_times_h_plus_one():
    """char_quasi_deformation samples from q = B*h + 1 over lcm(marks); its
    interpolant equals the count at every q from there through the old
    floor plus one period.  On the verdict grid of A2, A3 and G2 (every
    ideal and every subset of at most two roots, incompatible ones
    included) and on D4 and F4 full."""
    cases = []
    for family, rank in [("A", 2), ("A", 3), ("G", 2)]:
        rs = build_root_system(family, rank)
        roots = range(len(rs.positive_roots))
        small = {subset for k in range(3) for subset in combinations(roots, k)}
        grid = deformation_grid(rs, small | set(enumerate_ideals(rs)))
        cases += [(rs, spec) for spec in grid if spec.items]
    for family, rank, intervals in [("D", 4, [(-1, 2), (0, 3), (1, 2)]), ("F", 4, [(0, 1)])]:
        rs = build_root_system(family, rank)
        full = range(len(rs.positive_roots))
        cases += [(rs, type1_spec(rs, full, interval)) for interval in intervals]
    checked = 0
    for rs, spec in cases:
        qp = char_quasi_deformation(rs, spec)
        assert qp.period == math.lcm(*rs.marks)
        bound = max(abs(m) for _, offs in spec.items for m in offs)
        for q in range(bound * rs.coxeter_number + 1, old_sampling_floor(spec) + qp.period + 1):
            assert qp(q) == count_complement(spec, q), (rs.family, rs.rank, spec, q)
            checked += 1
    assert checked > 10_000


def test_deformations_take_only_positive_roots(g2):
    """The floor is proven for root arrangements alone: a non-root, a
    negative root or a rank mismatch is refused, and char_quasi refuses
    offsets."""
    for items in ([((1, 2), (0, 1))], [((-1, 0), (0, 1))], [((1, 0, 0), (0,))]):
        with pytest.raises(ValidationError, match="positive roots"):
            char_quasi_deformation(g2, make_spec(len(items[0][0]), items))
    with pytest.raises(ValidationError, match="without offsets"):
        char_quasi(make_spec(2, [(g2.positive_roots[0], (0, 1))]))


RANK_FIVE_AT_MOST = [
    ("A", 5), ("B", 4), ("B", 5), ("C", 5), ("D", 4), ("D", 5), ("F", 4), ("G", 2),
]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lcm_period_divides_the_lcm_of_the_marks(data):
    """Sublists of a subset are sublists of the positive system, so the
    subset's lcm period divides the system's, lcm(marks): the period the
    deformations are counted over."""
    family, rank = data.draw(st.sampled_from(RANK_FIVE_AT_MOST))
    rs = build_root_system(family, rank)
    indices = st.integers(min_value=0, max_value=len(rs.positive_roots) - 1)
    subset = data.draw(st.sets(indices, max_size=12))
    assert math.lcm(*rs.marks) % lcm_period(from_root_subset(rs, subset)) == 0


def test_char_quasi_matches_counts(g2):
    qp = char_quasi_subset(g2, range(6))
    assert qp.period == 6
    for q in range(1, 21):
        assert qp(q) == count_complement(from_root_subset(g2, range(6)), q)


def test_char_quasi_empty_subset(g2):
    qp = char_quasi_subset(g2, ())
    assert qp.period == 1
    assert qp.constituents[0] == RationalPolynomial((0, 0, 1))


def test_g2_without_top_root_constituents(g2):
    """Dropping the highest root leaves a period 6 quasi-polynomial."""
    qp = char_quasi_subset(g2, (0, 1, 2, 3, 4))
    assert qp.period == 6
    fac14 = RationalPolynomial((4, -5, 1))  # (q-1)(q-4)
    fac23 = RationalPolynomial((6, -5, 1))  # (q-2)(q-3)
    assert qp.constituents[0] == fac14
    assert qp.constituents[1] == fac23
    assert qp.constituents[2] == fac23
    assert qp.constituents[3] == fac23
    assert qp.constituents[4] == fac14
    assert qp.constituents[5] == RationalPolynomial((8, -5, 1))


def test_g2_three_root_subset_constituents(g2):
    qp = char_quasi_subset(g2, (1, 2, 5))
    assert qp.period == 2
    assert qp.constituents[0] == RationalPolynomial((2, -3, 1))
    assert qp.constituents[1] == RationalPolynomial((3, -3, 1))


def test_a4_simples_plus_top():
    rs = build_root_system("A", 4)
    qp = char_quasi_subset(rs, (0, 1, 2, 3, 9))
    assert qp.period == 1
    assert qp.constituents[0] == RationalPolynomial((4, -10, 10, -5, 1))


def test_char_quasi_is_cached(g2):
    spec = from_root_subset(g2, (0, 1))
    assert char_quasi(spec) is char_quasi(spec)


@settings(max_examples=25, deadline=None)
@given(subset=st.sets(st.integers(min_value=0, max_value=3), max_size=4))
def test_char_quasi_random_subsets_match_counts(subset):
    rs = build_root_system("B", 2)
    qp = char_quasi_subset(rs, tuple(subset))
    spec = from_root_subset(rs, tuple(subset))
    for q in range(1, 13):
        assert qp(q) == count_complement(spec, q)


# The face formula against counting: two independent routes to chi.

FACE_SYSTEMS = [("G", 2), ("B", 3), ("C", 3), ("A", 4), ("B", 4), ("C", 4), ("D", 4)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_face_formula_matches_counting(data):
    family, rank = data.draw(st.sampled_from(FACE_SYSTEMS))
    rs = build_root_system(family, rank)
    n = len(rs.positive_roots)
    subset = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1)))))
    faces = char_quasi_faces(rs, subset)
    counted = char_quasi(from_root_subset(rs, subset))
    assert qp_equal(faces, counted)
    assert faces.period == counted.period


@pytest.mark.parametrize(
    "subset",
    [
        (1, 2, 4, 10, 12, 20),
        (1, 2, 3, 6, 11, 16, 17, 18, 19, 23),
        (0, 1, 2, 3, 7, 9, 10, 12, 13, 14, 17, 21, 22, 23),
    ],
)
def test_face_formula_matches_counting_f4(subset):
    rs = build_root_system("F", 4)
    faces = char_quasi_faces(rs, subset)
    counted = char_quasi(from_root_subset(rs, subset))
    assert qp_equal(faces, counted)
    assert faces.period == counted.period


# The face formula as shifts of the closed alcove against the same formula
# summed face by face over open-face interpolations (oracles).


@pytest.mark.parametrize("family, rank", [("B", 4), ("C", 4), ("D", 5), ("F", 4)])
def test_shifted_faces_match_the_face_sum_on_every_ideal(family, rank):
    rs = build_root_system(family, rank)
    for ideal in enumerate_ideals(rs):
        assert char_quasi_faces(rs, ideal) == char_quasi_face_sum(rs, ideal), ideal


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shifted_faces_match_the_face_sum_on_subsets(data):
    family, rank = data.draw(
        st.sampled_from([("G", 2), ("A", 3), ("B", 3), ("C", 3), ("A", 4), ("D", 4)])
    )
    rs = build_root_system(family, rank)
    n = len(rs.positive_roots)
    subset = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1)))))
    assert char_quasi_faces(rs, subset) == char_quasi_face_sum(rs, subset)


def test_shifted_faces_match_the_face_sum_on_e6_ideals():
    """Every 29th of the 833 E6 ideals."""
    rs = build_root_system("E", 6)
    for ideal in enumerate_ideals(rs)[::29]:
        assert char_quasi_faces(rs, ideal) == char_quasi_face_sum(rs, ideal), ideal


@pytest.mark.parametrize("family, rank", FACE_SYSTEMS)
def test_ideal_periods_fold_to_lcm_period(family, rank):
    """On every ideal the minimal period is the lcm period: no collapse."""
    rs = build_root_system(family, rank)
    for ideal in enumerate_ideals(rs):
        assert char_quasi_faces(rs, ideal).period == lcm_period(
            from_root_subset(rs, ideal)
        ), ideal


@pytest.mark.parametrize("family, rank", [("B", 5), ("D", 5), ("E", 6), ("E", 7)])
def test_face_formula_of_the_empty_subset_is_q_to_the_rank(family, rank):
    """With no hyperplanes the weights |W| / (f * |W_J|) of all faces must
    add up to q^rank, which checks every face's stabiliser order at once."""
    rs = build_root_system(family, rank)
    power = RationalPolynomial((0,) * rank + (1,))
    assert char_quasi_faces(rs, ()) == period_one(power)


def test_face_formula_validates_the_subset(g2):
    with pytest.raises(ValidationError):
        char_quasi_subset(g2, (6,))


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_short_searches_of_period_one_are_counted(data):
    """E6 subsets of at most 9 roots (100 * 2^9 <= |W| = 51,840) have their
    period searched first; those of period 1 are counted, and both routes
    agree with the face formula, period included."""
    rs = build_root_system("E", 6)
    n = len(rs.positive_roots)
    subset = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=9))))
    routed = char_quasi_subset(rs, subset)
    faces = char_quasi_faces(rs, subset)
    assert qp_equal(routed, faces)
    assert routed.period == faces.period


def test_large_systems_and_short_searches_skip_the_face_table(monkeypatch, g2):
    """Short searches of period 1 are counted without a face table: E8's
    empty subset and a single E7 root.  A system whose Weyl group passes
    the table bound is refused before its face table is built: G2 full,
    with the bound lowered below its 72 bytes."""

    def refuse(rs):
        raise AssertionError(f"face table built for {rs}")

    monkeypatch.setattr(charquasi, "_face_table", refuse)
    e8 = build_root_system("E", 8)
    assert char_quasi_subset(e8, ()) == period_one(RationalPolynomial.monomial(8))
    e7 = build_root_system("E", 7)
    one_root = char_quasi_subset(e7, (0,))
    assert one_root.period == 1
    assert one_root.constituents[0] == RationalPolynomial((0,) * 6 + (-1, 1))
    monkeypatch.setattr(rootsys, "MAX_WEYL_TABLE_BYTES", 71)
    with pytest.raises(ResourceCapError, match="image table of G2 takes 72 bytes"):
        char_quasi_subset(g2, range(6))
