"""Mark-weighted descent statistics and the subset Eulerian polynomials."""

import gc
import importlib.util
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylq import eulerian, rootsys
from weylq.cli import parse_subset
from weylq.errors import InconsistencyError, ValidationError
from weylq.eulerian import (
    DescentProfile,
    descent_profile,
    eulerian_poly,
    m_poly,
    profile_counts,
)
from weylq.quasipoly import RationalPolynomial
from weylq.rootsys import (
    build_root_system,
    enumerate_ideals,
    enumerate_weyl,
    root_index,
    subset_complement,
)

from oracles import (
    classify_length,
    eulerian_delta_complement,
    extended_base,
    full_weyl,
    omega_partition,
    weyl_from_word,
    weyl_rows,
)
from test_rootsys import least_word, mat_act, word_matrix


@pytest.fixture(scope="module")
def g2():
    return build_root_system("G", 2)


def poly(*coeffs):
    return RationalPolynomial(coeffs)


@pytest.mark.parametrize("statistic", [eulerian_poly, m_poly, profile_counts])
def test_statistics_refuse_mixed_subsets(g2, statistic):
    """A subset mixing root indices with other values is a ValidationError,
    not the TypeError its sort would raise."""
    for subset in ([None, 1], [0, "a"], [2, 1.0]):
        with pytest.raises(ValidationError, match="out of range"):
            statistic(g2, subset)


def test_extended_base(g2):
    base = extended_base(g2)
    assert base == (((-3, -2), 1), ((1, 0), 3), ((0, 1), 2))
    assert sum(mark for _, mark in base) == g2.coxeter_number


def test_identity_profile(g2):
    """The identity sends the lowest base root to a negative, nothing else."""
    e = enumerate_weyl(g2)[: g2.rank + 1]
    profile = descent_profile(g2, (0, 1, 2, 3, 4), e)
    assert profile.descent == 1
    assert profile.descent_bar == 0
    assert profile.ascent == 0
    assert profile.ascent_bar == 5


def test_descent_fibers_without_top_root(g2):
    """Fiber sizes of the weighted descent count over the whole group."""
    psi = (0, 1, 2, 3, 4)
    values = [descent_profile(g2, psi, w).descent for w in weyl_rows(full_weyl(g2), 3)]
    assert sorted(values) == [0] * 8 + [1] * 2 + [2] * 2
    # the four elements in the small fibers, by reduced word
    assert descent_profile(g2, psi, weyl_from_word(g2, ())).descent == 1
    assert descent_profile(g2, psi, weyl_from_word(g2, (1,))).descent == 1
    assert descent_profile(g2, psi, weyl_from_word(g2, (2, 1, 2))).descent == 2
    assert descent_profile(g2, psi, weyl_from_word(g2, (1, 2, 1, 2))).descent == 2


@pytest.mark.parametrize("family, rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)])
def test_profile_sum_rule(family, rank):
    """The four statistics always add up to the Coxeter number."""
    rs = build_root_system(family, rank)
    h = rs.coxeter_number
    for psi in enumerate_ideals(rs):
        for p, _ in profile_counts(rs, psi):
            assert sum(p) == h
            for stat in (p.descent, p.descent_bar, p.ascent, p.ascent_bar):
                assert 0 <= stat < h


@pytest.mark.parametrize(
    "subset, coeffs",
    [
        ((0, 1, 2, 3, 4), (0, 0, 0, 0, 2, 2, 8)),
        ((1, 2, 5), (0, 0, 1, 3, 2, 1, 5)),
        ((2,), (0, 1, 2, 3, 3, 2, 1)),
        ((0, 1, 2, 3, 4, 5), (0, 0, 0, 0, 0, 0, 12)),
        ((), (0, 1, 3, 4, 3, 1)),
    ],
)
def test_g2_eulerian_values(g2, subset, coeffs):
    assert eulerian_poly(g2, subset) == poly(*coeffs)


def test_a4_eulerian_value():
    rs = build_root_system("A", 4)
    assert eulerian_poly(rs, (0, 1, 2, 3, 9)) == poly(0, 0, 1, 9, 9, 5)


@pytest.mark.parametrize("family, rank", [("A", 2), ("A", 3), ("B", 2), ("G", 2)])
def test_full_subset_eulerian(family, rank):
    """The full positive system concentrates everything at t^h."""
    rs = build_root_system(family, rank)
    full = range(len(rs.positive_roots))
    expected = RationalPolynomial.from_terms(
        ((rs.coxeter_number, rs.weyl_order // rs.index_of_connection),)
    )
    assert eulerian_poly(rs, full) == expected


@pytest.mark.parametrize(
    "rank, coeffs",
    [(1, (0, 1)), (2, (0, 1, 1)), (3, (0, 1, 4, 1)), (4, (0, 1, 11, 11, 1))],
)
def test_empty_subset_gives_classical_eulerian(rank, coeffs):
    rs = build_root_system("A", rank)
    assert eulerian_poly(rs, ()) == poly(*coeffs)


@pytest.mark.parametrize("family, rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)])
def test_eulerian_normalisation(family, rank):
    """No element reaches weight 0, and the values add to #W/f."""
    rs = build_root_system(family, rank)
    for psi in enumerate_ideals(rs):
        e = eulerian_poly(rs, psi)
        assert e.coeff(0) == 0
        assert e(1) == rs.weyl_order // rs.index_of_connection
        assert e.is_integral
        assert e.degree <= rs.coxeter_number


def test_m_poly_values(g2):
    assert m_poly(g2, (1, 2, 5)) == poly(0, 0, 0, 0, 0, 0, 5, 1, 2, 3, 1)
    assert m_poly(g2, ()) == RationalPolynomial.from_terms(((6, 12),))


@pytest.mark.parametrize("family, rank", [("A", 2), ("B", 2), ("G", 2)])
def test_m_poly_normalisation(family, rank):
    rs = build_root_system(family, rank)
    h = rs.coxeter_number
    for psi in enumerate_ideals(rs):
        m = m_poly(rs, psi)
        assert m(1) == rs.weyl_order // rs.index_of_connection
        assert m.degree <= 2 * h - 1
        # weights start at h: each exponent is h plus a statistic
        assert all(m.coeff(k) == 0 for k in range(h))


def test_g2_short_root_removal(g2):
    assert eulerian_delta_complement(g2, 1) == poly(0, 0, 0, 2, 0, 0, 10)


def test_g2_long_root_removal(g2):
    assert eulerian_delta_complement(g2, 5) == poly(0, 0, 0, 0, 2, 2, 8)
    assert eulerian_delta_complement(g2, 0) == poly(0, 0, 0, 0, 2, 2, 8)


@pytest.mark.parametrize("family, rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)])
def test_delta_complement_closed_form(family, rank):
    """The closed form agrees with the definition for every removed root."""
    rs = build_root_system(family, rank)
    for delta in range(len(rs.positive_roots)):
        direct = eulerian_poly(rs, subset_complement(rs, (delta,)))
        assert eulerian_delta_complement(rs, delta) == direct


def test_omega_partition_g2_long(g2):
    fibers = omega_partition(g2, 5)
    assert set(fibers) == {0, 2}
    assert all(len(ws) == 2 for ws in fibers.values())
    delta = g2.positive_roots[5]
    minus_delta = tuple(-c for c in delta)
    base = extended_base(g2)
    for position, ws in fibers.items():
        for w in ws:
            assert mat_act(word_matrix(g2, least_word(g2, w)), base[position][0]) == minus_delta


def test_omega_partition_g2_short(g2):
    fibers = omega_partition(g2, 1)
    assert set(fibers) == {1}
    assert len(fibers[1]) == 2


def test_omega_partition_a2_sizes():
    rs = build_root_system("A", 2)
    fibers = omega_partition(rs, 2)
    assert set(fibers) == {0, 1, 2}
    assert all(len(ws) == 1 for ws in fibers.values())


@pytest.mark.parametrize("family, rank", [("A", 2), ("B", 3), ("G", 2)])
def test_omega_partition_counts(family, rank):
    """Fibers sit over the base positions of the removed root's length
    class, each of size #W divided by the class size, and together they
    exhaust the elements with a positive descent count."""
    rs = build_root_system(family, rank)
    base = extended_base(rs)
    for delta in range(len(rs.positive_roots)):
        cls = classify_length(rs, rs.positive_roots[delta])
        class_size = 2 * sum(
            1 for v in rs.positive_roots if classify_length(rs, v) == cls
        )
        expected_positions = {
            i for i, (root, _) in enumerate(base)
            if classify_length(rs, tuple(abs(c) for c in root) if i == 0 else root) == cls
        }
        fibers = omega_partition(rs, delta)
        assert set(fibers) == expected_positions
        fiber_size = rs.weyl_order // class_size
        assert all(len(ws) == fiber_size for ws in fibers.values())
        complement = subset_complement(rs, (delta,))
        positive_descent = {
            w for w in weyl_rows(full_weyl(rs), rank + 1)
            if descent_profile(rs, complement, w).descent > 0
        }
        collected = {w for ws in fibers.values() for w in ws}
        assert collected == positive_descent
        assert len(positive_descent) == len(expected_positions) * fiber_size


def _reference_profile(rs, subset, w):
    """Classify each extended-base image under the matrix of the element's
    least reduced word."""
    psi = set(subset)
    lookup = root_index(rs)
    mat = word_matrix(rs, least_word(rs, w))
    counts = {"descent": 0, "descent_bar": 0, "ascent": 0, "ascent_bar": 0}
    for root, mark in extended_base(rs):
        image = mat_act(mat, root)
        if image in lookup:
            counts["ascent_bar" if lookup[image] in psi else "ascent"] += mark
        else:
            neg = lookup[tuple(-c for c in image)]
            counts["descent_bar" if neg in psi else "descent"] += mark
    return DescentProfile(**counts)


@st.composite
def _element_and_subset(draw):
    family, rank = draw(st.sampled_from([("G", 2), ("B", 3), ("F", 4)]))
    rs = build_root_system(family, rank)
    if draw(st.booleans()):
        # any word, reduced or not
        word = draw(st.lists(st.integers(min_value=1, max_value=rank), max_size=24))
        w = weyl_from_word(rs, word)
    else:
        elements = list(weyl_rows(enumerate_weyl(rs), rank + 1))
        w = elements[draw(st.integers(min_value=0, max_value=len(elements) - 1))]
    n = len(rs.positive_roots)
    subset = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n))
    return rs, w, subset


@settings(max_examples=300, deadline=None)
@given(case=_element_and_subset())
def test_descent_profile_matches_matrix_action(case):
    rs, w, subset = case
    assert descent_profile(rs, subset, w) == _reference_profile(rs, subset, w)


@settings(max_examples=60, deadline=None)
@given(case=_element_and_subset())
def test_profile_counts_match_per_element_profiles(case):
    """The histogram, times f, counts the per-element classification over
    the whole group, in a fixed (increasing) order, and its counts add up
    to the group order."""
    rs, _, subset = case
    hist = _times_f(rs, profile_counts(rs, subset))
    assert dict(hist) == Counter(
        descent_profile(rs, subset, w) for w in weyl_rows(full_weyl(rs), rs.rank + 1)
    )
    assert list(hist) == sorted(hist)
    assert sum(count for _, count in hist) == rs.weyl_order


def _benchmark_subset(workload, seed):
    """The --subset of the benchmark's first query for a workload and seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argv = workloads.make_queries(workload, seed)[0]["argv"]
    return argv[argv.index("--subset") + 1]


def _times_f(rs, hist):
    """A histogram over W/Omega-bar as one over W."""
    return tuple((p, rs.index_of_connection * count) for p, count in hist)


def _assert_per_element_histogram(rs, subset):
    hist = _times_f(rs, profile_counts(rs, subset))
    assert dict(hist) == Counter(
        descent_profile(rs, subset, w) for w in weyl_rows(full_weyl(rs), rs.rank + 1)
    )
    assert list(hist) == sorted(hist)


@pytest.mark.parametrize("family", "BC")
def test_pattern_histogram_on_every_rank_4_ideal(family):
    """The bytewise lane sums give the histogram of the per-element
    classification on every ideal of the compat-sweep benchmark's
    systems."""
    rs = build_root_system(family, 4)
    for psi in enumerate_ideals(rs):
        _assert_per_element_histogram(rs, psi)


def test_pattern_histogram_on_e6():
    """The same on E6: the empty subset, the eulerian-e6 benchmark's seed-1
    ideal and the full subset."""
    rs = build_root_system("E", 6)
    full = range(len(rs.positive_roots))
    for subset in ((), parse_subset(rs, _benchmark_subset("eulerian-e6", 1)), full):
        _assert_per_element_histogram(rs, tuple(subset))


@pytest.mark.parametrize("family, rank, step", [("F", 4, 1), ("D", 5, 1), ("E", 6, 40)])
def test_lane_histogram_on_larger_marks_and_groups(family, rank, step):
    """The same on every ideal of F4 (marks up to 4) and of D5, and on every
    40th ideal of E6 (marks up to 3, 51,840 elements per lane)."""
    rs = build_root_system(family, rank)
    for psi in enumerate_ideals(rs)[::step]:
        _assert_per_element_histogram(rs, psi)


def test_one_classification_per_distinct_profile(monkeypatch):
    """descent_profile runs once per distinct profile of a B4 ideal, not
    once per element or per pattern of image classes."""
    rs = build_root_system("B", 4)
    psi = enumerate_ideals(rs)[30]
    calls = []

    def counted(*args):
        calls.append(args)
        return descent_profile(*args)

    eulerian._profiles.cache_clear()
    monkeypatch.setattr(eulerian, "descent_profile", counted)
    hist = profile_counts(rs, psi)
    assert len(calls) == len(hist) < rs.weyl_order


def test_statistics_build_one_element_per_distinct_profile(monkeypatch):
    """e and m of an E6 ideal, from cleared caches, classify one element
    by descent_profile only for each distinct value of their lanes: the
    enumeration and the lanes read the group's image table as a whole."""
    rs = build_root_system("E", 6)
    psi = enumerate_ideals(rs)[400]
    built = []

    def counted(*args):
        built.append(args)
        return descent_profile(*args)

    for cached in (rootsys._weyl_elements, eulerian._lane, eulerian._profiles):
        cached.cache_clear()
    monkeypatch.setattr(eulerian, "descent_profile", counted)
    eulerian_poly(rs, psi)
    m_poly(rs, psi)
    assert 0 < len(built) <= len(profile_counts(rs, psi))


def test_lane_sums_cross_check_the_classification(monkeypatch):
    """A classification that disagrees with the lane sums is refused."""
    rs = build_root_system("B", 4)

    def doctored(rs, subset, w):
        p = descent_profile(rs, subset, w)
        return DescentProfile(p.descent + 1, p.descent_bar, p.ascent, p.ascent_bar - 1)

    eulerian._profiles.cache_clear()
    monkeypatch.setattr(eulerian, "descent_profile", doctored)
    with pytest.raises(InconsistencyError):
        profile_counts(rs, (0, 1))


def test_word_and_table_profiles_agree():
    """An element built from its least reduced word classifies like its
    table entry."""
    rs = build_root_system("B", 3)
    psi = (0, 2, 4, 5)
    for w in weyl_rows(enumerate_weyl(rs), rs.rank + 1):
        bare = weyl_from_word(rs, least_word(rs, w))
        assert bare == w
        assert descent_profile(rs, psi, bare) == descent_profile(rs, psi, w)


def test_repeated_statistics_are_cache_hits(monkeypatch):
    """A repeated e, or a repeated m, on one subset is a hit in the lane
    cache; e and m from cleared caches together classify at most 2(h + 1)
    elements by descent_profile, one per value of each lane."""
    rs = build_root_system("C", 3)
    psi = (0, 1, 3)
    built = []
    for cached in (rootsys._weyl_elements, eulerian._lane):
        cached.cache_clear()
    monkeypatch.setattr(
        eulerian, "descent_profile", lambda *args: built.append(args) or descent_profile(*args)
    )
    for statistic in (eulerian_poly, m_poly):
        first = statistic(rs, psi)
        before = eulerian._lane.cache_info()
        assert statistic(rs, psi) == first
        after = eulerian._lane.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert after.maxsize is not None
    assert 0 < len(built) <= 2 * (rs.coxeter_number + 1)


def _marginal_polynomial(rs, exponents):
    """Sum of t^e over the exponents, one per element, divided by the index
    of connection."""
    counts = Counter(exponents)
    coeffs = [0] * (max(counts) + 1)
    for e, c in counts.items():
        coeffs[e] = Fraction(c, rs.index_of_connection)
    return RationalPolynomial(coeffs)


@pytest.mark.parametrize(
    "family, rank, step",
    [("B", 4, 1), ("C", 4, 1), ("D", 5, 1), ("F", 4, 1), ("G", 2, 1), ("E", 6, 40)],
)
def test_lanes_are_the_profile_marginals(family, rank, step):
    """e and m, read from one lane each, are the descent and ascent_bar
    marginals of the per-element classification on every ideal of B4, C4,
    D5, F4 and G2, and on every 40th ideal of E6."""
    rs = build_root_system(family, rank)
    h = rs.coxeter_number
    for psi in enumerate_ideals(rs)[::step]:
        profiles = [descent_profile(rs, psi, w) for w in weyl_rows(full_weyl(rs), rank + 1)]
        e = _marginal_polynomial(rs, (h - p.descent for p in profiles))
        m = _marginal_polynomial(rs, (h + p.ascent_bar for p in profiles))
        assert (eulerian_poly(rs, psi), m_poly(rs, psi)) == (e, m)


@pytest.mark.parametrize("statistic", [eulerian_poly, m_poly])
def test_lanes_cross_check_the_classification(monkeypatch, statistic):
    """A classification that disagrees with a lane is refused by e and by
    m alike."""
    rs = build_root_system("B", 4)

    def doctored(rs, subset, w):
        p = descent_profile(rs, subset, w)
        return DescentProfile(p.descent + 1, p.descent_bar, p.ascent, p.ascent_bar - 1)

    eulerian._lane.cache_clear()
    monkeypatch.setattr(eulerian, "descent_profile", doctored)
    with pytest.raises(InconsistencyError):
        statistic(rs, (0, 1))


@pytest.mark.parametrize("family, rank", [("B", 4), ("F", 4), ("E", 6)])
def test_each_lane_classifies_at_most_h_plus_one_elements(monkeypatch, family, rank):
    """One descent_profile call per distinct value of a lane, which lies
    in 0..h: on the empty subset, the full one and a middle ideal."""
    rs = build_root_system(family, rank)
    ideals = enumerate_ideals(rs)
    calls = []
    monkeypatch.setattr(
        eulerian, "descent_profile", lambda *args: calls.append(args) or descent_profile(*args)
    )
    for psi in ((), ideals[len(ideals) // 2], range(len(rs.positive_roots))):
        for statistic in (eulerian_poly, m_poly):
            eulerian._lane.cache_clear()
            calls.clear()
            poly = statistic(rs, psi)
            assert len(calls) == sum(1 for c in poly.coeffs if c) <= rs.coxeter_number + 1


def test_lanes_keep_no_copy_of_the_image_table(monkeypatch):
    """e and m on D5 from cleared caches leave the eulerian caches holding
    far less than the group's image table: the lanes slice its columns per
    call and keep only their counts.  They read the whole group's table
    here, whose 11,520 bytes stand well clear of the caches' own few
    kilobytes."""
    rs = build_root_system("D", 5)
    psi = enumerate_ideals(rs)[90]
    monkeypatch.setattr(eulerian, "enumerate_weyl", full_weyl)
    images = full_weyl(rs)
    for cached in (eulerian._lane, eulerian._profiles, eulerian._inside):
        cached.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        eulerian_poly(rs, psi)
        m_poly(rs, psi)
        gc.collect()
        kept = tracemalloc.take_snapshot().compare_to(before, "filename")
    finally:
        tracemalloc.stop()
        # the cached counts are the whole group's, not the enumeration's
        for cached in (eulerian._lane, eulerian._profiles):
            cached.cache_clear()
    held = sum(stat.size_diff for stat in kept if stat.traceback[0].filename == eulerian.__file__)
    # a kept copy of the table would hold len(images) bytes or more
    assert held < len(images) // 2


def _shuffled(table, width, seed):
    """The same rows in a seeded random order, the identity kept first."""
    rows = [table[i : i + width] for i in range(0, len(table), width)]
    rest = rows[1:]
    random.Random(seed).shuffle(rest)
    return b"".join(rows[:1] + rest)


@pytest.mark.parametrize("family, rank, sample", [("B", 4, None), ("F", 4, None), ("E", 6, 12)])
def test_statistics_do_not_depend_on_the_element_order(monkeypatch, family, rank, sample):
    """enumerate_weyl promises the identity first and each element once and
    no more, so e, m and the profile histogram must come out the same from
    a seeded shuffle of the group: on every ideal of B4 and F4 and on
    seeded ideals of E6."""
    rs = build_root_system(family, rank)
    ideals = enumerate_ideals(rs)
    if sample:
        ideals = random.Random(f"{family}{rank}").sample(ideals, sample)
    statistics = (eulerian_poly, m_poly, profile_counts)
    caches = (eulerian._lane, eulerian._profiles)
    table = enumerate_weyl(rs)
    shuffled = _shuffled(table, rank + 1, f"{family}{rank}")
    assert shuffled[: rank + 1] == table[: rank + 1] and shuffled != table
    try:
        for cached in caches:
            cached.cache_clear()
        expected = [[statistic(rs, psi) for statistic in statistics] for psi in ideals]
        for cached in caches:
            cached.cache_clear()
        monkeypatch.setattr(eulerian, "enumerate_weyl", lambda rs: shuffled)
        assert [[statistic(rs, psi) for statistic in statistics] for psi in ideals] == expected
    finally:
        for cached in caches:
            cached.cache_clear()


def test_lane_counts_are_already_divided_by_f():
    """The lanes count cosets of Omega-bar, so e and m read their counts
    with no division: on B2 (f = 2) the descent lane of the empty subset
    counts |W|/f = 4 cosets, and e is those counts at h minus each value."""
    b2 = rootsys.build_root_system("B", 2)
    assert b2.index_of_connection == 2
    eulerian._lane.cache_clear()
    lane = eulerian._lane(b2, (), "descent")
    assert sum(count for _, count in lane) == 4
    expected = RationalPolynomial.from_terms((4 - v, c) for v, c in lane)
    assert eulerian_poly(b2, ()) == expected == poly(0, 1, 2, 1)


@pytest.mark.parametrize(
    "family, rank, sample",
    [("B", 4, None), ("C", 4, None), ("D", 5, None), ("F", 4, None), ("E", 6, 12)],
)
def test_quotient_statistics_times_f_are_the_full_ones(monkeypatch, family, rank, sample):
    """f times each count over W/Omega-bar is the count over the whole
    group: the joint profile histogram and the e and m lanes, on every
    ideal of B4, C4, D5 and F4 and on seeded ideals of E6."""
    rs = build_root_system(family, rank)
    f = rs.index_of_connection
    ideals = enumerate_ideals(rs)
    if sample:
        ideals = random.Random(f"omega-{family}{rank}").sample(ideals, sample)
    caches = (eulerian._lane, eulerian._profiles)

    def statistics():
        for cached in caches:
            cached.cache_clear()
        return [
            (eulerian._profiles(rs, psi),
             eulerian._lane(rs, psi, "descent"), eulerian._lane(rs, psi, "ascent_bar"))
            for psi in ideals
        ]

    try:
        quotient = statistics()
        monkeypatch.setattr(eulerian, "enumerate_weyl", full_weyl)
        full = statistics()
    finally:
        for cached in caches:
            cached.cache_clear()
    scaled = [tuple(tuple((key, f * c) for key, c in counts) for counts in row) for row in quotient]
    assert scaled == full
