"""Worpitzky-compatibility decisions, defects and generating functions."""

import functools
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylq import compat, quasipoly, rootsys
from weylq.charquasi import _face_numerator, char_quasi_subset
from weylq.cli import main
from weylq.compat import is_compatible, shift_formula_qp, verify_genfunc
from weylq.errors import ValidationError
from weylq.eulerian import eulerian_poly
from weylq.quasipoly import RationalPolynomial, qp_equal
from weylq.rootsys import build_root_system, enumerate_ideals, normalize_subset

from oracles import defect_qp, genfunc_by_series, is_ideal


@pytest.fixture(scope="module")
def g2():
    return build_root_system("G", 2)


def all_subsets(n):
    for k in range(n + 1):
        yield from combinations(range(n), k)


def test_empty_and_full_are_compatible(g2):
    assert is_compatible(g2, ()).compatible
    assert is_compatible(g2, range(6)).compatible


def test_g2_without_top_root_compatible(g2):
    result = is_compatible(g2, (0, 1, 2, 3, 4))
    assert result.compatible
    assert result.witness is None


def test_g2_three_root_subset_incompatible(g2):
    """The shift formula first overshoots at q = 3 for this subset."""
    result = is_compatible(g2, (1, 2, 5))
    assert not result.compatible
    assert result.witness.q == 3
    assert result.witness.residue == 3


def test_g2_three_root_subset_values(g2):
    chi = char_quasi_subset(g2, (1, 2, 5))
    formula = shift_formula_qp(g2, (1, 2, 5))
    assert chi(7) == 30
    for q in range(1, 25):
        expected = {
            1: (q - 1) * (q - 2),
            5: (q - 1) * (q - 2),
            2: q * q - 3 * q + 3,
            4: q * q - 3 * q + 3,
            3: q * q - 3 * q + 4,
            0: q * q - 3 * q + 5,
        }[q % 6]
        assert formula(q) == expected
        if q % 6 in (1, 2, 4, 5):
            assert chi(q) == expected
        else:
            assert chi(q) == expected - 2


def test_g2_three_root_subset_defect(g2):
    defect = defect_qp(g2, (1, 2, 5))
    for q in range(1, 25):
        assert defect(q) == (2 if q % 6 in (0, 3) else 0)


def test_g2_middle_root_defect(g2):
    """A single non-simple root gives formula = count + 1 everywhere."""
    chi = char_quasi_subset(g2, (2,))
    formula = shift_formula_qp(g2, (2,))
    defect = defect_qp(g2, (2,))
    for q in range(1, 25):
        assert chi(q) == q * (q - 1)
        assert formula(q) == q * (q - 1) + 1
        assert defect(q) == 1
    result = is_compatible(g2, (2,))
    assert not result.compatible
    assert result.witness.q == 1


def test_compatible_non_ideal(g2):
    """Compatibility is not confined to downward-closed subsets."""
    subset = (0, 4)
    assert is_compatible(g2, subset).compatible
    assert not is_ideal(g2, subset)


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 2), ("G", 2)])
def test_singletons(family, rank):
    """A one-root subset is compatible exactly for simple roots."""
    rs = build_root_system(family, rank)
    for i in range(len(rs.positive_roots)):
        expected = i < rs.rank
        assert is_compatible(rs, (i,)).compatible == expected


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 2), ("G", 2)])
def test_full_minus_one_root(family, rank):
    rs = build_root_system(family, rank)
    n = len(rs.positive_roots)
    for i in range(n):
        subset = tuple(j for j in range(n) if j != i)
        assert is_compatible(rs, subset).compatible


@pytest.mark.parametrize("family, rank", [("A", 2), ("A", 3), ("B", 2), ("G", 2), ("F", 4)])
def test_ideals_are_compatible(family, rank):
    rs = build_root_system(family, rank)
    for ideal in enumerate_ideals(rs):
        result = is_compatible(rs, ideal)
        assert result.compatible, ideal


def test_second_sweep_reuses_the_shift_table(monkeypatch, capsys):
    """The Taylor shifts of the alcove count are computed once per process:
    a second B4 sweep makes no shift_arg call."""
    calls = []
    shift_arg = RationalPolynomial.shift_arg

    def counted(self, delta):
        calls.append(delta)
        return shift_arg(self, delta)

    monkeypatch.setattr(RationalPolynomial, "shift_arg", counted)
    quasipoly._shift_table.cache_clear()
    compat._decide.cache_clear()
    argv = ["compat", "--type", "B", "--rank", "4", "--subset", "ideal-all"]
    assert main(argv) == 0
    first = len(calls)
    assert main(argv) == 0
    assert first > 0 and len(calls) == first
    assert "incompatible" not in capsys.readouterr().out


@pytest.mark.parametrize("family, rank", [("A", 2), ("B", 2), ("G", 2)])
def test_shift_formula_extremes(family, rank):
    """For the empty and the full subset the formula is the count itself."""
    rs = build_root_system(family, rank)
    full = range(len(rs.positive_roots))
    assert qp_equal(shift_formula_qp(rs, full), char_quasi_subset(rs, full))
    assert qp_equal(shift_formula_qp(rs, ()), char_quasi_subset(rs, ()))


def test_g2_sweep_counts(g2):
    """Every subset decides, and 45 of the 64 are compatible."""
    verdicts = [is_compatible(g2, s).compatible for s in all_subsets(6)]
    assert len(verdicts) == 64
    assert sum(verdicts) == 45


def test_genfunc_matches_decision(g2):
    """Series agreement to order 60 coincides with the exact decision (by
    construction; the series-route tests below keep the identity honest)."""
    for subset in all_subsets(6):
        assert verify_genfunc(g2, subset, 60) == is_compatible(g2, subset).compatible


def test_genfunc_order_floor(g2):
    with pytest.raises(ValidationError):
        verify_genfunc(g2, (0,), 17)
    assert verify_genfunc(g2, (0,), 18)


def _genfunc_orders(rs):
    """The least admitted order, 3h, and one period of the closed alcove past it."""
    return (3 * rs.coxeter_number, 3 * rs.coxeter_number + math.lcm(*rs.marks))


def _agrees_with_series_route(rs, subset):
    for order in _genfunc_orders(rs):
        verdict = verify_genfunc(rs, subset, order)
        assert verdict == genfunc_by_series(rs, subset, order), (rs.family, rs.rank, subset, order)
    return verdict


def test_genfunc_matches_series_route_on_g2(g2):
    """Every G2 subset, the 19 incompatible ones included, gets the verdict
    of expanding both series term by term."""
    verdicts = [_agrees_with_series_route(g2, s) for s in all_subsets(6)]
    assert verdicts.count(False) == 19


RANK_AT_MOST_4 = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2),
]

_system = functools.lru_cache(maxsize=None)(build_root_system)


@settings(max_examples=80, deadline=None)
@given(system=st.sampled_from(RANK_AT_MOST_4), data=st.data())
def test_genfunc_matches_series_route(system, data):
    """Random subsets of systems of rank at most 4, most of them
    incompatible, at orders 3h and 3h + lcm(marks)."""
    rs = _system(*system)
    subset = data.draw(st.sets(st.integers(0, len(rs.positive_roots) - 1)))
    _agrees_with_series_route(rs, subset)


@pytest.mark.parametrize("family, rank", [("B", 4), ("C", 4), ("D", 5), ("F", 4)])
def test_genfunc_matches_series_route_on_ideals(family, rank):
    rs = build_root_system(family, rank)
    for ideal in enumerate_ideals(rs):
        assert _agrees_with_series_route(rs, ideal)


def test_defect_vanishes_exactly_for_compatible(g2):
    for subset in [(), (0,), (0, 1), (0, 1, 2, 3, 4), (0, 4)]:
        defect = defect_qp(g2, subset)
        assert all(defect(q) == 0 for q in range(1, 19))


NUMERATOR_SYSTEMS = [("B", 4), ("C", 4), ("D", 5), ("F", 4), ("G", 2), ("A", 4)]


def _numerator_gap(rs, subset):
    """The exponents where the face formula's N and the descent polynomial
    E differ, in increasing order."""
    gap = _face_numerator(rs, normalize_subset(rs, subset)) - eulerian_poly(rs, subset)
    return [k for k, _ in gap.terms]


@pytest.mark.parametrize("family, rank", NUMERATOR_SYSTEMS)
def test_face_numerator_is_the_eulerian_polynomial_on_ideals(family, rank):
    """The paper's theorem in numerator form: on every ideal, N = E."""
    rs = _system(family, rank)
    for ideal in enumerate_ideals(rs):
        assert _numerator_gap(rs, ideal) == [], ideal


def test_face_numerator_is_the_eulerian_polynomial_on_e7():
    """N = E on the largest group table, the face orbits against the lanes
    over all 2,903,040 elements: on the empty ideal, the full system and
    four seeded ideals.  The group (46 MB while built) is dropped from the
    cache afterwards."""
    rs = _system("E", 7)
    full = tuple(range(len(rs.positive_roots)))
    try:
        for ideal in [(), full] + random.Random("E7").sample(enumerate_ideals(rs), 4):
            assert _numerator_gap(rs, ideal) == [], ideal
    finally:
        rootsys._weyl_elements.cache_clear()


@pytest.mark.parametrize("family, rank", NUMERATOR_SYSTEMS)
def test_witness_is_the_lowest_degree_of_n_minus_e(family, rank):
    """chi minus the shift formula has series (N - E)/D, and 1/D has
    constant term 1, so the decision's witness is the lowest degree of
    N - E (verify_genfunc's proof), on random subsets with each root drawn
    with probability 1/2."""
    rs = _system(family, rank)
    rng = random.Random(f"{family}{rank}")
    incompatible = 0
    for _ in range(20):
        subset = [i for i in range(len(rs.positive_roots)) if rng.random() < 0.5]
        gap = _numerator_gap(rs, subset)
        result = is_compatible(rs, subset)
        assert result.compatible == (not gap)
        if gap:
            incompatible += 1
            assert result.witness.q == gap[0]
    assert incompatible
