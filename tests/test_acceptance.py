"""Acceptance gate: one check per shipped claim, one printed line each.

Run under pytest (each criterion is a test) or directly with
``python tests/test_acceptance.py`` for the plain pass/fail listing.
Every expected value is either a hand-checked golden value or a frozen
output of the independent brute-force oracles exercised in the unit
tests; comparisons are exact, with no floating point anywhere.
"""

import math
import random
import sys
from fractions import Fraction
from itertools import product

from weylq.charquasi import (
    char_quasi,
    char_quasi_deformation,
    char_quasi_subset,
    from_root_subset,
    lcm_period,
)
from weylq.compat import is_compatible, shift_formula_qp, verify_genfunc
from weylq.deform import cqp_type1_formula, cqp_type2_formula, type1_spec, type2_spec, verify_deform
from weylq.ehrhart import (
    count_closed,
    count_open,
    ehrhart_closed_qp,
    ehrhart_open_qp,
)
from weylq.eulerian import (
    descent_profile,
    eulerian_poly,
    m_poly,
    profile_counts,
)
from weylq.quasipoly import (
    RationalPolynomial,
    apply_shift,
    qp_equal,
)
from weylq.rootsys import (
    build_root_system,
    enumerate_ideals,
    subset_complement,
)

from oracles import (
    classify_length,
    count_minus_band_general,
    count_minus_bands,
    count_minus_facets,
    defect_qp,
    eulerian_delta_complement,
    expand_rational_series,
    full_weyl,
    omega_partition,
    period_one,
    qp_scale,
    series_of_qp,
    weyl_rows,
)

CLASSICAL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2),
]


def poly(*coeffs):
    return RationalPolynomial(coeffs)


def report(number, text):
    print(f"CRITERION {number:2d}: PASS - {text}")


def test_criterion_01_g2_golden_values():
    g2 = build_root_system("G", 2)
    chi = char_quasi_subset(g2, (0, 1, 2, 3, 4))
    fac14 = poly(4, -5, 1)   # (q-1)(q-4)
    fac23 = poly(6, -5, 1)   # (q-2)(q-3)
    assert chi.period == 6
    assert [chi.constituent_for(k) for k in range(1, 7)] == [
        fac14, fac23, fac23, fac23, fac14, poly(8, -5, 1)
    ]
    alcove = ehrhart_closed_qp(g2)

    def alc(a0):
        return poly(*(Fraction(x, 12) for x in (a0, 6, 1)))

    assert [alcove.constituent_for(k) for k in range(1, 7)] == [
        alc(5), alc(8), alc(9), alc(8), alc(5), alc(12)
    ]
    assert eulerian_poly(g2, (0, 1, 2, 3, 4)) == poly(0, 0, 0, 0, 2, 2, 8)
    assert qp_equal(shift_formula_qp(g2, (0, 1, 2, 3, 4)), chi)
    report(1, "hexagonal golden values: counts, alcove constituents, "
              "descent polynomial and shift formula all match")


def test_criterion_02_g2_three_root_subset():
    g2 = build_root_system("G", 2)
    subset = (1, 2, 5)
    assert eulerian_poly(g2, subset) == poly(0, 0, 1, 3, 2, 1, 5)
    chi = char_quasi_subset(g2, subset)
    assert chi.period == 2
    assert chi.constituent_for(1) == poly(2, -3, 1)  # (q-1)(q-2)
    assert chi.constituent_for(2) == poly(3, -3, 1)
    formula = shift_formula_qp(g2, subset)
    for q in range(1, 31):
        expected = {
            1: (q - 1) * (q - 2), 5: (q - 1) * (q - 2),
            2: q * q - 3 * q + 3, 4: q * q - 3 * q + 3,
            3: q * q - 3 * q + 4, 0: q * q - 3 * q + 5,
        }[q % 6]
        assert formula(q) == expected
        defect = 2 if q % 6 in (0, 3) else 0
        assert chi(q) == expected - defect
    assert chi(7) == 30
    result = is_compatible(g2, subset)
    assert not result.compatible
    assert result.witness.q in (3, 6)
    assert result.witness.q == 3
    report(2, "three-root subset: descent polynomial, period-2 counts, "
              "formula overshoot on two residues, first witness at q=3")


def test_criterion_03_g2_single_middle_root():
    g2 = build_root_system("G", 2)
    chi = char_quasi_subset(g2, (2,))
    assert chi.period == 1
    assert chi.constituents[0] == poly(0, -1, 1)
    assert qp_equal(shift_formula_qp(g2, (2,)), period_one(poly(1, -1, 1)))
    assert qp_equal(defect_qp(g2, (2,)), period_one(poly(1)))
    assert not is_compatible(g2, (2,)).compatible
    report(3, "single non-simple root: count q(q-1), formula q(q-1)+1, "
              "defect constant 1, incompatible")


def test_criterion_04_g2_short_root_removal():
    g2 = build_root_system("G", 2)
    expected = poly(0, 0, 0, 2, 0, 0, 10)
    assert eulerian_poly(g2, (0, 2, 3, 4, 5)) == expected  # complement of a short simple
    assert eulerian_delta_complement(g2, 1) == expected
    report(4, "short-root removal: definition and closed form both give "
              "10t^6 + 2t^3")


def test_criterion_05_a4_simples_plus_top():
    a4 = build_root_system("A", 4)
    subset = (0, 1, 2, 3, 9)
    spec = from_root_subset(a4, subset)
    assert lcm_period(spec) == 1
    chi = char_quasi_subset(a4, subset)
    # counted from q = 1 over period 1: samples q = 1..5, checks at 6 and 7
    assert qp_equal(char_quasi(spec), chi)
    assert chi.period == 1
    assert chi.constituents[0] == poly(4, -10, 10, -5, 1)
    assert eulerian_poly(a4, subset) == poly(0, 0, 1, 9, 9, 5)
    assert qp_equal(
        shift_formula_qp(a4, subset), period_one(poly(5, -12, 11, -5, 1))
    )
    assert not is_compatible(a4, subset).compatible
    report(5, "rank-4 simples plus highest root: quartic count, descent "
              "polynomial and formula match; brute force stays at q <= 7")


def test_criterion_06_full_system_count_identity():
    for family, rank in CLASSICAL_TYPES:
        rs = build_root_system(family, rank)
        full = range(len(rs.positive_roots))
        n_alcoves = rs.weyl_order // rs.index_of_connection
        assert qp_equal(
            char_quasi_subset(rs, full),
            qp_scale(ehrhart_open_qp(rs), n_alcoves),
        ), (family, rank)
    report(6, "full-system counts equal alcove count times open Ehrhart "
              "for all nine classical test systems")


def test_criterion_07_minimum_period():
    for family, rank in CLASSICAL_TYPES:
        rs = build_root_system(family, rank)
        chi = char_quasi_subset(rs, range(len(rs.positive_roots)))
        expected = math.lcm(*rs.marks)
        assert chi.period == expected, (family, rank)
        for d in range(1, expected):
            if expected % d:
                continue
            folds = all(
                chi.constituents[i] == chi.constituents[(i + d) % expected]
                for i in range(expected)
            )
            assert not folds, (family, rank, d)
    report(7, "full-system period equals the lcm of the marks and no "
              "proper divisor folds the constituents")


def test_criterion_08_ideals_compatible():
    counts = {}
    for family, rank in CLASSICAL_TYPES:
        rs = build_root_system(family, rank)
        ideals = enumerate_ideals(rs)
        counts[(family, rank)] = len(ideals)
        for ideal in ideals:
            assert is_compatible(rs, ideal).compatible, (family, rank, ideal)
    assert counts[("G", 2)] == 8
    assert counts[("A", 2)] == 5
    report(8, "every ideal of the nine test systems is compatible "
              "(8 ideals in the hexagonal system, 5 in rank-2 type A)")


def test_criterion_09_generating_functions():
    order = 60
    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(family, rank)
        denom = (1,) + rs.marks
        h = rs.coxeter_number
        n_alcoves = rs.weyl_order // rs.index_of_connection
        full_series = series_of_qp(char_quasi_subset(rs, range(len(rs.positive_roots))), order)
        assert full_series == expand_rational_series(
            RationalPolynomial.from_terms(((h, n_alcoves),)), denom, order
        )
        power_series = series_of_qp(period_one(RationalPolynomial.monomial(rank)), order)
        assert power_series == expand_rational_series(
            eulerian_poly(rs, ()), denom, order
        )
    g2 = build_root_system("G", 2)
    for subset, matches in [
        (range(6), True), ((0, 1, 2, 3, 4), True), ((0, 4), True),
        ((1, 2, 5), False), ((2,), False),
    ]:
        assert verify_genfunc(g2, subset, order) == matches
    report(9, "count series equal their rational closed forms to order 60 "
              "and series agreement tracks compatibility")


def test_criterion_10_ehrhart_suite():
    rng = random.Random(20260816)
    for family, rank in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)]:
        rs = build_root_system(family, rank)
        closed = ehrhart_closed_qp(rs)
        opened = ehrhart_open_qp(rs)
        h = rs.coxeter_number
        sign = (-1) ** rs.rank
        for q in range(1, 31):
            assert closed(-q) == sign * opened(q)
            assert count_open(rs, q) == closed(q - h)
            assert (count_open(rs, q) > 0) == (q >= h)

        def facet_mark(i):
            return 1 if i == 0 else rs.marks[i - 1]

        def brute(q, bands):
            total = 0
            for z in product(range(q + 1), repeat=rs.rank):
                s = sum(m * zi for m, zi in zip(rs.marks, z))
                if s > q:
                    continue
                coords = {i: (q - s if i == 0 else z[i - 1]) for i in bands}
                if any(a <= coords[i] <= b for i, (a, b) in bands.items()):
                    continue
                total += 1
            return total

        all_facets = list(range(rs.rank + 1))
        for _ in range(10):
            facets = tuple(sorted(rng.sample(all_facets, rng.randint(1, rs.rank + 1))))
            q = sum(facet_mark(i) for i in facets) + rng.randint(1, 8)
            assert count_minus_facets(rs, q, facets) == brute(q, {i: (0, 0) for i in facets})
        for _ in range(10):
            chosen = rng.sample(all_facets, rng.randint(1, rs.rank + 1))
            bands = {i: (0, rng.randint(0, 3)) for i in chosen}
            q = sum((b + 1) * facet_mark(i) for i, (_, b) in bands.items()) + rng.randint(1, 8)
            assert count_minus_bands(rs, q, bands) == brute(q, bands)
        for _ in range(10):
            facet = rng.choice(all_facets)
            a = rng.randint(1, 3)
            b = rng.randint(a, 4)
            c = facet_mark(facet)
            q = (b + 1) * c + rng.randint(1, 8)
            got = count_minus_band_general(rs, q, facet, (a, b))
            assert got == brute(q, {facet: (a, b)})
            assert got == (
                count_closed(rs, q - (b + 1) * c)
                + count_closed(rs, q)
                - count_closed(rs, q - a * c)
            )
    report(10, "reciprocity, open/closed translation, positivity threshold "
               "and all wall/band removal identities verified")


def test_criterion_11_deformations():
    intervals = [(0, 0), (0, 1), (-1, 1)]
    positive = [(1, 1), (1, 2)]
    mixed_failures = {
        ("A", 2): {(0, 1)},
        ("A", 3): {(0, 1), (1, 2), (0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 3, 4)},
        ("G", 2): {(0, 1), (0, 1, 2, 3, 4)},
    }
    failures = 0
    for family, rank in [("A", 2), ("A", 3), ("G", 2)]:
        rs = build_root_system(family, rank)
        n = len(rs.positive_roots)
        full = tuple(range(n))
        special = {(), tuple(range(n - 1)), full}
        alcove = ehrhart_closed_qp(rs)
        for ideal in enumerate_ideals(rs):
            proper = ideal not in ((), full)
            for inside in intervals:
                ok = verify_deform(rs, type1_spec(rs, ideal, inside),
                                   cqp_type1_formula(rs, ideal, "symmetric", inside))
                assert ok == (inside == (0, 0) or ideal in special), (family, ideal, inside)
                failures += not ok
            for inside in positive:
                ok = verify_deform(rs, type1_spec(rs, ideal, inside),
                                   cqp_type1_formula(rs, ideal, "positive", inside))
                assert ok == (not proper), (family, ideal, inside)
                failures += not ok
            for inside in intervals:
                for outside in intervals:
                    assert verify_deform(
                        rs, type2_spec(rs, ideal, inside, outside),
                        cqp_type2_formula(rs, ideal, "i", inside, outside),
                    ), (family, ideal, inside, outside)
            for inside in intervals:
                for outside in positive:
                    ok = verify_deform(rs, type2_spec(rs, ideal, inside, outside),
                                       cqp_type2_formula(rs, ideal, "ii", inside, outside))
                    expected = not ((inside, outside) == ((0, 0), (1, 2))
                                    and ideal in mixed_failures[(family, rank)])
                    assert ok == expected, (family, ideal, inside, outside)
                    failures += not ok
            for inside in positive:
                for outside in positive:
                    ok = verify_deform(rs, type2_spec(rs, ideal, inside, outside),
                                       cqp_type2_formula(rs, ideal, "iii", inside, outside))
                    assert ok == ((inside, outside) != ((1, 2), (1, 1)) or not proper), (
                        family, ideal, inside, outside)
                    failures += not ok
            # unit upper interval on the subset: formula, shifted
            # m-polynomial and brute force coincide
            via_m = apply_shift(m_poly(rs, ideal), alcove)
            assert qp_equal(via_m, cqp_type2_formula(rs, ideal, "i", (0, 1), (0, 0)))
            assert qp_equal(via_m, char_quasi_deformation(rs, type2_spec(rs, ideal, (0, 1), (0, 0))))
    assert failures == 108

    # the fully one-sided formulas really are wrong for a proper subset:
    # both sides pinned on the smallest example
    a2 = build_root_system("A", 2)
    assert char_quasi_deformation(a2, type1_spec(a2, (1,), (1, 1))).constituents[0] == poly(0, -1, 1)
    assert qp_equal(cqp_type1_formula(a2, (1,), "positive", (1, 1)), period_one(poly(1, -1, 1)))
    assert char_quasi_deformation(a2, type1_spec(a2, (1,), (0, 1))).constituents[0] == poly(0, -2, 1)
    assert qp_equal(cqp_type1_formula(a2, (1,), "symmetric", (0, 1)), period_one(poly(1, -2, 1)))

    for family, rank in [("A", 2), ("A", 3), ("B", 2), ("G", 2)]:
        rs = build_root_system(family, rank)
        qp = char_quasi_deformation(rs, type1_spec(rs, range(len(rs.positive_roots)), (0, 1)))
        h = rs.coxeter_number
        for q in range(1, 3 * h + 1):
            assert qp(q) == (q - h) ** rs.rank
    report(11, "deformation formulas match brute force exactly on the "
               "pinned verdict table (108 pinned constant-offset failures), "
               "unit-interval and offset-{0,1} specializations verified")


def test_criterion_12_statistics_suite():
    for family, rank in [("A", 2), ("A", 3), ("B", 2), ("G", 2)]:
        rs = build_root_system(family, rank)
        h = rs.coxeter_number
        n_alcoves = rs.weyl_order // rs.index_of_connection
        subsets = list(enumerate_ideals(rs))
        if (family, rank) == ("G", 2):
            subsets += [(1, 2, 5), (2,), (0, 4)]
        for psi in subsets:
            for p, _ in profile_counts(rs, psi):
                assert sum(p) == h
                for stat in (p.descent, p.descent_bar, p.ascent, p.ascent_bar):
                    assert 0 <= stat < h
            e = eulerian_poly(rs, psi)
            assert e.coeff(0) == 0
            assert e(1) == n_alcoves
    for family, rank in [("G", 2), ("B", 3), ("A", 2)]:
        rs = build_root_system(family, rank)
        elems = list(weyl_rows(full_weyl(rs), rank + 1))
        for delta in range(len(rs.positive_roots)):
            cls = classify_length(rs, rs.positive_roots[delta])
            class_size = 2 * sum(
                1 for v in rs.positive_roots if classify_length(rs, v) == cls
            )
            fiber_size = rs.weyl_order // class_size
            fibers = omega_partition(rs, delta)
            assert all(len(ws) == fiber_size for ws in fibers.values())
            complement = subset_complement(rs, (delta,))
            with_descent = sum(
                1 for w in elems if descent_profile(rs, complement, w).descent > 0
            )
            assert with_descent == len(fibers) * fiber_size
    report(12, "sum rule and range of the four statistics, descent "
               "polynomial normalisation, and removed-root fiber counts "
               "all verified")


def _run_directly():
    criteria = sorted(
        (name, fn) for name, fn in globals().items() if name.startswith("test_criterion_")
    )
    failed = 0
    for name, fn in criteria:
        number = int(name.split("_")[2])
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"CRITERION {number:2d}: FAIL - {exc}")
    print(f"{len(criteria) - failed} of {len(criteria)} criteria passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_run_directly())
