"""Interval deformations: spec builders, closed formulas and their limits.

The closed formulas are exact for some subset/interval combinations and
provably off-by-a-constant for others; the grid test pins the complete
verdict table for every ideal of the three smallest systems, and the
counterexample test pins the failing polynomials themselves.
"""

import json
import math

import pytest

from weylq import charquasi, compat, eulerian, kernels, quasipoly, rootsys
from weylq.charquasi import char_quasi, char_quasi_deformation, from_root_subset
from weylq.cli import main
from weylq.deform import cqp_type1_formula, cqp_type2_formula, type1_spec, type2_spec, verify_deform
from weylq.ehrhart import ehrhart_closed_qp
from weylq.errors import ValidationError
from weylq.eulerian import m_poly
from weylq.quasipoly import (
    RationalPolynomial,
    apply_shift,
    qp_equal,
)
from weylq.rootsys import build_root_system, enumerate_ideals, subset_complement

from oracles import (
    catalan_closed_form,
    exponents,
    linial_closed_form,
    period_one,
    qp_from_json,
    shi_closed_form,
)

INTERVALS = [(0, 0), (0, 1), (-1, 1)]  # intervals containing 0
POSITIVE = [(1, 1), (1, 2)]  # intervals starting at 1

# subset/interval combinations where the closed formula provably differs
# from the true quasi-polynomial (always by a positive constant)
TYPE2_MIXED_FAILURES = {
    ("A", 2): {(0, 1)},
    ("A", 3): {(0, 1), (1, 2), (0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 3, 4)},
    ("G", 2): {(0, 1), (0, 1, 2, 3, 4)},
}


@pytest.fixture(scope="module")
def g2():
    return build_root_system("G", 2)


@pytest.fixture(scope="module")
def a2():
    return build_root_system("A", 2)


def poly(*coeffs):
    return RationalPolynomial(coeffs)


def test_type1_spec_offsets(g2):
    spec = type1_spec(g2, (0, 1), (-1, 2))
    assert spec.items == (((0, 1), (-1, 0, 1, 2)), ((1, 0), (-1, 0, 1, 2)))
    assert type1_spec(g2, (0, 1), (0, 0)) == from_root_subset(g2, (0, 1))


def test_type2_spec_offsets(g2):
    spec = type2_spec(g2, (0,), (0, 1), (1, 1))
    by_vector = dict(spec.items)
    assert by_vector[(0, 1)] == (0, 1)
    for i in range(1, 6):
        assert by_vector[g2.positive_roots[i]] == (1,)


def test_interval_validation(g2):
    with pytest.raises(ValidationError):
        type1_spec(g2, (0,), (2, 1))
    with pytest.raises(ValidationError):
        type1_spec(g2, (0,), (0, True))
    with pytest.raises(ValidationError):
        type2_spec(g2, (0,), (0,), (0, 1))


def test_type2_duality(g2):
    """Swapping subset and complement along with their intervals is a no-op."""
    for subset in [(0,), (0, 1), (1, 2, 5), (0, 1, 2, 3, 4)]:
        comp = subset_complement(g2, subset)
        assert type2_spec(g2, subset, (-1, 1), (0, 2)) == type2_spec(
            g2, comp, (0, 2), (-1, 1)
        )


def test_type1_full_is_type2_with_equal_intervals(g2):
    full = tuple(range(6))
    for subset in [(), (0, 1), (1, 2, 5)]:
        assert type2_spec(g2, subset, (0, 1), (0, 1)) == type1_spec(g2, full, (0, 1))


def test_empty_subset_deformation(a2):
    spec = type1_spec(a2, (), (-3, 3))
    qp = char_quasi_deformation(a2, spec)
    assert qp.period == 1
    assert qp.constituents[0] == poly(0, 0, 1)
    assert verify_deform(a2, spec, period_one(poly(0, 0, 1)))


@pytest.mark.parametrize("family, rank", [("A", 2), ("A", 3), ("B", 2), ("G", 2)])
def test_shi_deformation(family, rank):
    """Offsets {0,1} on the full system: every constituent is (q-h)^rank."""
    rs = build_root_system(family, rank)
    full = tuple(range(len(rs.positive_roots)))
    h = rs.coxeter_number
    qp = char_quasi_deformation(rs, type1_spec(rs, full, (0, 1)))
    for q in range(1, 3 * h + 1):
        assert qp(q) == (q - h) ** rs.rank
    formula = cqp_type1_formula(rs, full, "symmetric", (0, 1))
    assert qp_equal(formula, qp)


# the paper's specialisations on the full system, the second route where
# counting refuses (E6 and F4 at these intervals)
CLOSED_FORM_SYSTEMS = [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("D", 5), ("G", 2), ("F", 4), ("E", 6)]
# and through the quotient W/Omega on ranks 5 to 7 and E7, where no other
# route answers
SHI_CATALAN_SYSTEMS = CLOSED_FORM_SYSTEMS + [
    ("B", 5), ("C", 5), ("B", 6), ("C", 6), ("D", 6), ("D", 7), ("B", 7), ("C", 7), ("E", 7)
]


@pytest.mark.parametrize("family, rank", CLOSED_FORM_SYSTEMS)
def test_exponents_from_root_heights(family, rank):
    """The exponents read off the heights have the product of (e_i + 1)
    equal to |W| and add up to the number of positive roots."""
    rs = build_root_system(family, rank)
    es = exponents(rs)
    assert len(es) == rank and es[0] == 1 and es[-1] == rs.coxeter_number - 1
    assert math.prod(e + 1 for e in es) == rs.weyl_order
    assert sum(es) == len(rs.positive_roots)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("family, rank", SHI_CATALAN_SYSTEMS)
def test_shi_closed_form(family, rank, m):
    """Shi^m, the offsets 1 - m..m: (q - mh)^rank on every residue."""
    rs = build_root_system(family, rank)
    formula = cqp_type1_formula(rs, range(len(rs.positive_roots)), "symmetric", (1 - m, m))
    assert set(formula.constituents) == {shi_closed_form(rs, m)}


# in reverse, so that the systems Shi ran last, E7 first, are still in the
# bounded decision and face-table caches (maxsize 4) when Catalan reads them
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("family, rank", SHI_CATALAN_SYSTEMS[::-1])
def test_catalan_closed_form(family, rank, m):
    """Catalan^m, the offsets -m..m: the product of (q - mh - e_i) on the
    residues prime to the period."""
    rs = build_root_system(family, rank)
    formula = cqp_type1_formula(rs, range(len(rs.positive_roots)), "symmetric", (-m, m))
    closed = catalan_closed_form(rs, m)
    for k, constituent in enumerate(formula.constituents, start=1):
        if math.gcd(k, formula.period) == 1:
            assert constituent == closed, k


def test_shi_closed_form_through_the_cli(capsys):
    """deform --json on E6, where verify's counting is refused, prints
    (q - 12)^6 on every residue."""
    code = main(["deform", "--type", "E", "--rank", "6", "--subset", "full",
                 "--variant", "symmetric", "--interval=0:1", "--json"])
    assert code == 0
    qp = qp_from_json(json.loads(capsys.readouterr().out)["result"])
    assert set(qp.constituents) == {shi_closed_form(build_root_system("E", 6), 1)}


@pytest.mark.parametrize("rank", range(1, 7))
def test_linial_closed_form(rank):
    """The Linial arrangement, positive [1, 1] on the full A_n: counting
    and the closed formula both equal Postnikov and Stanley's form."""
    rs = build_root_system("A", rank)
    full = tuple(range(len(rs.positive_roots)))
    closed = period_one(linial_closed_form(rank))
    assert qp_equal(char_quasi_deformation(rs, type1_spec(rs, full, (1, 1))), closed)
    assert qp_equal(cqp_type1_formula(rs, full, "positive", (1, 1)), closed)


def test_linial_closed_form_through_the_cli(capsys):
    """On A8, where verify's counting is refused, deform --json prints
    Postnikov and Stanley's form on every residue."""
    argv = ["--type", "A", "--rank", "8", "--subset", "full", "--variant", "positive",
            "--interval=1:1"]
    assert main(["deform", *argv, "--json"]) == 0
    qp = qp_from_json(json.loads(capsys.readouterr().out)["result"])
    assert set(qp.constituents) == {linial_closed_form(8)}
    assert main(["verify", *argv]) == 3
    assert "counting cap" in capsys.readouterr().err


def test_closed_formula_verdict_grid():
    """Exact pass/fail table of the five closed formulas on every ideal.

    Interval grid per the module contract: symmetric and two-sided cases
    run over [0, 0], [0, 1] and [-1, 1]; one-sided cases run over [1, 1]
    and [1, 2].  The symmetric single-interval
    formula is exact only for the undeformed interval or for the empty
    set, the full set and the full set minus its highest root; one-sided
    deformations of a proper nonempty subset are never exact; the fully
    two-sided formula is always exact; the remaining mixed cases fail
    exactly on the frozen combinations pinned here.
    """
    failures = 0
    for family, rank in [("A", 2), ("A", 3), ("G", 2)]:
        rs = build_root_system(family, rank)
        n = len(rs.positive_roots)
        full = tuple(range(n))
        special = {(), tuple(range(n - 1)), full}
        mixed_failures = TYPE2_MIXED_FAILURES[(family, rank)]
        for ideal in enumerate_ideals(rs):
            proper = ideal not in ((), full)
            for inside in INTERVALS:
                ok = verify_deform(
                    rs,
                    type1_spec(rs, ideal, inside),
                    cqp_type1_formula(rs, ideal, "symmetric", inside),
                )
                assert ok == (inside == (0, 0) or ideal in special), (
                    family, rank, ideal, "symmetric", inside,
                )
                failures += not ok
            for inside in POSITIVE:
                ok = verify_deform(
                    rs,
                    type1_spec(rs, ideal, inside),
                    cqp_type1_formula(rs, ideal, "positive", inside),
                )
                assert ok == (not proper), (family, rank, ideal, "positive", inside)
                failures += not ok
            for inside in INTERVALS:
                for outside in INTERVALS:
                    ok = verify_deform(
                        rs,
                        type2_spec(rs, ideal, inside, outside),
                        cqp_type2_formula(rs, ideal, "i", inside, outside),
                    )
                    assert ok, (family, rank, ideal, "i", inside, outside)
            for inside in INTERVALS:
                for outside in POSITIVE:
                    ok = verify_deform(
                        rs,
                        type2_spec(rs, ideal, inside, outside),
                        cqp_type2_formula(rs, ideal, "ii", inside, outside),
                    )
                    expected = not (
                        (inside, outside) == ((0, 0), (1, 2)) and ideal in mixed_failures
                    )
                    assert ok == expected, (family, rank, ideal, "ii", inside, outside)
                    failures += not ok
            for inside in POSITIVE:
                for outside in POSITIVE:
                    ok = verify_deform(
                        rs,
                        type2_spec(rs, ideal, inside, outside),
                        cqp_type2_formula(rs, ideal, "iii", inside, outside),
                    )
                    assert ok == ((inside, outside) != ((1, 2), (1, 1)) or not proper), (
                        family, rank, ideal, "iii", inside, outside,
                    )
                    failures += not ok
    assert failures == 108


def test_counterexample_polynomials(a2):
    """The simplest failing cases, with both sides pinned exactly."""
    subset = (1,)  # one simple root
    positive = char_quasi_deformation(a2, type1_spec(a2, subset, (1, 1)))
    assert positive.period == 1
    assert positive.constituents[0] == poly(0, -1, 1)
    formula = cqp_type1_formula(a2, subset, "positive", (1, 1))
    assert qp_equal(formula, period_one(poly(1, -1, 1)))

    symmetric = char_quasi_deformation(a2, type1_spec(a2, subset, (0, 1)))
    assert symmetric.constituents[0] == poly(0, -2, 1)
    formula01 = cqp_type1_formula(a2, subset, "symmetric", (0, 1))
    assert qp_equal(formula01, period_one(poly(1, -2, 1)))


@pytest.mark.parametrize("family, rank", [("A", 2), ("B", 2), ("G", 2)])
def test_mixed_unit_interval_formula(family, rank):
    """Offsets [0,1] on the subset and {0} elsewhere: the closed formula,
    the shifted m-polynomial and brute force all agree on every ideal."""
    rs = build_root_system(family, rank)
    alcove = ehrhart_closed_qp(rs)
    for ideal in enumerate_ideals(rs):
        formula = cqp_type2_formula(rs, ideal, "i", (0, 1), (0, 0))
        via_m = apply_shift(m_poly(rs, ideal), alcove)
        brute = char_quasi_deformation(rs, type2_spec(rs, ideal, (0, 1), (0, 0)))
        assert qp_equal(formula, via_m)
        assert qp_equal(formula, brute)


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3), ("G", 2)])
def test_compatibility_formula_is_the_zero_interval(family, rank):
    """The shift formula read off eulerian_poly and the interval rule at
    [0, 0] give the same quasi-polynomial on every compatible ideal."""
    rs = build_root_system(family, rank)
    compatible = [psi for psi in enumerate_ideals(rs) if compat.is_compatible(rs, psi).compatible]
    assert compatible
    for psi in compatible:
        via_e = compat.shift_formula_qp(rs, psi)
        via_rule = cqp_type1_formula(rs, psi, "symmetric", (0, 0))
        assert qp_equal(via_e, via_rule)


def test_formula_requires_compatible_subset(g2):
    with pytest.raises(ValidationError, match="not compatible"):
        cqp_type1_formula(g2, (1, 2, 5), "symmetric", (0, 0))
    with pytest.raises(ValidationError, match="not compatible"):
        cqp_type2_formula(g2, (2,), "i", (0, 0), (0, 0))


def test_formulas_share_one_bounded_decision():
    """Two intervals on one subset decide its compatibility once; the
    decision, counting, face-table, Weyl-group, lane, alcove and
    shift-table caches are bounded."""
    for cached in (
        compat._decide,
        charquasi._char_quasi,
        charquasi._vector_period,
        charquasi._face_table,
        charquasi._mask_reflections,
        rootsys._weyl_elements,
        ehrhart_closed_qp,
        quasipoly._shift_table,
        eulerian._lane,
    ):
        assert cached.cache_info().maxsize is not None
    d4 = build_root_system("D", 4)
    full = range(len(d4.positive_roots))
    compat._decide.cache_clear()
    cqp_type1_formula(d4, full, "symmetric", (-1, 2))
    cqp_type1_formula(d4, full, "symmetric", (-2, 1))
    info = compat._decide.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_offsets_share_one_period_search():
    """A deformation's period is lcm(marks), read from the system: three
    offset sets on D4 full run no period search and are counted over
    period 2, the mirror pair from one memo entry."""
    d4 = build_root_system("D", 4)
    full = range(len(d4.positive_roots))
    charquasi._vector_period.cache_clear()
    charquasi._char_quasi.cache_clear()
    periods = {
        char_quasi_deformation(d4, spec).period
        for spec in (
            type1_spec(d4, full, (-1, 2)),
            type1_spec(d4, full, (-2, 1)),
            type2_spec(d4, full, (-1, 1), (0, 1)),
        )
    }
    assert periods == {math.lcm(*d4.marks)} == {2}
    assert charquasi._vector_period.cache_info().misses == 0
    info = charquasi._char_quasi.cache_info()
    assert (info.misses, info.hits) == (2, 1)


def test_mirrored_interval_reuses_the_count(monkeypatch):
    """[-2, 1] is the mirror of [-1, 2] under x -> -x, so after D4 full
    with [-1, 2] it is answered from the memo without counting, and the
    answer equals the one the counting core gives it directly, over the
    same period from the same floor B*h + 1 = 13."""
    d4 = build_root_system("D", 4)
    full = range(len(d4.positive_roots))
    calls = []
    count = kernels.complement_count
    monkeypatch.setattr(
        kernels, "complement_count", lambda *args: calls.append(args) or count(*args)
    )
    charquasi._char_quasi.cache_clear()
    first = char_quasi_deformation(d4, type1_spec(d4, full, (-1, 2)))
    counted = len(calls)
    mirrored = char_quasi_deformation(d4, type1_spec(d4, full, (-2, 1)))
    assert counted > 0 and len(calls) == counted
    assert mirrored == first
    assert min(q for q, *_ in calls) == 2 * d4.coxeter_number + 1
    charquasi._char_quasi.cache_clear()
    assert charquasi._char_quasi(type1_spec(d4, full, (-2, 1)), 2, 13) == first
    assert len(calls) == 2 * counted


def test_formula_parameter_validation(g2):
    with pytest.raises(ValidationError):
        cqp_type1_formula(g2, (0,), "diagonal", (0, 0))
    with pytest.raises(ValidationError):
        cqp_type1_formula(g2, (0,), "symmetric", (0, None))
    with pytest.raises(ValidationError):
        cqp_type1_formula(g2, (0,), "symmetric", (1, 0))
    with pytest.raises(ValidationError):
        cqp_type1_formula(g2, (0,), "positive", (-1, 2))
    with pytest.raises(ValidationError):
        cqp_type1_formula(g2, (0,), "positive", (1, 0))
    with pytest.raises(ValidationError):
        cqp_type2_formula(g2, (0,), "ii", (0, 0), (-1, 2))
    with pytest.raises(ValidationError):
        cqp_type2_formula(g2, (0,), "iii", (1, 1), (1, 0))
    with pytest.raises(ValidationError):
        cqp_type2_formula(g2, (0,), "iv", (0, 0), (0, 0))
    with pytest.raises(ValidationError, match="needs exactly two"):
        cqp_type1_formula(g2, (0,), "i", (0, 0))
    # bounds are checked to be integers before any work: the subset is
    # incompatible, so a later check would report that instead
    for bad in ((True, 1), (0, True), (0.5, 1), (-1, 1.0)):
        with pytest.raises(ValidationError, match="must be integers"):
            cqp_type1_formula(g2, (1, 2, 5), "symmetric", bad)
        with pytest.raises(ValidationError, match="must be integers"):
            cqp_type2_formula(g2, (1, 2, 5), "i", (0, 0), bad)


def test_verify_deform_rank_mismatch(g2):
    a3 = build_root_system("A", 3)
    spec = type1_spec(a3, (0,), (0, 0))
    with pytest.raises(ValidationError):
        verify_deform(g2, spec, ehrhart_closed_qp(g2))


def test_verify_deform_detects_wrong_formula(g2):
    """The undeformed three-root subset against its (wrong) closed formula."""
    from weylq.compat import shift_formula_qp

    spec = type1_spec(g2, (1, 2, 5), (0, 0))
    assert not verify_deform(g2, spec, shift_formula_qp(g2, (1, 2, 5)))
    assert verify_deform(g2, spec, char_quasi(spec))
