"""Exact polynomial, quasi-polynomial and shift arithmetic, and the
series oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylq.errors import InconsistencyError, ValidationError
from weylq.quasipoly import (
    QuasiPolynomial,
    RationalPolynomial,
    _shift_table,
    apply_shift,
    fold_period,
    interpolate_qp,
    lagrange_polynomial,
    qp_equal,
)

from oracles import (
    expand_rational_series,
    lagrange_by_fractions,
    normalize_period,
    period_one,
    qp_add,
    qp_equal_over_common_period,
    qp_scale,
    qp_sub,
    series_of_qp,
)

small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def poly(*coeffs):
    return RationalPolynomial(coeffs)


def test_polynomial_basics():
    p = poly(4, -5, 1)
    assert p.degree == 2
    assert p(0) == 4
    assert p(5) == 4
    assert p.coeff(1) == -5
    assert p.coeff(7) == 0
    assert p.leading_coeff == 1
    assert p.is_integral
    assert not p.is_zero
    assert RationalPolynomial(()).is_zero
    assert RationalPolynomial((0, 0)).degree == -1
    # evaluation over the common denominator, at integers and at Fractions
    r = poly(Fraction(1, 3), 0, Fraction(-5, 2))
    assert r(2) == Fraction(-29, 3) and r(-1) == Fraction(-13, 6)
    assert r(Fraction(1, 2)) == Fraction(-7, 24)
    assert type(RationalPolynomial.zero()(3)) is Fraction and RationalPolynomial.zero()(3) == 0


def test_trailing_zeros_trimmed():
    assert poly(1, 2, 0, 0) == poly(1, 2)
    assert hash(poly(1, 2, 0)) == hash(poly(1, 2))


def test_polynomial_immutable():
    p = poly(1, 2)
    with pytest.raises(AttributeError):
        p.coeffs = (3,)


def test_hash_is_kept_and_agrees_with_equality():
    """Polynomials from ints and from equal Fractions compare and hash
    equal, before and after the first hash() keeps it; the kept hash does
    not make the coefficients assignable."""
    ints = poly(3, 0, -2, 0)
    fracs = poly(Fraction(6, 2), Fraction(0), Fraction(-2), Fraction(0, 5))
    assert ints == fracs
    assert all(type(c) is Fraction for c in ints.coeffs)
    first = hash(ints)
    assert first == hash(fracs) == hash(ints) == hash(fracs)
    assert first == hash(poly(3, 0, -2))
    assert hash(poly(Fraction(1, 2))) == hash(poly(Fraction(2, 4)))
    assert {ints: 1}[fracs] == 1
    for p in (ints, fracs):
        with pytest.raises(AttributeError):
            p.coeffs = (1,)
        with pytest.raises(AttributeError):
            p._hash = 0
        assert p.coeffs == (3, 0, -2) and hash(p) == first


def test_equal_quasi_polynomials_share_one_shift_table():
    """apply_shift's table is keyed by value: equal quasi-polynomials built
    apart, one hashed before, hit one entry."""
    a = QuasiPolynomial(2, (poly(Fraction(1, 2), 1), poly(0, 3, Fraction(1, 6))))
    b = QuasiPolynomial(
        2, (poly(Fraction(2, 4), Fraction(1)), poly(Fraction(0), 3, Fraction(2, 12)))
    )
    hash(a)
    shift = RationalPolynomial.from_terms([(1, 1), (2, -3)], 2)
    _shift_table.cache_clear()
    assert apply_shift(shift, a) == apply_shift(shift, b)
    info = _shift_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_monomial_and_zero():
    assert RationalPolynomial.monomial(3)(2) == 8
    assert RationalPolynomial.monomial(0) == poly(1)
    assert RationalPolynomial.zero().is_zero
    with pytest.raises(ValidationError):
        RationalPolynomial.monomial(-1)


def test_arithmetic():
    p, r = poly(1, 1), poly(-1, 1)
    assert p * r == poly(-1, 0, 1)
    assert p + r == poly(0, 2)
    assert 3 * p == poly(3, 3)
    assert p * RationalPolynomial.zero() == RationalPolynomial.zero()


def test_shift_arg():
    p = poly(0, 0, 1)  # t^2
    shifted = p.shift_arg(3)  # (t + 3)^2
    assert shifted == poly(9, 6, 1)
    for x in range(-4, 5):
        assert shifted(x) == p(x + 3)
    # Fraction coefficients, negative shifts and the zero polynomial; a
    # non-integer shift is refused
    p = poly(Fraction(1, 3), Fraction(-1, 2), 0, Fraction(5, 6))
    for delta in (-7, -1, 0, 4):
        shifted = p.shift_arg(delta)
        for x in range(-4, 5):
            assert shifted(x) == p(x + delta)
    assert RationalPolynomial.zero().shift_arg(5) == RationalPolynomial.zero()
    for delta in (Fraction(1, 2), 1.0, True):
        with pytest.raises(ValidationError):
            p.shift_arg(delta)


def test_format():
    assert poly(4, -5, 1).format("q") == "q^2 - 5q + 4"
    assert poly(Fraction(1), Fraction(1, 2), Fraction(1, 12)).format("q") == "(q^2 + 6q + 12)/12"
    assert poly(0, Fraction(-1, 2), Fraction(1, 2)).format("n") == "(n^2 - n)/2"
    assert RationalPolynomial.zero().format("q") == "0"
    assert poly(0, 1).format("t") == "t"


def test_lagrange_recovers_polynomial():
    p = poly(2, -3, 0, 1)
    points = [1, 4, 7, 11]
    assert lagrange_polynomial(points, [p(x) for x in points]) == p


def test_lagrange_validation():
    for interpolate in (lagrange_polynomial, lagrange_by_fractions):
        with pytest.raises(ValidationError, match="distinct"):
            interpolate([1, 1], [0, 0])
        with pytest.raises(ValidationError, match="equally many"):
            interpolate([1, 2], [0])
        with pytest.raises(ValidationError, match="equally many"):
            interpolate([], [])


@settings(max_examples=50, deadline=None)
@given(coeffs=st.lists(small_fractions, min_size=1, max_size=5))
def test_lagrange_round_trip(coeffs):
    p = RationalPolynomial(coeffs)
    points = list(range(10, 10 + len(coeffs)))
    assert lagrange_polynomial(points, [p(x) for x in points]) == p


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(st.integers(-40, 40), min_size=1, max_size=9, unique=True),
    data=st.data(),
)
def test_lagrange_matches_fraction_oracle(points, data):
    """The integer interpolant equals the Fraction one on distinct,
    unsorted and negative points, for int and Fraction values, all-zero
    values and single points, and passes through every point."""
    value = st.one_of(
        st.integers(-10**6, 10**6),
        st.fractions(min_value=-1000, max_value=1000, max_denominator=720),
        st.just(0),
    )
    for values in (
        data.draw(st.lists(value, min_size=len(points), max_size=len(points))),
        [0] * len(points),
        [Fraction(0)] * len(points),
    ):
        got = lagrange_polynomial(points, values)
        assert got == lagrange_by_fractions(points, values)
        assert all(type(c) is Fraction for c in got.coeffs)
        assert [got(x) for x in points] == values
        assert got.degree < len(points)


def test_quasi_polynomial_residues():
    qp = QuasiPolynomial(3, (poly(1), poly(2), poly(3)))
    assert qp.constituent_for(1) == poly(1)
    assert qp.constituent_for(2) == poly(2)
    assert qp.constituent_for(3) == poly(3)
    assert qp.constituent_for(0) == poly(3)
    assert qp.constituent_for(-2) == poly(1)
    assert qp(4) == 1
    assert qp(6) == 3


def test_quasi_polynomial_validation():
    with pytest.raises(ValidationError, match="^period must be a positive integer$"):
        QuasiPolynomial(0, ())
    with pytest.raises(ValidationError, match="^period must be a positive integer$"):
        QuasiPolynomial(-1, ())
    with pytest.raises(ValidationError, match="^need exactly one constituent per residue$"):
        QuasiPolynomial(2, (poly(1),))
    with pytest.raises(ValidationError, match="^need exactly one constituent per residue$"):
        QuasiPolynomial(period=1, constituents=(poly(1), poly(2)))


def test_quasi_polynomial_is_an_immutable_value():
    """Equal periods and equal constituents make equal, equally hashed
    values, whatever the constituents were built from; fields can be
    neither set nor deleted; the repr shows both fields."""
    qp = QuasiPolynomial(2, (poly(Fraction(1, 2), 1), poly(0, 3)))
    twin = QuasiPolynomial(period=2, constituents=(poly(Fraction(2, 4), 1), poly(0, 3, 0)))
    assert twin == qp and hash(twin) == hash(qp) == hash((2, qp.constituents))
    assert {qp: 1}[twin] == 1
    assert qp != QuasiPolynomial(2, (poly(0, 3), poly(Fraction(1, 2), 1)))
    assert period_one(poly(1)) != QuasiPolynomial(2, (poly(1), poly(1)))
    assert qp.__eq__((2, qp.constituents)) is NotImplemented and qp != (2, qp.constituents)
    for attempt in (lambda: setattr(qp, "period", 4), lambda: delattr(qp, "constituents"),
                    lambda: setattr(qp, "extra", 1)):
        with pytest.raises(AttributeError):
            attempt()
    assert qp.period == 2 and qp == twin
    assert repr(period_one(poly(1, 2))) == (
        "QuasiPolynomial(period=1, constituents=(RationalPolynomial(2t + 1),))"
    )


def test_period_one():
    qp = period_one(poly(1, 1))
    assert qp.period == 1
    assert qp.constituents[0] == poly(1, 1)
    assert qp.degree == 1


def test_degree_is_max_over_constituents():
    qp = QuasiPolynomial(2, (poly(1), poly(0, 0, 5)))
    assert qp.degree == 2


def test_normalize_period():
    qp = QuasiPolynomial(2, (poly(0, 1), poly(5)))
    wide = normalize_period(qp, 6)
    assert wide.period == 6
    for q in range(-10, 20):
        assert wide(q) == qp(q)
    with pytest.raises(ValidationError):
        normalize_period(qp, 3)


def test_qp_equal_across_periods():
    a = QuasiPolynomial(2, (poly(0, 1), poly(5)))
    b = normalize_period(a, 4)
    assert qp_equal(a, b)
    c = QuasiPolynomial(4, (poly(0, 1), poly(5), poly(0, 1), poly(6)))
    assert not qp_equal(a, c)


# a few constituents, so that random draws repeat and fold
_PIECES = (poly(), poly(1), poly(0, 1), poly(Fraction(1, 2), 0, Fraction(1, 3)))


@st.composite
def _stored_twice(draw):
    """One function stored over two multiples of its pattern's length,
    and a copy of the second with one constituent replaced."""
    pattern = draw(st.lists(st.sampled_from(_PIECES), min_size=1, max_size=6))
    wide = [m for m in range(1, 13) if len(pattern) * m <= 12]
    a, b = (QuasiPolynomial(len(pattern) * m, tuple(pattern * m))
            for m in (draw(st.sampled_from(wide)), draw(st.sampled_from(wide))))
    k = draw(st.integers(0, b.period - 1))
    other = draw(st.sampled_from([p for p in _PIECES if p != b.constituents[k]]))
    changed = QuasiPolynomial(b.period, b.constituents[:k] + (other,) + b.constituents[k + 1:])
    return a, b, changed


@settings(max_examples=150, deadline=None)
@given(stored=_stored_twice(), period=st.integers(1, 12), data=st.data())
def test_qp_equal_matches_common_period_equality(stored, period, data):
    """Comparing minimal forms gives the verdict of comparing over the lcm
    of the periods: equal functions stored over different periods, pairs
    that differ in one constituent, and unrelated draws of periods 1..12."""
    a, b, changed = stored
    assert qp_equal(a, b) and qp_equal_over_common_period(a, b)
    assert not qp_equal(a, changed) and not qp_equal_over_common_period(a, changed)
    pieces = st.lists(st.sampled_from(_PIECES), min_size=period, max_size=period)
    free = QuasiPolynomial(period, tuple(data.draw(pieces)))
    for x in (a, b, changed):
        assert qp_equal(x, free) == qp_equal_over_common_period(x, free)
        assert qp_equal(free, x) == qp_equal(x, free)


def test_qp_arithmetic_pointwise():
    a = QuasiPolynomial(2, (poly(1, 1), poly(3)))
    b = QuasiPolynomial(3, (poly(0, 0, 1), poly(1), poly(2)))
    total = qp_add(a, b)
    diff = qp_sub(a, b)
    scaled = qp_scale(a, Fraction(1, 2))
    for q in range(-6, 13):
        assert total(q) == a(q) + b(q)
        assert diff(q) == a(q) - b(q)
        assert scaled(q) == a(q) / 2


def test_shift_polynomial_terms():
    """A polynomial keeps its nonzero terms as (power, numerator) pairs over
    one denominator in lowest terms: from coefficients, and from pairs whose
    equal powers add up."""
    shift = poly(3, 0, 1)
    assert shift.terms == ((0, 3), (2, 1)) and shift.den == 1
    halves = poly(Fraction(1, 2), 0, Fraction(-1, 3))
    assert halves.terms == ((0, 3), (2, -2)) and halves.den == 6
    merged = RationalPolynomial.from_terms([(1, 2), (0, 5), (1, -2), (3, 1)], 4)
    assert merged.terms == ((0, 5), (3, 1)) and merged.den == 4
    reduced = RationalPolynomial.from_terms([(2, 6), (0, 3)], 9)
    assert reduced.terms == ((0, 1), (2, 2)) and reduced.den == 3
    assert reduced == poly(Fraction(1, 3), 0, Fraction(2, 3))
    assert RationalPolynomial.from_terms([(1, 2), (1, -2)], 5) == RationalPolynomial.zero()
    assert RationalPolynomial.zero().terms == () and RationalPolynomial.zero().den == 1


@pytest.mark.parametrize("den", [0, -3, True, False, 2.0, Fraction(1), "2"])
def test_shift_polynomial_refuses_a_bad_denominator(den):
    with pytest.raises(ValidationError, match="denominator"):
        RationalPolynomial.from_terms([(0, 1)], den)


@pytest.mark.parametrize("numerator", [1.0, True, "1", None])
def test_shift_polynomial_refuses_a_non_integer_numerator(numerator):
    with pytest.raises(ValidationError, match="numerators"):
        RationalPolynomial.from_terms([(0, 1), (2, numerator)], 3)


@pytest.mark.parametrize("numerator", [Fraction(1, 2), Fraction(3)])
def test_shift_polynomial_takes_a_fraction_numerator(numerator):
    """A Fraction numerator is exact: its denominator joins den."""
    p = RationalPolynomial.from_terms([(0, 1), (2, numerator)], 3)
    assert p == poly(Fraction(1, 3), 0, numerator / 3)


@pytest.mark.parametrize("power", [-1, -5, True, 1.0, "2", None])
def test_a_negative_or_non_integer_power_is_refused(power):
    """Powers are nonnegative ints, so a negative shift is not expressible."""
    with pytest.raises(ValidationError, match="powers"):
        RationalPolynomial.from_terms([(0, 1), (power, 1)])
    with pytest.raises(ValidationError, match="powers"):
        RationalPolynomial.monomial(power)


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False, "1/3", None, 1j])
def test_only_ints_and_fractions_are_exact(bad):
    """Floats, bools, strings and the like are refused as coefficients,
    Lagrange values and scalars, never converted."""
    with pytest.raises(ValidationError, match="coefficient"):
        RationalPolynomial((1, bad))
    with pytest.raises(ValidationError, match="interpolation values"):
        lagrange_polynomial([1, 2], [1, bad])
    with pytest.raises(ValidationError, match="scalars"):
        bad * poly(1, 1)
    with pytest.raises(ValidationError, match="scalars"):
        poly(1, 1) * bad


def test_apply_shift_is_weighted_translation():
    qp = QuasiPolynomial(2, (poly(0, 1), poly(7)))
    shift = poly(3, 0, 1)  # 3 + S^2
    out = apply_shift(shift, qp)
    for q in range(-4, 12):
        assert out(q) == 3 * qp(q) + qp(q - 2)


@settings(max_examples=30, deadline=None)
@given(
    constituents=st.lists(
        st.lists(small_fractions, min_size=1, max_size=3), min_size=1, max_size=4
    ),
    offset=st.integers(min_value=0, max_value=5),
)
def test_apply_shift_single_power(constituents, offset):
    qp = QuasiPolynomial(len(constituents), tuple(RationalPolynomial(c) for c in constituents))
    shift = RationalPolynomial.monomial(offset)
    out = apply_shift(shift, qp)
    for q in range(-3, 9):
        assert out(q) == qp(q - offset)


@settings(max_examples=40, deadline=None)
@given(
    period=st.integers(min_value=1, max_value=4),
    data=st.data(),
    shifts=st.lists(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=17),
                st.fractions(min_value=-50, max_value=50, max_denominator=48),
            ),
            min_size=1,
            max_size=5,
        ),
        min_size=2,
        max_size=4,
    ),
)
def test_apply_shift_matches_its_definition(period, data, shifts):
    """Whole shifts with Fraction coefficients, given as (offset, c) terms
    that may repeat an offset and applied alternately to two
    quasi-polynomials of one period, give sum of c * qp(q - o): the shifted
    constituents are tabulated per quasi-polynomial, not per period, and
    keep both denominators."""
    constituent = st.lists(small_fractions, min_size=1, max_size=4)
    qps = [
        QuasiPolynomial(
            period,
            tuple(RationalPolynomial(c) for c in data.draw(st.lists(
                constituent, min_size=period, max_size=period))),
        )
        for _ in range(2)
    ]
    for i, terms in enumerate(shifts):
        qp = qps[i % 2]
        out = apply_shift(RationalPolynomial.from_terms(terms), qp)
        assert out.period == period
        for q in range(-3, 10):
            assert out(q) == sum((Fraction(c) * qp(q - o) for o, c in terms), Fraction(0))


def test_interpolate_recovers_quasi_polynomial():
    target = QuasiPolynomial(3, (poly(1, 2), poly(0, 0, 1), poly(4)))
    seen = []

    def sampler(q):
        seen.append(q)
        return target(q)

    got = interpolate_qp(sampler, 3, 2, min_q=5)
    assert qp_equal(got, target)
    assert min(seen) >= 5


def test_interpolate_rejects_wrong_degree_bound():
    with pytest.raises(InconsistencyError):
        interpolate_qp(lambda q: q**3, 1, 2)


def test_interpolate_rejects_non_periodic_function():
    with pytest.raises(InconsistencyError):
        interpolate_qp(lambda q: q * (q % 5), 2, 2)


def test_series_of_qp():
    ones = period_one(poly(1))
    s = series_of_qp(ones, 5)
    assert s == (0, 1, 1, 1, 1, 1)
    linear = period_one(poly(0, 1))
    assert series_of_qp(linear, 4) == (0, 1, 2, 3, 4)


def test_expand_rational_series():
    # 1/(1 - t) and t/(1 - t)^2
    geo = expand_rational_series(poly(1), (1,), 5)
    assert geo == (1, 1, 1, 1, 1, 1)
    counting = expand_rational_series(poly(0, 1), (1, 1), 4)
    assert counting == (0, 1, 2, 3, 4)
    with pytest.raises(ValidationError):
        expand_rational_series(poly(1), (0,), 3)


def test_series_matches_closed_form():
    """The series of q^2 at q >= 1 equals (t + t^2)/(1 - t)^3."""
    squares = period_one(poly(0, 0, 1))
    lhs = series_of_qp(squares, 12)
    rhs = expand_rational_series(poly(0, 1, 1), (1, 1, 1), 12)
    assert lhs == rhs


def test_series_truncation_validation():
    with pytest.raises(ValidationError):
        expand_rational_series(poly(1), (1,), -1)
    with pytest.raises(ValidationError):
        series_of_qp(period_one(poly(1)), -1)


def test_fold_period():
    a = RationalPolynomial((1, 2))
    b = RationalPolynomial((0, 1))
    folded = fold_period(QuasiPolynomial(6, (a, b, a, b, a, b)))
    assert folded == QuasiPolynomial(2, (a, b))
    assert fold_period(QuasiPolynomial(4, (a,) * 4)) == QuasiPolynomial(1, (a,))
    # residues 1..3 and 4..6 differ in one class, so 6 stays minimal
    whole = QuasiPolynomial(6, (a, b, a, b, a, a))
    assert fold_period(whole) == whole


@settings(max_examples=60, deadline=None)
@given(
    base=st.lists(st.integers(-2, 2), min_size=1, max_size=4),
    repeats=st.integers(1, 4),
)
def test_fold_period_is_minimal(base, repeats):
    """Folding a repeated pattern returns its least period and the same function."""
    polys = tuple(RationalPolynomial((c, 1)) for c in base)
    qp = QuasiPolynomial(len(polys) * repeats, polys * repeats)
    folded = fold_period(qp)
    assert qp_equal(folded, qp)
    least = next(d for d in range(1, len(base) + 1)
                 if all(base[k] == base[k % d] for k in range(len(base))) and len(base) % d == 0)
    assert folded.period == least
