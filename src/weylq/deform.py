"""Interval deformations of Weyl subarrangements and their closed formulas.

A Type I deformation attaches a whole interval of offsets to every root of
a subset; Type II additionally deforms the complement with its own
interval.  For compatible subsets the characteristic quasi-polynomial of
either kind is a mark-weighted sum of shifted closed-alcove counts over the
Weyl group; the shift exponents blend the four descent statistics with
weights read off the interval bounds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from weylq.charquasi import ArrangementSpec, char_quasi, make_spec
from weylq.compat import is_compatible
from weylq.ehrhart import ehrhart_closed_qp
from weylq.errors import ValidationError
from weylq.eulerian import profiles_over_weyl
from weylq.quasipoly import QuasiPolynomial, ShiftPolynomial, apply_shift, qp_equal
from weylq.rootsys import (
    DEFAULT_WEYL_CAP,
    RootSystem,
    normalize_subset,
    subset_complement,
)


def _check_interval(interval: Sequence[int]) -> Tuple[int, int]:
    try:
        a, b = interval
    except (TypeError, ValueError):
        raise ValidationError(f"interval must be a pair, got {interval!r}") from None
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (a, b)):
        raise ValidationError(f"interval bounds must be integers, got {interval!r}")
    if a > b:
        raise ValidationError(f"interval bounds must be ordered, got [{a}, {b}]")
    return a, b


def type1_spec(rs: RootSystem, subset: Iterable[int], a: int, b: int) -> ArrangementSpec:
    """Attach offsets a..b to every root of the subset."""
    lo, hi = _check_interval((a, b))
    psi = normalize_subset(rs, subset)
    offs = tuple(range(lo, hi + 1))
    return make_spec(rs.rank, ((rs.positive_roots[i], offs) for i in psi))


def type2_spec(
    rs: RootSystem,
    subset: Iterable[int],
    interval1: Sequence[int],
    interval2: Sequence[int],
) -> ArrangementSpec:
    """Offsets interval1 on the subset, interval2 on its complement."""
    lo1, hi1 = _check_interval(interval1)
    lo2, hi2 = _check_interval(interval2)
    psi = normalize_subset(rs, subset)
    comp = subset_complement(rs, psi)
    offs1 = tuple(range(lo1, hi1 + 1))
    offs2 = tuple(range(lo2, hi2 + 1))
    items = [(rs.positive_roots[i], offs1) for i in psi]
    items += [(rs.positive_roots[i], offs2) for i in comp]
    return make_spec(rs.rank, items)


def _require_compatible(rs: RootSystem, psi, cap: int) -> None:
    result = is_compatible(rs, psi, cap)
    if not result.compatible:
        raise ValidationError(
            f"subset {psi} of {rs.family}{rs.rank} is not compatible "
            f"(first difference at q={result.witness.q}); "
            "the closed formulas are only asserted for compatible subsets"
        )


def _weighted_shift_qp(
    rs: RootSystem,
    psi,
    w_ascent_bar: int,
    w_ascent: int,
    w_descent_bar: int,
    w_descent: int,
    cap: int,
) -> QuasiPolynomial:
    """Average of shifted closed-alcove counts over the group, the shift of
    each element being the weighted blend of its four statistics."""
    inv_f = Fraction(1, rs.index_of_connection)
    terms = [
        (
            w_ascent_bar * p.ascent_bar
            + w_ascent * p.ascent
            + w_descent_bar * p.descent_bar
            + w_descent * p.descent,
            inv_f,
        )
        for p in profiles_over_weyl(rs, psi, cap)
    ]
    return apply_shift(ShiftPolynomial(terms), ehrhart_closed_qp(rs))


def cqp_type1_formula(
    rs: RootSystem,
    subset: Iterable[int],
    variant: str,
    a: int | None = None,
    b: int | None = None,
    cap: int = DEFAULT_WEYL_CAP,
) -> QuasiPolynomial:
    """Closed formula for a Type I deformation of a compatible subset.

    variant "symmetric" takes a, b >= 0 and means the interval [-a, b];
    variant "positive" takes b >= 1 and means the interval [1, b].
    """
    psi = normalize_subset(rs, subset)
    if variant == "symmetric":
        if a is None or b is None or a < 0 or b < 0:
            raise ValidationError("symmetric variant needs a >= 0 and b >= 0")
        _require_compatible(rs, psi, cap)
        return _weighted_shift_qp(rs, psi, b + 1, 1, a + 1, 0, cap)
    if variant == "positive":
        if b is None or b < 1:
            raise ValidationError("positive variant needs b >= 1")
        if a is not None:
            raise ValidationError("positive variant takes no lower bound")
        _require_compatible(rs, psi, cap)
        return _weighted_shift_qp(rs, psi, b + 1, 1, 0, 0, cap)
    raise ValidationError(f"unknown variant {variant!r}; use symmetric or positive")


def cqp_type2_formula(
    rs: RootSystem,
    subset: Iterable[int],
    case: str,
    a: int | None = None,
    b: int | None = None,
    c: int | None = None,
    d: int | None = None,
    cap: int = DEFAULT_WEYL_CAP,
) -> QuasiPolynomial:
    """Closed formula for a Type II deformation of a compatible subset.

    case "i" takes a, b, c, d >= 0 and means intervals [-a, b] on the
    subset and [-c, d] on the complement; case "ii" takes a, b >= 0 and
    d >= 1 meaning [-a, b] and [1, d]; case "iii" takes b, d >= 1 meaning
    [1, b] and [1, d].
    """
    psi = normalize_subset(rs, subset)
    if case == "i":
        if any(x is None or x < 0 for x in (a, b, c, d)):
            raise ValidationError("case i needs a, b, c, d >= 0")
        _require_compatible(rs, psi, cap)
        return _weighted_shift_qp(rs, psi, b + 1, d + 1, a + 1, c + 1, cap)
    if case == "ii":
        if a is None or b is None or a < 0 or b < 0 or d is None or d < 1:
            raise ValidationError("case ii needs a, b >= 0 and d >= 1")
        if c is not None:
            raise ValidationError("case ii takes no lower bound on the complement")
        _require_compatible(rs, psi, cap)
        return _weighted_shift_qp(rs, psi, b + 1, d + 1, a + 1, 0, cap)
    if case == "iii":
        if b is None or b < 1 or d is None or d < 1:
            raise ValidationError("case iii needs b >= 1 and d >= 1")
        if a is not None or c is not None:
            raise ValidationError("case iii takes no lower bounds")
        _require_compatible(rs, psi, cap)
        return _weighted_shift_qp(rs, psi, b + 1, d + 1, 0, 0, cap)
    raise ValidationError(f"unknown case {case!r}; use i, ii or iii")


def verify_deform(
    rs: RootSystem, spec: ArrangementSpec, formula_qp: QuasiPolynomial
) -> bool:
    """Exact comparison of a formula against brute-force interpolation of
    the deformed arrangement's complement counts."""
    if spec.rank != rs.rank:
        raise ValidationError("arrangement rank does not match the root system")
    return qp_equal(char_quasi(spec), formula_qp)
