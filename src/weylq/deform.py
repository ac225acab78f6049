"""Interval deformations of Weyl subarrangements and their closed formulas.

A Type I deformation attaches a whole interval of offsets to every root of
a subset; Type II additionally deforms the complement with its own
interval.  For compatible subsets the characteristic quasi-polynomial of
either kind is a mark-weighted sum of shifted closed-alcove counts over the
Weyl group; each element's shift blends its four descent statistics with
weights read off the interval bounds by one rule (see _interval_formula).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from weylq.charquasi import ArrangementSpec, char_quasi, make_spec
from weylq.compat import is_compatible
from weylq.ehrhart import ehrhart_closed_qp, int_pair
from weylq.errors import ValidationError
from weylq.eulerian import profile_counts
from weylq.quasipoly import QuasiPolynomial, ShiftPolynomial, apply_shift, qp_equal
from weylq.rootsys import (
    DEFAULT_WEYL_CAP,
    RootSystem,
    normalize_subset,
    subset_complement,
)


def _interval_items(rs: RootSystem, roots: Iterable[int], interval: Sequence[int]):
    """Items attaching the offsets of an interval, an ordered pair of
    integers, to each of the roots."""
    a, b = int_pair(interval)
    if a > b:
        raise ValidationError(f"interval bounds must be ordered, got [{a}, {b}]")
    offs = tuple(range(a, b + 1))
    return [(rs.positive_roots[i], offs) for i in roots]


def type1_spec(rs: RootSystem, subset: Iterable[int], a: int, b: int) -> ArrangementSpec:
    """Attach offsets a..b to every root of the subset."""
    return make_spec(rs.rank, _interval_items(rs, normalize_subset(rs, subset), (a, b)))


def type2_spec(
    rs: RootSystem,
    subset: Iterable[int],
    interval1: Sequence[int],
    interval2: Sequence[int],
) -> ArrangementSpec:
    """Offsets interval1 on the subset, interval2 on its complement."""
    psi = normalize_subset(rs, subset)
    items = _interval_items(rs, psi, interval1)
    items += _interval_items(rs, subset_complement(rs, psi), interval2)
    return make_spec(rs.rank, items)


def _require_compatible(rs: RootSystem, psi, cap: int) -> None:
    result = is_compatible(rs, psi, cap)
    if not result.compatible:
        raise ValidationError(
            f"subset {psi} of {rs.family}{rs.rank} is not compatible "
            f"(first difference at q={result.witness.q}); "
            "the closed formulas are only asserted for compatible subsets"
        )


def _interval_formula(rs: RootSystem, psi, inside, outside, cap: int) -> QuasiPolynomial:
    """Average over the group of the closed-alcove count, each element
    shifting it by its weighted statistics.

    An interval [lo, hi] on a root set weighs that set's ascents by hi + 1
    and its descents by 1 - lo; inside is the subset's interval, outside
    the complement's.  A Type I deformation puts no hyperplane outside:
    the empty interval [1, 0], weights (1, 0).  The compatibility formula
    is inside [0, 0] with nothing outside.
    """
    _require_compatible(rs, psi, cap)
    (lo_in, hi_in), (lo_out, hi_out) = inside, outside
    # in DescentProfile field order: descent, descent_bar, ascent, ascent_bar
    weights = (1 - lo_out, 1 - lo_in, hi_out + 1, hi_in + 1)
    f = rs.index_of_connection
    shift = ShiftPolynomial(
        (sum(w * stat for w, stat in zip(weights, p)), Fraction(count, f))
        for p, count in profile_counts(rs, psi, cap)
    )
    return apply_shift(shift, ehrhart_closed_qp(rs))


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
        inside = (-a, b)
    elif variant == "positive":
        if b is None or b < 1:
            raise ValidationError("positive variant needs b >= 1")
        if a is not None:
            raise ValidationError("positive variant takes no lower bound")
        inside = (1, b)
    else:
        raise ValidationError(f"unknown variant {variant!r}; use symmetric or positive")
    return _interval_formula(rs, psi, inside, (1, 0), cap)


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
        inside, outside = (-a, b), (-c, d)
    elif case == "ii":
        if a is None or b is None or a < 0 or b < 0 or d is None or d < 1:
            raise ValidationError("case ii needs a, b >= 0 and d >= 1")
        if c is not None:
            raise ValidationError("case ii takes no lower bound on the complement")
        inside, outside = (-a, b), (1, d)
    elif case == "iii":
        if b is None or b < 1 or d is None or d < 1:
            raise ValidationError("case iii needs b >= 1 and d >= 1")
        if a is not None or c is not None:
            raise ValidationError("case iii takes no lower bounds")
        inside, outside = (1, b), (1, d)
    else:
        raise ValidationError(f"unknown case {case!r}; use i, ii or iii")
    return _interval_formula(rs, psi, inside, outside, cap)


def verify_deform(
    rs: RootSystem, spec: ArrangementSpec, formula_qp: QuasiPolynomial
) -> bool:
    """Exact comparison of a formula against brute-force interpolation of
    the deformed arrangement's complement counts."""
    if spec.rank != rs.rank:
        raise ValidationError("arrangement rank does not match the root system")
    return qp_equal(char_quasi(spec), formula_qp)
