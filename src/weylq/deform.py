"""Interval deformations of Weyl subarrangements and their closed formulas.

A Type I deformation attaches a whole interval of offsets to every root of
a subset; Type II additionally deforms the complement with its own
interval.  For compatible subsets the characteristic quasi-polynomial of
either kind is a mark-weighted sum of shifted closed-alcove counts over the
Weyl group; each element's shift blends its four descent statistics with
weights read off the interval bounds by one rule (see _interval_formula).

An interval is a literal (lo, hi) pair of integers, the CLI's lo:hi.  The
five variants differ only in the shape of each interval, and one table
holds it (_STARTS_AT_ONE): symmetric takes one interval containing 0,
positive one starting at 1; the Type II cases take the subset's interval
and then the complement's, both containing 0 (i), the first containing 0
and the second starting at 1 (ii), or both starting at 1 (iii).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from weylq.charquasi import ArrangementSpec, char_quasi_deformation, make_spec
from weylq.compat import is_compatible
from weylq.ehrhart import ehrhart_closed_qp
from weylq.errors import ValidationError
from weylq.eulerian import profile_counts
from weylq.quasipoly import QuasiPolynomial, RationalPolynomial, apply_shift, qp_equal
from weylq.rootsys import RootSystem, normalize_subset, subset_complement


# Per variant, whether each interval (the subset's, then the complement's)
# must start at 1 rather than contain 0.
_STARTS_AT_ONE = {
    "symmetric": (False,),
    "positive": (True,),
    "i": (False, False),
    "ii": (False, True),
    "iii": (True, True),
}


def int_pair(interval: Sequence[int]) -> Tuple[int, int]:
    """The bounds of an interval, checked to be a pair of integers."""
    try:
        a, b = interval
    except (TypeError, ValueError):
        raise ValidationError(f"interval must be a pair, got {interval!r}") from None
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (a, b)):
        raise ValidationError(f"interval bounds must be integers, got {interval!r}")
    return a, b


def _ordered(interval: Sequence[int]) -> Tuple[int, int]:
    """The bounds of an interval, checked to be ordered integers."""
    lo, hi = int_pair(interval)
    if lo > hi:
        raise ValidationError(f"interval {lo}:{hi} is empty (lower bound exceeds upper)")
    return lo, hi


def check_intervals(
    variant: str, intervals: Sequence[Sequence[int]]
) -> Tuple[Tuple[int, int], ...]:
    """The literal (lo, hi) intervals of a variant, checked against its
    entry in the variant table before any work."""
    shapes = _STARTS_AT_ONE.get(variant)
    if shapes is None:
        raise ValidationError(
            f"unknown variant {variant!r}; use symmetric, positive, i, ii or iii"
        )
    if len(intervals) != len(shapes):
        count = ("one", "two")[len(shapes) - 1]
        raise ValidationError(f"variant {variant} needs exactly {count} --interval")
    pairs = tuple(_ordered(interval) for interval in intervals)
    for (lo, hi), at_one in zip(pairs, shapes):
        if at_one and lo != 1:
            raise ValidationError(f"interval {lo}:{hi} must start at 1 for variant {variant}")
        if not at_one and (lo > 0 or hi < 0):
            raise ValidationError(f"interval {lo}:{hi} must contain 0 for variant {variant}")
    return pairs


def _interval_items(rs: RootSystem, roots: Iterable[int], interval: Sequence[int]):
    """Items attaching the offsets of an interval to each of the roots."""
    lo, hi = _ordered(interval)
    offs = tuple(range(lo, hi + 1))
    return [(rs.positive_roots[i], offs) for i in roots]


def type1_spec(rs: RootSystem, subset: Iterable[int], interval: Sequence[int]) -> ArrangementSpec:
    """The interval's offsets on every root of the subset."""
    return make_spec(rs.rank, _interval_items(rs, normalize_subset(rs, subset), interval))


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


def _require_compatible(rs: RootSystem, psi) -> None:
    result = is_compatible(rs, psi)
    if not result.compatible:
        raise ValidationError(
            f"subset {psi} of {rs.family}{rs.rank} is not compatible "
            f"(first difference at q={result.witness.q}); "
            "the closed formulas are only asserted for compatible subsets"
        )


def _interval_formula(rs: RootSystem, psi, inside, outside) -> QuasiPolynomial:
    """Average over the group of the closed-alcove count, each element
    shifting it by its weighted statistics.

    An interval [lo, hi] on a root set weighs that set's ascents by hi + 1
    and its descents by 1 - lo; inside is the subset's interval, outside
    the complement's.  A Type I deformation puts no hyperplane outside:
    the empty interval [1, 0], weights (1, 0).  The compatibility formula
    is inside [0, 0] with nothing outside.  The profile counts, already
    over W/Omega-bar (profile_counts), make one polynomial in t, read with
    t^k as the shift q -> q - k; its powers are the weighted statistics,
    never negative, since check_intervals keeps every weight at 0 or above.
    """
    _require_compatible(rs, psi)
    (lo_in, hi_in), (lo_out, hi_out) = inside, outside
    # in DescentProfile field order: descent, descent_bar, ascent, ascent_bar
    weights = (1 - lo_out, 1 - lo_in, hi_out + 1, hi_in + 1)
    shift = RationalPolynomial.from_terms(
        ((sum(w * stat for w, stat in zip(weights, p)), count)
         for p, count in profile_counts(rs, psi))
    )
    return apply_shift(shift, ehrhart_closed_qp(rs))


def cqp_type1_formula(
    rs: RootSystem,
    subset: Iterable[int],
    variant: str,
    interval: Sequence[int],
) -> QuasiPolynomial:
    """Closed formula for a Type I deformation of a compatible subset;
    variant "symmetric" or "positive" (see check_intervals)."""
    (inside,) = check_intervals(variant, (interval,))
    return _interval_formula(rs, normalize_subset(rs, subset), inside, (1, 0))


def cqp_type2_formula(
    rs: RootSystem,
    subset: Iterable[int],
    variant: str,
    interval1: Sequence[int],
    interval2: Sequence[int],
) -> QuasiPolynomial:
    """Closed formula for a Type II deformation of a compatible subset:
    interval1 on the subset, interval2 on its complement; variant "i",
    "ii" or "iii" (see check_intervals)."""
    inside, outside = check_intervals(variant, (interval1, interval2))
    return _interval_formula(rs, normalize_subset(rs, subset), inside, outside)


def verify_deform(
    rs: RootSystem, spec: ArrangementSpec, formula_qp: QuasiPolynomial
) -> bool:
    """Exact comparison of a formula against brute-force interpolation of
    the deformed arrangement's complement counts (char_quasi_deformation)."""
    return qp_equal(char_quasi_deformation(rs, spec), formula_qp)
