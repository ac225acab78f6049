"""The shift-operator compatibility decision for root subsets.

A subset is compatible when its characteristic quasi-polynomial agrees with
the descent-statistic shift formula applied to the closed-alcove count.
Both sides are exact quasi-polynomials, so the decision is an exact
equality check; a failing subset yields the smallest positive witness.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple, Optional

from weylq.charquasi import char_quasi_subset
from weylq.ehrhart import ehrhart_closed_qp
from weylq.errors import InconsistencyError, ValidationError
from weylq.eulerian import eulerian_poly
from weylq.quasipoly import QuasiPolynomial, apply_shift, qp_equal
from weylq.rootsys import RootSubset, RootSystem, check_weyl_cap, normalize_subset


class Witness(NamedTuple):
    """Smallest positive argument where the two sides differ."""

    residue: int
    q: int


class CompatResult(NamedTuple):
    compatible: bool
    witness: Optional[Witness]


def shift_formula_qp(rs: RootSystem, subset: Iterable[int]) -> QuasiPolynomial:
    """The descent-statistic shift formula: the descent polynomial E, read
    in t with t^k as the shift q -> q - k, applied to the closed alcove.
    E's powers are 1..h (verify_genfunc), so no shift is negative."""
    return apply_shift(eulerian_poly(rs, subset), ehrhart_closed_qp(rs))


# Bounded: the only repeat question is deform or verify asking again
# about the subset whose compatibility its formula requires.
@functools.lru_cache(maxsize=4)
def _decide(rs: RootSystem, psi: RootSubset) -> CompatResult:
    chi = char_quasi_subset(rs, psi)
    formula = shift_formula_qp(rs, psi)
    if qp_equal(chi, formula):
        return CompatResult(True, None)
    # the first difference is the lowest degree of N - E, at most h
    # (verify_genfunc's proof)
    period = math.lcm(chi.period, formula.period)
    for q in range(1, rs.coxeter_number + 1):
        if chi(q) != formula(q):
            return CompatResult(False, Witness(q % period or period, q))
    raise InconsistencyError(
        f"the quasi-polynomials differ but agree on q = 1..{rs.coxeter_number}, "
        "where the face formula puts their first difference"
    )


def is_compatible(rs: RootSystem, subset: Iterable[int]) -> CompatResult:
    """Decide compatibility, refusing on the Weyl group's table bound
    (check_weyl_cap) before any counting; on failure include the smallest
    witness."""
    check_weyl_cap(rs)
    return _decide(rs, normalize_subset(rs, subset))


def verify_genfunc(rs: RootSystem, subset: Iterable[int], order: int) -> bool:
    """Check the generating-function form of compatibility to the given
    order: the series sum of chi(q) t^q over q >= 1 against E(t)/D(t), with
    E the descent polynomial and D(t) the product of (1 - t^c) over the
    extended base's marks c.  From order 3h on this is the decision itself.

    Proof.  The face formula gives the series of chi as N(t)/D(t) with
    1 <= deg N <= h (char_quasi_faces).  The shift formula's value at
    q >= 1 is the sum of e_k L(q - k) over the terms e_k t^k of E, where L
    is the closed-alcove quasi-polynomial, whose series over q >= 0 is
    1/D(t).  E has no constant term, because no element sends the whole
    extended base negative, and its degree is at most h = 1 + sum of the
    marks, so q - k > -h.  L vanishes on -h < m < 0 (reciprocity), so the
    shift formula's values at q >= 1 are the coefficients of E(t)/D(t).
    The two series therefore differ by (N - E)/D.  As 1/D has constant
    term 1, that series begins at the lowest degree of N - E, at most h
    when N != E.  So agreement to order 3h or more holds exactly when
    N = E, that is, when chi equals the shift formula.
    """
    if order < 3 * rs.coxeter_number:
        raise ValidationError(
            f"order must be at least three Coxeter numbers ({3 * rs.coxeter_number})"
        )
    return is_compatible(rs, subset).compatible
