"""Exact univariate polynomials, quasi-polynomials and shift operators.

Everything here is exact; no floats anywhere.  A ShiftPolynomial holds
integer numerators over one denominator, and apply_shift, the one
conversion from a numerator polynomial to a quasi-polynomial, combines
them in integers with a bounded table of shifted constituents per
quasi-polynomial.  Lagrange interpolation, evaluation and shift_arg work
on integer numerators over one denominator as well, and build each
Fraction once at the end; a polynomial keeps the Fractions it is given and
computes its hash once.  A quasi-polynomial of period p stores one
constituent per residue class, 1-based, with the class of 0 stored last.
Evaluation works for negative arguments through the same residue rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Sequence, Tuple

from weylq.errors import InconsistencyError, ValidationError


class RationalPolynomial:
    """Immutable polynomial with Fraction coefficients, ascending order."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Iterable = ()):  # trailing zeros are trimmed
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPolynomial is immutable")

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls(())

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "RationalPolynomial":
        if power < 0:
            raise ValidationError("monomial power must be nonnegative")
        return cls((0,) * power + (coeff,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    @property
    def leading_coeff(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __call__(self, x) -> Fraction:
        """Horner's rule on the integer numerators over the coefficients'
        common denominator, divided once at the end."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c.numerator * (den // c.denominator)
        return Fraction(acc, den)

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            if self.is_zero or other.is_zero:
                return RationalPolynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return RationalPolynomial(out)
        return RationalPolynomial(tuple(c * Fraction(other) for c in self.coeffs))

    __rmul__ = __mul__

    def shift_arg(self, delta: int) -> "RationalPolynomial":
        """The polynomial t -> p(t + delta) for an integer delta, by
        Horner's rule on the integer numerators over the coefficients'
        common denominator."""
        if not isinstance(delta, int) or isinstance(delta, bool):
            raise ValidationError(f"argument shifts must be integers, got {delta!r}")
        den = math.lcm(*(c.denominator for c in self.coeffs))
        acc: list = []
        for c in reversed(self.coeffs):
            # acc <- acc * (t + delta) + c, highest power first
            acc = [a + delta * b for a, b in zip([0] + acc, acc + [0])]
            acc[0] += c.numerator * (den // c.denominator)
        return RationalPolynomial(Fraction(n, den) for n in acc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # first call: compute once and keep
            h = hash(("RationalPolynomial", self.coeffs))
            object.__setattr__(self, "_hash", h)
            return h

    def format(self, var: str = "q") -> str:
        """Human form with a common denominator, like (q^2 + 6q + 12)/12."""
        if self.is_zero:
            return "0"
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
        parts = []
        for power in range(len(ints) - 1, -1, -1):
            a = ints[power]
            if a == 0:
                continue
            mag = abs(a)
            if power == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}{var}" + (f"^{power}" if power > 1 else "")
            if not parts:
                parts.append(("-" if a < 0 else "") + body)
            else:
                parts.append(("- " if a < 0 else "+ ") + body)
        core = " ".join(parts)
        if den == 1:
            return core
        return f"({core})/{den}"

    def __repr__(self) -> str:
        return f"RationalPolynomial({self.format('t')})"


@dataclass(frozen=True)
class QuasiPolynomial:
    """Period plus one constituent per residue class 1..period.

    constituents[k-1] applies to arguments congruent to k, so the class of
    multiples of the period sits at the last index.
    """

    period: int
    constituents: Tuple[RationalPolynomial, ...]

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValidationError("period must be a positive integer")
        if len(self.constituents) != self.period:
            raise ValidationError("need exactly one constituent per residue")

    def constituent_for(self, q: int) -> RationalPolynomial:
        k = q % self.period
        return self.constituents[(k if k else self.period) - 1]

    def __call__(self, q: int) -> Fraction:
        return self.constituent_for(q)(q)

    @property
    def degree(self) -> int:
        return max(p.degree for p in self.constituents)


def fold_period(qp: QuasiPolynomial) -> QuasiPolynomial:
    """The same quasi-polynomial over its minimal period: the least
    divisor d of the period for which residues d apart share a constituent
    (the periods of a function on the integers are the multiples of the
    least one)."""
    cs = qp.constituents
    d = next(
        d
        for d in range(1, qp.period + 1)
        if qp.period % d == 0 and all(cs[k] == cs[k - d] for k in range(d, qp.period))
    )
    return QuasiPolynomial(d, cs[:d])


def qp_equal(a: QuasiPolynomial, b: QuasiPolynomial) -> bool:
    """Exact equality as functions on the integers: the minimal forms agree,
    since a function's minimal form is unique (see fold_period)."""
    return fold_period(a) == fold_period(b)


class ShiftPolynomial:
    """A finite combination of argument shifts, as integer numerators over
    one positive denominator den.

    A term (offset, n) sends a function f to (n / den) * f(q - offset);
    applying a whole ShiftPolynomial sums the terms.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms: Iterable[Tuple[int, int]] = (), den: int = 1):
        if not isinstance(den, int) or isinstance(den, bool) or den < 1:
            raise ValidationError(f"shift denominator must be a positive integer, got {den!r}")
        acc: Dict[int, int] = {}
        for offset, n in terms:
            if not isinstance(offset, int) or isinstance(offset, bool):
                raise ValidationError("shift offsets must be integers")
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValidationError(f"shift numerators must be integers, got {n!r}")
            acc[offset] = acc.get(offset, 0) + n
        object.__setattr__(self, "terms", tuple(sorted((k, v) for k, v in acc.items() if v)))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("ShiftPolynomial is immutable")

    @classmethod
    def from_polynomial(cls, p: RationalPolynomial) -> "ShiftPolynomial":
        """Read t^k as the shift q -> q - k, over the coefficients' common
        denominator."""
        den = math.lcm(*(c.denominator for c in p.coeffs))
        return cls(
            ((k, c.numerator * (den // c.denominator)) for k, c in enumerate(p.coeffs)), den
        )

    def __repr__(self) -> str:
        return f"ShiftPolynomial({list(self.terms)!r}, den={self.den})"


# A few quasi-polynomials at a time: a process shifts the closed-alcove
# count of one or two systems (the face route, compat, deform and the open
# alcove all shift it).  An entry holds the common denominator D of the
# coefficients and, per offset o, the integer numerators over D of
# constituent_for(k - o).shift_arg(-o) for k = 1..period, filled the first
# time o is asked for.
@functools.lru_cache(maxsize=4)
def _shift_table(qp: QuasiPolynomial) -> Tuple[int, Dict[int, Tuple[Tuple[int, ...], ...]]]:
    den = math.lcm(*(c.denominator for p in qp.constituents for c in p.coeffs))
    return den, {}


def apply_shift(shift: ShiftPolynomial, qp: QuasiPolynomial) -> QuasiPolynomial:
    """The quasi-polynomial q -> sum of (n / shift.den) * qp(q - offset).

    Integer arithmetic over one denominator: the shifted constituents come
    from the table of qp as numerators over D, each is weighted by its
    term's numerator, and each output coefficient is built once as a
    Fraction over D * shift.den.
    """
    p = qp.period
    den, rows = _shift_table(qp)
    acc = [[0] * (qp.degree + 1) for _ in range(p)]
    for offset, weight in shift.terms:
        shifted = rows.get(offset)
        if shifted is None:
            pieces = (qp.constituent_for(k - offset).shift_arg(-offset) for k in range(1, p + 1))
            shifted = rows[offset] = tuple(
                tuple(c.numerator * (den // c.denominator) for c in piece.coeffs)
                for piece in pieces
            )
        for out, row in zip(acc, shifted):
            for i, n in enumerate(row):
                out[i] += weight * n
    scale = den * shift.den
    return QuasiPolynomial(
        p, tuple(RationalPolynomial(Fraction(n, scale) for n in out) for out in acc)
    )


def lagrange_polynomial(
    points: Sequence[int], values: Sequence
) -> RationalPolynomial:
    """The unique polynomial through the given points, exactly.

    In integers over one denominator: with M(t) the product of (t - x_j),
    the basis numerator Q_i = M(t) / (t - x_i) comes by synthetic division
    and its denominator is d_i = prod over j != i of (x_i - x_j).  For
    y_i = a_i / b_i the sum of a_i * (L / (b_i * d_i)) * Q_i over the lcm L
    of the b_i * d_i is the interpolant times L, and each coefficient
    becomes one Fraction over L.
    """
    if len(points) != len(values) or not points:
        raise ValidationError("need equally many points and values")
    if len(set(points)) != len(points):
        raise ValidationError("interpolation points must be distinct")
    ys = [y if isinstance(y, (int, Fraction)) else Fraction(y) for y in values]
    n = len(points)
    m = [1]  # M(t), ascending
    for x in points:
        m = [b - x * a for a, b in zip(m + [0], [0] + m)]
    terms = []
    for xi, yi in zip(points, ys):
        if yi == 0:
            continue
        d = yi.denominator * math.prod(xi - xj for xj in points if xj != xi)
        num = yi.numerator if d > 0 else -yi.numerator
        terms.append((xi, num, abs(d)))
    den = math.lcm(*(d for _, _, d in terms))
    out = [0] * n
    for xi, num, d in terms:
        weight = num * (den // d)
        acc = 0
        for k in range(n, 0, -1):  # Q_i by synthetic division, top down
            acc = m[k] + xi * acc
            out[k - 1] += weight * acc
    return RationalPolynomial(Fraction(c, den) for c in out)


def interpolate_qp(
    sampler: Callable[[int], object],
    period: int,
    degree_bound: int,
    min_q: int = 1,
) -> QuasiPolynomial:
    """Recover a quasi-polynomial from samples of an integer function.

    For each residue class the sampler is read at degree_bound + 1 points
    spaced one period apart, starting at the first admissible argument at or
    above min_q, then checked on two further points.  A failed check raises
    InconsistencyError: either the claimed period or the degree bound is
    wrong, or the function only becomes quasi-polynomial later on.
    """
    if period < 1:
        raise ValidationError("period must be a positive integer")
    if degree_bound < 0:
        raise ValidationError("degree bound must be nonnegative")
    if min_q < 1:
        raise ValidationError("min_q must be a positive integer")
    constituents = []
    for k in range(1, period + 1):
        start = k if k >= min_q else k + period * (-(-(min_q - k) // period))
        points = [start + j * period for j in range(degree_bound + 1)]
        values = [sampler(q) for q in points]
        poly = lagrange_polynomial(points, values)
        for extra in range(1, 3):
            q = start + (degree_bound + extra) * period
            expected = sampler(q)
            if poly(q) != expected:
                raise InconsistencyError(
                    f"verification sample failed at q={q} (residue {k % period or period} "
                    f"mod {period}): interpolant gives {poly(q)}, function gives {expected}"
                )
        constituents.append(poly)
    return QuasiPolynomial(period, tuple(constituents))

