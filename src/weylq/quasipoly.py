"""Exact univariate polynomials, quasi-polynomials and shift operators.

Everything here is exact; no floats anywhere: a coefficient, a numerator,
a Lagrange value or a scalar is an int or a Fraction, and anything else
raises ValidationError.  A RationalPolynomial holds its nonzero terms as
(power, integer numerator) pairs over one positive denominator, in lowest
terms; arithmetic, evaluation, argument shifts and Lagrange interpolation
run on those integers.  Read in t with t^k as the shift q -> q - k, a
polynomial is a shift operator, and apply_shift, the one conversion from a
numerator polynomial to a quasi-polynomial, combines its terms in integers
with a bounded table of shifted constituents per quasi-polynomial.  Powers
are nonnegative, so a negative shift is not expressible.  A
quasi-polynomial of period p stores one constituent per residue class,
1-based, with the class of 0 stored last.  Evaluation works for negative
arguments through the same residue rule.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, Sequence, Tuple

from weylq.errors import InconsistencyError, ValidationError


def _exact(x, what: str):
    """x itself when it is an int or a Fraction; bools, floats, strings and
    everything else raise ValidationError."""
    if type(x) is not int and type(x) is not Fraction:
        raise ValidationError(f"{what} must be ints or Fractions, got {x!r}")
    return x


class RationalPolynomial:
    """Immutable polynomial with rational coefficients: its nonzero terms as
    ascending (power, integer numerator) pairs over one positive den, in
    lowest terms, so equal polynomials store equal terms."""

    __slots__ = ("terms", "den", "_hash")

    def __init__(self, coeffs: Iterable = ()):
        """The polynomial with the given coefficients, ascending."""
        self._store(enumerate(coeffs), 1)

    @classmethod
    def from_terms(cls, terms: Iterable[Tuple[int, object]], den: int = 1) -> "RationalPolynomial":
        """The sum of (c / den) * t^k over the pairs (k, c): equal powers add
        up, and a Fraction c is cleared into the denominator."""
        p = cls.__new__(cls)
        p._store(terms, den)
        return p

    def _store(self, terms: Iterable[Tuple[int, object]], den: int) -> None:
        if type(den) is not int or den < 1:
            raise ValidationError(f"polynomial denominator must be a positive int, got {den!r}")
        pairs = []
        for k, c in terms:
            if type(k) is not int or k < 0:
                raise ValidationError(f"powers must be nonnegative ints, got {k!r}")
            pairs.append((k, _exact(c, "coefficient numerators")))
        # the one conversion from Fraction denominators to integer numerators
        scale = math.lcm(*(c.denominator for _, c in pairs))
        acc: Dict[int, int] = {}
        for k, c in pairs:
            acc[k] = acc.get(k, 0) + c.numerator * (scale // c.denominator)
        den *= scale
        g = math.gcd(den, *acc.values())
        object.__setattr__(self, "terms", tuple(sorted((k, n // g) for k, n in acc.items() if n)))
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, name, value):
        raise AttributeError("RationalPolynomial is immutable")

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls(())

    @classmethod
    def monomial(cls, power: int) -> "RationalPolynomial":
        return cls.from_terms(((power, 1),))

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending up to the degree."""
        out = [Fraction(0)] * (self.degree + 1)
        for k, n in self.terms:
            out[k] = Fraction(n, self.den)
        return tuple(out)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return self.terms[-1][0] if self.terms else -1

    def coeff(self, power: int) -> Fraction:
        return Fraction(dict(self.terms).get(power, 0), self.den)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    @property
    def leading_coeff(self) -> Fraction:
        return self.coeff(self.degree)

    def __call__(self, x) -> Fraction:
        """Horner's rule on the numerators, stepping over the missing powers,
        divided by the denominator once at the end."""
        acc = 0
        top = self.degree if self.terms else 0
        for k, n in reversed(self.terms):
            acc = acc * x ** (top - k) + n
            top = k
        return Fraction(acc * x**top, self.den)

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        den = math.lcm(self.den, other.den)
        return RationalPolynomial.from_terms(
            [(k, n * (den // self.den)) for k, n in self.terms]
            + [(k, n * (den // other.den)) for k, n in other.terms],
            den,
        )

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial.from_terms(((k, -n) for k, n in self.terms), self.den)

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            return RationalPolynomial.from_terms(
                ((i + j, a * b) for i, a in self.terms for j, b in other.terms),
                self.den * other.den,
            )
        s = _exact(other, "scalars")
        return RationalPolynomial.from_terms(
            ((k, n * s.numerator) for k, n in self.terms), self.den * s.denominator
        )

    __rmul__ = __mul__

    def shift_arg(self, delta: int) -> "RationalPolynomial":
        """The polynomial t -> p(t + delta) for an integer delta, by
        Horner's rule on the numerators."""
        if type(delta) is not int:
            raise ValidationError(f"argument shifts must be integers, got {delta!r}")
        numerators = dict(self.terms)
        acc: list = []
        for k in range(self.degree, -1, -1):
            # acc <- acc * (t + delta) + n_k, highest power first
            acc = [a + delta * b for a, b in zip([0] + acc, acc + [0])]
            acc[0] += numerators.get(k, 0)
        return RationalPolynomial.from_terms(enumerate(acc), self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalPolynomial)
            and self.terms == other.terms
            and self.den == other.den
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # first call: compute once and keep
            h = hash(("RationalPolynomial", self.terms, self.den))
            object.__setattr__(self, "_hash", h)
            return h

    def format(self, var: str = "q") -> str:
        """Human form over the denominator, like (q^2 + 6q + 12)/12."""
        if self.is_zero:
            return "0"
        parts = []
        for power, a in reversed(self.terms):
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
        if self.den == 1:
            return core
        return f"({core})/{self.den}"

    def __repr__(self) -> str:
        return f"RationalPolynomial({self.format('t')})"


class QuasiPolynomial:
    """Immutable period plus one constituent per residue class 1..period.

    constituents[k-1] applies to arguments congruent to k, so the class of
    multiples of the period sits at the last index.
    """

    __slots__ = ("period", "constituents")

    def __init__(self, period: int, constituents: Tuple[RationalPolynomial, ...]):
        if period < 1:
            raise ValidationError("period must be a positive integer")
        if len(constituents) != period:
            raise ValidationError("need exactly one constituent per residue")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "constituents", constituents)

    # also serves as __delattr__, which passes no value
    def __setattr__(self, name, *value):
        raise AttributeError("QuasiPolynomial is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not QuasiPolynomial:
            return NotImplemented
        return self.period == other.period and self.constituents == other.constituents

    def __hash__(self) -> int:
        return hash((self.period, self.constituents))

    def __repr__(self) -> str:
        return f"QuasiPolynomial(period={self.period!r}, constituents={self.constituents!r})"

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


# A few quasi-polynomials at a time: a process shifts the closed-alcove
# count of one or two systems (the face route, compat, deform and the open
# alcove all shift it).  An entry holds the common denominator D of the
# constituents and, per offset o, the (power, numerator over D) terms of
# constituent_for(k - o).shift_arg(-o) for k = 1..period, filled the first
# time o is asked for.
@functools.lru_cache(maxsize=4)
def _shift_table(qp: QuasiPolynomial) -> Tuple[int, Dict[int, tuple]]:
    return math.lcm(*(p.den for p in qp.constituents)), {}


def apply_shift(shift: RationalPolynomial, qp: QuasiPolynomial) -> QuasiPolynomial:
    """The quasi-polynomial q -> sum of (n / shift.den) * qp(q - k) over
    the terms (k, n) of shift: the numerator polynomial read in t with t^k
    as the shift q -> q - k.  Its powers are nonnegative, so a shift to
    q + k is not expressible.

    Integer arithmetic over one denominator: the shifted constituents come
    from the table of qp as numerators over D, each is weighted by its
    term's numerator, and each output constituent is built once over
    D * shift.den.
    """
    p = qp.period
    den, rows = _shift_table(qp)
    acc = [[0] * (qp.degree + 1) for _ in range(p)]
    for offset, weight in shift.terms:
        shifted = rows.get(offset)
        if shifted is None:
            pieces = (qp.constituent_for(k - offset).shift_arg(-offset) for k in range(1, p + 1))
            shifted = rows[offset] = tuple(
                tuple((i, n * (den // piece.den)) for i, n in piece.terms) for piece in pieces
            )
        for out, row in zip(acc, shifted):
            for i, n in row:
                out[i] += weight * n
    scale = den * shift.den
    return QuasiPolynomial(
        p, tuple(RationalPolynomial.from_terms(enumerate(out), scale) for out in acc)
    )


def lagrange_polynomial(
    points: Sequence[int], values: Sequence
) -> RationalPolynomial:
    """The unique polynomial through the given points, exactly.

    In integers over one denominator: with M(t) the product of (t - x_j),
    the basis numerator Q_i = M(t) / (t - x_i) comes by synthetic division
    and its denominator is d_i = prod over j != i of (x_i - x_j).  For
    y_i = a_i / b_i the sum of a_i * (L / (b_i * d_i)) * Q_i over the lcm L
    of the b_i * d_i is the interpolant's numerators over L.
    """
    if len(points) != len(values) or not points:
        raise ValidationError("need equally many points and values")
    if len(set(points)) != len(points):
        raise ValidationError("interpolation points must be distinct")
    ys = [_exact(y, "interpolation values") for y in values]
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
    return RationalPolynomial.from_terms(enumerate(out), den)


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
