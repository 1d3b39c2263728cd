"""Truncated power series (jets) and Laurent jets over Z and Q.

The jet ring in which the multiplicity routes read their determinants,
in exact arithmetic.  A jet stores the coefficients it actually knows
(indices 0..known_order); every operation propagates the known order
pessimistically, so a coefficient is never reported unless it is genuinely
determined by the inputs.  An order of vanishing is ``_poly.low_order`` of
the stored coefficients: an ``int``, or None when all of them vanish.  A
matrix of jets is a ``_poly`` polynomial matrix read through an order
passed beside it, as ``jet_det`` takes it; the Laurent route's block is a
``LaurentMatrix``, whose determinant is a ``LaurentJet``.

Coefficients follow ``_poly``'s rule: a jet keeps the ring of its
coefficients.  The constructor keeps an all-``int`` tuple as it is and
makes any other one ``Fraction``s, so a jet is integer or rational
throughout; the ring operations keep the ring of their operands (integer
jets stay integer, with no ``Fraction`` built).  Only ``jet_inverse``
leaves Z: it scales a rational jet to integers, runs its recurrence over Z
and divides once per coefficient, exactly, into Q.  The jet of the zero
polynomial is rational.

All values are immutable and all operations are pure functions; everything
in this module is safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _poly
from .errors import PreconditionError


class NotAUnit(PreconditionError):
    """Inversion of a (Laurent) jet whose constant term vanishes."""


class SingularToKnownOrder(PreconditionError):
    """A matrix whose determinant vanishes through every stored order."""


class InsufficientJetOrder(PreconditionError):
    """The stored coefficients do not determine the requested quantity."""


def _zero_like(p):
    """The zero of the ring of the coefficients ``p`` (a polynomial or a
    jet's tuple), read off the last one; the zero polynomial ``()`` is read
    over Q."""
    return p[-1] * 0 if p else Fraction(0)


@dataclass(frozen=True)
class Jet:
    """Truncated power series with exact integer or rational coefficients.

    ``coeffs[i]`` is the coefficient of the i-th power; ``known_order`` is
    ``len(coeffs) - 1``.  Two jets are comparable only through the minimum
    of their known orders: the prefixes of that length.
    """

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a jet stores at least its constant term")
        coeffs = self.coeffs
        if not all(type(c) is int for c in coeffs):
            coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def known_order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, order: int) -> "Jet":
        return cls((Fraction(1),) + (Fraction(0),) * order)

    @classmethod
    def from_polynomial(cls, p, order: int) -> "Jet":
        """The jet of the polynomial ``p`` through ``order``, in p's ring."""
        c = list(p[: order + 1]) + [_zero_like(p)] * (order + 1 - len(p))
        return cls(tuple(c))

    def __add__(self, other: "Jet") -> "Jet":
        k = min(self.known_order, other.known_order)
        return Jet(tuple(a + b for a, b in zip(self.coeffs, other.coeffs))[: k + 1])

    def __neg__(self) -> "Jet":
        return Jet(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Jet") -> "Jet":
        k = min(self.known_order, other.known_order)
        prod = _poly.mul(self.coeffs, other.coeffs, k + 1)
        # a zero product keeps the operands' ring
        return Jet.from_polynomial(prod or (_zero_like(self.coeffs),), k)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self) -> str:
        terms = [f"{c}*t^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(t^{self.known_order + 1})"


def jet_inverse(a: Jet) -> Jet:
    """Multiplicative inverse of a unit jet, to the same known order.

    Runs over Z: with ``d`` the lcm of the denominators, ``d*a`` has integer
    coefficients ``a_j``, and ``1/(d*a) = sum b_k/a_0^(k+1) t^k`` for the
    integers ``b_0 = 1``, ``b_k = -sum_{j=1..k} a_j a_0^(j-1) b_(k-j)``.  The
    only division is the one ``Fraction(d*b_k, a_0^(k+1))`` per coefficient,
    so the result is rational for every unit, with the coefficients of the
    ``Fraction`` recurrence ``c_k = -(1/a_0) sum_j a_j c_(k-j)``.
    """
    if a.coeffs[0] == 0:
        raise NotAUnit("constant term vanishes; the jet has no inverse")
    d = math.lcm(*[c.denominator for c in a.coeffs])
    a0, *rest = [c.numerator * (d // c.denominator) for c in a.coeffs]
    weighted, power = [], 1  # a_j * a_0^(j-1), for j = 1..n
    for x in rest:
        weighted.append(x * power)
        power *= a0
    b = [1]
    for k in range(1, len(rest) + 1):
        b.append(-sum(x * y for x, y in zip(weighted, reversed(b))))
    out, den = [], a0
    for bk in b:
        out.append(Fraction(d * bk, den))
        den *= a0
    return Jet(tuple(out))


def jet_det(m: _poly.PolyMatrix, order: int) -> Jet:
    """Determinant of a polynomial matrix in the jet ring of ``order``.

    The exact determinant of ``m``, scaled to Z once, by fraction-free
    Bareiss elimination over Z[x], truncated to ``order``.  Truncation is
    a ring homomorphism, so this is the determinant of the matrix of jets
    at every dimension (pivoting on the jets themselves would be unsound:
    the jet ring has zero divisors).  The empty matrix gives the one-jet.
    """
    return Jet.from_polynomial(_poly.mat_det_bareiss(_poly.to_int_matrix(m)), order)


@dataclass(frozen=True)
class LaurentJet:
    """A jet with a finite pole: t^(-pole_order) times a unit-part jet.

    Coefficients below ``-pole_order`` are exact zeros, those in the window
    ``[-pole_order, -pole_order + unit.known_order]`` are stored, anything
    above is unknown.  Normal form: a positive pole order implies a nonzero
    leading unit coefficient (all-zero windows normalize to pole 0).
    """

    pole_order: int
    unit_part: Jet

    def __post_init__(self):
        if self.pole_order < 0:
            raise ValueError("pole order must be non-negative")
        pole, unit = self.pole_order, self.unit_part
        while pole > 0 and unit.coeffs[0] == 0:
            pole -= 1
            if unit.known_order >= 1:
                unit = Jet(unit.coeffs[1:])
        object.__setattr__(self, "pole_order", pole)
        object.__setattr__(self, "unit_part", unit)

    @property
    def known_through(self) -> int:
        """Highest exponent whose coefficient is determined."""
        return -self.pole_order + self.unit_part.known_order

    def leading_exponent(self) -> int | None:
        """Exponent of the first nonzero stored coefficient, or None when
        every stored coefficient vanishes."""
        o = _poly.low_order(self.unit_part.coeffs)
        return None if o is None else o - self.pole_order

    def is_zero(self) -> bool:
        return self.unit_part.is_zero()

    def __add__(self, other: "LaurentJet") -> "LaurentJet":
        pole = max(self.pole_order, other.pole_order)
        a = _pad(self, pole)
        b = _pad(other, pole)
        return LaurentJet(pole, a + b)

    def __neg__(self) -> "LaurentJet":
        return LaurentJet(self.pole_order, -self.unit_part)

    def __mul__(self, other: "LaurentJet") -> "LaurentJet":
        return LaurentJet(
            self.pole_order + other.pole_order, self.unit_part * other.unit_part
        )

    def inverse(self) -> "LaurentJet":
        e = self.leading_exponent()
        if e is None:
            raise NotAUnit(
                "every stored coefficient vanishes; no leading term to invert"
            )
        shift = e + self.pole_order  # index of the leading coeff in the unit part
        v = Jet(self.unit_part.coeffs[shift:])
        v_inv = jet_inverse(v)
        if e >= 0:
            # plain jet t^e * v, inverse has pole e
            return LaurentJet(e, v_inv)
        pad = [Fraction(0)] * (-e) + list(v_inv.coeffs)
        return LaurentJet(0, Jet(tuple(pad)))

    def __str__(self) -> str:
        terms = [
            f"{c}*t^{i - self.pole_order}"
            for i, c in enumerate(self.unit_part.coeffs)
            if c != 0
        ]
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(t^{self.known_through + 1})"


def _pad(x: LaurentJet, pole: int) -> Jet:
    extra = pole - x.pole_order
    if extra == 0:
        return x.unit_part
    coeffs = x.unit_part.coeffs
    return Jet(tuple([_zero_like(coeffs)] * extra + list(coeffs)))


@dataclass(frozen=True)
class LaurentMatrix:
    """Square matrix of Laurent jets (entries may carry different windows)."""

    dim: int
    grid: tuple  # tuple of row tuples of LaurentJet

    def det(self) -> LaurentJet:
        """Determinant by cofactor expansion.

        Entries that vanish through their whole window are treated as exact
        zeros.
        """
        if self.dim == 0:
            return LaurentJet(0, Jet.one(0))
        cache: dict = {}
        entries = self.grid

        def rec(rows: tuple, col: int) -> LaurentJet:
            if len(rows) == 1:
                return entries[rows[0]][col]
            hit = cache.get(rows)
            if hit is not None:
                return hit
            acc = None
            for pos, r in enumerate(rows):
                e = entries[r][col]
                if e.is_zero():
                    continue
                term = e * rec(rows[:pos] + rows[pos + 1 :], col + 1)
                if pos % 2 == 1:
                    term = -term
                acc = term if acc is None else acc + term
            if acc is None:  # a zero column: the zero of its entries' ring
                zero = _zero_like(entries[rows[0]][col].unit_part.coeffs)
                acc = LaurentJet(0, Jet((zero,)))
            cache[rows] = acc
            return acc

        try:
            return rec(tuple(range(self.dim)), 0)
        finally:
            rec = None  # rec reaches itself through its cell: free the memo now
