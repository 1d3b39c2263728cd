"""Parity of admissible operator paths and closed loops.

In finite dimension the Leray-Schauder degree of an invertible matrix is
the sign of its determinant and a GL-valued parametrix has a constant
determinant sign, so the parity of an admissible path collapses to the
product of its endpoint determinant signs.  That reduction is the
foundation of this module; the crossing-count and multiplicity-sum
formulations are computed independently (exact Sturm isolation over the
integers, square-free factor multiplicities) and must agree with it.

Closed curves are modeled as cyclic sequences of admissible polynomial
segments and symbolic GL connectors.  A connector abstracts a path inside
a contractible group of invertibles, contributes no crossings, and is
deliberately not checked for determinant-sign consistency with its
neighbors; every value computed from a loop containing one carries a flag
saying so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import _linalg, _poly
from ._poly import RootLocation
from .errors import PreconditionError
from .exactnum import SingularToKnownOrder
from .multiplicity import MatrixCurveJet, MultiplicityReport, multiplicity_det

__all__ = [
    "NotAdmissible",
    "NonTransversalCrossing",
    "PolynomialPath",
    "AnalyticSegment",
    "GlConnector",
    "LoopPath",
    "Crossing",
    "ParityValue",
    "RootLocation",
    "interval_parity",
    "crossing_parity",
    "multiplicity_sum_parity",
    "local_parity",
    "loop_parity",
]


class NotAdmissible(PreconditionError):
    """The path is singular at an endpoint."""


class NonTransversalCrossing(PreconditionError):
    """A determinant root of multiplicity > 1 lies inside the interval."""


@dataclass(frozen=True)
class PolynomialPath:
    """Matrix polynomial restricted to a rational interval [a, b].

    ``coefficients[j]`` multiplies the j-th power of the global parameter.
    Admissibility (invertibility at both endpoints) is checked on demand,
    not at construction.
    """

    dim: int
    a: Fraction
    b: Fraction
    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a >= self.b:
            raise ValueError("the interval must satisfy a < b")
        mats = tuple(_linalg.freeze(m) for m in self.coefficients)
        if not mats:
            raise ValueError("a path needs at least one coefficient matrix")
        if any(_linalg.shape(m) != (self.dim, self.dim) for m in mats):
            raise ValueError("coefficient matrices must be dim x dim")
        object.__setattr__(self, "coefficients", mats)

    def _scaled_lift(self):
        return _poly.to_int_matrix(_poly.mat_lift(self.coefficients))

    def evaluate(self, lam) -> _linalg.Matrix:
        return _poly.mat_eval_at(self._scaled_lift(), lam)

    def determinant_polynomial(self):
        return _poly.mat_det_bareiss(self._scaled_lift())

    def is_admissible(self) -> bool:
        return all(_linalg.det(self.evaluate(lam)) != 0 for lam in (self.a, self.b))

    def ensure_admissible(self) -> tuple[Fraction, Fraction]:
        """Raise NotAdmissible unless the path is invertible at both
        endpoints; returns the two endpoint determinants."""
        lift = self._scaled_lift()
        return self._nonzero_at_endpoints(lambda x: _linalg.det(_poly.mat_eval_at(lift, x)))

    def _nonzero_at_endpoints(self, value) -> tuple:
        """``value(a)`` and ``value(b)``, the determinant at the endpoints;
        raises NotAdmissible at the first that is zero."""
        out = []
        for side, lam in (("left", self.a), ("right", self.b)):
            v = value(lam)
            if v == 0:
                raise NotAdmissible(f"path is singular at the {side} endpoint {lam}")
            out.append(v)
        return tuple(out)

    def reversed(self) -> "PolynomialPath":
        """The same track traversed backwards, reparameterized on [a, b]."""
        flipped = _poly.compose_affine(self.coefficients, self.a + self.b, -1)
        return PolynomialPath(self.dim, self.a, self.b, flipped)


@dataclass(frozen=True)
class AnalyticSegment:
    path: PolynomialPath


@dataclass(frozen=True)
class GlConnector:
    """Symbolic segment lying entirely in a contractible invertible group.

    Contributes no crossings.  Determinant-sign consistency across it is
    intentionally not enforced: the connector stands in for a path in an
    infinite-dimensional group where the sign carries no meaning.
    """


@dataclass(frozen=True)
class LoopPath:
    """Closed curve: a cyclic sequence of analytic segments and connectors.

    Every analytic segment must be admissible, and consecutive analytic
    segments must match exactly at the shared endpoint.  Admissibility of
    the segments guarantees the loop has an invertible point, which is
    what the closed-curve parity formula needs.
    """

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("a loop needs at least one segment")
        for s in segs:
            if not isinstance(s, (AnalyticSegment, GlConnector)):
                raise TypeError("segments must be AnalyticSegment or GlConnector")
            if isinstance(s, AnalyticSegment):
                s.path.ensure_admissible()
        for i, s in enumerate(segs):
            t = segs[(i + 1) % len(segs)]
            if isinstance(s, AnalyticSegment) and isinstance(t, AnalyticSegment):
                if s.path.evaluate(s.path.b) != t.path.evaluate(t.path.a):
                    raise ValueError(
                        "a single-segment loop must close up exactly"
                        if len(segs) == 1
                        else f"segments {i} and {(i + 1) % len(segs)} do not share "
                        "their endpoint matrix"
                    )
        object.__setattr__(self, "segments", segs)

    @property
    def has_connector(self) -> bool:
        return any(isinstance(s, GlConnector) for s in self.segments)


@dataclass(frozen=True)
class Crossing:
    """One generalized eigenvalue inside an interval with its local
    multiplicity."""

    location: RootLocation
    multiplicity: int


@dataclass(frozen=True)
class ParityValue:
    """A sign with its crossing breakdown.

    The crossing-resolving routes satisfy ``sign == (-1) **
    sum(multiplicities)`` by construction; the endpoint-sign route reports
    no crossing data.  ``from_connector_abstraction`` marks values computed
    through a symbolic GL connector.
    """

    sign: int
    crossings: tuple = field(default_factory=tuple)
    from_connector_abstraction: bool = False

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("parity sign must be +1 or -1")

    def __mul__(self, other: "ParityValue") -> "ParityValue":
        return ParityValue(
            sign=self.sign * other.sign,
            crossings=self.crossings + other.crossings,
            from_connector_abstraction=self.from_connector_abstraction
            or other.from_connector_abstraction,
        )


def interval_parity(path: PolynomialPath) -> ParityValue:
    """Product of the endpoint determinant signs.

    This is the parametrix formula specialized to finite dimension; it
    depends on nothing but the two endpoint matrices.
    """
    da, db = path.ensure_admissible()
    sign = (1 if da > 0 else -1) * (1 if db > 0 else -1)
    return ParityValue(sign=sign)


def crossing_parity(path: PolynomialPath) -> ParityValue:
    """Parity as (-1) to the number of transversal crossings.

    A crossing is counted transversal exactly when the determinant root is
    simple; a multiple root anywhere in the open interval raises
    NonTransversalCrossing and the caller should fall back to
    multiplicity_sum_parity.
    """
    det = _poly.primitive(path.determinant_polynomial())
    path._nonzero_at_endpoints(lambda lam: _poly.eval_at(det, lam))
    common = _poly.gcd(det, _poly.derivative(det))
    if _poly.count_roots_open(common, path.a, path.b) > 0:
        raise NonTransversalCrossing(
            "a determinant root of multiplicity > 1 lies in the interval"
        )
    roots = _poly.isolate_roots(_poly.div_exact(det, common), path.a, path.b)
    crossings = tuple(Crossing(location=r, multiplicity=1) for r in roots)
    return ParityValue(sign=(-1) ** len(roots), crossings=crossings)


def multiplicity_sum_parity(path: PolynomialPath) -> ParityValue:
    """Parity as (-1) to the total multiplicity of interior eigenvalues.

    The local multiplicity at a root equals its multiplicity in the
    determinant polynomial, read off an exact square-free decomposition.
    """
    det = _poly.primitive(path.determinant_polynomial())
    path._nonzero_at_endpoints(lambda lam: _poly.eval_at(det, lam))
    factors = _poly.squarefree_decomposition(det)
    crossings = []
    for factor, mult in factors:
        for r in _poly.isolate_roots(factor, path.a, path.b):
            crossings.append(Crossing(location=r, multiplicity=mult))
    crossings.sort(key=lambda c: c.location.midpoint())
    total = sum(c.multiplicity for c in crossings)
    return ParityValue(sign=(-1) ** total, crossings=tuple(crossings))


def local_parity(curve: MatrixCurveJet) -> ParityValue:
    """Sign of the multiplicity at the base point: (-1) ** multiplicity."""
    report: MultiplicityReport = multiplicity_det(curve)
    if not report.is_finite:
        raise SingularToKnownOrder(
            "local parity requires a finite multiplicity at the base point"
        )
    loc = RootLocation(lo=curve.base_point, hi=curve.base_point, exact=curve.base_point)
    crossings = (
        (Crossing(location=loc, multiplicity=report.value),)
        if report.value > 0
        else ()
    )
    return ParityValue(sign=(-1) ** report.value, crossings=crossings)


def loop_parity(loop: LoopPath) -> ParityValue:
    """Parity of a closed curve: the product over its analytic segments.

    GL connectors contribute +1 and no crossings; their presence is
    flagged on the returned value.
    """
    acc = ParityValue(sign=1, from_connector_abstraction=loop.has_connector)
    for seg in loop.segments:
        if isinstance(seg, AnalyticSegment):
            acc = acc * multiplicity_sum_parity(seg.path)
    return acc
