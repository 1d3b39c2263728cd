"""Global torsion invariant of bundle classes over flat tori.

Over the circle and flat tori, a stable class of real line bundles is
faithfully encoded by its sign homomorphism on the deck group: the value
-1 on a generator means the bundle twists along that loop.  The torsion
invariant averages those signs with heat-kernel weights on the loop-space
path components; on the standard torus (period 2*sqrt(pi), unit time) the
weights are Gaussian lattice sums and the invariant factors coordinate by
coordinate into theta-quotients, giving the closed-form value
(2 ** -0.25) ** (number of twisted generators).

This is the only module touching floating point, and only for the
transcendental constants; everything carries an explicit truncation tail
bound.  All lattice sums run in a fixed ascending order, so identical
inputs give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import TYPE_CHECKING, Sequence

from .errors import InternalConsistencyError, PreconditionError

if TYPE_CHECKING:
    from .parity import LoopPath

DEFAULT_PERIOD = 2.0 * math.sqrt(math.pi)
DEFAULT_CUTOFF = 12
MAX_TERMS = 10**7  # the most terms one lattice sum may add


class NonpositiveTime(PreconditionError):
    """Heat kernels require strictly positive time."""


class CutoffTooSmall(PreconditionError):
    """The lattice cutoff does not cover the requested deck class."""


class CancelledToRounding(PreconditionError):
    """The alternating lattice sum cancelled to rounding noise: a twisted
    factor lies in (0, 1], and a computed sum <= 0 determines none."""


@dataclass(frozen=True)
class FlatTorus:
    """Flat n-torus with a common period in every coordinate.

    The deck group of the universal cover is the integer lattice acting by
    translations of ``period``; ``time`` is the heat-kernel time.  The
    defaults reproduce the normalization in which the plain Gaussian
    lattice sum is a classical theta value.
    """

    n: int
    period: float = DEFAULT_PERIOD
    time: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("torus dimension must be at least 1")
        if not (math.isfinite(self.period) and self.period > 0):
            raise ValueError("period must be finite and positive")
        _check_time(self.time)

    @property
    def decay(self) -> float:
        """Exponent coefficient: weight of class m is exp(-decay * |m|^2)."""
        return self.period * self.period / (4.0 * self.time)


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t > 0):
        raise NonpositiveTime("heat-kernel time must be finite and positive")


def heat_kernel_rn(n: int, t: float, x: Sequence[float], y: Sequence[float]) -> float:
    """Gaussian heat kernel of flat n-space; symmetric in x and y."""
    _check_time(t)
    if len(x) != n or len(y) != n:
        raise ValueError("points must have length n")
    d2 = sum((a - b) * (a - b) for a, b in zip(x, y))
    return (4.0 * math.pi * t) ** (-n / 2.0) * math.exp(-d2 / (4.0 * t))


def _lattice_sums(decay: float, cutoff: int) -> tuple:
    """The plain and alternating sums over |m| <= cutoff of (+-1)^m
    exp(-decay m^2), and a rigorous (geometric) bound on the omitted tail
    of either.

    Both run in one ascending loop over |m|, which stops at the first term
    that underflows to 0.0: the terms decrease in |m|, so every later one
    is 0.0 too.  A cutoff beyond 10**150 is bounded as 10**150: the tail
    past a smaller cutoff bounds the tail past a larger one, and
    (10**150)**2 still converts to a float.  Refuses a cutoff past
    ``MAX_TERMS`` where the term at ``MAX_TERMS`` is still nonzero, as the
    loop would then run past it (for days at a small decay), and a tail
    bound at least as large as the plain sum: every quotient by that sum
    would then carry an unbounded error.
    """
    bounded = min(cutoff, 10**150)
    head = 2.0 * math.exp(-decay * (bounded + 1) ** 2)
    ratio = math.exp(-decay * (2 * bounded + 3))
    if ratio >= 1.0:
        raise CutoffTooSmall(
            "the lattice terms decay too slowly to bound the tail at this cutoff"
        )
    if cutoff > MAX_TERMS and 2.0 * math.exp(-decay * MAX_TERMS * MAX_TERMS) != 0.0:
        raise PreconditionError(
            f"the lattice sum would run past the term limit of {MAX_TERMS} terms "
            "at this period; lower the cutoff or raise the period"
        )
    tail = head / (1.0 - ratio)
    plain = alternating = 1.0
    for m in range(1, cutoff + 1):
        term = 2.0 * math.exp(-decay * m * m)
        if term == 0.0:
            break
        plain += term
        alternating += -term if m % 2 == 1 else term
    if tail >= plain:
        raise CutoffTooSmall(
            "the tail bound exceeds the truncated sum; no error bound can be certified"
        )
    return plain, alternating, tail


def _torus_sum(plain: float, torus: FlatTorus) -> float:
    """plain ** n, the truncated lattice sum of the n-torus (it factors by
    coordinate); refused when it overflows a float."""
    try:
        return plain**torus.n
    except OverflowError:
        raise PreconditionError(
            f"the lattice sum of the {torus.n}-torus at period {torus.period!r} "
            "overflows a float"
        ) from None


def _heat_normalization(power: float, torus: FlatTorus) -> float:
    """(4 pi t) ** (-n/2) * power, the heat kernel's lattice normalization;
    refused when it overflows a float."""
    try:
        value = (4.0 * math.pi * torus.time) ** (-torus.n / 2.0) * power
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise PreconditionError(
            f"the heat-kernel normalization of the {torus.n}-torus at period "
            f"{torus.period!r} and time {torus.time!r} overflows a float"
        )
    return value


@dataclass(frozen=True)
class ThetaSum:
    value: float
    tail_bound: float
    cutoff: int
    alternating: bool


def theta_sum(alternating: bool, cutoff: int = DEFAULT_CUTOFF) -> ThetaSum:
    """Truncated Gaussian lattice sum at the classical nome exp(-pi).

    The plain sum converges to pi^(1/4) / Gamma(3/4), the alternating one
    to (pi/2)^(1/4) / Gamma(3/4); at the default cutoff the tail is far
    below double precision.
    """
    if cutoff < 1:
        raise CutoffTooSmall("cutoff must be at least 1")
    plain, alt, tail = _lattice_sums(math.pi, cutoff)
    return ThetaSum(
        value=alt if alternating else plain,
        tail_bound=tail,
        cutoff=cutoff,
        alternating=alternating,
    )


@dataclass(frozen=True)
class Z2Homomorphism:
    """Sign homomorphism from the deck group, one sign per generator.

    The value on a lattice word (m_1, ..., m_n) is the product of the
    generator signs raised to the word exponents; this is exactly the data
    of a line-bundle class over the n-torus.
    """

    signs: tuple

    def __post_init__(self):
        signs = tuple(int(s) for s in self.signs)
        if not signs:
            raise ValueError("need at least one generator sign")
        if any(s not in (1, -1) for s in signs):
            raise ValueError("generator signs must be +1 or -1")
        object.__setattr__(self, "signs", signs)

    @property
    def n(self) -> int:
        return len(self.signs)

    @classmethod
    def trivial(cls, n: int) -> "Z2Homomorphism":
        return cls(tuple(1 for _ in range(n)))

    def is_trivial(self) -> bool:
        return all(s == 1 for s in self.signs)

    def product(self, other: "Z2Homomorphism") -> "Z2Homomorphism":
        if self.n != other.n:
            raise ValueError("homomorphisms must have the same rank")
        return Z2Homomorphism(tuple(a * b for a, b in zip(self.signs, other.signs)))

    def sign_on(self, word: Sequence[int]) -> int:
        if len(word) != self.n:
            raise ValueError("word length must match the number of generators")
        out = 1
        for s, m in zip(self.signs, word):
            if s == -1 and m % 2 != 0:
                out = -out
        return out


def intersection_sign(zeta: Z2Homomorphism, word: Sequence[int]) -> int:
    """Twisting sign of the class along the loop with the given word."""
    return zeta.sign_on(word)


def _class_weight(decay: float, word: tuple, power: float) -> float:
    """exp(-decay |m|^2) / power; the class m = 0 weighs 1 / power at every
    decay, an infinite one included (where exp(-inf * 0) would be nan)."""
    norm2 = sum(m * m for m in word)
    return (math.exp(-decay * norm2) if norm2 else 1.0) / power


def wiener_weight(
    torus: FlatTorus, deck_class: Sequence[int], cutoff: int = DEFAULT_CUTOFF
) -> float:
    """Normalized loop-space mass of one deck class.

    The heat-kernel normalization cancels in the quotient, leaving a
    Gaussian lattice weight; the denominator is truncated at the cutoff.
    """
    word = tuple(int(m) for m in deck_class)
    if len(word) != torus.n:
        raise ValueError("deck class length must match the torus dimension")
    if cutoff < max((abs(m) for m in word), default=0):
        raise CutoffTooSmall(
            "cutoff must cover the largest index of the requested deck class"
        )
    plain, _, _ = _lattice_sums(torus.decay, cutoff)
    return _class_weight(torus.decay, word, _torus_sum(plain, torus))


@dataclass(frozen=True)
class WienerWeights:
    """Weight table over a box of deck classes, with its tail data."""

    torus: FlatTorus
    cutoff: int
    entries: tuple           # ((class tuple, weight), ...) deterministic order
    normalization: float     # truncated closed-manifold heat kernel at the base point
    tail_bound: float        # tail of the one-dimensional denominator sum


def weight_table(
    torus: FlatTorus, max_class: int, cutoff: int = DEFAULT_CUTOFF
) -> WienerWeights:
    """Weights of every deck class in the box max |m_i| <= max_class."""
    if max_class < 0:
        raise ValueError("max_class must be non-negative")
    if cutoff < max_class:
        raise CutoffTooSmall("cutoff must cover the largest class index")
    one_dim, _, tail = _lattice_sums(torus.decay, cutoff)
    classes = sorted(
        product(range(-max_class, max_class + 1), repeat=torus.n),
        key=lambda w: (sum(m * m for m in w), w),
    )
    power = _torus_sum(one_dim, torus)
    entries = tuple((w, _class_weight(torus.decay, w, power)) for w in classes)
    return WienerWeights(
        torus=torus,
        cutoff=cutoff,
        entries=entries,
        normalization=_heat_normalization(power, torus),
        tail_bound=tail,
    )


@dataclass(frozen=True)
class ClassContribution:
    deck_class: tuple
    sign: int
    weight: float


@dataclass(frozen=True)
class TorsionReport:
    """Torsion invariant with its truncation error bound.

    The value always lies in [-1, 1]; it equals 1 exactly when every
    generator sign is +1 (computed symbolically, no truncation at all).
    ``contributions`` lists the signed weights of the 3^n deck classes in
    the unit box, for inspection; it is built on first access, and is None
    for n > 8, where the box is not built.
    """

    value: float
    cutoff: int
    error_bound: float
    signs: tuple
    torus: FlatTorus = field(compare=False, repr=False)

    @cached_property
    def contributions(self) -> tuple | None:
        return _unit_box_contributions(
            self.torus, Z2Homomorphism(self.signs), self.cutoff
        )

    def __str__(self) -> str:
        return f"{self.value!r} (+/- {self.error_bound:.3e})"


def torsion_invariant(
    torus: FlatTorus,
    zeta: Z2Homomorphism,
    cutoff: int = DEFAULT_CUTOFF,
) -> TorsionReport:
    """Heat-kernel weighted average of the twisting signs.

    The sum over the deck group separates into one factor per coordinate:
    a trivial generator contributes 1, a twisted one the quotient of the
    alternating by the plain Gaussian sum.  The error bound follows the
    truncation tails through the quotient and the product.  A period whose
    tail cannot be certified is refused for every class, the trivial one
    included.  A twisted class is refused where the computed alternating
    sum is <= 0: the true one is positive (a Jacobi theta value), and the
    bound, which ignores rounding, would claim the wrong sign exact.
    """
    if zeta.n != torus.n:
        raise ValueError("homomorphism rank must match the torus dimension")
    if cutoff < 1:
        raise CutoffTooSmall("cutoff must be at least 1")
    plain, alt, tail = _lattice_sums(torus.decay, cutoff)
    if zeta.is_trivial():
        return TorsionReport(
            value=1.0,
            cutoff=cutoff,
            error_bound=0.0,
            signs=zeta.signs,
            torus=torus,
        )
    if alt <= 0.0:
        raise CancelledToRounding(
            f"the alternating lattice sum at period {torus.period!r} cancelled to "
            f"rounding ({alt!r}), so no twisted factor in (0, 1] can be computed"
        )
    ratio = alt / plain
    # |true ratio - ratio| <= tail*(plain + |alt|) / (plain*(plain - tail))
    ratio_err = tail * (plain + abs(alt)) / (plain * (plain - tail))
    twisted = zeta.signs.count(-1)
    value = 1.0
    for _ in range(twisted):
        value *= ratio
    # each factor lies in (0, 1], so first-order error accumulation suffices
    error = twisted * ratio_err
    return TorsionReport(
        value=value,
        cutoff=cutoff,
        error_bound=error,
        signs=zeta.signs,
        torus=torus,
    )


def _unit_box_contributions(torus, zeta, cutoff):
    if torus.n > 8:
        return None
    return tuple(
        ClassContribution(deck_class=w, sign=zeta.sign_on(w), weight=weight)
        for w, weight in weight_table(torus, 1, cutoff).entries
    )


def torsion_value_set(torus: FlatTorus, cutoff: int = DEFAULT_CUTOFF) -> tuple:
    """All torsion values over the 2^n sign homomorphisms, deduplicated.

    On a common-period torus the value depends only on the number of
    twisted generators, so one class per count 0..n gives them all.
    """
    values = {
        torsion_invariant(
            torus, Z2Homomorphism((-1,) * k + (1,) * (torus.n - k)), cutoff
        ).value
        for k in range(torus.n + 1)
    }
    return tuple(sorted(values, reverse=True))


def direct_sum_torsion(
    zeta1: Z2Homomorphism,
    zeta2: Z2Homomorphism,
    torus: FlatTorus,
    cutoff: int = DEFAULT_CUTOFF,
) -> TorsionReport:
    """Torsion of a direct sum of classes.

    The twisting sign of a sum is the product of the summand signs on each
    loop, so the invariant is that of the pointwise product homomorphism.
    """
    return torsion_invariant(torus, zeta1.product(zeta2), cutoff)


@dataclass(frozen=True)
class OrientabilityReport:
    orientable: bool
    torsion_value: float
    error_bound: float


def is_orientable(
    zeta: Z2Homomorphism,
    torus: FlatTorus | None = None,
    cutoff: int = DEFAULT_CUTOFF,
    tol: float = 1e-9,
) -> OrientabilityReport:
    """Orientability of the class, cross-checked against the invariant.

    A class is orientable exactly when every twisting sign is +1, which is
    in turn equivalent to torsion value 1; both criteria are evaluated and
    must agree.  Every twisted class has ``1 - value >= 4 exp(-c) / plain``
    (the ``m = +-1`` terms of the alternating sum), so where that gap is
    within ``tol`` plus the error bound the torsion criterion cannot
    decide, and the period is refused.
    """
    if torus is None:
        torus = FlatTorus(zeta.n)
    report = torsion_invariant(torus, zeta, cutoff)
    plain, _, _ = _lattice_sums(torus.decay, cutoff)
    gap = 4.0 * math.exp(-torus.decay) / plain
    if gap <= tol + report.error_bound:
        raise PreconditionError(
            f"at period {torus.period!r} a twisted class's torsion value can lie "
            f"within {tol!r} of 1 (error bound included); the torsion criterion "
            "cannot decide orientability"
        )
    orientable = zeta.is_trivial()
    if orientable != (abs(report.value - 1.0) < tol):
        raise InternalConsistencyError(
            "sign criterion and torsion criterion for orientability disagree"
        )
    return OrientabilityReport(
        orientable=orientable,
        torsion_value=report.value,
        error_bound=report.error_bound,
    )


def class_from_loops(generator_loops: Sequence[LoopPath]) -> Z2Homomorphism:
    """Bundle class read off representative loops, one per generator.

    The sign on generator i is the parity of the i-th loop; this is the
    bridge from explicit operator loops to the sign-homomorphism encoding.
    """
    from .parity import loop_parity

    if not generator_loops:
        raise ValueError("need at least one generator loop")
    return Z2Homomorphism(tuple(loop_parity(lp).sign for lp in generator_loops))
