"""Unit and property tests for the torsion invariant machinery."""

import math
from itertools import product

import mpmath
import pytest

from curveinv import fixtures, torsion
from curveinv.errors import InternalConsistencyError, PreconditionError
from curveinv.torsion import (
    CutoffTooSmall,
    FlatTorus,
    NonpositiveTime,
    Z2Homomorphism,
    class_from_loops,
    direct_sum_torsion,
    heat_kernel_rn,
    intersection_sign,
    is_orientable,
    theta_sum,
    torsion_invariant,
    torsion_value_set,
    weight_table,
    wiener_weight,
)

GAMMA34 = math.gamma(0.75)
Q = 2.0 ** -0.25  # value of one twisted generator


# -- heat kernel -------------------------------------------------------------


def test_heat_kernel_line_at_coincidence():
    v = heat_kernel_rn(1, 1.0, (0.0,), (0.0,))
    assert abs(v - 1.0 / math.sqrt(4.0 * math.pi)) < 1e-15


def test_heat_kernel_plane_at_coincidence():
    v = heat_kernel_rn(2, 1.0, (0.3, -0.4), (0.3, -0.4))
    assert abs(v - 1.0 / (4.0 * math.pi)) < 1e-15


def test_heat_kernel_symmetry():
    x, y = (0.1, 2.0, -1.5), (0.7, 0.0, 3.25)
    assert heat_kernel_rn(3, 0.7, x, y) == heat_kernel_rn(3, 0.7, y, x)


@pytest.mark.parametrize("time", [0.0, -1.0, math.nan, math.inf])
def test_heat_kernel_rejects_nonpositive_time(time):
    with pytest.raises(NonpositiveTime):
        heat_kernel_rn(1, time, (0.0,), (0.0,))
    with pytest.raises(NonpositiveTime):
        FlatTorus(1, time=time)


@pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf])
def test_torus_rejects_nonpositive_or_nonfinite_period(period):
    with pytest.raises(ValueError):
        FlatTorus(1, period=period)


@pytest.mark.parametrize("period", [1e-10, 0.05])
def test_torsion_raises_when_tail_bound_cannot_be_certified(period):
    torus = FlatTorus(1, period=period)
    with pytest.raises(CutoffTooSmall):
        torsion_invariant(torus, Z2Homomorphism((-1,)))
    with pytest.raises(CutoffTooSmall):
        weight_table(torus, 1)
    with pytest.raises(CutoffTooSmall):
        wiener_weight(torus, (0,))


def test_lattice_sum_overflow_is_a_precondition():
    # plain ** n leaves float range from about n = 8560 at the default period
    assert 0 < weight_table(FlatTorus(8500), 0).entries[0][1] < 1
    for torus in (FlatTorus(9000), FlatTorus(300, period=0.3)):
        with pytest.raises(PreconditionError):
            weight_table(torus, 0)
        with pytest.raises(PreconditionError):
            wiener_weight(torus, (0,) * torus.n)


def test_twisted_class_is_refused_where_the_alternating_sum_cancels():
    # a twisted factor is about 2 exp(-pi^2 / (4 decay)) > 0, far below the
    # rounding of the sums at these periods, where the computed alternating
    # sum reads <= 0: -1.5e-19 and -7.3e-17
    for period, cutoff in ((1e-5, 10**12), (0.025, 10**6)):
        torus = FlatTorus(1, period=period)
        with pytest.raises(torsion.CancelledToRounding, match="cancelled to"):
            torsion_invariant(torus, Z2Homomorphism((-1,)), cutoff)
    assert issubclass(torsion.CancelledToRounding, PreconditionError)
    # the trivial class reads no alternating sum
    assert torsion_invariant(torus, Z2Homomorphism((1,)), cutoff).value == 1.0


def test_lattice_sums_refuse_only_a_loop_past_the_term_limit(monkeypatch):
    # the terms decrease in |m|, so the loop runs past MAX_TERMS exactly when
    # the cutoff does and the term at MAX_TERMS is nonzero: 2 exp(-0.0745 *
    # 100^2) is 1e-323, 2 exp(-0.0746 * 100^2) underflows (its m = 99 does not)
    kept = [(decay, c) for decay in (0.0746, 1.0) for c in (101, 10**12, 10**200)]
    kept.append((1e-3, 100))
    before = [torsion._lattice_sums(*args) for args in kept]
    monkeypatch.setattr(torsion, "MAX_TERMS", 100)
    for decay in (1e-3, 0.0745):
        with pytest.raises(PreconditionError, match="term limit of 100 terms"):
            torsion._lattice_sums(decay, 101)
    assert [torsion._lattice_sums(*args) for args in kept] == before


def test_heat_prefactor_overflow_is_a_precondition():
    # (4 pi t) ** (-n/2) alone leaves float range: the power raises
    with pytest.raises(PreconditionError, match="heat-kernel normalization"):
        weight_table(FlatTorus(800, time=0.01), 0)


def test_heat_normalization_overflow_to_inf_is_a_precondition():
    # a finite prefactor times a finite lattice sum rounds to inf silently
    torus = FlatTorus(600, period=0.3, time=0.05)
    assert wiener_weight(torus, (0,) * torus.n) > 0
    with pytest.raises(PreconditionError, match="heat-kernel normalization"):
        weight_table(torus, 0)


# -- theta sums ---------------------------------------------------------------


def test_plain_theta_identity():
    s = theta_sum(alternating=False, cutoff=12)
    assert abs(s.value - math.pi ** 0.25 / GAMMA34) < 1e-12


def test_alternating_theta_identity():
    s = theta_sum(alternating=True, cutoff=12)
    assert abs(s.value - (math.pi / 2.0) ** 0.25 / GAMMA34) < 1e-12


def test_theta_ratio_is_quarter_root_of_half():
    plain = theta_sum(False, 12).value
    alt = theta_sum(True, 12).value
    assert abs(alt / plain - Q) < 1e-12


def test_theta_against_mpmath_oracle():
    mpmath.mp.dps = 40
    q = mpmath.exp(-mpmath.pi)
    theta3 = mpmath.jtheta(3, 0, q)
    theta4 = mpmath.jtheta(4, 0, q)
    assert abs(theta_sum(False, 12).value - float(theta3)) < 1e-14
    assert abs(theta_sum(True, 12).value - float(theta4)) < 1e-14


def test_theta_tail_bound_is_rigorous():
    # increasing the cutoff moves the value by less than the claimed tail
    for alternating in (False, True):
        short = theta_sum(alternating, 3)
        long = theta_sum(alternating, 30)
        assert abs(long.value - short.value) <= short.tail_bound


# -- wiener weights -------------------------------------------------------------


def test_weight_of_the_trivial_class():
    w = wiener_weight(FlatTorus(1), (0,))
    assert abs(w - GAMMA34 / math.pi ** 0.25) < 1e-12


def test_weight_of_the_first_class():
    w0 = wiener_weight(FlatTorus(1), (0,))
    w1 = wiener_weight(FlatTorus(1), (1,))
    assert abs(w1 - w0 * math.exp(-math.pi)) < 1e-15


def test_weights_are_positive_and_normalized():
    torus = FlatTorus(1)
    total = sum(wiener_weight(torus, (m,)) for m in range(-12, 13))
    assert abs(total - 1.0) < 1e-12
    assert all(wiener_weight(torus, (m,)) > 0 for m in range(-11, 12))


def test_weight_table_matches_pointwise_weights():
    torus = FlatTorus(2)
    table = weight_table(torus, max_class=1)
    for cls_, w in table.entries:
        assert w == wiener_weight(torus, cls_)
    assert len(table.entries) == 9


def test_huge_cutoff_stops_at_the_first_vanishing_term(monkeypatch):
    # every term past the first one that underflows to 0.0 is 0.0 as well
    torus, zeta = FlatTorus(1), Z2Homomorphism((-1,))
    want = torsion_invariant(torus, zeta)
    calls = []
    exp = math.exp

    def bounded_exp(x):
        calls.append(x)
        if len(calls) > 200:
            raise AssertionError("the lattice sums ran past their underflow")
        return exp(x)

    monkeypatch.setattr(math, "exp", bounded_exp)
    report = torsion_invariant(torus, zeta, cutoff=10**8)
    assert report.value == want.value


@pytest.mark.parametrize("n", [1, 2])
def test_weights_at_an_infinite_decay_are_finite(n):
    # the decay period^2 / (4 time) overflows to inf; the trivial class
    # weighs 1 / plain^n = 1, the others exp(-inf) = 0
    torus = FlatTorus(n, period=1e200)
    assert torus.decay == math.inf
    zero = (0,) * n
    assert wiener_weight(torus, zero) == 1.0
    assert wiener_weight(torus, (1,) + zero[1:]) == 0.0
    entries = dict(weight_table(torus, 1).entries)
    assert entries.pop(zero) == 1.0
    assert set(entries.values()) == {0.0}


def test_weight_cutoff_guard():
    with pytest.raises(CutoffTooSmall):
        wiener_weight(FlatTorus(1), (13,), cutoff=12)


def test_weight_normalization_constant_is_closed_heat_kernel():
    # the normalizer is the truncated heat kernel of the torus at the base point
    torus = FlatTorus(1)
    table = weight_table(torus, max_class=1)
    direct = sum(
        heat_kernel_rn(1, 1.0, (0.0,), (torus.period * m,)) for m in range(-12, 13)
    )
    assert abs(table.normalization - direct) < 1e-15


# -- intersection signs ------------------------------------------------------------


def test_trivial_class_sign_is_one():
    zeta = Z2Homomorphism.trivial(3)
    assert intersection_sign(zeta, (5, -2, 7)) == 1


def test_twisted_circle_signs():
    zeta = Z2Homomorphism((-1,))
    assert [intersection_sign(zeta, (n,)) for n in range(-2, 4)] == [
        1, -1, 1, -1, 1, -1,
    ]


def test_componentwise_sign_product():
    zeta = Z2Homomorphism((-1, 1))
    assert intersection_sign(zeta, (1, 1)) == -1


# -- torsion invariant ----------------------------------------------------------------


def test_circle_trivial_class_is_exactly_one():
    report = torsion_invariant(FlatTorus(1), Z2Homomorphism((1,)))
    assert report.value == 1.0 and report.error_bound == 0.0


def test_circle_twisted_class():
    report = torsion_invariant(FlatTorus(1), Z2Homomorphism((-1,)))
    assert abs(report.value - Q) < 1e-12
    assert report.error_bound < 1e-12


def test_torus_two_dim_values():
    torus = FlatTorus(2)
    assert abs(torsion_invariant(torus, Z2Homomorphism((-1, -1))).value
               - 1.0 / math.sqrt(2.0)) < 1e-12
    assert abs(torsion_invariant(torus, Z2Homomorphism((-1, 1))).value - Q) < 1e-12


def test_torus_three_dim_fully_twisted():
    torus = FlatTorus(3)
    v = torsion_invariant(torus, Z2Homomorphism((-1, -1, -1))).value
    assert abs(v - 8.0 ** -0.25) < 1e-12


def test_value_sets_up_to_three():
    assert len(torsion_value_set(FlatTorus(1))) == 2
    for n in (1, 2, 3):
        values = torsion_value_set(FlatTorus(n))
        expected = sorted((Q ** m for m in range(n + 1)), reverse=True)
        assert len(values) == n + 1
        for got, want in zip(values, expected):
            assert abs(got - want) < 1e-12


def test_value_set_evaluates_one_class_per_twisted_count(monkeypatch):
    n = 6
    every = {
        torsion_invariant(FlatTorus(n), Z2Homomorphism(signs)).value
        for signs in product((1, -1), repeat=n)
    }
    counts = []
    real = torsion.torsion_invariant

    def spy(torus, zeta, cutoff):
        counts.append(zeta.signs.count(-1))
        return real(torus, zeta, cutoff)

    monkeypatch.setattr(torsion, "torsion_invariant", spy)
    assert torsion_value_set(FlatTorus(n)) == tuple(sorted(every, reverse=True))
    assert sorted(counts) == list(range(n + 1))
    # at an infinite decay every value is 1, and the set keeps one
    assert torsion_value_set(FlatTorus(2, period=1e200)) == (1.0,)


def test_value_set_builds_no_unit_box(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the value set built unit-box contributions")

    monkeypatch.setattr(torsion, "_unit_box_contributions", refuse)
    values = torsion_value_set(FlatTorus(8))
    assert len(values) == 9
    for m, v in enumerate(values):
        assert abs(v - Q**m) < 1e-12


def test_unit_box_is_built_on_first_read(monkeypatch):
    built = []
    real = torsion._unit_box_contributions

    def spy(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(torsion, "_unit_box_contributions", spy)
    report = torsion_invariant(FlatTorus(8), Z2Homomorphism((-1,) + (1,) * 7))
    assert is_orientable(Z2Homomorphism((1,) * 8)).orientable
    assert built == []
    assert len(report.contributions) == 3**8
    assert report.contributions is report.contributions
    assert len(built) == 1


def test_torsion_value_in_unit_interval():
    for n in range(1, 7):
        torus = FlatTorus(n)
        for signs in product((1, -1), repeat=n):
            v = torsion_invariant(torus, Z2Homomorphism(signs)).value
            assert -1.0 <= v <= 1.0
            assert (v == 1.0) == all(s == 1 for s in signs)


def test_separability_over_coordinates():
    torus = FlatTorus(4)
    circle = FlatTorus(1)
    for signs in product((1, -1), repeat=4):
        joint = torsion_invariant(torus, Z2Homomorphism(signs)).value
        split = 1.0
        for s in signs:
            split *= torsion_invariant(circle, Z2Homomorphism((s,))).value
        assert abs(joint - split) < 1e-12


def test_contribution_table_is_unit_box():
    report = torsion_invariant(FlatTorus(2), Z2Homomorphism((-1, 1)))
    assert len(report.contributions) == 9
    total_weight = sum(c.weight for c in report.contributions)
    assert 0 < total_weight < 1.0 + 1e-12
    for c in report.contributions:
        assert c.sign == intersection_sign(Z2Homomorphism((-1, 1)), c.deck_class)
    # beyond eight generators the 3^n box is not built, and says so
    report = torsion_invariant(FlatTorus(9), Z2Homomorphism((-1,) + (1,) * 8))
    assert report.contributions is None
    assert abs(report.value - Q) < 1e-12


def test_general_period_still_normalizes():
    torus = FlatTorus(1, period=3.0, time=0.5)
    total = sum(wiener_weight(torus, (m,)) for m in range(-12, 13))
    assert abs(total - 1.0) < 1e-12
    v = torsion_invariant(torus, Z2Homomorphism((-1,))).value
    assert 0.0 < v < 1.0


def test_determinism_bit_identical():
    a = torsion_invariant(FlatTorus(3), Z2Homomorphism((-1, 1, -1)), cutoff=12)
    b = torsion_invariant(FlatTorus(3), Z2Homomorphism((-1, 1, -1)), cutoff=12)
    assert a.value == b.value and a.error_bound == b.error_bound


# -- direct sums -------------------------------------------------------------------


def test_twisted_plus_twisted_is_trivial():
    z = Z2Homomorphism((-1,))
    report = direct_sum_torsion(z, z, FlatTorus(1))
    assert report.value == 1.0


def test_direct_sum_on_torus_row():
    report = direct_sum_torsion(
        Z2Homomorphism((-1, 1)), Z2Homomorphism((1, -1)), FlatTorus(2)
    )
    assert abs(report.value - 1.0 / math.sqrt(2.0)) < 1e-12


def test_direct_sum_with_trivial_is_identity():
    z = Z2Homomorphism((-1, 1, -1))
    torus = FlatTorus(3)
    lhs = direct_sum_torsion(z, Z2Homomorphism.trivial(3), torus)
    rhs = torsion_invariant(torus, z)
    assert lhs.value == rhs.value


def test_direct_sum_equals_product_homomorphism():
    torus = FlatTorus(3)
    for s1 in product((1, -1), repeat=3):
        for s2 in product((1, -1), repeat=3):
            z1, z2 = Z2Homomorphism(s1), Z2Homomorphism(s2)
            lhs = direct_sum_torsion(z1, z2, torus).value
            rhs = torsion_invariant(torus, z1.product(z2)).value
            assert abs(lhs - rhs) < 1e-12


# -- orientability --------------------------------------------------------------------


def test_orientable_trivial_class():
    report = is_orientable(Z2Homomorphism((1, 1)))
    assert report.orientable and report.torsion_value == 1.0


def test_nonorientable_twisted_circle():
    report = is_orientable(Z2Homomorphism((-1,)))
    assert not report.orientable
    assert abs(report.torsion_value - Q) < 1e-12


def test_nonorientable_single_negative():
    assert not is_orientable(Z2Homomorphism((1, -1, 1))).orientable


@pytest.mark.parametrize(
    "signs, period, tol",
    [
        ((-1,), 11.0, 1e-12),
        ((-1,), 1e200, 1e-12),
        ((-1, 1), 12.0, 1e-9),
        ((1,), 11.0, 1e-12),
    ],
)
def test_orientability_is_refused_where_twisted_values_reach_one(signs, period, tol):
    # at decay c = period^2/4 every twisted class has 1 - value >= 4 e^-c / plain,
    # which is within tol here: the torsion criterion cannot tell the classes apart
    zeta = Z2Homomorphism(signs)
    with pytest.raises(PreconditionError, match="cannot decide orientability"):
        is_orientable(zeta, FlatTorus(len(signs), period=period), tol=tol)


def test_orientability_disagreement_is_still_a_bug(monkeypatch):
    real = torsion.torsion_invariant

    def wrong(torus, zeta, cutoff):
        report = real(torus, zeta, cutoff)
        return torsion.TorsionReport(1.0, report.cutoff, 0.0, report.signs, torus)

    monkeypatch.setattr(torsion, "torsion_invariant", wrong)
    with pytest.raises(InternalConsistencyError):
        is_orientable(Z2Homomorphism((-1,)))


def test_orientability_equivalence_exhaustive():
    for n in range(1, 7):
        for signs in product((1, -1), repeat=n):
            report = is_orientable(Z2Homomorphism(signs))
            assert report.orientable == all(s == 1 for s in signs)
            assert report.orientable == (abs(report.torsion_value - 1.0) < 1e-9)


# -- loops to classes -------------------------------------------------------------------


def test_class_from_twisted_loop():
    zeta = class_from_loops([fixtures.twisted_loop()])
    assert zeta.signs == (-1,)


def test_class_from_constant_loop():
    zeta = class_from_loops([fixtures.constant_loop()])
    assert zeta.signs == (1,)


def test_class_from_mixed_generators():
    zeta = class_from_loops([fixtures.twisted_loop(), fixtures.constant_loop()])
    assert zeta.signs == (-1, 1)


def test_stable_class_invariance_two_presentations():
    # different loop presentations of the same class give the identical value
    from fractions import Fraction

    from curveinv.parity import AnalyticSegment, GlConnector, LoopPath, PolynomialPath

    other_crossing = PolynomialPath(
        2,
        Fraction(0),
        Fraction(1),
        (
            ((Fraction(-1, 2), Fraction(0)), (Fraction(0), Fraction(1))),
            ((Fraction(3), Fraction(0)), (Fraction(0), Fraction(0))),
        ),
    )  # diag(3 lam - 1/2, 1): one simple crossing at 1/6
    first = class_from_loops([fixtures.twisted_loop()])
    second = class_from_loops(
        [LoopPath((AnalyticSegment(other_crossing), GlConnector()))]
    )
    assert first.signs == second.signs == (-1,)
    third = class_from_loops([fixtures.forward_backward_loop()])
    trivial = class_from_loops([fixtures.constant_loop()])
    torus = FlatTorus(1)
    assert (
        torsion_invariant(torus, first).value
        == torsion_invariant(torus, second).value
    )
    assert (
        torsion_invariant(torus, third).value
        == torsion_invariant(torus, trivial).value
    )
