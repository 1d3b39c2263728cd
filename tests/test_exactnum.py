"""Unit and property tests for the exact jet/Laurent arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curveinv import _linalg, _poly
from curveinv.exactnum import (
    Jet,
    LaurentJet,
    LaurentMatrix,
    NotAUnit,
    jet_det,
    jet_inverse,
)
from curveinv.multiplicity import MatrixCurveJet

F = Fraction
T, ONE, ZERO = (0, 1), (1,), ()


def jet(*coeffs):
    return Jet(tuple(F(c) for c in coeffs))


def agree(a, b):
    """Whether two jets agree through the lower of their known orders."""
    k = min(a.known_order, b.known_order) + 1
    return a.coeffs[:k] == b.coeffs[:k]


def pmat(*rows):
    """Polynomial matrix from rows of ascending coefficient lists."""
    return [[_poly.poly(p) for p in row] for row in rows]


# -- jet multiplication -------------------------------------------------------


def test_mul_difference_of_squares():
    a = jet(1, 1, 0, 0)
    b = jet(1, -1, 0, 0)
    assert (a * b).coeffs == (F(1), F(0), F(-1), F(0))


def test_mul_variable_square():
    t = jet(0, 1, 0)
    assert (t * t).coeffs == (F(0), F(0), F(1))


def test_mul_hand_convolution():
    # (1 + 2t + 3t^2)(4 + 5t) truncated at order 2: 4 + 13t + 22t^2
    a = jet(1, 2, 3)
    b = jet(4, 5, 0)
    assert (a * b).coeffs == (F(4), F(13), F(22))


def test_mul_truncates_to_min_order():
    a = jet(1, 1, 1, 1, 1)
    b = jet(1, 1)
    assert (a * b).known_order == 1


# -- jet inversion ------------------------------------------------------------


def test_inverse_geometric_series():
    assert jet_inverse(jet(1, -1, 0, 0)).coeffs == (F(1), F(1), F(1), F(1))


def test_inverse_constant():
    assert jet_inverse(jet(2, 0)).coeffs == (F(1, 2), F(0))


def test_inverse_of_truncated_unit():
    a = jet(1, 1, 1)
    inv = jet_inverse(a)
    assert inv.coeffs == (F(1), F(-1), F(0))
    assert (a * inv).coeffs == (F(1), F(0), F(0))


def test_inverse_requires_unit():
    with pytest.raises(NotAUnit):
        jet_inverse(jet(0, 1))


def test_inverse_of_an_integer_jet_is_exact():
    inv = jet_inverse(Jet((2, 1, 0)))
    assert inv.coeffs == (F(1, 2), F(-1, 4), F(1, 8))
    assert all(type(c) is F for c in inv.coeffs)
    # 1/3 has no exact float, so a float on the way would show here
    assert jet_inverse(Jet((3, 1))).coeffs == (F(1, 3), F(-1, 9))


def test_jets_keep_their_coefficient_ring():
    a, b = Jet((1, 2, 0)), Jet((3, -1, 5))
    for j in (a * b, a + b, -a, a + (-b), LaurentJet(2, Jet((0, 0, 4))).unit_part):
        assert all(type(c) is int for c in j.coeffs)
    assert (a * Jet((0, 0, 0))).coeffs == (0, 0, 0)
    assert all(type(c) is int for c in (a * Jet((0, 0, 0))).coeffs)
    # one rational coefficient makes the jet rational, a float included
    for j in (Jet((1, F(1, 2))), Jet((1, 0.5)), a * jet(1, 0, 0)):
        assert all(type(c) is F for c in j.coeffs)
    assert Jet((1, 0.5)).coeffs == (F(1), F(1, 2))
    # the zero polynomial is read over Q
    assert Jet.from_polynomial((), 2).coeffs == (F(0),) * 3
    assert all(type(c) is F for c in Jet.from_polynomial((), 2).coeffs)


# -- vanishing order ----------------------------------------------------------


def test_order_of_square():
    assert _poly.low_order(jet(0, 0, 1, 0, 0).coeffs) == 2


def test_order_of_zero_jet_is_undetermined():
    assert _poly.low_order(jet(0, 0, 0, 0).coeffs) is None


def test_order_of_constant():
    assert _poly.low_order(jet(3, 0).coeffs) == 0


# -- jet determinants ----------------------------------------------------------


def test_det_diag():
    assert jet_det(pmat([T, ZERO], [ZERO, T]), 2).coeffs == (F(0), F(0), F(1))


def test_det_identity():
    m = pmat([ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE])
    assert jet_det(m, 2).coeffs == (F(1), F(0), F(0))


def test_det_jordan_block_matches_cofactor_oracle():
    # cofactor oracle by hand: t*t - 1*0 = t^2
    assert jet_det(pmat([T, ONE], [ZERO, T]), 2).coeffs == (F(0), F(0), F(1))


def test_det_empty_matrix_is_one():
    assert jet_det([], 2).coeffs == (F(1), F(0), F(0))


def test_det_matches_sympy_berkowitz_oracle(rng):
    from conftest import random_matrix_polynomial, sympy_poly_matrix, sympy_schur_numerator

    # degrees above the order check that jet_det truncates only after the
    # exact determinant, as the matrix of jets it stands for would
    for dim in range(7):
        for order, degree in ((0, 0), (2, 2), (4, 4), (0, 2), (2, 3)):
            lift = _poly.mat_lift(random_matrix_polynomial(rng, dim, degree))
            grid = sympy_poly_matrix(lift)
            det = list(sympy_schur_numerator(grid, dim)[0])
            det += [F(0)] * (order + 1 - len(det))
            assert jet_det(lift, order).coeffs == tuple(det[: order + 1])
            # the same elimination stopped after each leading block
            for steps in range(dim + 1):
                want = sympy_schur_numerator(grid, steps)
                det_b, s, f = _poly.mat_eliminate(lift, steps)
                if want[0]:
                    schur = [[tuple([f * c for c in p]) for p in row] for row in s]
                    assert (det_b, schur) == want, (dim, degree, steps)
                else:
                    assert (det_b, s, f) == (_poly.ZERO, None, None), (dim, degree, steps)


# -- laurent arithmetic ---------------------------------------------------------


def test_laurent_normal_form():
    x = LaurentJet(2, jet(0, 1, 1))
    assert x.pole_order == 1
    assert x.unit_part.coeffs == (F(1), F(1))


def test_laurent_inverse_roundtrip():
    x = LaurentJet(1, jet(2, 1, 0, 0))
    y = x.inverse()
    prod = x * y
    assert prod.leading_exponent() == 0
    assert prod.unit_part.coeffs[prod.pole_order] == 1
    assert prod.unit_part.coeffs[prod.pole_order + 1] == 0


def test_laurent_inverse_of_zero_raises():
    with pytest.raises(NotAUnit):
        LaurentJet(0, jet(0, 0, 0)).inverse()


# -- algebra laws (property tests) -----------------------------------------------


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def jets_strategy(min_order=0, max_order=5):
    return st.lists(small_fracs, min_size=min_order + 1, max_size=max_order + 1).map(
        lambda cs: Jet(tuple(cs))
    )


@given(jets_strategy(), jets_strategy())
def test_mul_commutative(a, b):
    assert (a * b).coeffs == (b * a).coeffs


@given(jets_strategy(), jets_strategy(), jets_strategy())
def test_mul_associative(a, b, c):
    assert agree((a * b) * c, a * (b * c))


@given(jets_strategy(), jets_strategy(), jets_strategy())
def test_mul_distributes(a, b, c):
    k = min(x.known_order for x in (a, b, c))
    lhs = a * (Jet(b.coeffs[: k + 1]) + Jet(c.coeffs[: k + 1]))
    rhs = (a * b) + (a * c)
    assert agree(lhs, rhs)


@given(jets_strategy().filter(lambda j: j.coeffs[0] != 0))
def test_unit_times_inverse_is_one(a):
    assert (a * jet_inverse(a)).coeffs == Jet.one(a.known_order).coeffs


def _reference_inverse(coeffs):
    """The series inverse by the Fraction recurrence c_k = -(1/a_0) sum a_j c_(k-j)."""
    inv0 = 1 / F(coeffs[0])
    out = [inv0]
    for k in range(1, len(coeffs)):
        s = sum((coeffs[j] * out[k - j] for j in range(1, k + 1)), F(0))
        out.append(-inv0 * s)
    return tuple(out)


_wide_ints = st.integers(min_value=-(2**400), max_value=2**400)
_coefficient_lists = st.one_of(
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    st.lists(small_fracs, min_size=1, max_size=8),
    st.lists(_wide_ints, min_size=1, max_size=40),
    st.lists(
        st.builds(F, _wide_ints, st.integers(1, 2**300)), min_size=1, max_size=40
    ),
)


@settings(deadline=None)
@given(_coefficient_lists.filter(lambda cs: cs[0] != 0))
def test_inverse_matches_the_fraction_recurrence(cs):
    a = Jet(tuple(cs))
    inv = jet_inverse(a)
    assert inv.coeffs == _reference_inverse(a.coeffs)
    assert all(type(c) is F for c in inv.coeffs)
    assert (a * inv).coeffs == Jet.one(a.known_order).coeffs


@given(_coefficient_lists, st.sampled_from([0, F(0)]))
def test_inverse_refuses_a_vanishing_constant_term(cs, zero):
    with pytest.raises(NotAUnit):
        jet_inverse(Jet((zero, *cs)))


@given(jets_strategy(), jets_strategy())
def test_order_additivity(a, b):
    oa, ob = _poly.low_order(a.coeffs), _poly.low_order(b.coeffs)
    if oa is not None and ob is not None:
        total = oa + ob
        if total <= (a * b).known_order:
            assert _poly.low_order((a * b).coeffs) == total


@pytest.mark.parametrize(
    "coeffs", [st.integers(-9, 9), small_fracs], ids=["int", "fraction"]
)
@given(data=st.data())
def test_capped_mul_is_truncated_product(coeffs, data):
    a = tuple(data.draw(st.lists(coeffs, max_size=6)))
    b = tuple(data.draw(st.lists(coeffs, max_size=6)))
    cap = data.draw(st.integers(0, 12))
    product = [
        sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
        for k in range(len(a) + len(b) - 1)
    ]
    while product and product[-1] == 0:
        product.pop()
    assert _poly.mul(a, b) == tuple(product)
    capped = _poly.mul(a, b, cap)
    assert capped == _poly.poly(product[:cap])
    if all(isinstance(c, int) for c in a + b):
        assert all(type(c) is int for c in _poly.mul(a, b) + capped)


# -- matrix products by Kronecker substitution ---------------------------------


def _schoolbook(a, b, cap):
    """The reference product over Fraction, one coefficient pair at a time."""
    m = len(b[0]) if b else 0
    out = []
    for row in a:
        out.append([])
        for j in range(m):
            acc = [F(0)] * 16
            for t, p in enumerate(row):
                for i, x in enumerate(p):
                    for l, y in enumerate(b[t][j]):
                        acc[i + l] += F(x) * y
            out[-1].append(_poly.poly(acc[:cap]))
    return out


BIG = 2**200
kron_coeffs = {
    "int": st.integers(-BIG, BIG),
    "fraction": st.builds(F, st.integers(-BIG, BIG), st.integers(1, 2**64)),
}
kron_coeffs["mixed"] = st.one_of(kron_coeffs["int"], kron_coeffs["fraction"])


@st.composite
def kronecker_operands(draw):
    """``(a, b, cap)``: an n x k and a k x m polynomial matrix, some entries
    zero, and a cap.  Some draws fill every coefficient of an operand with
    one value of the form +-(2^b - 1), so that the products' sums reach the
    width bound of the packing."""
    n, k, m = (draw(st.integers(0, 3)) for _ in range(3))

    def operand(rows, cols):
        if draw(st.booleans()):
            c = draw(st.sampled_from([-1, 1])) * (2 ** draw(st.integers(1, 200)) - 1)
            size = draw(st.integers(1, 4))
            return [[(c,) * size for _ in range(cols)] for _ in range(rows)]
        coeff = kron_coeffs[draw(st.sampled_from(sorted(kron_coeffs)))]
        entry = st.one_of(st.just(()), st.lists(coeff, max_size=4).map(_poly._trim))
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    cap = draw(st.one_of(st.none(), st.sampled_from([0, 1]), st.integers(2, 12)))
    return operand(n, k), operand(k, m), cap


W = 2**64 - 1


@settings(deadline=None, max_examples=300)
@given(kronecker_operands())
# the coefficient 3 * W^2 needs the sign bit of the packing width
@example(([[(W,)] * 3], [[(W,)]] * 3, None))
# the digit -1 borrows from the digit above it
@example(([[(-1, 1)]], [[(1,)]], None))
# n x 0 times 0 x m, and 0 x k times k x m
@example(([[], []], [], None))
@example(([], [[(1,), (2,)]], 2))
def test_mat_mul_is_the_schoolbook_product(operands):
    a, b, cap = operands
    got = _poly.mat_mul(a, b, cap)
    assert [[_poly.poly(p) for p in row] for row in got] == _schoolbook(a, b, cap)
    coeffs = [c for mat in (a, b) for row in mat for p in row for c in p]
    ring = int if all(type(c) is int for c in coeffs) else F
    assert all(type(c) is ring for row in got for p in row for c in p)
    # the rational product is its degree-0 case, over Q whatever the input
    ca, cb = (
        tuple(tuple(F(p[0]) if p else F(0) for p in row) for row in mat)
        for mat in (a, b)
    )
    prod = _linalg.matmul(ca, cb)
    want = _schoolbook([[p[:1] for p in row] for row in a], b, 1)
    assert prod == tuple(tuple(p[0] if p else F(0) for p in row) for row in want)
    assert all(type(c) is F for row in prod for c in row)


# -- elimination over Z at x = 2^w ----------------------------------------------


def _bareiss_over_zx(m, steps):
    """The reference elimination over Z[x]: ``mat_eliminate``'s loop with one
    polynomial product and one exact polynomial division per entry."""
    n = len(m)
    a, d = _poly.to_int_matrix(m)
    sign, prev = 1, (1,)
    for k in range(steps):
        if not a[k][k]:
            for i in range(k + 1, steps):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return _poly.ZERO, None, None
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _poly.sub(_poly.mul(a[i][j], a[k][k]), _poly.mul(a[i][k], a[k][j]))
                a[i][j] = _poly.div_exact(num, prev)
            a[i][k] = ()
        prev = a[k][k]
    det_b = _poly.poly(F(sign * x, d**steps) for x in prev)
    g = math.gcd(*[c for row in a[steps:] for p in row[steps:] for c in p]) or 1
    s = [[tuple([c // g for c in p]) for p in row[steps:]] for row in a[steps:]]
    return det_b, s, F(sign * g, d ** (steps + 1))


@st.composite
def elimination_matrices(draw):
    """An n x n polynomial matrix, n up to 6, of one ring, int, ``Fraction``
    or mixed, with coefficients up to 2^200.  Some rows are zero; some fill
    every coefficient with +-c for one c = 2^b - 1, so that the minors reach
    the packing's width bound; some draws zero the leading column, which
    forces a swap or a singular leading block."""
    n = draw(st.integers(0, 6))
    coeff = kron_coeffs[draw(st.sampled_from(sorted(kron_coeffs)))]
    entry = st.one_of(st.just(()), st.lists(coeff, max_size=4).map(_poly._trim))
    size = draw(st.integers(1, 4))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["drawn", "drawn", "zero", "tight"]))
        if kind == "zero":
            rows.append([()] * n)
        elif kind == "tight":
            c = 2 ** draw(st.integers(1, 200)) - 1
            rows.append([tuple([draw(st.sampled_from([-c, c])) for _ in range(size)])
                         for _ in range(n)])
        else:
            rows.append([draw(entry) for _ in range(n)])
    if n and draw(st.integers(0, 3)) == 0:
        for row in rows:
            row[0] = ()
    return rows


C = 2**200 - 1


@settings(deadline=None)
@given(elimination_matrices())
# the coefficient C needs the sign bit of the packing width
@example([[(C,)]])
# det 2 C^2 reaches the product of the rows' l1 norms, twice their l-inf's
@example([[(C,), (C,)], [(-C,), (C,)]])
# a zero leading column: a swap, then a singular leading block
@example([[(), (1,), ()], [(), (), (1,)], [(1,), (), ()]])
def test_mat_eliminate_is_the_polynomial_bareiss(m):
    for steps in range(len(m) + 1):
        got = _poly.mat_eliminate(m, steps)
        assert got == _bareiss_over_zx(m, steps), steps
        det_b, s, f = got
        assert all(type(c) is F for c in det_b)
        if s is not None:
            assert type(f) is F
            assert all(type(c) is int for row in s for p in row for c in p)


@settings(deadline=None)
@given(st.integers(0, 3), st.data())
def test_det_multiplicative(order, data):
    n = data.draw(st.integers(1, 3))
    def draw_matrix():
        return [
            [
                _poly.poly(data.draw(st.lists(small_fracs, min_size=order + 1,
                                              max_size=order + 1)))
                for _ in range(n)
            ]
            for _ in range(n)
        ]

    a = draw_matrix()
    b = draw_matrix()
    product = _poly.mat_mul(a, b, order + 1)
    assert agree(jet_det(product, order), jet_det(a, order) * jet_det(b, order))


@pytest.mark.parametrize(
    "coeffs", [st.integers(-9, 9), small_fracs], ids=["int", "fraction"]
)
@given(data=st.data())
def test_eval_at_is_rational_horner(coeffs, data):
    p = tuple(data.draw(st.lists(coeffs, max_size=8)))
    x = data.draw(
        st.one_of(
            st.just(F(0)),
            st.integers(-7, 7).map(F),  # denominator 1
            st.fractions(min_value=-3, max_value=3, max_denominator=12),
        )
    )
    want = F(0)
    for c in reversed(p):
        want = want * x + c
    got = _poly.eval_at(p, x)
    assert type(got) is F and got == want


def _fraction_horner(coeffs, x):
    """The reference value of sum_k coeffs[k] x^k, by Horner on Fractions."""
    acc = coeffs[-1]
    for mat in reversed(coeffs[:-1]):
        acc = [[a * x + c for a, c in zip(ra, rm)] for ra, rm in zip(acc, mat)]
    return tuple(tuple(F(c) for c in row) for row in acc)


@st.composite
def coefficient_matrices(draw):
    """1 to 4 square coefficient matrices of one ring, int, ``Fraction`` or
    mixed, with coefficients up to 2^200 and some entries zero."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    coeff = kron_coeffs[draw(st.sampled_from(sorted(kron_coeffs)))]
    entry = st.one_of(st.just(0), coeff)
    return [[[draw(entry) for _ in range(n)] for _ in range(n)] for _ in range(k)]


@settings(deadline=None)
@given(
    coefficient_matrices(),
    st.one_of(
        st.just(F(0)),
        st.fractions(min_value=-9, max_value=F(-1, 9), max_denominator=50),
        st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
    ),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)
# one coefficient matrix, every entry zero
@example([[[0, 0], [0, 0]]], F(-1, 3), F(0))
def test_mat_eval_at_is_fraction_horner(coeffs, x, base):
    got = _poly.mat_eval_at(_poly.mat_lift(coeffs), x)
    assert got == _fraction_horner(coeffs, x)
    assert all(type(c) is F for row in got for c in row)
    # a curve reads its coefficients as powers of lam - base
    curve = MatrixCurveJet(len(coeffs[0]), base, [*coeffs, coeffs[0]])
    assert curve.evaluate(base) == curve.constant_term()
    assert curve.evaluate(base + x) == _fraction_horner(curve.coefficients, x)


# -- integer blocks and one rescale (the Laurent route's block over Z) ---------


@st.composite
def integer_laurent_grids(draw):
    """A k x k grid of integer Laurent jets, some of whose windows are all
    zero (entries that normalize to pole 0, the defective normal form)."""
    k = draw(st.integers(1, 3))
    order = draw(st.integers(0, 4))

    def entry():
        if draw(st.booleans()) and draw(st.booleans()):
            coeffs = [0] * draw(st.integers(1, order + 1))
        else:
            coeffs = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=order + 1))
        return LaurentJet(draw(st.integers(0, 3)), Jet(tuple(coeffs)))

    return k, tuple(tuple(entry() for _ in range(k)) for _ in range(k))


def _scaled(c, x: LaurentJet) -> LaurentJet:
    return LaurentJet(x.pole_order, Jet(tuple(c * e for e in x.unit_part.coeffs)))


@settings(deadline=None)
@given(
    integer_laurent_grids(),
    st.fractions(min_value=-6, max_value=6, max_denominator=7).filter(bool),
)
def test_block_determinant_scales_by_c_to_the_k(block, c):
    k, grid = block
    d = LaurentMatrix(k, grid).det()
    scaled_grid = tuple(tuple(_scaled(c, e) for e in row) for row in grid)
    scaled = LaurentMatrix(k, scaled_grid).det()
    assert all(type(x) is int for x in d.unit_part.coeffs)
    assert scaled.pole_order == d.pole_order
    assert scaled.known_through == d.known_through
    assert scaled.unit_part.coeffs == tuple(c**k * x for x in d.unit_part.coeffs)


@settings(deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_adjugate_keeps_the_ring_of_its_matrix(n, mod_order, data):
    entry = st.lists(st.integers(-4, 4), max_size=3).map(_poly._trim)
    m = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    adj, det = _poly.mat_adjugate_det(m, mod_order)
    entries = [*det, *(c for row in adj for p in row for c in p)]
    # the zero matrix too stays over Z
    assert all(type(c) is int for c in entries)
    for i, row in enumerate(_poly.mat_mul(m, adj, mod_order)):
        for j, p in enumerate(row):
            want = det if i == j else ()
            assert p[:mod_order] == want[:mod_order]
    # the exact divisions hold over Z only: one Fraction is refused, not floored
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    m[i][j] = (*m[i][j], F(1, 2))
    with pytest.raises(TypeError):
        _poly.mat_adjugate_det(m, mod_order)
