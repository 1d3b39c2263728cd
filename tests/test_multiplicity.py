"""Unit and property tests for the multiplicity routes."""

import random
from fractions import Fraction

import pytest

from conftest import (
    curve_with_known_multiplicity,
    matrix_with_rational_spectrum,
    random_invertible,
    random_rank_one_projection,
    sympy_poly_matrix,
    sympy_schur_numerator,
)
from curveinv import _linalg, _poly, fixtures
from curveinv.exactnum import Jet, SingularToKnownOrder
from curveinv.multiplicity import (
    InvalidProjectionPair,
    MatrixCurveJet,
    NotTransversal,
    PhiNotNormalized,
    ProjectionPair,
    TransversalityCertificate,
    _schur_numerator,
    algebraic_order,
    classical_multiplicity,
    is_kappa_transversal,
    local_determinant,
    multiplicity_det,
    multiplicity_laurent,
    multiplicity_schur,
    multiplicity_transversal,
    nested_kernels,
    pointwise_product,
    projection_pair,
    schur_operator,
    shifted_eigen_curve,
    validate_projection_pair,
    verify_transversalization,
)

F = Fraction
I2 = _linalg.identity(2)
E0, E1 = I2  # the identity's columns are its rows


def mat(rows):
    return _linalg.freeze(rows)


def curve(dim, *coeff_rows, base=0):
    return MatrixCurveJet(dim, F(base), tuple(mat(r) for r in coeff_rows))


def diag_curve(*entries, base=0):
    """Curve diag(p_1(mu), ...) given per-entry coefficient lists."""
    n = len(entries)
    top = max(len(e) for e in entries)
    mats = []
    for k in range(top):
        mats.append(
            [
                [
                    (entries[i][k] if k < len(entries[i]) else 0)
                    if i == j
                    else 0
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
    return curve(n, *mats)


# -- projection pairs ----------------------------------------------------------


def test_projection_pair_invertible():
    pair = projection_pair(mat([[1, 2], [0, 1]]))
    assert pair.p == _linalg.zeros(2, 2)
    assert pair.q == I2
    assert pair.kernel_dim == 0


def test_projection_pair_zero_matrix():
    pair = projection_pair(_linalg.zeros(2, 2))
    assert pair.p == I2
    assert pair.q == _linalg.zeros(2, 2)


def test_projection_pair_nilpotent_block():
    t = mat([[0, 1], [0, 0]])
    pair = projection_pair(t)
    e1 = (F(1), F(0))
    # kernel and range both span the first axis
    assert pair.kernel_basis == (e1,)
    assert pair.range_basis == (e1,)
    assert _linalg.matmul(pair.p, pair.p) == pair.p
    assert _linalg.matmul(pair.q, pair.q) == pair.q
    validate_projection_pair(t, pair)


def test_projections_are_built_on_first_read(monkeypatch):
    from curveinv import multiplicity

    built = []
    real = multiplicity._frame_projection
    monkeypatch.setattr(
        multiplicity, "_frame_projection", lambda *a: built.append(a) or real(*a)
    )
    c = fixtures.nilpotent_shift_curve()
    for route in (multiplicity_schur, multiplicity_laurent):
        assert route(c).value == 2
    pair = projection_pair(c.constant_term())
    assert built == []
    p, q = pair.p, pair.q
    assert len(built) == 2 and pair.p is p and pair.q is q
    validate_projection_pair(c.constant_term(), pair)
    assert len(built) == 2


def test_range_complement_keeps_the_rank_raising_scan():
    # R[T] is the line through (1, 1, 0): forward, e1 = (1, 1, 0) - e0 adds
    # nothing; backward, e0 = (1, 1, 0) - e1 does
    e0, e1, e2 = _linalg.identity(3)  # the identity's columns are its rows
    t = mat([[1, 0, 0], [1, 0, 0], [0, 0, 0]])
    assert projection_pair(t, "leftmost").range_complement == (e0, e2)
    assert projection_pair(t, "rightmost").range_complement == (e2, e1)


@pytest.mark.parametrize("flavor", ["leftmost", "rightmost"])
def test_projection_pair_eliminates_once(monkeypatch, flavor):
    calls = []
    real = _linalg.rref
    monkeypatch.setattr(_linalg, "rref", lambda a: calls.append(a) or real(a))
    pair = projection_pair(mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]]), flavor)
    assert len(calls) == 1
    assert pair.kernel_dim == len(pair.range_complement) == 1


def test_rref_matches_sympy(rng):
    import sympy

    def draw(n, m, density):
        return [
            [
                F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
                if rng.random() < density
                else F(0)
                for _ in range(m)
            ]
            for _ in range(n)
        ]

    cases = [[], [[]], [[], [], []], [[F(0)] * 4] * 3]
    for n, m in [(1, 1), (2, 5), (3, 7), (5, 2), (7, 3), (4, 4), (6, 6), (7, 8)]:
        for density in (1.0, 0.5, 0.2):
            for _ in range(4):
                rows = draw(n, m, density)
                if n >= 2 and rng.random() < 0.5:  # rank-deficient
                    c = F(rng.randint(-3, 3), rng.randint(1, 4))
                    rows[-1] = [c * x + y for x, y in zip(rows[0], rows[-2])]
                cases.append(rows)
    for rows in cases:
        a = tuple(tuple(row) for row in rows)
        n, m = _linalg.shape(a)
        want, want_pivots = sympy.Matrix(n, m, [c for row in a for c in row]).rref()
        got, pivots = _linalg.rref(a)
        assert pivots == list(want_pivots)
        assert all(type(c) is F for row in got for c in row)
        got_sympy = [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in got]
        assert got_sympy == (want.tolist() if n else [])
        if n == m and len(pivots) == n:
            assert _linalg.matmul(_linalg.inverse(a), a) == _linalg.identity(n)
        elif n == m:
            with pytest.raises(ArithmeticError):
                _linalg.inverse(a)


def test_validate_rejects_wrong_pair():
    t = mat([[0, 1], [0, 0]])
    good = projection_pair(t)
    with pytest.raises(InvalidProjectionPair):
        validate_projection_pair(I2, good)


@pytest.mark.parametrize(
    "bases",
    [
        ((E0,), (E0,), (E1,), (E0,)),  # a singular domain frame
        ((E0,), (E1,), (E1,), (E0, E1)),  # three range vectors in two dimensions
        (((F(1),),), (E1,), (E1,), (E0,)),  # a kernel vector of length 1
    ],
)
def test_validate_rejects_malformed_bases(bases):
    c = curve(2, [[0, 0], [0, 1]], [[1, 0], [0, 0]])
    pair = ProjectionPair(*bases)
    for check in (
        lambda: validate_projection_pair(c.constant_term(), pair),
        lambda: multiplicity_schur(c, pair),
        lambda: multiplicity_laurent(c, pair),
    ):
        with pytest.raises(InvalidProjectionPair):
            check()


def test_schur_rejects_pair_for_other_matrix():
    foreign = projection_pair(mat([[0, 0], [0, 1]]))
    with pytest.raises(InvalidProjectionPair):
        schur_operator(fixtures.nilpotent_shift_curve(), pair=foreign)


@pytest.mark.parametrize("t", [[[0, 0, 0], [0, 1, 0], [0, 0, 1]], [[0]]])
def test_schur_names_a_pair_of_the_wrong_dimension(t):
    c = curve(2, [[0, 0], [0, 1]], [[1, 0], [0, 0]])
    with pytest.raises(InvalidProjectionPair, match=f"dimension {len(t)}, T has 2"):
        multiplicity_schur(c, projection_pair(mat(t)))


# -- schur operator and local determinant ---------------------------------------


def test_schur_scalar_curve():
    c = MatrixCurveJet(1, F(0), (mat([[0]]), mat([[1]])))
    s = schur_operator(c)
    assert len(s) == 1 and len(s[0]) == 1
    assert s[0][0].coeffs[:2] == (F(0), F(1))


def test_schur_np_curve_has_order_one():
    s = schur_operator(fixtures.normalization_curve())
    assert _poly.low_order(s[0][0].coeffs) == 1


def test_schur_jordan_curve_local_determinant_order_two():
    d = local_determinant(fixtures.nilpotent_shift_curve())
    assert _poly.low_order(d.coeffs) == 2


def test_local_determinant_invertible_base_is_unit():
    c = curve(2, [[1, 0], [0, 1]], [[1, 1], [1, 1]])
    d = local_determinant(c)
    assert d.coeffs[0] == 1


def test_local_determinant_diag_order_three():
    c = diag_curve([0, 1], [0, 0, 1])
    assert _poly.low_order(local_determinant(c).coeffs) == 3


# -- determinant route -----------------------------------------------------------


def test_det_route_jordan():
    assert multiplicity_det(fixtures.nilpotent_shift_curve()).value == 2


def test_det_route_np_curve():
    assert multiplicity_det(fixtures.normalization_curve()).value == 1


def test_det_route_invertible_is_zero(rng):
    c = MatrixCurveJet(3, F(0), (random_invertible(rng, 3), random_invertible(rng, 3)))
    assert multiplicity_det(c).value == 0


@pytest.mark.parametrize(
    "route", [multiplicity_det, multiplicity_schur], ids=["ord-det", "schur"]
)
def test_det_route_zero_curve_is_infinite(route):
    r = route(fixtures.zero_curve())
    assert r.kind == "infinite"


@pytest.mark.parametrize(
    "route", [multiplicity_det, multiplicity_schur], ids=["ord-det", "schur"]
)
def test_det_route_capped_order_reports_undetermined(route):
    c = diag_curve([0, 1], [0, 0, 1])  # determinant order 3
    r = route(c, order=2)
    assert r.kind == "undetermined" and r.order_bound == 2
    assert route(c, order=3).value == 3


# -- schur route ------------------------------------------------------------------


def test_schur_route_examples():
    assert multiplicity_schur(fixtures.nilpotent_shift_curve()).value == 2
    assert multiplicity_schur(fixtures.normalization_curve()).value == 1
    assert multiplicity_schur(diag_curve([0, 1], [0, 0, 1], [1])).value == 3


def test_schur_route_matches_det_route_on_diag():
    c = diag_curve([0, 1], [0, 0, 1], [1])
    assert multiplicity_schur(c).value == multiplicity_det(c).value


# -- laurent route ------------------------------------------------------------------


def test_laurent_route_examples():
    assert multiplicity_laurent(fixtures.normalization_curve()).value == 1
    assert multiplicity_laurent(fixtures.nilpotent_shift_curve()).value == 2
    assert multiplicity_laurent(diag_curve([0, 1], [1])).value == 1


def _adjugate_orders(monkeypatch):
    """The ``mod_order`` of every ``_poly.mat_adjugate_det`` call from now on."""
    orders, adjugate = [], _poly.mat_adjugate_det

    def counted(m, mod_order):
        orders.append(mod_order)
        return adjugate(m, mod_order)

    monkeypatch.setattr(_poly, "mat_adjugate_det", counted)
    return orders


def test_laurent_route_rejects_zero_determinant(monkeypatch):
    c = fixtures.zero_curve()
    orders = _adjugate_orders(monkeypatch)
    with pytest.raises(
        SingularToKnownOrder,
        match="^determinant is the zero polynomial; the base point is not isolated$",
    ):
        multiplicity_laurent(c)
    assert orders == [c.order_bound() + 1]


@pytest.mark.parametrize(
    "seed, n, value, witness",
    [
        # the first window is x^full and the block determinant needs the
        # next one, x^14, past the order bound
        (3, 2, 5, "-162*t^5 + O(t^11)"),
        # the first window, x^12, is below x^full = x^13, the next past it
        (
            1,
            4,
            8,
            "13125/4*t^8 + 13125/64*t^11 + 13125/1024*t^14 + 13125/16384*t^17"
            " + O(t^18)",
        ),
    ],
    ids=["n2-seed3", "n4-seed1"],
)
def test_laurent_route_makes_one_exact_adjugate(monkeypatch, seed, n, value, witness):
    c, expected = curve_with_known_multiplicity(random.Random(seed), n)
    orders = _adjugate_orders(monkeypatch)
    report = multiplicity_laurent(c)
    assert orders == [c.order_bound() + 1]
    assert (report.value, str(report.witness)) == (value, witness)
    assert value == expected


def test_routes_hand_mat_mul_integer_operands(monkeypatch):
    # the matrix kernels run over Z: each route scales its rational
    # operands once, and no product sees a Fraction
    curves = [fixtures.normalization_curve(), fixtures.nilpotent_shift_curve()]
    for seed, n in ((3, 2), (1, 4)):
        curves.append(curve_with_known_multiplicity(random.Random(seed), n)[0])
    routes = [
        multiplicity_schur,
        multiplicity_laurent,
        multiplicity_transversal,
        algebraic_order,
        lambda c: pointwise_product(c, c),
    ]
    calls, mat_mul = {}, _poly.mat_mul

    def spy(a, b, cap=None):
        ints = all(type(c) is int for m in (a, b) for row in m for p in row for c in p)
        calls.setdefault(route, []).append(ints)
        return mat_mul(a, b, cap)

    monkeypatch.setattr(_poly, "mat_mul", spy)
    for c in curves:
        for route in routes:
            try:
                route(c)
            except NotTransversal:
                pass
    assert len(calls) == len(routes)
    assert all(all(ints) for ints in calls.values()), calls


def test_laurent_route_leaves_no_garbage():
    # the cofactor memo of LaurentMatrix.det is freed on return, not left
    # in a reference cycle for the collector
    import gc

    rng = random.Random(3)
    curves = [fixtures.nilpotent_shift_curve()]
    curves += [curve_with_known_multiplicity(rng, max_degree=8)[0] for _ in range(5)]
    gc.collect()
    gc.disable()
    try:
        for c in curves:
            multiplicity_laurent(c)
        assert gc.collect() == 0
    finally:
        gc.enable()

# -- nested kernels and transversality -------------------------------------------


def test_nested_kernels_invertible():
    c = curve(2, [[1, 0], [0, 1]], [[0, 0], [0, 0]])
    (k1,) = nested_kernels(c, 1)
    assert k1 == ()


def test_nested_kernels_zero_then_identity():
    c = curve(2, [[0, 0], [0, 0]], [[1, 0], [0, 1]])
    k1, k2 = nested_kernels(c, 2)
    assert len(k1) == 2
    assert k2 == ()


def test_nested_kernels_mixed():
    c = curve(2, [[0, 1], [0, 0]], [[1, 0], [0, 0]])
    k1, k2 = nested_kernels(c, 2)
    assert k1 == ((F(1), F(0)),)
    assert k2 == ()


def test_transversal_np_curve_at_one():
    cert = is_kappa_transversal(fixtures.normalization_curve(), 1)
    assert cert.holds and cert.image_dims == (1,)


def test_transversal_crandall_rabinowitz_setup():
    # one-dimensional kernel, first derivative leaves the range
    c = curve(2, [[0, 0], [0, 1]], [[1, 0], [0, 0]])
    cert = is_kappa_transversal(c, 1)
    assert cert.holds
    assert multiplicity_transversal(c).value == 1


def test_transversal_fails_with_zero_derivative():
    c = curve(2, [[0, 1], [0, 0]], [[0, 0], [0, 0]])
    cert = is_kappa_transversal(c, 1)
    assert not cert.holds


def test_transversal_route_examples():
    assert multiplicity_transversal(fixtures.normalization_curve()).value == 1
    c = curve(2, [[0, 0], [0, 0]], [[1, 0], [0, 1]])
    assert multiplicity_transversal(c).value == 2


def test_transversal_route_raises_when_not_transversal():
    c = curve(2, [[0, 1], [0, 0]], [[0, 0], [0, 0]])
    with pytest.raises(NotTransversal):
        multiplicity_transversal(c)


def _certificate_from_scratch(c, kappa):
    """The certificate at one order, rebuilt from K_1 .. K_kappa alone."""
    n = c.dim
    image_cols, image_dims = [], []
    for j, basis in enumerate(nested_kernels(c, kappa), start=1):
        mapped = _linalg.matmul(c.coefficients[j], _linalg.hstack(basis, n))
        pivots = _linalg.rref(mapped)[1] if basis else []
        chosen = [tuple(row[p] for row in mapped) for p in pivots]
        image_dims.append(len(chosen))
        image_cols.extend(chosen)
    t = c.constant_term()
    range_cols = [tuple(row[p] for row in t) for p in _linalg.rref(t)[1]]
    assembled = _linalg.hstack(image_cols + range_cols, n)
    r = _linalg.rank(assembled) if image_cols or range_cols else 0
    total = len(image_cols) + len(range_cols)
    return TransversalityCertificate(
        holds=image_dims[-1] > 0 and r == total == n,
        kappa=kappa,
        image_dims=tuple(image_dims),
        assembled_matrix=assembled,
        assembled_rank=r,
        last_image_nonzero=image_dims[-1] > 0,
    )


def test_certificates_match_the_per_order_construction():
    rng = random.Random(4242)
    refused = held = 0
    for _ in range(60):
        c, expected = curve_with_known_multiplicity(rng, max_degree=6)
        stacked = []
        for j, k in enumerate(nested_kernels(c, c.degree + 1), start=1):
            stacked.extend(c.coefficients[j - 1])
            assert k == tuple(_linalg.kernel_basis(_linalg.freeze(stacked)))
        for kappa in range(1, c.degree + 1):
            cert = is_kappa_transversal(c, kappa)
            assert cert == _certificate_from_scratch(c, kappa)
            held += cert.holds
        try:
            assert multiplicity_transversal(c).value == expected
        except NotTransversal:
            refused += 1
    assert refused and held


def test_transversal_route_walks_the_kernel_chain_once(monkeypatch):
    # a Jordan block: transversal at no order, with zero top coefficients
    c = curve(2, [[0, 1], [0, 0]], [[1, 0], [0, 1]], [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    calls = []
    real = _linalg.kernel_basis
    monkeypatch.setattr(_linalg, "kernel_basis", lambda a: calls.append(a) or real(a))
    with pytest.raises(NotTransversal):
        multiplicity_transversal(c)
    assert len(calls) == c.degree


# -- transversalization -----------------------------------------------------------


def test_verify_transversalization_identity_phi():
    c = fixtures.normalization_curve()
    phi = MatrixCurveJet(2, F(0), (I2, _linalg.zeros(2, 2)))
    assert verify_transversalization(c, phi).value == 1


def test_verify_transversalization_random_phi(rng):
    for _ in range(10):
        c, expected = curve_with_known_multiplicity(rng, n=rng.randint(1, 3),
                                                    max_degree=4)
        n = c.dim
        phi = MatrixCurveJet(
            n,
            c.base_point,
            (_linalg.identity(n),) + tuple(
                _linalg.freeze(
                    [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
                )
                for _ in range(rng.randint(1, 2))
            ),
        )
        try:
            report = verify_transversalization(c, phi)
        except NotTransversal:
            continue
        assert report.value == expected


def test_verify_transversalization_nilpotent_phi():
    c = fixtures.normalization_curve()
    nilp = mat([[0, 1], [0, 0]])
    phi = MatrixCurveJet(2, F(0), (I2, nilp))
    assert verify_transversalization(c, phi).value == 1


def test_transversalizing_composition_fixes_jordan_curve():
    # lam*I - J is not transversal on its own; composing with I + lam*N for
    # the transposed nilpotent makes the base point 2-transversal while the
    # multiplicity stays 2
    c = fixtures.nilpotent_shift_curve()
    with pytest.raises(NotTransversal):
        multiplicity_transversal(c)
    phi = MatrixCurveJet(2, F(0), (I2, mat([[0, 0], [1, 0]])))
    report = verify_transversalization(c, phi)
    assert report.value == 2


def test_verify_transversalization_rejects_unnormalized_phi():
    c = fixtures.normalization_curve()
    phi = MatrixCurveJet(2, F(0), (mat([[2, 0], [0, 1]]), I2))
    with pytest.raises(PhiNotNormalized):
        verify_transversalization(c, phi)


# -- algebraic order ---------------------------------------------------------------


def test_algebraic_order_diag():
    assert algebraic_order(diag_curve([0, 1], [0, 0, 1])).kappa == 2
    assert algebraic_order(diag_curve([0, 1], [1])).kappa == 1


def test_algebraic_order_jordan():
    assert algebraic_order(fixtures.nilpotent_shift_curve()).kappa == 2


def test_algebraic_order_regular_point():
    c = curve(2, [[1, 0], [0, 1]], [[1, 1], [1, 1]])
    rep = algebraic_order(c)
    assert rep.kappa is None and rep.determinant_order == 0


def test_algebraic_order_zero_curve_raises():
    with pytest.raises(SingularToKnownOrder):
        algebraic_order(fixtures.zero_curve())


def test_kappa_reads_one_integer_adjugate(monkeypatch):
    calls, adjugate = [], _poly.mat_adjugate_det

    def recorded(m, mod_order):
        calls.append((m, mod_order))
        return adjugate(m, mod_order)

    monkeypatch.setattr(_poly, "mat_adjugate_det", recorded)
    rational = curve(2, [[F(1, 2), 0], [0, 0]], [[0, F(2, 3)], [F(-3, 4), 1]])
    for c in (rational, fixtures.nilpotent_shift_curve(), diag_curve([0, 1], [1])):
        calls.clear()
        algebraic_order(c)
        assert [order for _, order in calls] == [c.order_bound() + 1]
        assert all(type(x) is int for row in calls[0][0] for p in row for x in p)
    # the zero determinant is refused once, in the words of the Laurent route
    messages = []
    for route in (algebraic_order, multiplicity_laurent):
        with pytest.raises(SingularToKnownOrder) as refused:
            route(fixtures.zero_curve())
        messages.append(str(refused.value))
    want = "determinant is the zero polynomial; the base point is not isolated"
    assert messages == [want, want]


# -- classical multiplicity ----------------------------------------------------------


def test_classical_jordan_block():
    rep = classical_multiplicity(mat([[0, 1], [0, 0]]), 0)
    assert rep.ascent == 2 and rep.multiplicity == 2


def test_classical_diagonal():
    k = mat([[5, 0, 0], [0, 5, 0], [0, 0, 7]])
    rep = classical_multiplicity(k, 5)
    assert rep.ascent == 1 and rep.multiplicity == 2


def test_classical_companion_matrix():
    # companion matrix of (x - 1)^2 (x - 2) = x^3 - 4x^2 + 5x - 2
    k = mat([[0, 0, 2], [1, 0, -5], [0, 1, 4]])
    rep = classical_multiplicity(k, 1)
    assert rep.ascent == 2 and rep.multiplicity == 2


def test_classical_regular_value():
    rep = classical_multiplicity(mat([[0, 1], [0, 0]]), 3)
    assert rep.ascent == 1 and rep.multiplicity == 0


# -- cross-route properties ------------------------------------------------------------


def test_route_equivalence_on_random_curves(rng):
    for _ in range(40):
        c, expected = curve_with_known_multiplicity(rng, max_degree=6)
        det_r = multiplicity_det(c)
        assert det_r.value == expected
        assert multiplicity_schur(c).value == expected
        assert multiplicity_laurent(c).value == expected
        try:
            assert multiplicity_transversal(c).value == expected
        except NotTransversal:
            pass


def test_projection_pair_independence(rng):
    for _ in range(20):
        c, expected = curve_with_known_multiplicity(rng, n=rng.randint(1, 4),
                                                    max_degree=5)
        t = c.constant_term()
        left = projection_pair(t, flavor="leftmost")
        right = projection_pair(t, flavor="rightmost")
        assert multiplicity_schur(c, pair=left).value == expected
        assert multiplicity_schur(c, pair=right).value == expected
        assert multiplicity_laurent(c, pair=right).value == expected


def test_product_formula(rng):
    for _ in range(25):
        n = rng.randint(1, 4)
        a, va = curve_with_known_multiplicity(rng, n=n, max_degree=4)
        b, vb = curve_with_known_multiplicity(rng, n=n, max_degree=4)
        b = MatrixCurveJet(n, a.base_point, b.coefficients)
        prod = pointwise_product(a, b)
        assert multiplicity_det(prod).value == va + vb


def test_pointwise_product_keeps_vanishing_top_coefficient():
    # the degree-1 coefficients multiply to zero, so the product's degree-2
    # coefficient vanishes, and the product still has degree 1 + 1
    a = curve(2, [[1, 0], [0, 1]], [[1, 0], [0, 0]])
    b = curve(2, [[1, 0], [0, 1]], [[0, 0], [0, 1]])
    prod = pointwise_product(a, b)
    assert prod.degree == 2
    assert prod.coefficients == (I2, I2, _linalg.zeros(2, 2))
    for lam in (F(-1), F(1, 3), F(2)):
        assert prod.evaluate(lam) == _linalg.matmul(a.evaluate(lam), b.evaluate(lam))


def test_normalization_over_random_rank_one_projections(rng):
    for _ in range(20):
        n = rng.randint(2, 4)
        proj = random_rank_one_projection(rng, n)
        ident = _linalg.identity(n)
        rest = tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(ident, proj))
        c = MatrixCurveJet(n, F(0), (rest, proj))
        assert multiplicity_det(c).value == 1
        assert multiplicity_schur(c).value == 1
        assert multiplicity_transversal(c).value == 1


def test_zero_iff_invertible(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        c, expected = curve_with_known_multiplicity(rng, n=n, max_degree=4)
        r = multiplicity_det(c)
        invertible = _linalg.det(c.constant_term()) != 0
        assert (r.value == 0) == invertible
        # finite multiplicity iff a finite blow-up order exists
        rep = algebraic_order(c)
        assert r.is_finite
        assert rep.is_algebraic == (r.value > 0)


def test_classical_equals_curve_route(rng):
    for _ in range(15):
        n = rng.randint(2, 4)
        k, eigs = matrix_with_rational_spectrum(rng, n)
        mu = rng.choice(eigs)
        rep = classical_multiplicity(k, mu)
        det_rep = multiplicity_det(shifted_eigen_curve(k, mu))
        assert det_rep.value == rep.multiplicity


def test_determinant_order_against_sympy_oracle(rng):
    # independent symbolic oracle for the determinant route
    import sympy

    mu = sympy.Symbol("mu")
    for _ in range(12):
        c, expected = curve_with_known_multiplicity(rng, n=rng.randint(1, 4),
                                                    max_degree=5)
        m = sympy.zeros(c.dim, c.dim)
        for k, mat_k in enumerate(c.coefficients):
            for i in range(c.dim):
                for j in range(c.dim):
                    q = mat_k[i][j]
                    m[i, j] += sympy.Rational(q.numerator, q.denominator) * mu**k
        det = sympy.Poly(m.det(method="berkowitz"), mu)
        low = min(sum(mon) for mon in det.monoms())
        assert multiplicity_det(c).value == low == expected


def test_laurent_witness_against_sympy_oracle(rng):
    # the witness is 1/det(A L^-1 B) = det(L)^k / det(A adj(L) B), a power
    # series of order chi in mu; every coefficient it stores must be exact
    import sympy
    from sympy.polys.matrices import DomainMatrix

    ring = sympy.QQ[sympy.Symbol("mu")]

    def qq(q):
        return sympy.QQ(q.numerator, q.denominator)

    def matrix(rows):
        """Polynomial matrix from rows of ascending coefficient lists."""
        grid = [[ring.ring.from_list([qq(q) for q in reversed(p)]) for p in row] for row in rows]
        return DomainMatrix(grid, (len(rows), len(rows[0])), ring)

    def series(p):
        """Coefficients from the lowest nonzero one up, and its power."""
        coeffs = [F(int(q.numerator), int(q.denominator)) for q in reversed(p.to_dense())]
        low = next(i for i, q in enumerate(coeffs) if q)
        return coeffs[low:], low

    checked = 0
    while checked < 20:
        c, expected = curve_with_known_multiplicity(rng, n=rng.randint(1, 5), max_degree=5)
        pair = projection_pair(c.constant_term())
        k, n = pair.kernel_dim, c.dim
        if k == 0:
            continue
        lift = matrix([[[m[i][j] for m in c.coefficients] for j in range(n)] for i in range(n)])
        a = matrix([[(q,) for q in row] for row in _linalg.inverse(pair.domain_frame())[n - k :]])
        b = matrix([[(q,) for q in row] for row in _linalg.hstack(pair.range_complement, n)])
        num, num_low = series(lift.det() ** k)
        den, den_low = series((a * lift.adjugate() * b).det())
        witness = multiplicity_laurent(c).witness
        shift = num_low - den_low
        assert shift == expected == witness.leading_exponent()
        quotient = []  # num / den by long division
        for i in range(witness.known_through + 1 - shift):
            acc = num[i] if i < len(num) else F(0)
            acc -= sum(den[j] * quotient[i - j] for j in range(1, min(i + 1, len(den))))
            quotient.append(acc / den[0])
        for e in range(witness.known_through + 1):
            got = witness.unit_part.coeffs[e + witness.pole_order]
            assert got == (quotient[e - shift] if e >= shift else 0)
        checked += 1


def _sympy_framed(curve, pair):
    """The curve in the pair's frame, ``cod^-1 * L * dom``, in sympy."""

    def const(m):
        return sympy_poly_matrix(_poly.mat_lift([m]))

    lift = sympy_poly_matrix(curve.polynomial_lift())
    return const(_linalg.inverse(pair.codomain_frame())) * lift * const(pair.domain_frame())


def test_schur_witness_against_sympy_oracle(rng):
    # the witness is det S~, S~ = det(L11)*L22 - L21*adj(L11)*L12 in the
    # pair's frame; every coefficient it stores must be exact
    checked = 0
    while checked < 20:
        c, expected = curve_with_known_multiplicity(rng, n=rng.randint(1, 5), max_degree=5)
        for flavor in ("leftmost", "rightmost"):
            pair = projection_pair(c.constant_term(), flavor)
            k = pair.kernel_dim
            grid = sympy_schur_numerator(_sympy_framed(c, pair), c.dim - k)[1]
            det_s = list(sympy_schur_numerator(sympy_poly_matrix(grid), k)[0])
            witness = multiplicity_schur(c, pair).witness
            det_s += [F(0)] * (witness.known_order + 1 - len(det_s))
            assert witness.coeffs == tuple(det_s[: witness.known_order + 1])
            assert _poly.low_order(witness.coeffs) == expected
        checked += 1


def test_schur_block_with_a_pivot_swap_against_sympy_oracle():
    # in the frame of this pair L11(0) = [[0, 1], [1, 0]], and L11's (0, 0)
    # entry is the zero polynomial, so the elimination has to swap rows
    e = [tuple(F(int(i == j)) for i in range(3)) for j in range(3)]
    pair = ProjectionPair(
        kernel_basis=(e[2],),
        kernel_complement=(e[0], e[1]),
        range_basis=(e[1], e[0]),
        range_complement=(e[2],),
    )
    t = ((1, 0, 0), (0, 1, 0), (0, 0, 0))
    k1 = ((2, -1, 3), (0, 1, F(1, 2)), (1, 2, -1))
    k2 = ((0, 1, 0), (0, 0, 1), (F(-1, 3), 0, 2))
    curve = MatrixCurveJet(3, F(0), (t, k1, k2))
    validate_projection_pair(t, pair)
    det11, s, f = _schur_numerator(curve, pair)
    schur = [[tuple([f * c for c in p]) for p in row] for row in s]
    assert (det11, schur) == sympy_schur_numerator(_sympy_framed(curve, pair), 2)
    assert multiplicity_schur(curve, pair).value == multiplicity_det(curve).value


def test_classical_against_sympy_charpoly_oracle(rng):
    import sympy

    for _ in range(10):
        n = rng.randint(2, 4)
        k, eigs = matrix_with_rational_spectrum(rng, n)
        mu = rng.choice(eigs)
        m = sympy.Matrix(
            [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in k]
        )
        lam = sympy.Symbol("lam")
        charpoly = sympy.Poly(m.charpoly(lam).as_expr(), lam)
        mu_s = sympy.Rational(mu.numerator, mu.denominator)
        mult = 0
        p = charpoly
        while p.eval(mu_s) == 0:
            p = sympy.Poly(sympy.quo(p.as_expr(), lam - mu_s), lam)
            mult += 1
        assert classical_multiplicity(k, mu).multiplicity == mult


def test_kappa_bounded_by_multiplicity_logged(rng):
    # kappa = ord det - min ord adj, and the adjugate orders are >= 0
    for _ in range(25):
        c, expected = curve_with_known_multiplicity(rng, max_degree=5)
        rep = algebraic_order(c)
        assert rep.determinant_order == expected
        assert rep.is_algebraic and 1 <= rep.kappa <= expected
