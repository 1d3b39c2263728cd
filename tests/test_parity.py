"""Unit and property tests for path and loop parity."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import curve_with_known_multiplicity, random_admissible_path
from curveinv import _linalg, _poly, fixtures
from curveinv.exactnum import SingularToKnownOrder
from curveinv.multiplicity import MatrixCurveJet, pointwise_product
from curveinv.parity import (
    AnalyticSegment,
    Crossing,
    GlConnector,
    LoopPath,
    NonTransversalCrossing,
    NotAdmissible,
    PolynomialPath,
    crossing_parity,
    interval_parity,
    local_parity,
    loop_parity,
    multiplicity_sum_parity,
)

F = Fraction


def diag_path(entries, a=-1, b=1):
    """Path diag(p_1(lam), ...) from per-entry coefficient lists."""
    n = len(entries)
    top = max(len(e) for e in entries)
    mats = []
    for k in range(top):
        mats.append(
            tuple(
                tuple(
                    F(entries[i][k]) if (i == j and k < len(entries[i])) else F(0)
                    for j in range(n)
                )
                for i in range(n)
            )
        )
    return PolynomialPath(n, F(a), F(b), tuple(mats))


# -- interval parity -----------------------------------------------------------


def test_interval_parity_single_crossing():
    assert interval_parity(fixtures.crossing_path()).sign == -1


def test_interval_parity_constant_invertible():
    assert interval_parity(fixtures.constant_invertible_path()).sign == 1


def test_interval_parity_two_crossings():
    path = diag_path([[0, 1], [0, 1]])  # diag(lam, lam)
    assert interval_parity(path).sign == 1


ROUTES = [interval_parity, crossing_parity, multiplicity_sum_parity]


@pytest.mark.parametrize("route", ROUTES, ids=["interval", "crossings", "chi-sum"])
@pytest.mark.parametrize(
    "root, side", [(-1, "left"), (1, "right")], ids=["left", "right"]
)
def test_interval_parity_rejects_singular_endpoint(route, root, side):
    path = diag_path([[-root, 1], [1]])  # diag(lam - root, 1), singular at root
    with pytest.raises(NotAdmissible) as err:
        route(path)
    assert str(err.value) == f"path is singular at the {side} endpoint {root}"


def test_only_the_interval_route_evaluates_endpoint_matrices(monkeypatch):
    calls = []
    det = _linalg.det

    def spy(a):
        calls.append(a)
        return det(a)

    monkeypatch.setattr(_linalg, "det", spy)
    rational = diag_path([[F(1, 2), 1], [F(-1, 3), 0, F(5, 7)]], a=F(-1, 4), b=2)
    for path in (fixtures.crossing_path(), rational):
        calls.clear()
        interval_parity(path)
        # each endpoint matrix, as integers over one positive scale
        assert len(calls) == 2
        for m, x in zip(calls, (path.a, path.b)):
            want = path.evaluate(x)
            assert all(type(c) is int for row in m for c in row)
            [ratio] = {F(c) / w for row, ws in zip(m, want) for c, w in zip(row, ws) if w}
            assert ratio > 0 and m == [[ratio * w for w in row] for row in want]
        calls.clear()
        crossing_parity(path)
        multiplicity_sum_parity(path)
        assert calls == []


def test_interval_parity_scales_the_path_once(monkeypatch):
    calls, scale = [], _poly.scaled_lift
    monkeypatch.setattr(_poly, "scaled_lift", lambda m: calls.append(m) or scale(m))
    paths = [fixtures.crossing_path(), fixtures.constant_invertible_path()]
    paths.append(diag_path([[F(1, 2), 1], [F(-1, 3), 0, F(5, 7)]], a=F(1, 4), b=2))
    for path in paths:
        calls.clear()
        interval_parity(path)
        # both endpoints are read off one lift scaled to integers
        assert len(calls) == 1


def test_is_admissible_reads_ensure_admissible(monkeypatch):
    # every path the criterion-4 generator draws, the rejected ones included
    drawn, real = [], PolynomialPath.is_admissible
    monkeypatch.setattr(PolynomialPath, "is_admissible", lambda p: drawn.append(p) or real(p))
    rng = random.Random(777)
    for _ in range(100):
        random_admissible_path(rng)
    monkeypatch.undo()
    want = [all(_linalg.det(p.evaluate(lam)) != 0 for lam in (p.a, p.b)) for p in drawn]
    calls, scale = [], _poly.scaled_lift
    monkeypatch.setattr(_poly, "scaled_lift", lambda m: calls.append(m) or scale(m))
    got = []
    for path in drawn:
        calls.clear()
        got.append(path.is_admissible())
        assert len(calls) == 1
    assert got == want
    assert True in got and False in got


@st.composite
def rational_paths(draw):
    """A path of dimension 1 to 3 and degree up to 3 with zero entries,
    small unequal denominators and endpoints that are often negative; one
    in two is (lam - c) M, the zero matrix at its endpoint c."""
    n = draw(st.integers(1, 3))
    fractions = st.fractions(-4, 4, max_denominator=6)
    entries = st.integers(0, 3).flatmap(lambda k: fractions if k else st.just(F(0)))
    matrix = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    ends = st.fractions(-3, 3, max_denominator=12)
    a = draw(ends)
    b = draw(ends.filter(lambda x: x != a))
    a, b = min(a, b), max(a, b)
    c = draw(st.sampled_from([None, None, a, b]))
    if c is None:
        coeffs = draw(st.lists(matrix, min_size=1, max_size=4))
    else:
        m = draw(matrix)
        coeffs = [[[-c * x for x in row] for row in m], m]
    return PolynomialPath(n, a, b, coeffs)


@settings(deadline=None, max_examples=300)
@given(rational_paths())
# the zero path: every entry of the lift is the zero polynomial; and the
# 0 x 0 path, whose lift has no entry at all and determinant 1
@example(PolynomialPath(2, F(-1, 3), F(1, 2), [[[0, 0], [0, 0]]] * 2))
@example(PolynomialPath(0, F(-1, 3), F(1, 2), [[]]))
@example(PolynomialPath(1, F(-2, 3), F(5, 7), [[[F(2, 3)]], [[1]]]))
def test_endpoint_determinants_are_read_over_z(path):
    want = tuple(_linalg.det(path.evaluate(x)) for x in (path.a, path.b))
    if 0 in want:
        side, lam = ("left", path.a) if want[0] == 0 else ("right", path.b)
        with pytest.raises(NotAdmissible) as err:
            path.ensure_admissible()
        assert str(err.value) == f"path is singular at the {side} endpoint {lam}"
    else:
        got = path.ensure_admissible()
        assert repr(got) == repr(want) and all(type(v) is F for v in got)


def test_interval_parity_depends_only_on_endpoints():
    # same endpoint matrices, different interiors
    base = fixtures.crossing_path()
    bumped = diag_path([[0, 0, 0, 1], [1]])  # diag(lam^3, 1)
    assert base.evaluate(-1) == bumped.evaluate(-1)
    assert base.evaluate(1) == bumped.evaluate(1)
    assert interval_parity(base).sign == interval_parity(bumped).sign


# -- crossing parity -------------------------------------------------------------


def test_crossing_parity_isolates_origin():
    value = crossing_parity(fixtures.crossing_path())
    assert value.sign == -1
    assert len(value.crossings) == 1
    loc = value.crossings[0].location
    assert loc.exact == 0


def test_crossing_parity_invertible_path():
    value = crossing_parity(fixtures.constant_invertible_path())
    assert value.sign == 1 and value.crossings == ()


def test_crossing_parity_two_symmetric_roots():
    path = diag_path([[F(-1, 4), 0, 1], [1]])  # diag(lam^2 - 1/4, 1)
    value = crossing_parity(path)
    assert value.sign == 1
    assert [c.location.exact for c in value.crossings] == [F(-1, 2), F(1, 2)]


def test_crossing_parity_rejects_double_root():
    path = diag_path([[0, 0, 1], [1]])  # diag(lam^2, 1)
    with pytest.raises(NonTransversalCrossing):
        crossing_parity(path)


def test_crossing_parity_irrational_roots_isolated():
    path = diag_path([[-2, 0, 1], [1]], a=-2, b=2)  # roots +-sqrt(2)
    value = crossing_parity(path)
    assert value.sign == 1
    assert len(value.crossings) == 2
    for c in value.crossings:
        assert c.location.exact is None
        assert abs(abs(c.location.as_float()) - 2 ** 0.5) < 1e-3


def test_crossing_parity_builds_one_chain_and_no_gcd(monkeypatch):
    built, gcds = [], []
    chain, gcd = _poly.sturm_chain, _poly.gcd
    monkeypatch.setattr(_poly, "sturm_chain", lambda p: built.append(p) or chain(p))
    monkeypatch.setattr(_poly, "gcd", lambda a, b: gcds.append(a) or gcd(a, b))
    # square-free determinants: one exact root, two irrational roots
    for path in (fixtures.crossing_path(), diag_path([[-2, 0, 1], [1]], a=-2, b=2)):
        built.clear()
        crossing_parity(path)
        assert len(built) == 1 and gcds == []


@pytest.mark.parametrize("lead", [1, -1], ids=["positive", "negative"])
def test_crossing_parity_divides_the_chain_by_its_gcd(lead, monkeypatch):
    # (lam - 2)^2 (lam^2 - 1/3): the double root 2 lies outside (-1, 1), the
    # roots +-sqrt(1/3) inside; with lead -1 the chain ends in -(lam - 2)
    path = diag_path([[4, -4, 1], [F(-lead, 3), 0, lead]])
    det = _poly.primitive(path.determinant_polynomial())
    common = _poly.gcd(det, _poly.derivative(det))
    squarefree = _poly.div_exact(det, common)
    assert _poly.degree(common) == 1 and _poly.sturm_chain(det)[-1][-1] == lead
    isolated, isolate = [], _poly.isolate_roots
    monkeypatch.setattr(
        _poly, "isolate_roots", lambda c, a, b: isolated.append(c) or isolate(c, a, b)
    )
    value = crossing_parity(path)
    # the chain's last member, its sign fixed, is gcd(det, det'), and
    # every member is divided by it
    [chain] = isolated
    assert chain[0] == squarefree and chain[-1] == (lead,)
    want = isolate(_poly.sturm_chain(squarefree), path.a, path.b)
    assert [repr(c.location) for c in value.crossings] == [repr(r) for r in want]
    assert value.sign == 1 and len(want) == 2
    # the double root moved inside the interval is refused
    inside = diag_path([[4, -4, 1], [F(-lead, 3), 0, lead]], a=-1, b=3)
    with pytest.raises(NonTransversalCrossing):
        crossing_parity(inside)


# -- multiplicity-sum parity -------------------------------------------------------


def test_chi_sum_parity_simple_root():
    value = multiplicity_sum_parity(fixtures.crossing_path())
    assert value.sign == -1
    assert [(c.location.exact, c.multiplicity) for c in value.crossings] == [(0, 1)]


def test_chi_sum_parity_double_root():
    path = diag_path([[0, 0, 1], [1]])
    value = multiplicity_sum_parity(path)
    assert value.sign == 1
    assert [(c.location.exact, c.multiplicity) for c in value.crossings] == [(0, 2)]


def test_chi_sum_matches_crossings_on_two_simple_roots():
    path = diag_path([[F(-1, 4), 0, 1], [1]])
    assert multiplicity_sum_parity(path).sign == crossing_parity(path).sign


def _yun_by_gcd(p):
    """Yun's decomposition with its first gcd(p, p') taken by ``gcd``: the
    reference for ``squarefree_decomposition``, which reads it off a chain."""
    p = _poly.primitive(p)
    dp = _poly.derivative(p)
    a = _poly.gcd(p, dp)
    w, y = _poly.div_exact(p, a), _poly.div_exact(dp, a)
    factors, i = [], 1
    while _poly.degree(w) > 0:
        z = _poly.sub(y, _poly.derivative(w))
        a = _poly.gcd(w, z)
        if _poly.degree(a) > 0:
            factors.append((a, i))
        w, y = _poly.div_exact(w, a), _poly.div_exact(z, a)
        i += 1
    return factors


@pytest.mark.parametrize(
    "entries",
    [
        # -(lam^2 - 1/3)(lam - 1/2): square-free, a negative leading term
        [[F(1, 3), 0, -1], [F(-1, 2), 1]],
        # -lam^2 (lam^2 - 1/3): a double root at 0 beside two simple ones
        [[0, 0, -1], [F(-1, 3), 0, 1]],
    ],
    ids=["squarefree", "double-root"],
)
def test_chi_sum_builds_one_chain_of_det_and_no_first_gcd(entries, monkeypatch):
    path = diag_path(entries)
    det = _poly.primitive(path.determinant_polynomial())
    factors = _yun_by_gcd(det)
    want = sorted(
        [
            Crossing(location=r, multiplicity=m)
            for f, m in factors
            for r in _poly.isolate_roots(_poly.sturm_chain(f), path.a, path.b)
        ],
        key=lambda c: c.location.midpoint(),
    )
    assert det[-1] < 0
    built, gcds, decomposed = [], [], []
    chain, gcd, decompose = _poly.sturm_chain, _poly.gcd, _poly.squarefree_decomposition
    monkeypatch.setattr(_poly, "sturm_chain", lambda p: built.append(p) or chain(p))
    monkeypatch.setattr(_poly, "gcd", lambda a, b: gcds.append((a, b)) or gcd(a, b))
    monkeypatch.setattr(
        _poly,
        "squarefree_decomposition",
        lambda c: decomposed.append(decompose(c)) or decomposed[-1],
    )
    value = multiplicity_sum_parity(path)
    # det's one chain gives Yun its first gcd; a factor equal to +-det
    # isolates on that chain, any other on its own
    own = [f for f, _ in factors if len(f) < len(det)]
    assert built == [det, *own]
    assert (det, _poly.derivative(det)) not in gcds and gcds
    assert decomposed == [factors]
    assert value.crossings == tuple(want)


# -- localized parity ----------------------------------------------------------------


def test_local_parity_np_curve():
    assert local_parity(fixtures.normalization_curve()).sign == -1


def test_local_parity_multiplicity_two():
    assert local_parity(fixtures.nilpotent_shift_curve()).sign == 1


def test_local_parity_invertible_point():
    c = MatrixCurveJet(2, F(0), (_linalg.identity(2), _linalg.zeros(2, 2)))
    assert local_parity(c).sign == 1


def test_local_parity_rejects_zero_curve():
    with pytest.raises(SingularToKnownOrder):
        local_parity(fixtures.zero_curve())


def test_local_parity_multiplicative(rng):
    for _ in range(15):
        n = rng.randint(1, 4)
        a, _ = curve_with_known_multiplicity(rng, n=n, max_degree=4)
        b, _ = curve_with_known_multiplicity(rng, n=n, max_degree=4)
        b = MatrixCurveJet(n, a.base_point, b.coefficients)
        prod = pointwise_product(a, b)
        assert (
            local_parity(prod).sign
            == local_parity(a).sign * local_parity(b).sign
        )


# -- loops -------------------------------------------------------------------------


def test_loop_parity_twisted():
    value = loop_parity(fixtures.twisted_loop())
    assert value.sign == -1
    assert value.from_connector_abstraction


def test_loop_parity_constant():
    value = loop_parity(fixtures.constant_loop())
    assert value.sign == 1
    assert value.from_connector_abstraction


def test_loop_parity_forward_backward():
    value = loop_parity(fixtures.forward_backward_loop())
    assert value.sign == 1
    assert not value.from_connector_abstraction
    assert sum(c.multiplicity for c in value.crossings) == 2


def test_loop_all_connectors_is_trivial():
    value = loop_parity(LoopPath((GlConnector(), GlConnector())))
    assert value.sign == 1 and value.from_connector_abstraction


def test_single_segment_loop_must_close():
    with pytest.raises(ValueError):
        LoopPath((AnalyticSegment(fixtures.crossing_path()),))


def test_single_segment_closed_loop():
    # diag(lam^2, 1) has equal endpoint matrices on [-1, 1]
    path = diag_path([[0, 0, 1], [1]])
    value = loop_parity(LoopPath((AnalyticSegment(path),)))
    assert value.sign == 1
    assert [(c.location.exact, c.multiplicity) for c in value.crossings] == [(0, 2)]


def test_loop_rejects_mismatched_segments():
    p1 = fixtures.crossing_path()
    p2 = fixtures.constant_invertible_path()
    with pytest.raises(ValueError):
        LoopPath((AnalyticSegment(p1), AnalyticSegment(p2)))


def test_loop_rejects_inadmissible_segment():
    path = diag_path([[0, 1], [1]], a=0, b=1)  # singular at the left endpoint
    with pytest.raises(NotAdmissible):
        LoopPath((AnalyticSegment(path), GlConnector()))


# -- cross-route properties -----------------------------------------------------------


def test_three_routes_agree_on_random_paths(rng):
    checked = 0
    while checked < 60:
        path = random_admissible_path(rng)
        iv = interval_parity(path)
        cs = multiplicity_sum_parity(path)
        assert iv.sign == cs.sign
        try:
            cr = crossing_parity(path)
        except NonTransversalCrossing:
            continue
        assert cr.sign == iv.sign
        checked += 1


def test_concatenation_at_invertible_point(rng):
    done = 0
    while done < 20:
        path = random_admissible_path(rng)
        mid = (path.a + path.b) / 2
        if _linalg.det(path.evaluate(mid)) == 0:
            continue
        left = PolynomialPath(path.dim, path.a, mid, path.coefficients)
        right = PolynomialPath(path.dim, mid, path.b, path.coefficients)
        assert (
            interval_parity(path).sign
            == interval_parity(left).sign * interval_parity(right).sign
        )
        assert (
            multiplicity_sum_parity(path).sign
            == multiplicity_sum_parity(left).sign
            * multiplicity_sum_parity(right).sign
        )
        done += 1


def test_reversed_path_has_same_parity(rng):
    for _ in range(10):
        path = random_admissible_path(rng, max_dim=3, max_degree=4)
        # the reversal is the substitution x -> a + b - x, also off [-1, 1]
        shifted = PolynomialPath(path.dim, F(1, 3), F(2), path.coefficients)
        for p in (path, shifted):
            rev = p.reversed()
            for x in (p.a, p.b, F(-2, 3), F(0), F(1, 5)):
                assert rev.evaluate(p.a + p.b - x) == p.evaluate(x)
        rev = path.reversed()
        assert interval_parity(rev).sign == interval_parity(path).sign
        assert multiplicity_sum_parity(rev).sign == multiplicity_sum_parity(path).sign


def test_root_machinery_against_sympy_oracle(rng):
    # independent check of the Sturm counts, the root locations, the
    # integer gcd and the square-free multiplicity bookkeeping that the
    # crossing/chi-sum parities are built on
    from math import gcd

    import sympy

    x = sympy.Symbol("x")

    def rational(c):
        return sympy.Rational(c.numerator, c.denominator)

    def to_sympy(q):
        return sympy.Poly(sum(rational(c) * x**i for i, c in enumerate(q)), x)

    def real_roots(q):
        """sympy's real roots of q in (-1, 1), repeated by multiplicity."""
        return [r for r in to_sympy(q).real_roots() if -1 < r < 1]

    def assert_primitive_positive(q):
        assert all(type(c) is int for c in q)
        assert gcd(*q) == 1 and q[-1] > 0

    def check_locations(locations, q):
        roots = set(real_roots(q))
        assert len(locations) == len(roots)
        for r in locations:
            if r.exact is not None:
                assert rational(r.exact) in roots
            else:
                a, b = rational(r.lo), rational(r.hi)
                assert sum(1 for root in roots if a < root < b) == 1

    # dyadic roots at bisection midpoints next to irrational ones, simple
    # and repeated: x (x^2 - 2/3) and (x - 1/2)^2 x (x^2 - 2/3)
    cubic = _poly.poly((0, F(-2, 3), 0, 1))
    polys = [cubic, _poly.mul(_poly.mul(cubic, (F(-1, 2), F(1))), (F(-1, 2), F(1)))]
    while len(polys) < 32:
        deg = rng.randint(1, 7)
        p = _poly.poly(
            F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(deg + 1)
        )
        if rng.random() < 0.5 and not _poly.is_zero(p):
            p = _poly.mul(p, p)  # force repeated roots half the time
        if not (
            _poly.is_zero(p)
            or _poly.eval_at(p, F(-1)) == 0
            or _poly.eval_at(p, F(1)) == 0
        ):
            polys.append(p)
    # integer content and a negative leading coefficient
    for k, p in zip((2, 6, 10, 3), polys[::8]):
        q = _poly.primitive(p)
        polys.append(_poly.mul((-k if q[-1] > 0 else k,), q))
    for p in polys:
        g = _poly.gcd(p, _poly.derivative(p))
        assert_primitive_positive(g)
        sp = to_sympy(p)
        assert to_sympy(g).monic() == sympy.gcd(sp, sp.diff(x)).monic()
        squarefree = _poly.div_exact(_poly.primitive(p), g)
        roots = real_roots(p)
        assert _poly.count_roots_open(squarefree, F(-1), F(1)) == len(set(roots))
        chain = _poly.sturm_chain(squarefree)
        check_locations(_poly.isolate_roots(chain, F(-1), F(1)), squarefree)

        factors = _poly.squarefree_decomposition(_poly.sturm_chain(p))
        assert [(to_sympy(f).monic(), m) for f, m in factors] == [
            (f.monic(), m) for f, m in sorted(sp.sqf_list()[1], key=lambda fm: fm[1])
        ]
        total = 0
        for f, mult in factors:
            assert_primitive_positive(f)
            locations = _poly.isolate_roots(_poly.sturm_chain(f), F(-1), F(1))
            check_locations(locations, f)
            total += mult * len(locations)
        assert total == len(roots)

    # 2 does not divide the leading 1; x^2 + 1 leaves the remainder 1 by x
    for a, b in (((0, 0, 1), (1, 2)), ((1, 0, 1), (0, 1))):
        with pytest.raises(ArithmeticError):
            _poly.div_exact(a, b)


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(-6, 6), min_size=2, max_size=4).filter(any),
            st.integers(1, 3),
        ),
        min_size=1,
        max_size=3,
    ),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
)
def test_squarefree_decomposition_reads_the_chain(parts, scale):
    # Yun's first gcd read off the chain gives the gcd-based decomposition,
    # factor for factor, with content, sign and repeated factors drawn
    p = (scale,)
    for coeffs, m in parts:
        for _ in range(m):
            p = _poly.mul(p, _poly.poly(coeffs))
    assert _poly.squarefree_decomposition(_poly.sturm_chain(p)) == _yun_by_gcd(p)


def test_isolate_roots_builds_one_sturm_chain(monkeypatch):
    chains = []
    build = _poly.sturm_chain
    monkeypatch.setattr(_poly, "sturm_chain", lambda p: chains.append(p) or build(p))
    # p is evaluated once per point, its sign shared by the root test and
    # the chain's sign sequence; a point n/d is recorded by its value, as
    # the bisection's (N, q 2^e) pairs are not reduced
    points = []
    evaluate = _poly.eval_numerator
    monkeypatch.setattr(
        _poly,
        "eval_numerator",
        lambda q, n, d: points.append((q, F(n, d))) or evaluate(q, n, d),
    )
    # exact roots 0 and +-1/2 fall on bisection midpoints of (-1, 1), and
    # +-sqrt(2/3) sit in the intervals they split off
    p = _poly.poly((0, F(1, 6), 0, F(-11, 12), 0, 1))  # x (x^2 - 1/4) (x^2 - 2/3)
    locations = _poly.isolate_roots(_poly.sturm_chain(p), F(-1), F(1))
    # the isolation builds no chain beyond the one it is given
    assert len(chains) == 1
    assert points and len(set(points)) == len(points)
    assert [r.exact for r in locations] == [None, F(-1, 2), F(0), F(1, 2), None]
    for r, sign in ((locations[0], -1), (locations[-1], 1)):
        assert r.lo < sign * F(2, 3) ** 0.5 < r.hi
        assert r.hi - r.lo == F(1, 2**17)


def test_isolate_roots_refines_by_the_sign_of_p(monkeypatch):
    # x^3 - 3x + 1 has one root in (0, 1), near 0.347: the chain's other
    # members count it at the endpoints and are read nowhere else
    p = _poly.poly((1, -3, 0, 1))
    chain = _poly.sturm_chain(p)
    points = []
    evaluate = _poly.eval_numerator
    monkeypatch.setattr(
        _poly,
        "eval_numerator",
        lambda q, n, d: points.append((q, F(n, d))) or evaluate(q, n, d),
    )
    [root] = _poly.isolate_roots(chain, F(0), F(1))
    assert root.exact is None and root.hi - root.lo == F(1, 2**_poly.REFINE_STEPS)
    assert evaluate(p, root.lo.numerator, root.lo.denominator) > 0
    assert evaluate(p, root.hi.numerator, root.hi.denominator) < 0
    others = [point for point in points if point[0] != chain[0]]
    assert len(chain) > 2
    assert sorted(others) == sorted((q, F(x)) for q in chain[1:] for x in (0, 1))
    # p at both endpoints and at every midpoint of the refinement
    assert len(points) - len(others) == 2 + _poly.REFINE_STEPS + 1


def _fraction_value(q, x):
    """q(x) by rational Horner."""
    acc = F(0)
    for c in reversed(q):
        acc = acc * x + c
    return acc


def _fraction_variations(chain, x):
    """Sign variations of a Sturm chain at a ``Fraction`` x."""
    signs = [v > 0 for v in (_fraction_value(q, x) for q in chain) if v != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _fraction_bisection(p, a, b):
    """``isolate_roots`` of a square-free p on (a, b), bisecting on
    ``Fraction`` points with midpoints ``(lo + hi) / 2``."""
    chain = _poly.sturm_chain(p)
    roots = []
    stack = [(a, b, _fraction_variations(chain, a), _fraction_variations(chain, b), 0)]
    while stack:
        lo, hi, vlo, vhi, steps = stack.pop()
        count = vlo - vhi
        if count == 0:
            continue
        mid = (lo + hi) / 2
        if _fraction_value(chain[0], mid) == 0:
            roots.append(_poly.RootLocation(lo=mid, hi=mid, exact=mid))
            if count > 1:
                vmid = _fraction_variations(chain, mid)
                stack.append((lo, mid, vlo, vmid + 1, 0))
                stack.append((mid, hi, vmid, vhi, 0))
        elif steps == _poly.REFINE_STEPS:
            roots.append(_poly.RootLocation(lo=lo, hi=hi))
        else:
            vmid = _fraction_variations(chain, mid)
            steps = steps + 1 if count == 1 else 0
            stack.append((lo, mid, vlo, vmid, steps))
            stack.append((mid, hi, vmid, vhi, steps))
    roots.sort(key=_poly.RootLocation.midpoint)
    return roots


@st.composite
def bisection_cases(draw):
    """``(p, a, b)``: an interval with independent small denominators (so
    lcm(den a, den b) is mostly not a power of 2) and a polynomial of
    degree <= 8 whose rational roots lie on the interval's bisection
    midpoints or at random rationals, times a random factor; neither
    endpoint is a root.  A midpoint lies 1 to 6 halvings below (a, b),
    where the separation meets it, or 7 to ``REFINE_STEPS + 2``, where the
    refinement of a root isolated one or two halvings down meets it, down
    to its last check."""
    ends = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    a = draw(ends)
    b = draw(ends.filter(lambda x: x != a))
    a, b = min(a, b), max(a, b)
    midpoints = st.builds(
        lambda k, e: a + (b - a) * F(k, 2**e), st.integers(1, 63), st.integers(1, 6)
    )
    deep = st.integers(7, _poly.REFINE_STEPS + 2).flatmap(
        lambda e: st.integers(1, 2**e - 1).map(lambda k: a + (b - a) * F(k, 2**e))
    )
    p = _poly.ONE
    for r in draw(st.lists(st.one_of(midpoints, deep, ends), max_size=4)):
        p = _poly.mul(p, (-r, F(1)))
    small = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    cap = 8 - _poly.degree(p)
    p = _poly.mul(p, _poly.poly(draw(st.lists(small, min_size=1, max_size=cap + 1))))
    assume(not _poly.is_zero(p) and _poly.eval_at(p, a) and _poly.eval_at(p, b))
    return p, a, b


@settings(deadline=None, max_examples=300)
@given(bisection_cases())
# on (-2/3, 5/7) the first midpoint 1/42 and the quarter point -9/28 are
# roots, and x^2 - 1/3 puts two irrational roots in the intervals they split
@example(
    (
        _poly.mul(_poly.mul((F(-1, 42), F(1)), (F(9, 28), F(1))), (F(-1, 3), 0, F(1))),
        F(-2, 3),
        F(5, 7),
    )
)
# on (-1, 1) the first midpoint 0 is a root with -4/5 left of it, so an even
# count of roots up to it, and x^2 - 2x + 1/2 puts 1 - sqrt(1/2) right of
# it: its refinement starts from a sign the counts give, unflipped (the
# example above flips it, with three roots up to 1/42)
@example(
    (_poly.mul(_poly.mul((F(4, 5), F(1)), (0, F(1))), (F(1, 2), -2, F(1))), F(-1), F(1))
)
def test_integer_bisection_matches_fraction_bisection(case):
    p, a, b = case
    # the counts hold for any p; the locations need a square-free one
    chain = _poly.sturm_chain(p)
    want = _fraction_variations(chain, a) - _fraction_variations(chain, b)
    assert _poly.count_roots_open(p, a, b) == want
    squarefree = _poly.div_exact(_poly.primitive(p), _poly.gcd(p, _poly.derivative(p)))
    want = _fraction_bisection(squarefree, a, b)
    got = _poly.isolate_roots(_poly.sturm_chain(squarefree), a, b)
    assert [repr(r) for r in got] == [repr(r) for r in want]
    assert _poly.count_roots_open(squarefree, a, b) == len(got)


@pytest.mark.parametrize("a, b", [(1, -1), (F(1, 3), F(1, 3)), (F(5, 7), F(-2, 3))])
def test_root_isolation_refuses_an_empty_interval(a, b):
    p = _poly.poly((F(-2, 3), 0, 1))  # x^2 - 2/3: no root at either endpoint
    with pytest.raises(ValueError, match="a < b"):
        _poly.isolate_roots(_poly.sturm_chain(p), a, b)
    with pytest.raises(ValueError, match="a < b"):
        _poly.count_roots_open(p, a, b)


def test_root_isolation_refuses_a_repeated_root():
    # x^2 (x - 1/3): the double root 0 is the first midpoint of (-1, 1),
    # where no member of the chain has a sign; the count is still right
    p = _poly.mul((0, 0, 1), (F(-1, 3), 1))
    assert _poly.count_roots_open(p, -1, 1) == 2
    with pytest.raises(ValueError, match="square-free"):
        _poly.isolate_roots(_poly.sturm_chain(p), -1, 1)


def test_sturm_chain_is_primitive_classical_sequence(rng):
    from math import gcd

    def remainder(a, b):
        r = list(a)
        while len(r) >= len(b):
            f = r[-1] / b[-1]
            for i, c in enumerate(b):
                r[len(r) - len(b) + i] -= f * c
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        return r

    def classical(p):
        """p, p', then -rem(p_{k-1}, p_k) until the remainder vanishes."""
        seq = [list(p), [i * c for i, c in enumerate(p)][1:]]
        while len(seq[-1]) > 1:
            r = remainder(seq[-2], seq[-1])
            if not r:
                break
            seq.append([-c for c in r])
        return [q for q in seq if q]

    polys = [_poly.poly((3,)), _poly.poly((0, 1)), _poly.poly((F(1, 2), 0, F(-7, 3)))]
    while len(polys) < 40:
        p = _poly.poly(
            F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 8))
        )
        if p and rng.random() < 0.3:
            p = _poly.mul(p, p)
        if p:
            polys.append(p)
    for p in polys:
        chain = _poly.sturm_chain(p)
        want = classical(p)
        assert len(chain) == len(want)
        for member, q in zip(chain, want):
            assert all(type(c) is int for c in member)
            assert gcd(*member) == 1
            assert len(member) == len(q)
            ratio = F(member[-1]) / q[-1]
            assert ratio > 0
            assert all(F(m) == ratio * c for m, c in zip(member, q))


def test_endpoint_det_matches_sympy(rng):
    import sympy

    def rational(c):
        return sympy.Rational(c.numerator, c.denominator)

    def draw(n):
        return [
            [F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 7))) for _ in range(n)]
            for _ in range(n)
        ]

    cases = []
    for n in range(8):
        cases.append(draw(n))
        if n >= 2:
            singular = draw(n)  # last row a combination of two others
            singular[-1] = [
                F(2, 3) * x - y for x, y in zip(singular[0], singular[1])
            ]
            cases.append(singular)
            zero_row = draw(n)
            zero_row[rng.randrange(n)] = [F(0)] * n
            cases.append(zero_row)
            swap = draw(n)  # the first pivot is zero, a lower row supplies it
            swap[0][0] = F(0)
            cases.append(swap)
        if n >= 3:
            # leading 2x2 minor singular: the second pivot needs a swap
            late = draw(n)
            late[1] = [F(5, 2) * x for x in late[0]]
            late[1][n - 1] += 1
            cases.append(late)
    for m in cases:
        want = sympy.Matrix(len(m), len(m), [rational(c) for row in m for c in row])
        got = _linalg.det(_linalg.freeze(m))
        assert type(got) is F
        assert rational(got) == want.det()
