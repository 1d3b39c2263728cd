"""Shared deterministic generators for random curves, paths and matrices,
and a sympy oracle for polynomial matrices.

Everything takes an explicit ``random.Random`` so the suites are
reproducible; curves with a known multiplicity are built as products
A * D * B with A, B invertible at the base point and D a diagonal of
monomials, so the expected value is just the sum of the exponents.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from curveinv import _linalg
from curveinv.multiplicity import MatrixCurveJet, ProjectionPair, projection_pair
from curveinv.parity import PolynomialPath


def rational(rng: random.Random, span: int = 4, dens: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, dens))


def random_matrix(rng, n, span=4, dens=3):
    return tuple(
        tuple(rational(rng, span, dens) for _ in range(n)) for _ in range(n)
    )


def random_invertible(rng, n, span=4, dens=1):
    while True:
        m = random_matrix(rng, n, span, dens)
        if _linalg.det(m) != 0:
            return m


def random_matrix_polynomial(rng, n, degree, span=3, dens=2):
    """List of n x n coefficient matrices, the constant term first."""
    return [random_matrix(rng, n, span, dens) for _ in range(degree + 1)]


def random_unit_curve_coeffs(rng, n, degree):
    """Coefficients of a matrix polynomial invertible at 0."""
    coeffs = [random_invertible(rng, n)]
    coeffs += [random_matrix(rng, n, 2, 1) for _ in range(degree)]
    return coeffs


def _convolve(a, b, n):
    out = []
    for k in range(len(a) + len(b) - 1):
        acc = _linalg.zeros(n, n)
        for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
            prod = _linalg.matmul(a[i], b[k - i])
            acc = tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(acc, prod))
        out.append(acc)
    return out


def curve_with_known_multiplicity(
    rng: random.Random,
    n: int | None = None,
    max_degree: int = 8,
    base_points=(0, 1, Fraction(-1, 2)),
):
    """A curve A(mu) D(mu) B(mu) together with its exact multiplicity.

    D is diagonal with monomial entries mu^e_i; A, B are degree <= 1 and
    invertible at 0, so the multiplicity at the base point is sum(e_i) and
    the total degree stays within the bound.
    """
    if n is None:
        n = rng.randint(1, 6)
    deg_a = rng.randint(0, 1)
    deg_b = rng.randint(0, 1)
    e_max = max_degree - deg_a - deg_b
    exponents = [rng.randint(0, min(3, e_max)) for _ in range(n)]
    if all(e == 0 for e in exponents):
        exponents[rng.randrange(n)] = rng.randint(1, min(3, max(e_max, 1)))
    a = random_unit_curve_coeffs(rng, n, deg_a)
    b = random_unit_curve_coeffs(rng, n, deg_b)
    top = max(exponents)
    d = []
    for k in range(top + 1):
        d.append(
            tuple(
                tuple(
                    Fraction(1) if (i == j and exponents[i] == k) else Fraction(0)
                    for j in range(n)
                )
                for i in range(n)
            )
        )
    coeffs = _convolve(_convolve(a, d, n), b, n)
    base = Fraction(rng.choice(base_points))
    return MatrixCurveJet(n, base, tuple(coeffs)), sum(exponents)


def random_admissible_path(rng: random.Random, max_dim=5, max_degree=6):
    """Admissible path, biased toward having known simple crossings.

    Structured draws are A * diag(lam - c_i) * B with constant invertible
    A, B and distinct rational c_i, so the determinant roots are exactly
    the c_i; the rest are rejection-sampled random matrix polynomials.
    """
    a, b = Fraction(-1), Fraction(1)
    n = rng.randint(1, max_dim)
    if rng.random() < 0.7:
        n_roots = rng.randint(0, min(3, max_degree))
        roots = []
        while len(roots) < n_roots:
            c = Fraction(rng.randint(-7, 7), 8)
            if c not in roots and a < c < b:
                roots.append(c)
        left = random_invertible(rng, n)
        right = random_invertible(rng, n)
        coeffs = [_linalg.identity(n)]
        for c in roots[: n]:
            # multiply a diagonal factor (lam - c) into one random slot
            slot = rng.randrange(n)
            factor = [
                tuple(
                    tuple(
                        (-c if k == 0 else Fraction(1))
                        if (i == j == slot)
                        else (Fraction(1) if (i == j and k == 0) else Fraction(0))
                        for j in range(n)
                    )
                    for i in range(n)
                )
                for k in range(2)
            ]
            coeffs = _convolve(coeffs, factor, n)
        coeffs = _convolve([left], coeffs, n)
        coeffs = _convolve(coeffs, [right], n)
        path = PolynomialPath(n, a, b, tuple(coeffs))
        if path.is_admissible():
            return path
        return random_admissible_path(rng, max_dim, max_degree)
    degree = rng.randint(0, max_degree)
    path = PolynomialPath(
        n, a, b, tuple(random_matrix_polynomial(rng, n, degree, span=2, dens=1))
    )
    if path.is_admissible():
        return path
    return random_admissible_path(rng, max_dim, max_degree)


def random_rank_one_projection(rng: random.Random, n: int):
    """u v^T with v^T u = 1, exact rationals."""
    while True:
        u = [rational(rng, 3, 2) for _ in range(n)]
        v = [rational(rng, 3, 2) for _ in range(n)]
        dot = sum(a * b for a, b in zip(u, v))
        if dot != 0:
            u = [a / dot for a in u]
            return tuple(tuple(ui * vj for vj in v) for ui in u)


def random_projection_pair(rng: random.Random, t, span: int = 3) -> ProjectionPair:
    """A random projection pair of T, drawn from the canonical one by
    block-triangular changes of frame: the kernel basis K becomes K*A, its
    complement K_c + K*X, the range basis R becomes R*B and its complement
    R_c + R*Y, with A and B unit upper-triangular and every other entry of
    A, X, B, Y an integer in [-span, span].  Both frames stay invertible,
    so every draw is a valid pair."""
    pair = projection_pair(t)

    def plus(v, cols):
        """v plus a random integer combination of cols."""
        for u in cols:
            c = rng.randint(-span, span)
            v = tuple(a + c * b for a, b in zip(v, u))
        return v

    k, r = pair.kernel_basis, pair.range_basis
    return ProjectionPair(
        kernel_basis=tuple(plus(v, k[:j]) for j, v in enumerate(k)),
        kernel_complement=tuple(plus(v, k) for v in pair.kernel_complement),
        range_basis=tuple(plus(v, r[:j]) for j, v in enumerate(r)),
        range_complement=tuple(plus(v, r) for v in pair.range_complement),
    )


def matrix_with_rational_spectrum(rng: random.Random, n: int):
    """S T S^{-1} for upper-triangular T; eigenvalues read off the diagonal."""
    eigs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    t = [
        [
            eigs[i] if i == j else (rational(rng, 2, 1) if j > i else Fraction(0))
            for j in range(n)
        ]
        for i in range(n)
    ]
    s = random_invertible(rng, n, span=3, dens=1)
    m = _linalg.matmul(_linalg.matmul(s, _linalg.freeze(t)), _linalg.inverse(s))
    return m, eigs


def sympy_poly_matrix(m):
    """A ``_poly`` matrix as a sympy DomainMatrix over QQ[t]."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    ring = sympy.QQ[sympy.Symbol("t")]

    def entry(p):
        coeffs = [sympy.QQ(c.numerator, c.denominator) for c in p]
        return ring.ring.from_list(coeffs[::-1])  # highest power first

    return DomainMatrix([[entry(p) for p in row] for row in m], (len(m), len(m)), ring)


def sympy_schur_numerator(grid, steps):
    """``(det B, det(B)*D - C*adj(B)*C')`` of a sympy DomainMatrix over
    QQ[t], for its leading ``steps`` x ``steps`` block B, as ``_poly``
    polynomials over Q."""

    def poly(p):
        return tuple(Fraction(int(c.numerator), int(c.denominator)) for c in p.to_dense()[::-1])

    n = grid.shape[0]
    lead, rest = list(range(steps)), list(range(steps, n))
    b, d = grid.extract(lead, lead), grid.extract(rest, rest)
    # sympy's division-free Berkowitz characteristic polynomial; det() on
    # sympy expressions gives the same values, but expanding them makes
    # dims 5 and 6 take seconds each
    det_b = b.charpoly()[-1] * (-1) ** steps
    s = d.mul(det_b)
    if steps:
        s = s - grid.extract(rest, lead) * b.adjugate() * grid.extract(lead, rest)
    return poly(det_b), [[poly(p) for p in row] for row in s.to_list()]


@pytest.fixture
def rng():
    return random.Random(20240817)
