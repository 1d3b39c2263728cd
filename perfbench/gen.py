"""Seeded input generators for the benchmark.

These reproduce, draw for draw, the generators the acceptance tests use
(``curve_with_known_multiplicity`` and ``random_admissible_path``), so the
benchmark's workloads stay fixed when the test helpers change.  The
matrix arithmetic needed to build inputs is done here on plain Fraction
tuples; only the public curve and path types come from the library.

Every function takes an explicit ``random.Random``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from curveinv.multiplicity import MatrixCurveJet
from curveinv.parity import PolynomialPath

ZERO = Fraction(0)
ONE = Fraction(1)


def _identity(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def _zeros(n):
    return tuple(tuple(ZERO for _ in range(n)) for _ in range(n))


def _madd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _matmul(a, b):
    cols = list(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in cols)
        for row in a
    )


def is_singular(a) -> bool:
    """Exact Gaussian elimination; True when det(a) == 0."""
    rows = [list(r) for r in a]
    n = len(rows)
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if pivot is None:
            return True
        rows[k], rows[pivot] = rows[pivot], rows[k]
        p = rows[k][k]
        for i in range(k + 1, n):
            if rows[i][k] != 0:
                f = rows[i][k] / p
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return False


def _convolve(a, b, n):
    out = []
    for k in range(len(a) + len(b) - 1):
        acc = _zeros(n)
        for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
            acc = _madd(acc, _matmul(a[i], b[k - i]))
        out.append(acc)
    return out


def rational(rng: random.Random, span: int = 4, dens: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, dens))


def random_matrix(rng, n, span=4, dens=3):
    return tuple(
        tuple(rational(rng, span, dens) for _ in range(n)) for _ in range(n)
    )


def random_invertible(rng, n, span=4, dens=1):
    while True:
        m = random_matrix(rng, n, span, dens)
        if not is_singular(m):
            return m


def random_unit_curve_coeffs(rng, n, degree):
    """Coefficients of a matrix polynomial invertible at 0."""
    coeffs = [random_invertible(rng, n)]
    coeffs += [random_matrix(rng, n, 2, 1) for _ in range(degree)]
    return coeffs


def draw_curve_shape(rng: random.Random, n: int | None = None, max_degree: int = 8):
    """The discrete part of a known-multiplicity curve.

    Returns ``(n, deg_a, deg_b, exponents)``: the dimension, the degrees of
    the two unit factors and the monomial exponents of the diagonal factor.
    """
    if n is None:
        n = rng.randint(1, 6)
    deg_a = rng.randint(0, 1)
    deg_b = rng.randint(0, 1)
    e_max = max_degree - deg_a - deg_b
    exponents = [rng.randint(0, min(3, e_max)) for _ in range(n)]
    if all(e == 0 for e in exponents):
        exponents[rng.randrange(n)] = rng.randint(1, min(3, max(e_max, 1)))
    return n, deg_a, deg_b, tuple(exponents)


def curve_from_shape(rng: random.Random, shape):
    """The curve A(mu) D(mu) B(mu) of the given shape, with its multiplicity.

    D is diagonal with monomial entries mu^e_i; A, B have the shape's
    degrees (at most 1) and are invertible at 0, so the multiplicity at
    the base point is sum(e_i).  The entries and the base point are drawn
    from ``rng``.
    """
    n, deg_a, deg_b, exponents = shape
    a = random_unit_curve_coeffs(rng, n, deg_a)
    b = random_unit_curve_coeffs(rng, n, deg_b)
    d = [
        tuple(
            tuple(ONE if (i == j and exponents[i] == k) else ZERO for j in range(n))
            for i in range(n)
        )
        for k in range(max(exponents) + 1)
    ]
    coeffs = _convolve(_convolve(a, d, n), b, n)
    base = Fraction(rng.choice((0, 1, Fraction(-1, 2))))
    return MatrixCurveJet(n, base, tuple(coeffs)), sum(exponents)


def curve_with_known_multiplicity(rng: random.Random, n: int | None = None, max_degree: int = 8):
    """A random curve together with its exact multiplicity."""
    return curve_from_shape(rng, draw_curve_shape(rng, n, max_degree))


def draw_path_shape(rng: random.Random, max_dim: int = 5, max_degree: int = 6):
    """The discrete part of one path draw: ``(n, structured, k)``.

    A structured draw has ``k`` prescribed roots, a random one degree ``k``.
    """
    n = rng.randint(1, max_dim)
    if rng.random() < 0.7:
        return n, True, rng.randint(0, min(3, max_degree))
    return n, False, rng.randint(0, max_degree)


def path_from_shape(rng: random.Random, shape) -> PolynomialPath:
    """One path draw of the given shape on [-1, 1]; it may be singular at
    an endpoint (see ``is_admissible``).

    Structured draws are A * diag(lam - c_i) * B with constant invertible
    A, B and distinct dyadic c_i in (-1, 1), so the determinant roots are
    exactly the c_i; random draws are matrix polynomials with small
    integer entries.
    """
    a, b = Fraction(-1), Fraction(1)
    n, structured, count = shape
    if not structured:
        mats = [random_matrix(rng, n, 2, 1) for _ in range(count + 1)]
        return PolynomialPath(n, a, b, tuple(mats))
    roots = []
    while len(roots) < count:
        c = Fraction(rng.randint(-7, 7), 8)
        if c not in roots and a < c < b:
            roots.append(c)
    left = random_invertible(rng, n)
    right = random_invertible(rng, n)
    coeffs = [_identity(n)]
    for c in roots[:n]:
        # multiply a diagonal factor (lam - c) into one random slot
        slot = rng.randrange(n)
        factor = [
            tuple(
                tuple(
                    (-c if k == 0 else ONE)
                    if (i == j == slot)
                    else (ONE if (i == j and k == 0) else ZERO)
                    for j in range(n)
                )
                for i in range(n)
            )
            for k in range(2)
        ]
        coeffs = _convolve(coeffs, factor, n)
    coeffs = _convolve(_convolve([left], coeffs, n), [right], n)
    return PolynomialPath(n, a, b, tuple(coeffs))


def random_admissible_path(rng: random.Random, max_dim: int = 5, max_degree: int = 6):
    """Admissible path, biased toward having known simple crossings;
    draws are rejected until both endpoints are invertible."""
    while True:
        path = path_from_shape(rng, draw_path_shape(rng, max_dim, max_degree))
        if is_admissible(path):
            return path


def _evaluate(path, lam):
    n = path.dim
    acc = [[ZERO] * n for _ in range(n)]
    for mat in reversed(path.coefficients):
        for i in range(n):
            for j in range(n):
                acc[i][j] = acc[i][j] * lam + mat[i][j]
    return acc


def is_admissible(path) -> bool:
    """True when the path is invertible at both endpoints."""
    return not (
        is_singular(_evaluate(path, path.a)) or is_singular(_evaluate(path, path.b))
    )
