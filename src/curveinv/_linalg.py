"""Exact linear algebra over the rationals (internal).

Matrices are tuples of row tuples of ``Fraction``; columns/vectors are
tuples of ``Fraction``.  Everything is deterministic: row reduction always
picks the leftmost pivot, basis extensions scan the standard basis in a
fixed direction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Matrix = tuple  # tuple[tuple[Fraction, ...], ...]


def freeze(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(Fraction(c) for c in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def zeros(n: int, m: int) -> Matrix:
    return tuple(tuple(Fraction(0) for _ in range(m)) for _ in range(n))


def shape(m: Matrix):
    return len(m), len(m[0]) if m else 0


def matmul(a: Matrix, b: Matrix) -> Matrix:
    n, k = shape(a)
    _, p = shape(b)
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(p))
        for i in range(n)
    )


def madd(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def msub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mscale(a: Matrix, c) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(x * c for x in row) for row in a)


def polyval(coeffs: Sequence[Matrix], x) -> Matrix:
    """The matrix polynomial sum_k coeffs[k] * x**k, by Horner's rule."""
    x = Fraction(x)
    acc = coeffs[-1]
    for mat in reversed(coeffs[:-1]):
        acc = tuple(
            tuple(a * x + c for a, c in zip(ra, rm)) for ra, rm in zip(acc, mat)
        )
    return acc


def hstack(cols: Sequence[Sequence[Fraction]], n_rows: int) -> Matrix:
    """Matrix whose columns are the given vectors (empty list allowed)."""
    return tuple(tuple(col[i] for col in cols) for i in range(n_rows))


def columns(a: Matrix) -> list:
    n, m = shape(a)
    return [tuple(a[i][j] for i in range(n)) for j in range(m)]


def rref(a: Matrix):
    """Reduced row echelon form and the pivot column indices."""
    rows = [list(r) for r in a]
    n, m = shape(a)
    pivots = []
    r = 0
    for c in range(m):
        pivot_row = None
        for i in range(r, n):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return freeze(rows), pivots


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def kernel_basis(a: Matrix) -> list:
    """Canonical basis of the null space, one vector per free column."""
    n, m = shape(a)
    red, pivots = rref(a)
    pivot_set = set(pivots)
    free = [j for j in range(m) if j not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * m
        v[f] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -red[row_idx][f]
        basis.append(tuple(v))
    return basis


def column_space_pivots(a: Matrix) -> list:
    """Pivot column indices; the corresponding columns of ``a`` span R[a]."""
    return rref(a)[1]


def extend_to_basis(cols: Sequence[Sequence[Fraction]], n: int, reverse: bool = False):
    """Complete independent columns to a basis of Q^n with standard vectors.

    Scans e_0, e_1, ... (or the reverse) and keeps each vector that raises
    the rank: those are the pivot columns of ``cols`` followed by the scan,
    read off one row reduction.  Returns the list of appended standard
    vectors.
    """
    k = len(cols)
    order = range(n - 1, -1, -1) if reverse else range(n)
    scan = [tuple(Fraction(1) if j == i else Fraction(0) for j in range(n)) for i in order]
    pivots = rref(hstack(list(cols) + scan, n))[1]
    if pivots[:k] != list(range(k)):
        raise ArithmeticError("failed to extend to a basis")
    return [scan[j - k] for j in pivots[k:]]


def inverse(a: Matrix) -> Matrix:
    n, m = shape(a)
    if n != m:
        raise ValueError("only square matrices are invertible")
    aug = tuple(row + ident_row for row, ident_row in zip(a, identity(n)))
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ArithmeticError("matrix is singular")
    return tuple(row[n:] for row in red)


def det(a: Matrix) -> Fraction:
    """Determinant by fraction-free Bareiss elimination over Z.

    Each row is scaled to integers; every elimination step divides exactly
    by the previous pivot, and the row scales are divided out once.
    """
    n, m = shape(a)
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    rows = []
    scale = 1
    for row in a:
        d = math.lcm(*[c.denominator for c in row])
        rows.append([c.numerator * (d // c.denominator) for c in row])
        scale *= d
    sign = 1
    prev = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        p, top = rows[k][k], rows[k]
        for i in range(k + 1, n):
            r, f = rows[i], rows[i][k]
            for j in range(k + 1, n):
                r[j] = (r[j] * p - f * top[j]) // prev
        prev = p
    return Fraction(sign * prev, scale)


def is_zero_matrix(a: Matrix) -> bool:
    return all(c == 0 for row in a for c in row)
