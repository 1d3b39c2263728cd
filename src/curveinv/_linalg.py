"""Exact linear algebra on constant rational matrices (internal).

Matrices are tuples of row tuples of ``Fraction``, vectors tuples of
``Fraction``.  The module is construction, the product (``_poly.mat_mul``
on the operands scaled to integers) and one fraction-free elimination
over Z, ``_echelon``: ``rref`` (and through it rank, kernels and
inverses) and ``det`` only read its integer rows.  Both run over Z, and
only their outputs are rational.  Row reduction picks the leftmost pivot.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from . import _poly

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
    """Matrix product: ``_poly.mat_mul`` of the operands scaled to integer
    constant polynomials, each entry one ``Fraction`` over the two scales."""
    (ia, da), (ib, db) = [_poly.to_int_matrix([[(x,) for x in r] for r in m]) for m in (a, b)]
    prod, s = _poly.mat_mul(ia, ib), da * db
    return tuple(tuple(Fraction(p[0], s) if p else Fraction(0) for p in row) for row in prod)


def hstack(cols: Sequence[Sequence[Fraction]], n_rows: int) -> Matrix:
    """Matrix whose columns are the given vectors (empty list allowed)."""
    return tuple(tuple(col[i] for col in cols) for i in range(n_rows))


def _echelon(a: Matrix):
    """Fraction-free Gauss-Jordan elimination over Z (Bareiss 1968).

    Each row is scaled to integers by the lcm of its denominators.  At a
    pivot ``p`` in row ``top`` every other row becomes
    ``(p*row - f*top) // prev``, with ``f`` its entry in the pivot column and
    ``prev`` the previous pivot, even where ``f`` is 0; each entry stays a
    minor of the scaled matrix, so the division is exact, and every pivot
    ends equal to the last one.  Returns the integer
    rows, the pivot columns, the sign of the row swaps, the last pivot and
    the product of the row scales.
    """
    n, m = shape(a)
    rows = []
    scale = 1
    for row in a:
        d = math.lcm(*[c.denominator for c in row])
        rows.append([c.numerator * (d // c.denominator) for c in row])
        scale *= d
    pivots = []
    sign = 1
    prev = 1
    for c in range(m):
        r = len(pivots)
        pivot_row = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        for i in range(n):
            if i != r:
                f = rows[i][c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
        pivots.append(c)
        prev = p
        if r + 1 == n:
            break
    return rows, pivots, sign, prev, scale


def rref(a: Matrix):
    """Reduced row echelon form and the pivot column indices."""
    rows, pivots, _, prev, _ = _echelon(a)
    return tuple(tuple(Fraction(x, prev) for x in row) for row in rows), pivots


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def kernel_basis(a: Matrix) -> list:
    """Canonical basis of the null space, one vector per free column."""
    return kernel_from_rref(*rref(a), shape(a)[1])


def kernel_from_rref(red: Matrix, pivots, m: int) -> list:
    """The kernel of the first ``m`` columns, read off reduced rows whose
    leading rows pivot at ``pivots`` (all below ``m``): one vector per
    free column, its pivot entries the negated free column."""
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
    """Determinant: the last pivot of the elimination over the row scales."""
    n, m = shape(a)
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    _, pivots, sign, prev, scale = _echelon(a)
    return Fraction(sign * prev, scale) if len(pivots) == n else Fraction(0)
