"""Exact linear algebra on constant rational matrices (internal).

Matrices are tuples of row tuples of ``Fraction``, vectors tuples of
``Fraction``.  The module is construction, the product and one
fraction-free elimination over Z, ``_echelon``: ``rref`` (and through it
kernels and inverses) and ``det`` read its integer rows, ``rank`` its
pivot count.  Both scale a matrix to integers once (``_scaled``) and run
over Z; only their outputs are rational, and pivots are leftmost.
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


def _scaled(a: Matrix):
    """``(a*d, d)`` as integer rows, d the lcm of all of a's denominators."""
    d = math.lcm(*[c.denominator for row in a for c in row])
    return [[c.numerator * (d // c.denominator) for c in row] for row in a], d


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product: each entry one integer dot product of the scaled
    operands, and one ``Fraction`` over the product of the two scales."""
    (ia, da), (ib, db) = _scaled(a), _scaled(b)
    cols, s = list(zip(*ib)), da * db
    return tuple(
        tuple(Fraction(sum([x * y for x, y in zip(r, c)]), s) for c in cols) for r in ia
    )


def hstack(cols: Sequence[Sequence[Fraction]], n_rows: int) -> Matrix:
    """Matrix whose columns are the given vectors (empty list allowed)."""
    return tuple(tuple(col[i] for col in cols) for i in range(n_rows))


def _echelon(a: Matrix):
    """Fraction-free Gauss-Jordan elimination over Z (Bareiss 1968).

    The matrix is scaled to integers once, by one lcm d (``_scaled``).  At
    a pivot ``p`` in row ``top`` every other row becomes
    ``(p*row - f*top) // prev``, with ``f`` its entry in the pivot column
    and ``prev`` the previous pivot, even where ``f`` is 0; each entry stays
    a minor of the scaled matrix, so the division is exact, and every pivot
    ends equal to the last one.  Returns the integer rows, the pivot
    columns, the sign of the row swaps, the last pivot and ``d**n``.
    """
    n, m = shape(a)
    rows, d = _scaled(a)
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
    return rows, pivots, sign, prev, d**n


def rref(a: Matrix):
    """Reduced row echelon form and the pivot column indices."""
    rows, pivots, _, prev, _ = _echelon(a)
    return tuple(tuple(Fraction(x, prev) for x in row) for row in rows), pivots


def rank(a: Matrix) -> int:
    return len(_echelon(a)[1])


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
    """Determinant: the last pivot of the elimination over its scale."""
    n, m = shape(a)
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    _, pivots, sign, prev, scale = _echelon(a)
    return Fraction(sign * prev, scale) if len(pivots) == n else Fraction(0)
