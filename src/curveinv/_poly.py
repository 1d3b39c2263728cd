"""Exact univariate polynomial arithmetic over the integers and rationals.

Internal plumbing shared by the jet ring, the multiplicity routes and the
root isolation code.  A polynomial is a tuple of coefficients indexed by
power, each an ``int`` or a ``Fraction``, with trailing zeros stripped; the
zero polynomial is the empty tuple.  The ring operations (``add``, ``sub``,
``neg``, ``mul``, ``derivative``) serve both coefficient rings and never
coerce, so integer inputs give integer results; ``poly`` is the coercing
constructor for inputs.  The Euclidean kernels (``gcd``, ``div_exact``,
``squarefree_decomposition``, ``sturm_chain``) run over Z on primitive
polynomials: a rational one enters at their entry, through ``primitive``,
and each remainder sheds only its content.  The matrix kernels run over Z
only; a rational matrix enters once, through ``to_int_matrix`` (in one
pass from a stack of coefficient matrices, ``scaled_lift``).
One fraction-free Bareiss elimination, ``mat_eliminate``, gives both the
determinant of a polynomial matrix (``mat_det_bareiss``) and the Schur
complement of a leading block, with one rational factor; the adjugate of
``mat_adjugate_det`` is modulo a power of x, as its exact divisions hold
over Z alone.  All operations are exact, no floating point anywhere.

Root isolation runs on integers.  One homogeneous Horner loop,
``eval_numerator(p, n, d) = sum c_i n^i d^(deg-i)``, serves every
evaluation: ``eval_at`` is its ``Fraction`` reading, divided by d^deg
once, ``mat_eval_numerator`` reads a scaled matrix as integers over one
scale, and a Sturm sign is its sign, never divided, as d > 0.  The
bisection of ``isolate_roots`` runs on a Sturm chain it is given, which
ends in gcd(p, p'), keeps each point as an integer N over q 2^e, q the lcm
of the endpoints' denominators, and halves an interval by adding
numerators; only a reported root or bracket becomes a ``Fraction``.  The
chain separates the roots; once an interval holds one, the sign of p alone
refines it, as a simple root is the only place there where p changes sign.

Every matrix product with a polynomial operand is the one ``mat_mul`` of
integer operands (constant matrices are ``_linalg.matmul``'s, one integer
dot product an entry), by Kronecker substitution: each entry is packed
into one integer, its value at x = 2^w, and each output entry is one sum
of big-integer products, whose w-bit signed digits are its coefficients.
The width ``w = bits A + bits B + bits(k*l) + 1`` (largest coefficients
``A`` and ``B``, inner dimension ``k``, shorter longest entry ``l``) keeps
every output coefficient below 2^(w-1) in absolute value.  A caller with
rational operands scales each with ``to_int_matrix`` and divides the
product by the two scales once.

The elimination packs the same way, and then runs one Bareiss loop over Z
on the integer matrix m(2^w).  Evaluation at 2^w is a ring homomorphism
Z[x] -> Z, and every value the loop forms is a minor of the scaled
matrix, whose sum of |coefficients| is at most the product of its rows'
l1 norms.  The width is one bit past that bound, so a nonzero minor never
evaluates to 0 (the pivots and swaps are those of the elimination over
Z[x]) and every minor reads back exactly.  Each exact division by the
previous pivot is read 2-adically, through one Newton inverse per step.

Tuples of coefficients are built from lists, not generators: CPython
grows a tuple fed by a generator by repeated resizing, and with big-int
coefficients that alone raised the peak memory of a long root isolation
run by several MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

Poly = tuple  # tuple[int | Fraction, ...]

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)

# halvings of each isolating interval, so the reported bracket is readable
REFINE_STEPS = 16


def poly(coeffs: Iterable) -> Poly:
    """Build a normalized rational polynomial from ascending-power coefficients."""
    return _trim([Fraction(c) for c in coeffs])


def _trim(p) -> Poly:
    k = len(p)
    while k and p[k - 1] == 0:
        k -= 1
    return tuple(p[:k])


def degree(p: Poly) -> int:
    """Degree, with the convention deg 0 = -1."""
    return len(p) - 1


def is_zero(p: Poly) -> bool:
    return not p


def low_order(p: Poly):
    """Index of the first nonzero coefficient, or None for the zero polynomial."""
    for i, c in enumerate(p):
        if c != 0:
            return i
    return None


def add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def neg(a: Poly) -> Poly:
    return tuple([-c for c in a])


def sub(a: Poly, b: Poly) -> Poly:
    return add(a, neg(b))


def mul(a: Poly, b: Poly, cap: int | None = None) -> Poly:
    """Product; with ``cap``, only its coefficients below x^cap.

    The inputs need not be normalized.
    """
    if not a or not b:
        return ZERO
    top = len(a) + len(b) - 1
    if cap is not None:
        top = min(top, cap)
    out = [0] * top
    for i, x in enumerate(a[:top]):
        if x:
            for j, y in enumerate(b[: top - i]):
                if y:
                    out[i + j] += x * y
    return _trim(out)


def eval_numerator(p: Poly, n: int, d: int):
    """The numerator of p(n/d) over d^deg, by homogeneous Horner.

    The loop builds sum c_i n^i d^(deg-i), which stays in the coefficients'
    ring (plain ints for an integer p); for d > 0 its sign is that of
    p(n/d).  The zero polynomial gives 0.
    """
    if not p:
        return 0
    acc, dk = p[-1], 1
    for c in p[-2::-1]:
        dk *= d
        acc = acc * n + c * dk
    return acc


def eval_at(p: Poly, x) -> Fraction:
    """p(x) at a rational x = n/d: ``eval_numerator(p, n, d)`` divided by
    d^deg once."""
    d = x.denominator
    return Fraction(eval_numerator(p, x.numerator, d), d ** max(len(p) - 1, 0))


def derivative(p: Poly) -> Poly:
    return _trim([i * p[i] for i in range(1, len(p))])


def primitive(p: Poly) -> Poly:
    """The positive multiple of p with coprime integer coefficients; the
    entry of a rational p (a parity route's determinant, Euclid's inputs)."""
    d = math.lcm(*[c.denominator for c in p])
    ints = [c.numerator * (d // c.denominator) for c in p]
    g = math.gcd(*ints)
    return tuple([c // g for c in ints])


def div_exact(a: Poly, b: Poly) -> Poly:
    """The quotient a / b in Z[x]; ArithmeticError unless b divides a there."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    lc = b[-1]
    while r:
        k = len(r) - len(b)
        f, m = divmod(r[-1], lc)
        if k < 0 or m:
            raise ArithmeticError("polynomial division was expected to be exact")
        q[k] = f
        for i, c in enumerate(b):
            r[k + i] -= f * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return _trim(q)


def _rem(a: Poly, b: Poly) -> Poly:
    """The primitive positive multiple of the remainder of a by b, over Z.

    Each step scales the running remainder by |lc(b)| and subtracts
    sign(lc b) * top * x^k * b: a positive multiple of the rational step,
    so the remainder keeps its sign and every coefficient stays an integer,
    and its content is all there is to divide out at the end.
    """
    r = list(a)
    lc = b[-1]
    s, m = (1, lc) if lc > 0 else (-1, -lc)
    while len(r) >= len(b):
        k = len(r) - len(b)
        f = s * r[-1]
        if m != 1:
            r = [c * m for c in r]
        for i, c in enumerate(b):
            r[k + i] -= f * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    g = math.gcd(*r)
    return tuple([c // g for c in r])


def gcd(a: Poly, b: Poly) -> Poly:
    """Greatest common divisor by the primitive remainder sequence (for b = a',
    ``sturm_chain(a)``'s up to sign): primitive, with a positive leading term."""
    a, b = primitive(a), primitive(b)
    while b:
        a, b = b, _rem(a, b)
    return neg(a) if a and a[-1] < 0 else a


def squarefree_decomposition(p: Poly):
    """Yun decomposition of a nonzero polynomial, over Z.

    Returns ``[(g, m), ...]`` with ``p`` a constant multiple of
    ``prod g^m``, the ``g`` primitive with positive leading coefficients,
    square-free, pairwise coprime and nonconstant, ``m`` ascending.  By
    Gauss's lemma every division by a primitive gcd is exact over Z, and
    ``w`` and ``y`` are divided by the same ``a``, so the recurrence needs
    no monic normalization.
    """
    if is_zero(p):
        raise ZeroDivisionError("square-free decomposition of zero")
    p = primitive(p)
    dp = derivative(p)
    a = gcd(p, dp)
    w, y = div_exact(p, a), div_exact(dp, a)
    factors = []
    i = 1
    while degree(w) > 0:
        z = sub(y, derivative(w))
        a = gcd(w, z)
        if degree(a) > 0:
            factors.append((a, i))
        w, y = div_exact(w, a), div_exact(z, a)
        i += 1
    return factors


# ---------------------------------------------------------------------------
# Sturm chains and exact root isolation


def sturm_chain(p: Poly):
    """Sturm sequence of p, every member a primitive integer polynomial.

    Positive rescaling keeps the sign sequence, so each member is the
    positive multiple of the classical one with coprime int coefficients.
    """
    chain = [primitive(p), primitive(derivative(p))]
    while degree(chain[-1]) > 0:
        rem = _rem(chain[-2], chain[-1])
        if is_zero(rem):
            break
        chain.append(neg(rem))
    # only p' can be zero (p constant); a zero p stays, and reads 0 everywhere
    return chain if chain[-1] else chain[:-1]


def _variations(chain, n: int, d: int, pn) -> int:
    """Sign variations of the chain at n/d (d > 0), given ``pn``, the
    numerator ``eval_numerator(chain[0], n, d)`` (the caller has already
    evaluated it)."""
    signs = []
    for v in (pn, *[eval_numerator(q, n, d) for q in chain[1:]]):
        if v:
            signs.append(v > 0)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _sturm_endpoints(chain, a, b):
    """For a Sturm chain of p, q = lcm(den a, den b) and for each endpoint
    its integer numerator over q (``a*q``, ``b*q``), whether p is positive
    there and its variations; raises ValueError unless a < b and neither
    is a root.  The sign of p at a is what the refinement of an isolated
    root starts from, read here so that no point is evaluated twice."""
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise ValueError(f"the interval ({a}, {b}) must satisfy a < b")
    q = math.lcm(a.denominator, b.denominator)
    ends = []
    for x in (a, b):
        n = x.numerator * (q // x.denominator)
        # chain[0] is a positive multiple of p: the same signs and zeros
        pn = eval_numerator(chain[0], n, q)
        if pn == 0:
            raise ValueError(f"the endpoint {x} is a root")
        ends += [n, pn > 0, _variations(chain, n, q, pn)]
    return q, ends


def count_roots_open(p: Poly, a, b) -> int:
    """Number of distinct real roots of p in (a, b); requires a < b and
    p(a), p(b) != 0."""
    _, (_, _, va, _, _, vb) = _sturm_endpoints(sturm_chain(p), a, b)
    return va - vb


@dataclass(frozen=True)
class RootLocation:
    """A real root reported either exactly or by an isolating interval.

    ``exact`` is set when the root is a known rational; otherwise the root
    lies strictly inside (lo, hi) and is the only root of its polynomial
    there.
    """

    lo: Fraction
    hi: Fraction
    exact: Fraction | None = None

    def midpoint(self) -> Fraction:
        if self.exact is not None:
            return self.exact
        return (self.lo + self.hi) / 2

    def as_float(self) -> float | None:
        """The midpoint as a float, or None beyond float range."""
        try:
            return float(self.midpoint())
        except OverflowError:
            return None

    def __str__(self) -> str:
        if self.exact is not None:
            return str(self.exact)
        return f"({self.lo}, {self.hi})"


def isolate_roots(chain, a, b):
    """The distinct real roots in (a, b) of p = chain[0], for a Sturm chain
    ending in a constant: a square-free p's, or one divided by its last member.

    The bisection runs on integers: with q = lcm(den a, den b), every point
    is a pair (N, e) standing for N / (q 2^e), the endpoints are (a q, 0)
    and (b q, 0), and the midpoint of (lo, e) and (hi, e) is (lo + hi,
    e + 1).  Signs are those of the numerators ``eval_numerator``, never
    divided, as q 2^e > 0.  The Sturm chain separates the roots: its
    variations count the roots of each half while an interval holds two or
    more.  A midpoint that is a root is reported exactly and splits its
    interval in two.  Each other root comes back as an isolating interval,
    halved ``REFINE_STEPS`` times once it is isolated, by the sign of p
    alone: the root is simple and the only one there, so p has one sign
    between lo and the root and the other after it.  Each interval carries
    the sign of p just right of its lo: p(a) at the start, p at a split's
    nonzero midpoint, and past a root on a midpoint the sign flipped once
    for each of the roots the counts put up to it.  Every midpoint, the
    last included, is still tested as a root, so the locations are those
    the full chain gives at every halving.  Only reported points become
    ``Fraction``s, equal to the midpoints ``(lo + hi) / 2`` of a bisection
    on ``Fraction``s.  Sorted by position.  Requires a < b and p(a),
    p(b) != 0, and raises ValueError otherwise or when the chain ends in a
    nonconstant gcd.
    """
    q, (na, up, va, nb, _, vb) = _sturm_endpoints(chain, a, b)
    # the chain ends in gcd(p, p'): a repeated root on a midpoint would
    # leave no sign there, and the counts would go wrong
    if degree(chain[-1]) > 0:
        raise ValueError("root isolation needs a square-free polynomial")
    roots = []
    # (lo, hi, e, vlo, vhi, up, steps): the interval (lo, hi) / (q 2^e)
    # holds vlo - vhi roots, p is positive just right of lo when ``up``,
    # and the interval has been halved ``steps`` times since it held a
    # single root
    stack = [(na, nb, 0, va, vb, up, 0)]
    while stack:
        lo, hi, e, vlo, vhi, up, steps = stack.pop()
        count = vlo - vhi
        if count == 0:
            continue
        mid, d = lo + hi, q << (e + 1)
        pmid = eval_numerator(chain[0], mid, d)
        if pmid == 0:
            x = Fraction(mid, d)
            roots.append(RootLocation(lo=x, hi=x, exact=x))
            if count > 1:
                vmid = _variations(chain, mid, d, pmid)
                # across a simple root the sign sequence loses one variation,
                # and p changes sign across each of the vlo - vmid roots in
                # (lo, mid]
                stack.append((2 * lo, mid, e + 1, vlo, vmid + 1, up, 0))
                stack.append((mid, 2 * hi, e + 1, vmid, vhi, up != (vlo - vmid) % 2, 0))
        elif steps == REFINE_STEPS:
            roots.append(RootLocation(lo=Fraction(lo, q << e), hi=Fraction(hi, q << e)))
        elif count == 1:
            # p changes sign across its one root here and nowhere else, so
            # the sign at mid picks the half, with no variations
            if (pmid > 0) != up:
                stack.append((2 * lo, mid, e + 1, 1, 0, up, steps + 1))
            else:
                stack.append((mid, 2 * hi, e + 1, 1, 0, up, steps + 1))
        else:
            vmid = _variations(chain, mid, d, pmid)
            stack.append((2 * lo, mid, e + 1, vlo, vmid, up, 0))
            stack.append((mid, 2 * hi, e + 1, vmid, vhi, pmid > 0, 0))
    roots.sort(key=RootLocation.midpoint)
    return roots


# ---------------------------------------------------------------------------
# Matrices of polynomials

PolyMatrix = list  # list[list[Poly]]


def mat_lift(coeffs) -> PolyMatrix:
    """Polynomial matrix whose entry (i, j) has coefficients coeffs[k][i][j],
    taken as they are: ``Fraction`` matrices give a rational lift."""
    return [
        [_trim([mat[i][j] for mat in coeffs]) for j in range(len(row))]
        for i, row in enumerate(coeffs[0])
    ]


def mat_eval_at(scaled, x) -> tuple:
    """m(x) in ``Fraction``s: ``mat_eval_numerator`` over its scale."""
    im, t = mat_eval_numerator(scaled, x)
    return tuple(tuple([Fraction(v, t) for v in row]) for row in im)


def mat_eval_numerator(scaled, x):
    """``(M, t)``, m(x) = M/t, M over Z: at x = n/d entry p of m*s is read as
    ``eval_numerator(p, n, d) d^(deg - deg p)``, t = s d^deg (deg >= 0)."""
    (n, d), (im, s) = Fraction(x).as_integer_ratio(), scaled
    top = max([len(p) for row in im for p in row] + [1])
    m = [[eval_numerator(p, n, d) * d ** (top - len(p)) for p in row] for row in im]
    return m, s * d ** (top - 1)


def mat_coefficients(m: PolyMatrix) -> tuple:
    """Coefficient matrices of a polynomial matrix, lowest power first,
    through its degree (the zero matrix keeps one coefficient)."""
    top = max((len(p) for row in m for p in row), default=0)
    return tuple(
        tuple(tuple([p[k] if k < len(p) else Fraction(0) for p in row]) for row in m)
        for k in range(max(top, 1))
    )


def compose_affine(coeffs, c, s) -> tuple:
    """The coefficient matrices of x -> C(c + s*x), for C(x) the sum of
    ``coeffs[k] x^k``, by Horner's rule on the polynomial matrix."""
    lin = poly((c, s))
    acc = mat_lift(coeffs[-1:])
    for mat in reversed(coeffs[:-1]):
        acc = [[add(mul(p, lin), (x,)) for p, x in zip(ra, rm)] for ra, rm in zip(acc, mat)]
    return mat_coefficients(acc)


def mat_mul(a: PolyMatrix, b: PolyMatrix, cap: int | None = None) -> PolyMatrix:
    """Product of two integer polynomial matrices by Kronecker substitution;
    with ``cap``, every entry keeps only its coefficients below x^cap.

    Each entry is packed into one integer, its value at x = 2^w, and every
    output entry is one sum of ``k`` big-integer products, for ``k`` the
    inner dimension.  Let ``A`` and ``B`` be the largest |coefficient| of
    the operands and ``l`` the shorter of their longest entries.  A
    coefficient of an output entry is a sum of at most ``k*l`` products,
    each below ``2^(bits A + bits B)``, so for
    ``w = bits A + bits B + bits(k*l) + 1`` it lies below 2^(w-1) in
    absolute value, and the packed product holds it as one signed w-bit
    digit, read back from the low end with a borrow.  Callers scale
    rational operands to integers first: a rational coefficient raises
    here rather than give a floored product.
    """
    k, m = len(b), len(b[0]) if b else 0
    la = max((len(p) for row in a for p in row), default=0)
    lb = max((len(p) for row in b for p in row), default=0)
    w = _max_bits(a) + _max_bits(b) + (k * min(la, lb)).bit_length() + 1
    top = la + lb - 1 if cap is None else min(cap, la + lb - 1)
    pa = [[_pack(p, w) for p in row] for row in a]
    pb = [[_pack(b[t][j], w) for t in range(k)] for j in range(m)]
    return [
        [_unpack(sum([x * y for x, y in zip(ra, cb)]), w, top) for cb in pb]
        for ra in pa
    ]


def _max_bits(m: PolyMatrix) -> int:
    return max((abs(c) for row in m for p in row for c in p), default=0).bit_length()


def _pack(p: Poly, w: int) -> int:
    """p(2^w), by Horner."""
    v = 0
    for c in reversed(p):
        v = (v << w) + c
    return v


def _unpack(v: int, w: int, top: int) -> Poly:
    """The polynomial of at most ``top`` coefficients, each below 2^(w-1)
    in absolute value, whose value at x = 2^w is v (mod 2^(w*top))."""
    out = []
    mask, half = (1 << w) - 1, 1 << (w - 1)
    while v and len(out) < top:
        c = v & mask
        v >>= w
        if c >= half:  # a negative digit borrows one from the next
            c -= mask + 1
            v += 1
        out.append(c)
    return _trim(out)


def mat_eliminate(scaled, steps: int):
    """``(det B, S, f)`` by fraction-free Bareiss elimination over Z, on the
    integer matrix (m*d)(2^w), for ``scaled = (m*d, d)`` as
    ``to_int_matrix`` returns it (any d that makes m*d integral will do).

    ``B`` is the leading ``steps`` x ``steps`` block of m, and
    ``S~ = det(B) * (D - C * B^-1 * C')`` is its Schur complement scaled by
    ``det B``, over the trailing block ``D``; ``S~ = f*S`` with ``S``
    primitive over Z, which keeps the integers of a further elimination
    small.  Each entry of m*d is packed into one integer, its value at
    x = 2^w.  The loop clears the first ``steps`` columns with pivots (and
    row swaps) from the first ``steps`` rows only.  By Sylvester's identity
    every value it forms is a minor whose rows are some of the first
    ``steps`` rows plus one more, and every trailing entry ends as the
    bordered minor of ``B``, which is ``S~`` up to the swap sign and the
    scale: ``det B`` is rescaled by ``sign/d^steps``, and
    ``f = sign*g/d^(steps+1)`` for the content ``g`` of the trailing block.

    Evaluation at 2^w is a ring homomorphism Z[x] -> Z, so each value is
    its polynomial minor's value.  The sum of |coefficients| of such a
    minor is at most the product of its rows' l1 norms, so at most
    ``bound = prod_{i<steps} |row_i|_1 * max_{i>=steps} |row_i|_1`` (each
    norm taken as at least 1).  With ``w = bits(bound) + 1`` every
    coefficient lies below 2^(w-1) in absolute value: a nonzero minor never
    evaluates to 0, so the pivots and swaps are those of the elimination
    over Z[x], and ``_unpack`` reads each minor back exactly.  The Bareiss
    division by the previous pivot ``prev = 2^t u`` (u odd) at step k is
    exact over Z, and its quotient, a minor of k + 2 rows with at most
    ``(k + 2) deg + 1`` coefficients, lies in the signed range of 2^K for
    ``K = w ((k + 2) deg + 1)``.  So it is read 2-adically, as the
    numerator shifted by t times the inverse of u mod 2^K, one Newton
    inverse per step (plain ``//`` is quadratic in CPython).  Zero steps give
    ``(ONE, S, f)`` with ``f*S = m``, all of them ``(det m, [], f)``.  A
    singular ``B`` gives ``(ZERO, None, None)``: this elimination does not
    determine ``S~`` then.
    """
    im, d = scaled
    n = len(im)
    norms = [max(sum([abs(c) for p in row for c in p]), 1) for row in im]
    w = (math.prod(norms[:steps]) * max(norms[steps:], default=1)).bit_length() + 1
    deg = max([len(p) for row in im for p in row] + [1]) - 1
    a = [[_pack(p, w) for p in row] for row in im]
    sign = 1
    prev = 1
    for k in range(steps):
        if not a[k][k]:
            for i in range(k + 1, steps):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return ZERO, None, None
        kbits = w * ((k + 2) * deg + 1)
        modulus, half = 1 << kbits, 1 << (kbits - 1)
        mask = modulus - 1
        t = (prev & -prev).bit_length() - 1
        inv = _inverse_mod_2k(prev >> t, kbits)
        pivot, rk = a[k][k], a[k]
        for i in range(k + 1, n):
            ri = a[i]
            c = ri[k]
            for j in range(k + 1, n):
                q = ((ri[j] * pivot - c * rk[j]) >> t & mask) * inv & mask
                ri[j] = q - modulus if q >= half else q
            ri[k] = 0
        prev = pivot
    det_b = poly(Fraction(sign * x, d**steps) for x in _unpack(prev, w, steps * deg + 1))
    top = (steps + 1) * deg + 1
    s = [[_unpack(v, w, top) for v in row[steps:]] for row in a[steps:]]
    g = math.gcd(*[c for row in s for p in row for c in p]) or 1
    s = [[tuple([c // g for c in p]) for p in row] for row in s]
    return det_b, s, Fraction(sign * g, d ** (steps + 1))


def _inverse_mod_2k(u: int, k: int) -> int:
    """The inverse of an odd u modulo 2^k, by Newton's iteration
    x -> x (2 - u x), which doubles the bits of x that are right.

    Quicker than ``pow(u, -1, 1 << k)``, whose extended Euclid is quadratic:
    over the inverses of the Schur route at n = 20 and 24 (k up to 170k and
    312k bits) it takes 0.13 and 0.55 s against pow's 5.5 and 29.3 s on
    one Xeon core."""
    x, bits = 1, 1
    while bits < k:
        bits = min(2 * bits, k)
        mask = (1 << bits) - 1
        x = x * (2 - (u & mask) * x) & mask
    return x


def mat_det_bareiss(scaled) -> Poly:
    """Determinant of m, over Q, from ``scaled = (m*d, d)`` by fraction-free
    Bareiss elimination: ``mat_eliminate`` through every column."""
    return mat_eliminate(scaled, len(scaled[0]))[0]


def to_int_matrix(m: PolyMatrix):
    """``(m * d, d)``, the one way into the matrix kernels: m scaled to
    integers by d, the lcm of its coefficients' denominators (1 for int m)."""
    d = math.lcm(*[c.denominator for row in m for p in row for c in p])
    return [
        [tuple([c.numerator * (d // c.denominator) for c in p]) for p in row]
        for row in m
    ], d


def scaled_lift(coeffs):
    """``to_int_matrix(mat_lift(coeffs))``, in one pass over the stack."""
    d = math.lcm(*[c.denominator for mat in coeffs for row in mat for c in row])
    return [
        [_trim([c.numerator * (d // c.denominator) for c in entry]) for entry in zip(*rows)]
        for rows in zip(*coeffs)
    ], d


def mat_adjugate_det(m: PolyMatrix, mod_order: int):
    """Adjugate and determinant of an integer polynomial matrix modulo
    x^mod_order, via the Faddeev-LeVerrier recursion.

    Returns ``(adj, det)`` over Z with ``m @ adj == det * I``; the empty
    matrix gives ``([], (1,))``.  The recursion only ever divides traces by
    integers 1..n, and those divisions are exact over Z, so the whole pass
    runs on plain ints.  A rational coefficient raises TypeError, as ``//``
    would floor it silently: callers scale the matrix to integers first.
    Truncating every product modulo x^mod_order is sound because truncation
    is a ring homomorphism and no polynomial division occurs.
    """
    if not all(type(c) is int for row in m for p in row for c in p):
        raise TypeError("mat_adjugate_det needs integer coefficients")
    n = len(m)
    if n == 0:
        return [], (1,)
    acc = [[(1,) if i == j else () for j in range(n)] for i in range(n)]  # M_1 = I
    c = (1,)
    for k in range(1, n + 1):
        am = mat_mul(m, acc, mod_order)
        tr = ()
        for i in range(n):
            tr = add(tr, am[i][i])
        # trace coefficients are divisible by k: they are (up to sign) the
        # characteristic polynomial coefficients of an integer matrix
        c = tuple([-x // k for x in tr])
        if k < n:
            acc = [
                [add(am[i][j], c) if i == j else am[i][j] for j in range(n)]
                for i in range(n)
            ]
    odd = n % 2 == 1
    adj = [[p if odd else neg(p) for p in row] for row in acc]
    return adj, neg(c) if odd else c
