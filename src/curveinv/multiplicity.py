"""Generalized algebraic multiplicity of matrix curves.

A curve is stored by its Taylor coefficient matrices at a rational base
point; "analytic" means "polynomial of finite degree" here, so every
quantity below is computed exactly.  The multiplicity of the curve at its
base point is offered through four independent routes:

* ``multiplicity_det``      -- order of vanishing of the determinant;
* ``multiplicity_schur``    -- order of the local (Schur-block) determinant;
* ``multiplicity_laurent``  -- order of the determinant of the inverse of
  the kernel/cokernel compression of the inverse curve;
* ``multiplicity_transversal`` -- weighted dimension count over nested
  kernels, available when the base point is a transversal eigenvalue.

The four routes agree on every curve; the test suite leans on that hard.
All functions are pure and all values immutable.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg, _poly
from .errors import InternalConsistencyError, PreconditionError
from .exactnum import (
    InsufficientJetOrder,
    Jet,
    LaurentJet,
    LaurentMatrix,
    SingularToKnownOrder,
    jet_det,
    jet_inverse,
)


class InvalidProjectionPair(PreconditionError):
    """The supplied projections do not fit the curve's constant term."""


class NotTransversal(PreconditionError):
    """No admissible transversality order exists for the stored derivatives."""


class PhiNotNormalized(PreconditionError):
    """A transversalizing curve must equal the identity at the base point."""


@dataclass(frozen=True)
class MatrixCurveJet:
    """Polynomial matrix curve centered at a rational base point.

    ``coefficients[j]`` is the j-th Taylor coefficient matrix, i.e. the
    j-th derivative at the base point divided by j factorial.  At least one
    coefficient beyond the constant term is required.
    """

    dim: int
    base_point: Fraction
    coefficients: tuple  # tuple of dim x dim rational matrices

    def __post_init__(self):
        object.__setattr__(self, "base_point", Fraction(self.base_point))
        mats = tuple(_linalg.freeze(m) for m in self.coefficients)
        if len(mats) < 2:
            raise ValueError("a curve needs at least one derivative coefficient")
        if any(_linalg.shape(m) != (self.dim, self.dim) for m in mats):
            raise ValueError("coefficient matrices must be dim x dim")
        object.__setattr__(self, "coefficients", mats)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def constant_term(self) -> _linalg.Matrix:
        return self.coefficients[0]

    def evaluate(self, lam) -> _linalg.Matrix:
        lift = _poly.scaled_lift(self.coefficients)
        return _poly.mat_eval_at(lift, Fraction(lam) - self.base_point)

    def polynomial_lift(self):
        return _poly.mat_lift(self.coefficients)

    def order_bound(self) -> int:
        """Degree bound for the determinant: if it does not vanish through
        this order, it is the zero polynomial."""
        return max(self.dim * self.degree, 1)


def pointwise_product(a: MatrixCurveJet, b: MatrixCurveJet) -> MatrixCurveJet:
    """The curve of operator products, of degree ``a.degree + b.degree``
    (vanishing top coefficients are kept as zero matrices)."""
    if a.dim != b.dim or a.base_point != b.base_point:
        raise ValueError("curves must share dimension and base point")
    (ia, da), (ib, db) = [_poly.scaled_lift(c.coefficients) for c in (a, b)]
    s = da * db
    product = [[[Fraction(c, s) for c in p] for p in row] for row in _poly.mat_mul(ia, ib)]
    out = _poly.mat_coefficients(product)
    pad = (_linalg.zeros(a.dim, a.dim),) * (a.degree + b.degree + 1 - len(out))
    return MatrixCurveJet(a.dim, a.base_point, out + pad)


def shifted_eigen_curve(k: _linalg.Matrix, mu) -> MatrixCurveJet:
    """The curve lam -> lam*I - K, centered at mu."""
    k = _linalg.freeze(k)
    mu = Fraction(mu)
    const = tuple(
        tuple((mu if i == j else 0) - x for j, x in enumerate(row))
        for i, row in enumerate(k)
    )
    return MatrixCurveJet(len(k), mu, (const, _linalg.identity(len(k))))


# ---------------------------------------------------------------------------
# Projection pairs


@dataclass(frozen=True)
class ProjectionPair:
    """Projections onto the kernel and the range of a singular matrix.

    A pair is its two frames, ``[kernel complement | kernel basis]`` and
    ``[range basis | range complement]``: the block decomposition the Schur
    operator lives in.  ``p`` projects onto Ker[T] along the kernel
    complement and ``q`` onto R[T] along the range complement; both are
    readings of the frames, built on first read.
    """

    kernel_basis: tuple            # columns spanning Ker[T]
    kernel_complement: tuple       # columns spanning a complement of Ker[T]
    range_basis: tuple             # columns spanning R[T]
    range_complement: tuple        # columns spanning a complement of R[T]

    @property
    def dim(self) -> int:
        return len(self.kernel_basis) + len(self.kernel_complement)

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel_basis)

    @functools.cached_property
    def p(self) -> _linalg.Matrix:
        k = slice(self.dim - self.kernel_dim, self.dim)
        return _frame_projection(self.kernel_basis, self.domain_frame(), k)

    @functools.cached_property
    def q(self) -> _linalg.Matrix:
        r = slice(0, len(self.range_basis))
        return _frame_projection(self.range_basis, self.codomain_frame(), r)

    def domain_frame(self) -> _linalg.Matrix:
        """Columns: the kernel complement, then the kernel basis."""
        return _linalg.hstack([*self.kernel_complement, *self.kernel_basis], self.dim)

    def codomain_frame(self) -> _linalg.Matrix:
        """Columns: the range basis, then the range complement."""
        return _linalg.hstack([*self.range_basis, *self.range_complement], self.dim)


def projection_pair(t: _linalg.Matrix) -> ProjectionPair:
    """The canonical projection pair of a square rational matrix, read off
    one elimination of ``[T | I]``: the pivots below n are T's, those at n
    and above the standard vectors that complete R[T].  A route handed any
    other pair checks it with ``validate_projection_pair``."""
    t = _linalg.freeze(t)
    n = len(t)
    e = _linalg.identity(n)  # its rows are e_0 ... e_{n-1}
    red, pivots = _linalg.rref(tuple(a + b for a, b in zip(t, e)))
    t_pivots = [j for j in pivots if j < n]
    return ProjectionPair(
        kernel_basis=tuple(_linalg.kernel_from_rref(red, t_pivots, n)),
        kernel_complement=tuple(e[j] for j in t_pivots),
        range_basis=tuple(tuple(row[j] for row in t) for j in t_pivots),
        range_complement=tuple(e[j - n] for j in pivots if j >= n),
    )


def _frame_projection(basis, frame, rows: slice) -> _linalg.Matrix:
    """The ``basis`` columns times ``rows`` of the inverse frame.  An empty
    basis is the zero matrix, as an n x 0 product carries no width."""
    n = len(frame)
    if not basis:
        return _linalg.zeros(n, n)
    return _linalg.matmul(_linalg.hstack(basis, n), _linalg.inverse(frame)[rows])


def validate_projection_pair(t: _linalg.Matrix, pair: ProjectionPair) -> None:
    """Raise InvalidProjectionPair unless the pair's four bases fit T: two
    frames of rank n, a kernel basis of Ker[T] and a range basis of R[T]."""
    t = _linalg.freeze(t)
    n = len(t)
    if pair.dim != n:
        raise InvalidProjectionPair(f"the pair has dimension {pair.dim}, T has {n}")
    vectors = (*pair.kernel_basis, *pair.kernel_complement)
    vectors += (*pair.range_basis, *pair.range_complement)
    if len(vectors) != 2 * n or any(len(v) != n for v in vectors):
        raise InvalidProjectionPair(f"the pair must store {2 * n} vectors of length {n}")
    if any(_linalg.rank(f) != n for f in (pair.domain_frame(), pair.codomain_frame())):
        raise InvalidProjectionPair("stored bases do not span the space")
    r = _linalg.rank(t)
    image = _linalg.matmul(t, _linalg.hstack(pair.kernel_basis, n))
    if pair.kernel_dim != n - r or any(c for row in image for c in row):
        raise InvalidProjectionPair("the kernel basis must span Ker[T]")
    stacked = [b + row for b, row in zip(_linalg.hstack(pair.range_basis, n), t)]
    if len(pair.range_basis) != r or _linalg.rank(stacked) != r:
        raise InvalidProjectionPair("the range basis must span R[T]")


# ---------------------------------------------------------------------------
# Multiplicity reports


@dataclass(frozen=True)
class MultiplicityReport:
    """Result of one multiplicity route.

    ``kind`` is "finite", "infinite" (the determinant is the zero
    polynomial) or "undetermined" (an explicitly capped computation ran
    out of coefficients at ``order_bound``).
    """

    kind: str
    value: int | None
    method: str
    witness: object = None
    order_bound: int | None = None

    @classmethod
    def finite(cls, value: int, method: str, witness=None) -> "MultiplicityReport":
        return cls(kind="finite", value=value, method=method, witness=witness)

    @classmethod
    def infinite(cls, method: str, witness=None) -> "MultiplicityReport":
        return cls(kind="infinite", value=None, method=method, witness=witness)

    @classmethod
    def undetermined(cls, order: int, method: str, witness=None) -> "MultiplicityReport":
        return cls(
            kind="undetermined",
            value=None,
            method=method,
            witness=witness,
            order_bound=order,
        )

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def __str__(self) -> str:
        if self.is_finite:
            return f"{self.value} (via {self.method})"
        if self.kind == "infinite":
            return f"infinite (via {self.method})"
        return f"undetermined at order {self.order_bound} (via {self.method})"


@dataclass(frozen=True)
class AlgebraicOrderReport:
    """Blow-up rate of the inverse curve; ``kappa is None`` means the base
    point is a regular point (not algebraic at all)."""

    kappa: int | None
    determinant_order: int

    @property
    def is_algebraic(self) -> bool:
        return self.kappa is not None


@dataclass(frozen=True)
class ClassicalMultiplicityReport:
    ascent: int
    multiplicity: int


@dataclass(frozen=True)
class TransversalityCertificate:
    """Witness data for a transversality check at a given order."""

    holds: bool
    kappa: int
    image_dims: tuple
    assembled_matrix: _linalg.Matrix
    assembled_rank: int
    last_image_nonzero: bool


# ---------------------------------------------------------------------------
# Route 1: order of the determinant


def multiplicity_det(
    curve: MatrixCurveJet, order: int | None = None
) -> MultiplicityReport:
    """Order of vanishing of det at the base point.

    With the default order (the determinant degree bound) the answer is
    exact: a determinant vanishing through the bound is the zero
    polynomial and the report is "infinite".  The witness is the
    determinant known through the bound (or through ``order`` when given).
    """
    capped = order is not None
    bound = curve.order_bound() if order is None else order
    d = jet_det(curve.polynomial_lift(), bound)
    return _order_report(d, "ord-det", capped)


def _order_report(d: Jet, method: str, capped: bool) -> MultiplicityReport:
    """Report the order of a determinant jet known through the bound."""
    o = _poly.low_order(d.coeffs)
    if o is not None:
        return MultiplicityReport.finite(o, method, witness=d)
    if capped:
        return MultiplicityReport.undetermined(d.known_order, method, witness=d)
    return MultiplicityReport.infinite(method, witness=d)


# ---------------------------------------------------------------------------
# Route 2: Schur block and local determinant


def _pair_for(curve: MatrixCurveJet, pair: ProjectionPair | None) -> ProjectionPair:
    """The default projection pair of the constant term, or ``pair`` validated."""
    t = curve.constant_term()
    if pair is None:
        return projection_pair(t)
    validate_projection_pair(t, pair)
    return pair


def _schur_numerator(curve: MatrixCurveJet, pair: ProjectionPair | None):
    """``(det L11, s, f)`` with ``S~ = f*s = det(L11)*(L22 - L21*L11^-1*L12)``.

    The blocks are those of the curve in the pair's frame, where ``L11`` is
    invertible at the base point; the Schur block is ``S = S~ / det L11``.
    All three come from one fraction-free elimination of the framed
    curve's first ``n - k`` columns, built over Z from the two frames and
    the lift, each scaled once: ``s`` is over Z[x] and ``f`` rational.
    """
    pair = _pair_for(curve, pair)
    frames = (_linalg.inverse(pair.codomain_frame()), pair.domain_frame())
    (cod_inv, s_c), (dom, s_d) = [_poly.scaled_lift([m]) for m in frames]
    lift, s_l = _poly.scaled_lift(curve.coefficients)
    framed = _poly.mat_mul(_poly.mat_mul(cod_inv, lift), dom)
    return _poly.mat_eliminate((framed, s_c * s_l * s_d), curve.dim - pair.kernel_dim)


def _schur_unit(curve: MatrixCurveJet, pair: ProjectionPair | None):
    """``(s, u, order)``: the integer block, the unit jet ``u = f/det L11``
    through the order bound, and that bound; the Schur block is ``u*s``.  ``u``
    goes on the left of every product: a vanishing one stays rational."""
    order = curve.order_bound()
    det11, s, f = _schur_numerator(curve, pair)
    inv11 = jet_inverse(Jet.from_polynomial(det11, order))
    return s, Jet(tuple([f * c for c in inv11.coeffs])), order


def schur_operator(curve: MatrixCurveJet, pair: ProjectionPair | None = None) -> tuple:
    """The kernel-block Schur complement of the curve, as rows of jets
    through the curve's order bound.

    Expressed in the pair's kernel basis (domain) and range-complement
    basis (codomain); the block is empty when the constant term is
    invertible.
    """
    s, u, order = _schur_unit(curve, pair)
    return tuple(tuple(u * Jet.from_polynomial(p, order) for p in row) for row in s)


def local_determinant(curve: MatrixCurveJet, pair: ProjectionPair | None = None) -> Jet:
    """Determinant of the Schur block through the curve's order bound; the
    empty block gives the one-jet.

    Nonvanishing at a parameter value is equivalent to invertibility of
    the curve there, which is what makes this a local determinant.  It is
    ``det S = det(s) * u^k`` for the k x k integer block ``s``.
    """
    s, u, order = _schur_unit(curve, pair)
    d = jet_det(s, order)
    for _ in s:
        d = u * d
    return d


def multiplicity_schur(
    curve: MatrixCurveJet,
    pair: ProjectionPair | None = None,
    order: int | None = None,
) -> MultiplicityReport:
    """Order of the local (Schur-block) determinant at the base point.

    Works with ``S~ = det(L11)*S``, the trailing block of a Bareiss
    elimination of the framed curve stopped after ``L11``'s columns:
    ``det L11`` is a unit at the base point, so ``ord det S~ = ord det S``,
    and ``det S~ = f^k det s`` is computed exactly by a k x k elimination
    of the integer block ``s``, rescaled once.  ``det S`` is
    ``det L / det L11``, so its order is at most the determinant degree
    bound unless it is the zero polynomial ("infinite").
    The witness is ``det S~`` known through the bound (or through ``order``
    when given).
    """
    capped = order is not None
    bound = curve.order_bound() if order is None else order
    _, s, f = _schur_numerator(curve, pair)
    scale = f ** len(s)
    d = Jet(tuple([scale * c for c in jet_det(s, bound).coeffs]))
    return _order_report(d, "schur", capped)


# ---------------------------------------------------------------------------
# Route 3: Laurent inverse compression


def _exact_adjugate(curve: MatrixCurveJet):
    """``(adj, det, det_ord, s)``: the adjugate and determinant of the
    curve's lift scaled to integers by ``s``, exact at ``order_bound() + 1``
    (both have degree at most n * degree), and the order of ``det``, which
    the scale does not move.  Raises SingularToKnownOrder when det L is the
    zero polynomial."""
    lift, s = _poly.scaled_lift(curve.coefficients)
    adj, det = _poly.mat_adjugate_det(lift, mod_order=curve.order_bound() + 1)
    det_ord = _poly.low_order(det)
    if det_ord is None:
        raise SingularToKnownOrder(
            "determinant is the zero polynomial; the base point is not isolated"
        )
    return adj, det, det_ord, s


def multiplicity_laurent(
    curve: MatrixCurveJet, pair: ProjectionPair | None = None
) -> MultiplicityReport:
    """Multiplicity through the inverse curve.

    Builds the Laurent expansion of the inverse, adj L / det L, from one
    exact adjugate, compresses it to the kernel coordinates (rows) and the
    range-complement basis (columns), reads it through doubling windows,
    and returns the order of the determinant of that block's inverse.
    """
    pair = _pair_for(curve, pair)
    k_dim = pair.kernel_dim
    if k_dim == 0:
        return MultiplicityReport.finite(0, "laurent", witness=Jet.one(1))

    n = curve.dim
    full = curve.order_bound() + 1

    # the block runs over Z: the lift, the kernel coordinates of P (left)
    # and the range complement (right) are each scaled to integer constant
    # polynomials, and the determinant is rescaled once at the end.  Each
    # window below only reads slices of the exact adjugate and of the
    # compression A*adj*B, as a recomputation modulo x^work would give
    adj, det, det_ord, s_lift = _exact_adjugate(curve)
    a_rows, s_a = _poly.scaled_lift([_linalg.inverse(pair.domain_frame())[n - k_dim :]])
    b_cols, s_b = _poly.scaled_lift([_linalg.hstack(pair.range_complement, n)])
    compressed = _poly.mat_mul(_poly.mat_mul(a_rows, adj), b_cols)
    work = min(max(2 * curve.degree + 6, 8), full)
    while det_ord >= work:
        work = min(2 * work, full)
    # enough stored coefficients for the block determinant to reach its
    # leading exponent even across worst-case pole cancellations
    cap = (k_dim + 1) * det_ord + full + 4
    while True:
        slack = work - 1 - det_ord
        if slack >= 1:
            # the inverse of the unit part of det, scaled to integers by s_u
            u_inv = jet_inverse(Jet.from_polynomial(det[det_ord:work], slack))
            s_u = math.lcm(*[c.denominator for c in u_inv.coeffs])
            v = Jet(tuple([c.numerator * (s_u // c.denominator) for c in u_inv.coeffs]))
            grid = []
            for i in range(k_dim):
                row = []
                for j in range(k_dim):
                    # trimmed, so an entry zero through x^work stays rational
                    w = Jet.from_polynomial(_poly._trim(compressed[i][j][:work]), slack)
                    row.append(LaurentJet(det_ord, w * v))
                grid.append(tuple(row))
            d = LaurentMatrix(k_dim, tuple(grid)).det()
            lead = d.leading_exponent()
            if lead is not None:
                # each entry is the rational block's divided by
                # c = s_lift / (s_a * s_b * s_u), and every k x k minor is
                # homogeneous of degree k: one rescale by c^k, which moves
                # no zero, pole or known order
                scale = Fraction(s_lift, s_a * s_b * s_u) ** k_dim
                d = LaurentJet(
                    d.pole_order, Jet(tuple([scale * c for c in d.unit_part.coeffs]))
                )
                witness = d.inverse()  # determinant of the inverse block
                return MultiplicityReport.finite(-lead, "laurent", witness=witness)
        if work >= cap:
            raise InsufficientJetOrder(
                "compressed determinant vanished through every admissible window"
            )
        work = min(work * 2, cap)


# ---------------------------------------------------------------------------
# Route 4: transversal eigenvalues


def _walk(curve: MatrixCurveJet):
    """One lazy walk up the kernel chain: K_1, then for kappa = 1..degree
    the certificate at kappa and K_{kappa+1} in turn.

    Each level is one elimination: ``rref(T)`` gives the range columns and
    K_1, and ``rref(M)``, for ``M = L_kappa*B`` and B the basis of K_kappa,
    the image's pivot columns and K_{kappa+1}, the columns of B*C for C
    the kernel of M.  That is the stack L_0 .. L_kappa's canonical basis:
    B is the identity on the stack's free columns S_kappa, so B*C is the
    identity on M's free set, which contains S_{kappa+1} and has its size;
    and a kernel basis that is the identity on given coordinates is unique.
    """
    n = curve.dim
    t = curve.constant_term()
    red, pivots = _linalg.rref(t)
    range_cols = [tuple(row[j] for row in t) for j in pivots]
    basis = tuple(_linalg.kernel_from_rref(red, pivots, n))
    yield basis
    image_cols, image_dims = [], []
    for kappa, lk in enumerate(curve.coefficients[1:], start=1):
        mapped = _linalg.matmul(lk, _linalg.hstack(basis, n))
        red, pivots = _linalg.rref(mapped)
        image = [tuple(row[j] for row in mapped) for j in pivots]
        image_dims.append(len(image))
        image_cols.extend(image)
        assembled = _linalg.hstack(image_cols + range_cols, n)
        r = _linalg.rank(assembled)
        yield TransversalityCertificate(
            holds=bool(image) and r == len(image_cols) + len(range_cols) == n,
            kappa=kappa,
            image_dims=tuple(image_dims),
            assembled_matrix=assembled,
            assembled_rank=r,
            last_image_nonzero=bool(image),
        )
        basis = _linalg.matmul(_linalg.kernel_from_rref(red, pivots, len(basis)), basis)
        yield basis


def nested_kernels(curve: MatrixCurveJet, upto: int):
    """Bases of the nested kernel intersections K_1 .. K_upto.

    ``K_j`` is the common kernel of the first j coefficient matrices,
    computed exactly; the sequence is weakly decreasing.  Depth j uses
    coefficients 0..j-1, so degree + 1 is the deepest admissible level.
    The bases are read off the transversality certificates' walk.
    """
    if upto > curve.degree + 1:
        raise ValueError("requested depth exceeds the stored derivatives")
    return list(itertools.islice(_walk(curve), 0, max(2 * upto - 1, 0), 2))


def is_kappa_transversal(curve: MatrixCurveJet, kappa: int) -> TransversalityCertificate:
    """Exact rank certificate for transversality at the given order: the
    kappa-th step of the walk up the kernel chain."""
    if kappa < 1 or kappa > curve.degree:
        raise ValueError("transversality order must lie in 1..degree")
    return next(itertools.islice(_walk(curve), 2 * kappa - 1, None))


def multiplicity_transversal(curve: MatrixCurveJet) -> MultiplicityReport:
    """Weighted kernel-image dimension sum at the minimal transversality
    order, read off one walk up the kernel chain (0 when K_1 is empty);
    raises NotTransversal when no stored order works."""
    walk = _walk(curve)
    if not next(walk):
        return MultiplicityReport.finite(0, "transversal")
    for cert in itertools.islice(walk, 0, None, 2):
        if cert.holds:
            value = sum(j * d for j, d in enumerate(cert.image_dims, start=1))
            return MultiplicityReport.finite(value, "transversal")
    raise NotTransversal(
        "the base point is not a transversal eigenvalue at any stored order; "
        "compose with a transversalizing curve or use another route"
    )


def verify_transversalization(
    curve: MatrixCurveJet, phi: MatrixCurveJet
) -> MultiplicityReport:
    """Multiplicity of the composed curve, checked against the direct route.

    ``phi`` must be polynomial with phi(base) = I, so composing cannot
    change the multiplicity; a mismatch with the determinant route is a
    library bug and raises InternalConsistencyError.
    """
    if phi.dim != curve.dim or phi.base_point != curve.base_point:
        raise PhiNotNormalized("phi must share the curve's dimension and base point")
    if phi.constant_term() != _linalg.identity(curve.dim):
        raise PhiNotNormalized("phi must equal the identity at the base point")
    composed = pointwise_product(curve, phi)
    report = multiplicity_transversal(composed)
    direct = multiplicity_det(curve)
    if report.kind != direct.kind or report.value != direct.value:
        raise InternalConsistencyError(
            f"transversalized multiplicity {report} disagrees with "
            f"determinant order {direct}"
        )
    return MultiplicityReport(
        kind=report.kind,
        value=report.value,
        method="transversalization",
        witness=report.witness,
    )


# ---------------------------------------------------------------------------
# Blow-up order and the classical compact-operator multiplicity


def algebraic_order(curve: MatrixCurveJet) -> AlgebraicOrderReport:
    """Minimal kappa with |inverse| < C / |lam - base|^kappa near the base.

    Equals the determinant order minus the minimal order among the
    adjugate entries.  A regular base point reports kappa None.
    """
    adj, _, det_ord, _ = _exact_adjugate(curve)
    if det_ord == 0:
        return AlgebraicOrderReport(kappa=None, determinant_order=0)
    # the minimal adjugate order is at most det_ord, which is below the
    # working order, so entries vanishing through it cannot attain it
    adj_min = min(
        _poly.low_order(adj[i][j])
        for i in range(curve.dim)
        for j in range(curve.dim)
        if not _poly.is_zero(adj[i][j])
    )
    return AlgebraicOrderReport(kappa=det_ord - adj_min, determinant_order=det_ord)


def classical_multiplicity(k: _linalg.Matrix, mu) -> ClassicalMultiplicityReport:
    """Ascent and algebraic multiplicity of an eigenvalue of a matrix.

    Iterates kernels of powers of (mu*I - K) until they stabilize; the
    multiplicity is the dimension at stabilization.  Agrees with the
    determinant-order route applied to lam -> lam*I - K.
    """
    a = shifted_eigen_curve(k, mu).constant_term()
    n = len(a)
    power = a
    prev_dim = n - _linalg.rank(power)
    nu = 1
    while True:
        power = _linalg.matmul(power, a)
        dim = n - _linalg.rank(power)
        if dim == prev_dim:
            return ClassicalMultiplicityReport(ascent=nu, multiplicity=prev_dim)
        prev_dim = dim
        nu += 1
        if nu > n + 1:
            raise InternalConsistencyError("kernel chain failed to stabilize")
