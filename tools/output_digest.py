"""Print sha256 digests of the library's outputs, to compare two checkouts.

    python3 tools/output_digest.py ROOT

runs the curveinv source under ``ROOT/src`` and prints one line per input
set, ``<set> <sha256>``, then ``all <sha256>`` over the whole dump.  Two
checkouts whose outputs are bit-identical print the same lines, so a
refactor or a speed-up is checked by running this once on each and
comparing.

For every curve the dump holds the ``kind``, ``value``, ``method``,
``order_bound`` and the ``repr`` and ``str`` of the witness of each
multiplicity route (``schur`` and ``laurent`` with the default leftmost
pair and with an explicit rightmost pair), a route's exception where it
raises one, and the ``repr`` of ``algebraic_order``, of both pairs' ``P``
and ``Q``, of ``schur_operator`` and of ``local_determinant``, of
``is_kappa_transversal`` at every order 1..degree and of
``nested_kernels`` through depth degree + 1.  For every fixture command
it holds the exit code, stdout, stderr and the ``--json`` report of one
``curveinv`` process.  For every path it holds the
``repr`` of the ``ParityValue`` of ``interval_parity``,
``crossing_parity`` and ``multiplicity_sum_parity`` (crossings with
their root locations), or the refusal a route raises
(``NonTransversalCrossing`` on a repeated root).

The curves are the benchmark's ``curves-mixed`` (seed 4001, first 200
curves; seed 11, all 500) and ``curves-large`` (seeds 9 and 4001) inputs:
the pinned shapes are replayed from the reference seeds (12345 and 9)
and the entries drawn at the set's seed, draw for draw as the benchmark
and the test generators do.  The generator is written out here on plain
``Fraction`` tuples, so the inputs depend neither on the library's
arithmetic nor on the benchmark's code.  The paths are the benchmark's
``parity-paths`` inputs, the criterion-4 mix on (-1, 1) at seeds 777 (the
acceptance paths) and 4001: the shapes are replayed from seed 777, the
structured draws come from the set's seed and the random draws from seed
777, as in the benchmark.  A third set takes the seed-11 mix onto
intervals drawn at seed 11 with small unequal denominators, such as
(-2/3, 5/7), so the root isolation runs on endpoints that are not
integers; a path singular at a drawn endpoint is left out.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

MIXED_SEED, MIXED_COUNT = 12345, 500
LARGE_SEED, LARGE_DIMS = 9, (7, 8, 9)
CURVE_SETS = (
    ("curves-mixed-4001", "mixed", 4001, 200),
    ("curves-mixed-11", "mixed", 11, 500),
    ("curves-large-9", "large", 9, None),
    ("curves-large-4001", "large", 4001, None),
)
PATHS_SEED, PATHS_COUNT = 777, 301
PATH_SETS = (
    ("parity-paths-777", 777, False),
    ("parity-paths-4001", 4001, False),
    ("parity-paths-11-rational-ends", 11, True),
)
FIXTURE_COMMANDS = (
    ("chi", "--method", "all", "--curve", "np_curve.json"),
    ("chi", "--method", "all", "--curve", "nilpotent_shift.json"),
    ("chi", "--method", "all", "--curve", "zero_curve.json"),
    ("kappa", "--curve", "np_curve.json"),
    ("kappa", "--curve", "nilpotent_shift.json"),
    ("kappa", "--curve", "zero_curve.json"),
    ("classical", "--matrix", "jordan_block.json", "--mu", "0"),
    ("parity", "crossings", "--curve", "crossing_path.json"),
    ("parity", "loop", "--loop", "twisted_loop.json"),
    ("parity", "loop", "--loop", "constant_loop.json"),
)

# ---------------------------------------------------------------------------
# inputs: the known-multiplicity curves A(mu) D(mu) B(mu)


def _rational(rng, span=4, dens=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, dens))


def _matrix(rng, n, span=4, dens=3):
    return tuple(tuple(_rational(rng, span, dens) for _ in range(n)) for _ in range(n))


def _is_singular(a) -> bool:
    rows = [list(r) for r in a]
    n = len(rows)
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if pivot is None:
            return True
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return False


def _invertible(rng, n):
    while True:
        m = _matrix(rng, n, 4, 1)
        if not _is_singular(m):
            return m


def _unit_curve(rng, n, degree):
    return [_invertible(rng, n)] + [_matrix(rng, n, 2, 1) for _ in range(degree)]


def _convolve(a, b, n):
    out = []
    for k in range(len(a) + len(b) - 1):
        acc = [[Fraction(0)] * n for _ in range(n)]
        for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
            x, y = a[i], b[k - i]
            for r in range(n):
                for c in range(n):
                    acc[r][c] += sum(x[r][t] * y[t][c] for t in range(n))
        out.append(tuple(tuple(row) for row in acc))
    return out


def _draw_shape(rng, n=None, max_degree=8):
    if n is None:
        n = rng.randint(1, 6)
    deg_a = rng.randint(0, 1)
    deg_b = rng.randint(0, 1)
    e_max = max_degree - deg_a - deg_b
    exponents = [rng.randint(0, min(3, e_max)) for _ in range(n)]
    if all(e == 0 for e in exponents):
        exponents[rng.randrange(n)] = rng.randint(1, min(3, max(e_max, 1)))
    return n, deg_a, deg_b, exponents


def _curve_coefficients(rng, shape):
    """The coefficients and base point of the curve of this shape."""
    n, deg_a, deg_b, exponents = shape
    a = _unit_curve(rng, n, deg_a)
    b = _unit_curve(rng, n, deg_b)
    d = [
        tuple(
            tuple(Fraction(int(i == j and exponents[i] == k)) for j in range(n))
            for i in range(n)
        )
        for k in range(max(exponents) + 1)
    ]
    coeffs = _convolve(_convolve(a, d, n), b, n)
    return coeffs, Fraction(rng.choice((0, 1, Fraction(-1, 2))))


def _schedule(kind):
    """The pinned shapes: those drawn at the reference seed."""
    if kind == "mixed":
        rng, dims, max_degree = random.Random(MIXED_SEED), [None] * MIXED_COUNT, 8
    else:
        rng, dims, max_degree = random.Random(LARGE_SEED), LARGE_DIMS, 5
    shapes = []
    for n in dims:
        shapes.append(_draw_shape(rng, n, max_degree))
        _curve_coefficients(rng, shapes[-1])
    return shapes, max_degree


def curve_inputs(kind, seed, count):
    """``(coefficients, base point)`` of the set's curves."""
    shapes, max_degree = _schedule(kind)
    rng = random.Random(seed)
    out = []
    for shape in shapes[:count]:
        # the shape drawn at this seed is discarded, as in the benchmark
        _draw_shape(rng, None if kind == "mixed" else shape[0], max_degree)
        out.append(_curve_coefficients(rng, shape))
    return out


# ---------------------------------------------------------------------------
# inputs: the criterion-4 paths


def _draw_path_shape(rng):
    n = rng.randint(1, 5)
    if rng.random() < 0.7:
        return n, True, rng.randint(0, 3)
    return n, False, rng.randint(0, 6)


def _path_coefficients(rng, shape):
    """A random matrix polynomial, or A diag(lam - c_i) B with constant
    invertible A, B and distinct c_i in {-7/8, ..., 7/8}."""
    n, structured, count = shape
    if not structured:
        return [_matrix(rng, n, 2, 1) for _ in range(count + 1)]
    roots = []
    while len(roots) < count:
        c = Fraction(rng.randint(-7, 7), 8)
        if c not in roots and -1 < c < 1:
            roots.append(c)
    left, right = _invertible(rng, n), _invertible(rng, n)
    coeffs = [tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))]
    for c in roots[:n]:
        # multiply a diagonal factor (lam - c) into one random slot
        slot = rng.randrange(n)

        def entry(i, j, k):
            if i != j:
                return Fraction(0)
            if i == slot:
                return -c if k == 0 else Fraction(1)
            return Fraction(1 - k)

        factor = [
            tuple(tuple(entry(i, j, k) for j in range(n)) for i in range(n))
            for k in range(2)
        ]
        coeffs = _convolve(coeffs, factor, n)
    return _convolve(_convolve([left], coeffs, n), [right], n)


def _is_admissible(coeffs, a, b):
    n = len(coeffs[0])
    for lam in (a, b):
        value = [[Fraction(0)] * n for _ in range(n)]
        for mat in reversed(coeffs):
            value = [
                [v * lam + m for v, m in zip(vr, mr)] for vr, mr in zip(value, mat)
            ]
        if _is_singular(value):
            return False
    return True


def path_inputs(seed, rational_ends):
    """``(coefficients, a, b)`` of the set's paths."""
    rng = random.Random(PATHS_SEED)
    shapes, accepted = [], 0
    while accepted < PATHS_COUNT:
        shapes.append(_draw_path_shape(rng))
        accepted += _is_admissible(
            _path_coefficients(rng, shapes[-1]), Fraction(-1), Fraction(1)
        )
    rng, ref = random.Random(seed), random.Random(PATHS_SEED)
    ends = random.Random(seed)
    out = []
    for shape in shapes:
        _draw_path_shape(rng)
        _draw_path_shape(ref)
        coeffs = _path_coefficients(rng, shape)
        ref_coeffs = _path_coefficients(ref, shape)
        if not shape[1]:
            coeffs = ref_coeffs
        a, b = Fraction(-1), Fraction(1)
        if rational_ends:
            a = Fraction(-ends.randint(1, 12), ends.randint(7, 12))
            b = Fraction(ends.randint(1, 12), ends.randint(7, 12))
        if _is_admissible(coeffs, a, b):
            out.append((coeffs, a, b))
    return out


# ---------------------------------------------------------------------------
# outputs


def _report_line(report):
    if isinstance(report, str):
        return report
    w = report.witness
    return repr(
        (report.kind, report.value, report.method, report.order_bound, repr(w), str(w))
    )


def curve_dump(m, refusal, coeffs, base):
    """The dump of one curve; ``m`` is the multiplicity module and
    ``refusal`` the library's error base class."""

    def attempt(call):
        try:
            return call()
        except refusal as exc:  # a documented refusal is part of the output
            return f"{type(exc).__name__}: {exc}"

    curve = m.MatrixCurveJet(len(coeffs[0]), base, tuple(coeffs))
    t = curve.constant_term()
    lines = [
        _report_line(attempt(lambda: m.multiplicity_det(curve))),
        _report_line(attempt(lambda: m.multiplicity_transversal(curve))),
        repr(attempt(lambda: m.algebraic_order(curve))),
        *[repr(m.is_kappa_transversal(curve, k)) for k in range(1, curve.degree + 1)],
        repr(m.nested_kernels(curve, curve.degree + 1)),
    ]
    for flavor in ("leftmost", "rightmost"):
        pair = m.projection_pair(t, flavor)
        pair_arg = None if flavor == "leftmost" else pair
        lines += [
            repr((pair.p, pair.q)),
            _report_line(attempt(lambda: m.multiplicity_schur(curve, pair_arg))),
            _report_line(attempt(lambda: m.multiplicity_laurent(curve, pair_arg))),
            repr(attempt(lambda: m.schur_operator(curve, pair_arg))),
            repr(attempt(lambda: m.local_determinant(curve, pair_arg))),
        ]
    return "\n".join(lines)


def path_dump(p, refusal, coeffs, a, b):
    """The dump of one path; ``p`` is the parity module."""
    path = p.PolynomialPath(len(coeffs[0]), a, b, tuple(coeffs))
    lines = []
    for route in (p.interval_parity, p.crossing_parity, p.multiplicity_sum_parity):
        try:
            lines.append(repr(route(path)))
        except refusal as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    return "\n".join(lines)


def fixture_dump(root: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    fixtures = root / "tests" / "fixtures"
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        for command in FIXTURE_COMMANDS:
            args = [a if not a.endswith(".json") else str(fixtures / a) for a in command]
            report.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "curveinv.cli", *args, "--json", str(report)],
                cwd=root,
                env=env,
                capture_output=True,
                text=True,
            )
            written = report.read_text() if report.exists() else None
            # the fixture paths differ between checkouts
            outputs = [
                None if text is None else text.replace(str(fixtures), "<fixtures>")
                for text in (proc.stdout, proc.stderr, written)
            ]
            parts.append(repr((command, proc.returncode, *outputs)))
    return "\n".join(parts)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/output_digest.py ROOT", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    if not (root / "src" / "curveinv" / "__init__.py").is_file():
        print(f"no curveinv source under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from curveinv import multiplicity, parity
    from curveinv.errors import CurveInvError

    whole = hashlib.sha256()
    for name, kind, seed, count in CURVE_SETS:
        dump = "\n".join(
            curve_dump(multiplicity, CurveInvError, coeffs, base)
            for coeffs, base in curve_inputs(kind, seed, count)
        )
        whole.update(dump.encode())
        print(name, hashlib.sha256(dump.encode()).hexdigest(), flush=True)
    for name, seed, rational_ends in PATH_SETS:
        dump = "\n".join(
            path_dump(parity, CurveInvError, *path)
            for path in path_inputs(seed, rational_ends)
        )
        whole.update(dump.encode())
        print(name, hashlib.sha256(dump.encode()).hexdigest(), flush=True)
    dump = fixture_dump(root)
    whole.update(dump.encode())
    print("cli-fixtures", hashlib.sha256(dump.encode()).hexdigest())
    print("all", whole.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
