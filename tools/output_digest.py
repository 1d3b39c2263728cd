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
and ``Q``, of ``schur_operator`` and of ``local_determinant``.  For every
fixture command it holds the exit code, stdout, stderr and the ``--json``
report of one ``curveinv`` process.

The curves are the benchmark's ``curves-mixed`` (seed 4001, first 200
curves; seed 11, all 500) and ``curves-large`` (seeds 9 and 4001) inputs:
the pinned shapes are replayed from the reference seeds (12345 and 9)
and the entries drawn at the set's seed, draw for draw as the benchmark
and the test generators do.  The generator is written out here on plain
``Fraction`` tuples, so the inputs depend neither on the library's
arithmetic nor on the benchmark's code.
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


def _unit_curve(rng, n, degree):
    while True:
        const = _matrix(rng, n, 4, 1)
        if not _is_singular(const):
            break
    return [const] + [_matrix(rng, n, 2, 1) for _ in range(degree)]


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
    from curveinv import multiplicity
    from curveinv.errors import CurveInvError

    whole = hashlib.sha256()
    for name, kind, seed, count in CURVE_SETS:
        dump = "\n".join(
            curve_dump(multiplicity, CurveInvError, coeffs, base)
            for coeffs, base in curve_inputs(kind, seed, count)
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
