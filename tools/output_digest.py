"""Print sha256 digests of the library's outputs, to compare two checkouts.

    python3 tools/output_digest.py ROOT

runs the curveinv source under ``ROOT/src`` and prints one line per input
set, ``<set> <sha256>``, then ``all <sha256>`` over the whole dump.  Two
checkouts whose outputs are bit-identical print the same lines, so a
refactor or a speed-up is checked by running this once on each and
comparing.

For every curve the dump holds the ``kind``, ``value``, ``method``,
``order_bound`` and the ``repr`` and ``str`` of the witness of each
multiplicity route (``schur`` and ``laurent`` with the default pair and
with an explicit second pair, the canonical pair of the reversed matrix
``J*T*J`` mapped back by the reversal ``J``), a route's exception where it
raises one, and the ``repr`` of ``algebraic_order``, of both pairs' ``P``
and ``Q``, of ``schur_operator`` and of ``local_determinant``, of
``is_kappa_transversal`` at every order 1..degree, of
``nested_kernels`` through depth degree + 1 and of ``evaluate`` at two
points off the base point, one of them negative.  For every fixture command
it holds the exit code, stdout, stderr and the ``--json`` report of one
``curveinv`` process: ``chi``, ``kappa``, ``classical`` and ``parity`` on
the documents under ``tests/fixtures``, and the torus commands
``torsion``, ``theta``, ``weights`` and ``orientable``, a refusal with
exit 3, five with exit 2 (a missing document among them) and the
``--help`` text of the program and of ``torsion``.  For every path it holds the
``repr`` of ``evaluate`` at both endpoints and at the interior point
(2a + b)/3, of ``determinant_polynomial`` (the elimination kernel's
output, pinned directly), of ``ensure_admissible`` (the two endpoint
determinants, read off the integer lift), and of the ``ParityValue`` of
``interval_parity``, ``crossing_parity`` and ``multiplicity_sum_parity``
(crossings with their root locations), or the refusal a route raises
(``NonTransversalCrossing`` on a repeated root).

The inputs are the benchmark's, built by ``perfbench/workloads.py`` and
``perfbench/gen.py`` beside this tool on the checkout's ``curveinv``: the
``curves-mixed`` curves at seed 4001 (first 200) and seed 11 (all 500),
the ``curves-large`` curves at seeds 9 and 4001, and the ``parity-paths``
paths, the criterion-4 mix on (-1, 1), at seeds 777 (the acceptance
paths) and 4001.  A third path set replays the same draws at seed 11 onto
intervals drawn at seed 11 with small unequal denominators, such as
(-2/3, 5/7), so the root isolation runs on endpoints that are not
integers; it walks every scheduled draw, those the benchmark rejects on
(-1, 1) too, and leaves out a path singular at a drawn endpoint.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
CURVE_SETS = (
    ("curves-mixed-4001", "curves-mixed", 4001, 200),
    ("curves-mixed-11", "curves-mixed", 11, 500),
    ("curves-large-9", "curves-large", 9, None),
    ("curves-large-4001", "curves-large", 4001, None),
)
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
    ("chi", "--method", "ord-det", "--curve", "np_curve.json"),
    ("parity", "interval", "--curve", "crossing_path.json"),
    ("parity", "crossings", "--curve", "crossing_path.json"),
    ("parity", "chi-sum", "--curve", "crossing_path.json"),
    ("parity", "loop", "--loop", "twisted_loop.json"),
    ("parity", "loop", "--loop", "constant_loop.json"),
    ("torsion", "--n", "3", "--signs=-1,1,-1"),
    ("torsion", "table", "--n", "4"),
    ("theta", "--kind", "plain"),
    ("theta", "--kind", "alternating", "--cutoff", "3"),
    ("weights", "--n", "2"),
    ("weights", "--n", "1", "--max-class", "3", "--period", "2.5"),
    ("orientable", "--n", "2", "--signs=-1,1"),
    ("torsion", "--n", "1", "--signs=-1", "--period", "0.05"),  # exit 3
    ("theta", "--cutoff", "0"),  # exit 2
    ("weights", "--n", "1", "--max-class", "-1"),  # exit 2
    ("chi", "--curve", "missing.json"),  # exit 2
    ("parity", "loop"),  # exit 2
    ("orientable", "--n", "2", "--signs=1"),  # exit 2
    ("--help",),
    ("torsion", "--help"),
)

# ---------------------------------------------------------------------------
# inputs: the benchmark's


def _workloads():
    """The benchmark's ``workloads`` module from the ``perfbench`` beside
    this tool; it and its ``gen`` build on the ``curveinv`` imported first."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads

    return workloads


def curve_inputs(name, seed, count=None):
    """The curves of the benchmark's workload ``name`` at ``seed``."""
    return [item.data[0] for item in _workloads().build(name, seed, count)]


def path_inputs(seed, rational_ends):
    """The ``parity-paths`` paths at ``seed``, or with ``rational_ends``
    every scheduled draw moved onto an interval drawn at ``seed``."""
    workloads = _workloads()
    if not rational_ends:
        return [item.data[0] for item in workloads.build("parity-paths", seed)]
    import gen

    # the benchmark's replay, but of every scheduled draw: one rejected on
    # (-1, 1) may be admissible on the drawn interval
    rng, ref = random.Random(seed), random.Random(workloads.PATHS_SEED)
    ends = random.Random(seed)
    out = []
    for n, structured, k in workloads.load_schedules()["parity-paths"]:
        shape = (n, bool(structured), k)
        gen.draw_path_shape(rng)
        gen.draw_path_shape(ref)
        path = gen.path_from_shape(rng, shape)
        ref_path = gen.path_from_shape(ref, shape)
        a = Fraction(-ends.randint(1, 12), ends.randint(7, 12))
        b = Fraction(ends.randint(1, 12), ends.randint(7, 12))
        coeffs = (path if structured else ref_path).coefficients
        path = gen.PolynomialPath(n, a, b, coeffs)
        if gen.is_admissible(path):
            out.append(path)
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


def curve_dump(m, refusal, curve):
    """The dump of one curve; ``m`` is the multiplicity module and
    ``refusal`` the library's error base class."""

    def attempt(call):
        try:
            return call()
        except refusal as exc:  # a documented refusal is part of the output
            return f"{type(exc).__name__}: {exc}"

    t = curve.constant_term()
    # two points off the base point, the second always negative
    off = (curve.base_point + Fraction(3, 11), -abs(curve.base_point) - Fraction(7, 5))
    lines = [
        *[repr(curve.evaluate(x)) for x in off],
        _report_line(attempt(lambda: m.multiplicity_det(curve))),
        _report_line(attempt(lambda: m.multiplicity_transversal(curve))),
        repr(attempt(lambda: m.algebraic_order(curve))),
        *[repr(m.is_kappa_transversal(curve, k)) for k in range(1, curve.degree + 1)],
        repr(m.nested_kernels(curve, curve.degree + 1)),
    ]
    # the second pair is the canonical pair of J*T*J, J the reversal, mapped
    # back by J: a valid pair of T with other complements
    flipped = m.projection_pair(tuple(row[::-1] for row in t[::-1]))
    second = m.ProjectionPair(*[tuple(v[::-1] for v in vs) for vs in dataclasses.astuple(flipped)])
    for pair, pair_arg in ((m.projection_pair(t), None), (second, second)):
        lines += [
            repr((pair.p, pair.q)),
            _report_line(attempt(lambda: m.multiplicity_schur(curve, pair_arg))),
            _report_line(attempt(lambda: m.multiplicity_laurent(curve, pair_arg))),
            repr(attempt(lambda: m.schur_operator(curve, pair_arg))),
            repr(attempt(lambda: m.local_determinant(curve, pair_arg))),
        ]
    return "\n".join(lines)


def path_dump(p, refusal, path):
    """The dump of one path; ``p`` is the parity module."""
    a, b = path.a, path.b
    lines = [repr(path.evaluate(x)) for x in (a, b, (2 * a + b) / 3)]
    lines.append(repr(path.determinant_polynomial()))
    lines.append(repr(path.ensure_admissible()))
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
    for name, workload, seed, count in CURVE_SETS:
        dump = "\n".join(
            curve_dump(multiplicity, CurveInvError, curve)
            for curve in curve_inputs(workload, seed, count)
        )
        whole.update(dump.encode())
        print(name, hashlib.sha256(dump.encode()).hexdigest(), flush=True)
    for name, seed, rational_ends in PATH_SETS:
        dump = "\n".join(
            path_dump(parity, CurveInvError, path)
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
