"""The benchmark's workloads: seeded inputs, one closed-loop item each, and
the check that every item's answer is right.

Each workload keeps the mix of its acceptance criterion fixed across
seeds: the discrete shape of every input (dimension, factor degrees and
exponents of a curve; dimension, kind and root count or degree of a path)
is pinned in ``schedules.json``, and ``--seed`` draws the entries.  Each
workload draws each shape from the seeded stream exactly as the test
generators do and then builds from the pinned one, so at the reference
seed (12345 for ``curves-mixed``, 777 for ``parity-paths``) the inputs are
exactly the acceptance inputs.  Pinning keeps the per-seed spread of the timings small:
with shapes drawn per seed, the share of the slow dimension-6 curves and
degree-6 paths alone moves throughput by more than the benchmark's bounds.

``python3 perfbench/probe.py schedules`` rewrites ``schedules.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import gen
from curveinv import cli, multiplicity, parity

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SCHEDULES_FILE = HERE / "schedules.json"

MIXED_SEED, MIXED_COUNT = 12345, 500  # acceptance criterion 1
# one curve each of dims 7, 8 and 9; at seed 12345 the three take 11 s a
# pass, which leaves too few passes in a run, so the shapes come from a
# seed whose pass takes about 3 s
LARGE_SEED, LARGE_DIMS = 9, (7, 8, 9)
PATHS_SEED, PATHS_COUNT = 777, 301  # acceptance criterion 4 draws 301 paths

DECLINED = "declined"
Q = 2.0 ** -0.25


@dataclass(frozen=True)
class Item:
    key: str
    dim: int | None
    data: tuple


def derive_schedules() -> dict:
    """Replay the test generators at the reference seeds, recording shapes."""
    rng = random.Random(MIXED_SEED)
    mixed = []
    for _ in range(MIXED_COUNT):
        shape = gen.draw_curve_shape(rng)
        mixed.append(shape)
        gen.curve_from_shape(rng, shape)
    rng = random.Random(LARGE_SEED)
    large = []
    for n in LARGE_DIMS:
        shape = gen.draw_curve_shape(rng, n, 5)
        large.append(shape)
        gen.curve_from_shape(rng, shape)
    rng = random.Random(PATHS_SEED)
    attempts = []
    accepted = 0
    while accepted < PATHS_COUNT:
        shape = gen.draw_path_shape(rng)
        attempts.append(shape)
        accepted += gen.is_admissible(gen.path_from_shape(rng, shape))
    return {
        "curves-mixed": [_encode_curve(s) for s in mixed],
        "curves-large": [_encode_curve(s) for s in large],
        "parity-paths": [[n, int(s), k] for n, s, k in attempts],
    }


def _encode_curve(shape):
    n, deg_a, deg_b, exponents = shape
    return [n, deg_a, deg_b, "".join(map(str, exponents))]


def _decode_curve(row):
    n, deg_a, deg_b, exponents = row
    return n, deg_a, deg_b, tuple(int(e) for e in exponents)


def load_schedules() -> dict:
    return json.loads(SCHEDULES_FILE.read_text())


# ---------------------------------------------------------------------------
# inputs


def build_curves_mixed(seed: int, schedule) -> list:
    rng = random.Random(seed)
    items = []
    for i, row in enumerate(schedule):
        gen.draw_curve_shape(rng)  # keeps the stream aligned with the tests
        curve, expected = gen.curve_from_shape(rng, _decode_curve(row))
        items.append(Item(f"c{i}", curve.dim, (curve, expected)))
    return items


def build_curves_large(seed: int, schedule) -> list:
    rng = random.Random(seed)
    items = []
    for i, row in enumerate(schedule):
        gen.draw_curve_shape(rng, row[0], 5)
        curve, expected = gen.curve_from_shape(rng, _decode_curve(row))
        items.append(Item(f"c{i}", curve.dim, (curve, expected)))
    return items


def build_parity_paths(seed: int, schedule) -> list:
    """The criterion-4 path mix: the seed draws the structured paths, and
    the random draws are always those of the reference seed.

    A random draw's cost turns on how many roots its determinant happens
    to have in the interval, and drawing them per seed moved the workload's
    time by 10-15% from seed to seed by itself.  Every seed thus has the
    same 301 paths' shapes and the same declined path.
    """
    rng, ref = random.Random(seed), random.Random(PATHS_SEED)
    items = []
    for n, structured, k in schedule:
        shape = (n, bool(structured), k)
        gen.draw_path_shape(rng)
        gen.draw_path_shape(ref)
        path = gen.path_from_shape(rng, shape)
        ref_path = gen.path_from_shape(ref, shape)
        if not structured:
            path = ref_path
        if gen.is_admissible(path):
            items.append(Item(f"p{len(items)}", path.dim, (path,)))
    return items


def _cli_commands():
    fx = ROOT / "tests" / "fixtures"

    def doc(name):
        path = fx / name
        if not path.is_file():
            raise FileNotFoundError(f"missing CLI fixture {path}")
        return str(path)

    # (arguments, expected exit code, whether a --json report is written)
    return [
        (["chi", "--curve", doc("np_curve.json")], 0, True),
        (["chi", "--curve", doc("nilpotent_shift.json")], 0, True),
        (["chi", "--curve", doc("zero_curve.json")], 3, True),
        (["kappa", "--curve", doc("np_curve.json")], 0, True),
        (["kappa", "--curve", doc("nilpotent_shift.json")], 0, True),
        (["kappa", "--curve", doc("zero_curve.json")], 3, False),
        (["classical", "--matrix", doc("jordan_block.json"), "--mu", "0"], 0, True),
        (["parity", "crossings", "--curve", doc("crossing_path.json")], 0, True),
        (["parity", "loop", "--loop", doc("twisted_loop.json")], 0, True),
        (["parity", "loop", "--loop", doc("constant_loop.json")], 0, True),
        (["torsion", "table", "--n", "6"], 0, True),
        (["weights", "--n", "2"], 0, True),
        (["theta", "--kind", "plain"], 0, True),
        (["theta", "--kind", "alternating"], 0, True),
    ]


def build_cli_fixtures(seed: int, schedule=None) -> list:
    commands = _cli_commands()
    random.Random(seed).shuffle(commands)
    return [
        Item(f"x{i}", None, (args, code, writes))
        for i, (args, code, writes) in enumerate(commands)
    ]


# ---------------------------------------------------------------------------
# item execution and checks


def _or_declined(call, refusal):
    """``call()``, or DECLINED when it raises the documented ``refusal``."""
    try:
        return call()
    except refusal:
        return DECLINED


class CurveRoutes:
    """A curve through all four multiplicity routes."""

    def calls(self, item):
        curve = item.data[0]
        return [
            lambda: multiplicity.multiplicity_det(curve).value,
            lambda: multiplicity.multiplicity_schur(curve).value,
            lambda: multiplicity.multiplicity_laurent(curve).value,
            lambda: _or_declined(
                lambda: multiplicity.multiplicity_transversal(curve).value,
                multiplicity.NotTransversal,
            ),
        ]

    def verify(self, item, values):
        """None when right, DECLINED for a documented refusal, else a message."""
        expected = item.data[1]
        wrong = [v for v in values if v not in (expected, DECLINED)]
        if wrong:
            return f"{item.key}: routes gave {values}, expected {expected}"
        return DECLINED if DECLINED in values else None


class PathParities:
    """A path through all three parity routes."""

    def calls(self, item):
        path = item.data[0]
        return [
            lambda: parity.interval_parity(path).sign,
            lambda: parity.multiplicity_sum_parity(path).sign,
            lambda: _or_declined(
                lambda: parity.crossing_parity(path).sign, parity.NonTransversalCrossing
            ),
        ]

    def verify(self, item, signs):
        if len({s for s in signs if s != DECLINED}) != 1:
            return f"{item.key}: parity routes disagree: {signs}"
        return DECLINED if DECLINED in signs else None


class CliRuns:
    """One ``curveinv`` invocation writing ``--json``.

    ``in_process`` calls ``cli.main`` instead of starting an interpreter.
    """

    def __init__(self, in_process: bool = False):
        self.in_process = in_process
        self.first_report = {}
        self.json_dir = OUT_DIR / "cli"
        self.json_dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def _json_path(self, item):
        return self.json_dir / f"{item.key}.json"

    def calls(self, item):
        return [lambda: self._invoke(item)]

    def _invoke(self, item):
        args = item.data[0] + ["--json", str(self._json_path(item))]
        self._json_path(item).unlink(missing_ok=True)
        if self.in_process:
            return _quiet_main(args), ""
        proc = subprocess.run(
            [sys.executable, "-m", "curveinv.cli", *args],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        return proc.returncode, proc.stderr

    def verify(self, item, results):
        [(code, stderr)] = results
        args, expected_code, writes = item.data
        label = f"{item.key} curveinv {' '.join(args)}"
        if code != expected_code:
            return f"{label}: exit {code}, expected {expected_code}: {stderr.strip()}"
        path = self._json_path(item)
        if not writes:
            return f"{label}: unexpected --json report" if path.exists() else None
        if not path.exists():
            return f"{label}: no --json report"
        report = path.read_bytes()
        first = self.first_report.setdefault(item.key, report)
        if report != first:
            return f"{label}: --json report differs from the first run"
        if args[:2] == ["torsion", "table"]:
            return _check_torsion_table(label, json.loads(report))
        return None


def _quiet_main(args) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(args)


def _check_torsion_table(label, payload):
    """Every row of the standard-torus table is (2^(-1/4))^m, m the number
    of twisted generators."""
    rows = payload["rows"]
    if len(rows) != 2 ** payload["n"]:
        return f"{label}: {len(rows)} rows"
    for row in rows:
        want = Q ** row["signs"].count(-1)
        if not math.isclose(row["value"], want, rel_tol=0.0, abs_tol=1e-12):
            return f"{label}: row {row['signs']} = {row['value']}, expected {want}"
    return None


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    build: object  # (seed, schedule) -> list[Item]
    runner: object  # () -> object with calls(item) and verify(item, results)
    fires: tuple  # traced names this workload must exercise
    pass_items: int | None = None  # schedule entries per timed pass; None for all


CURVE_NAMES = (
    "multiplicity.multiplicity_det",
    "multiplicity.multiplicity_schur",
    "multiplicity.multiplicity_laurent",
    "multiplicity.multiplicity_transversal",
    "multiplicity.projection_pair",
    "exactnum.jet_det",
    "exactnum.jet_inverse",
    "exactnum.LaurentMatrix.det",
    "_poly.mat_det_bareiss",
    "_poly.mat_adjugate_det",
    "_linalg.rref",
    "_linalg.inverse",
)

WORKLOADS = {
    # a pass over all 500 curves takes ~40 s, so the timed passes cover the
    # first 50 (~2.5 s), which gives every item 7 or more samples in a run;
    # the traced run can still reach all 500
    "curves-mixed": Workload(build_curves_mixed, CurveRoutes, CURVE_NAMES, pass_items=50),
    "curves-large": Workload(build_curves_large, CurveRoutes, CURVE_NAMES),
    "parity-paths": Workload(
        build_parity_paths,
        PathParities,
        (
            "parity.interval_parity",
            "parity.crossing_parity",
            "parity.multiplicity_sum_parity",
            "parity.PolynomialPath.determinant_polynomial",
            "_poly.isolate_roots",
            "_poly.sturm_chain",
            "_poly.eval_at",
            "_poly.squarefree_decomposition",
            "_poly.gcd",
            "_poly.mat_det_bareiss",
            "_linalg.det",
        ),
    ),
    "cli-fixtures": Workload(
        build_cli_fixtures,
        CliRuns,
        (
            "cli.main",
            "documents.load_file",
            "documents.dumps",
            "torsion.torsion_invariant",
            "torsion.weight_table",
        ),
    ),
}


def build(name: str, seed: int, count: int | None = None) -> list:
    """The workload's inputs; ``count`` keeps the schedule's first entries."""
    schedule = load_schedules().get(name)
    return WORKLOADS[name].build(seed, schedule and schedule[:count])


def write_schedules() -> None:
    rows = derive_schedules()
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in rows.items())
    SCHEDULES_FILE.write_text("{\n" + body + "\n}\n")
