"""Time each multiplicity route on larger curves, and each parity route
on the benchmark's paths, one process per cell.

    python3 tools/route_times.py ROOT

runs the curveinv source under ``ROOT/src``.  For every size n in
``SIZES`` it builds ``curve_with_known_multiplicity(random.Random(3), n)``
with the benchmark's generator, ``ROOT/perfbench/gen.py`` (the test suite's draws, draw for
draw), and runs each route, ``ord-det``, ``schur``, ``laurent`` and
``transversal``, on it in a fresh interpreter, one process at a time.  A
cell reads the CPU time of that process spent in the route call alone
(``time.process_time``; the imports and the curve come first), in
seconds.  The route's value is checked against the known multiplicity: a
wrong value prints ``WRONG <value> != <expected>``, a documented refusal
prints its exception's name (``NotTransversal`` where the transversal
route declines).  A cell still running after ``TIMEOUT`` seconds of
wall time is killed and prints ``> T s``.  The output is a markdown
table, a row per size, printed as each row completes; two checkouts are
compared by running this on each in the same spell.

A parity table comes first.  Its one row times each parity route,
``interval``, ``chi-sum`` and ``crossings``, over the ``parity-paths``
workload's paths at seed ``PARITY_SEED`` (built by
``ROOT/perfbench/workloads.py``, the acceptance paths), one process per
route: a cell reads the least CPU time of ``PARITY_PASSES`` passes of the
route over every path, in milliseconds.  Each path's sign is checked
against the interval route's, computed after the timed passes: a
disagreement prints ``WRONG <k> of <paths> signs``, and the paths a route
declines (``NonTransversalCrossing``) are counted after the time.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SIZES = (12, 16, 20, 24)
TIMEOUT = 120.0

ROUTES = {
    "ord-det": "multiplicity_det",
    "schur": "multiplicity_schur",
    "laurent": "multiplicity_laurent",
    "transversal": "multiplicity_transversal",
}

# one cell: argv is ROOT, n, route function; prints the CPU seconds, the
# value (or "refused:" and the refusal's name) and the known multiplicity
CHILD = """
import random, sys, time
sys.path.insert(0, sys.argv[1] + "/perfbench")
import gen
from curveinv import multiplicity
from curveinv.errors import CurveInvError
curve, expected = gen.curve_with_known_multiplicity(random.Random(3), int(sys.argv[2]))
route = getattr(multiplicity, sys.argv[3])
start = time.process_time()
try:
    value = route(curve).value
except CurveInvError as exc:
    value = "refused:" + type(exc).__name__
print(f"{time.process_time() - start:.2f}", value, expected)
"""

PARITY_SEED, PARITY_PASSES = 777, 7

PARITY_ROUTES = {
    "interval": "interval_parity",
    "chi-sum": "multiplicity_sum_parity",
    "crossings": "crossing_parity",
}

# one parity cell: argv is ROOT, seed, passes, route function; prints the
# least CPU milliseconds of a pass, the path count, the paths declined and
# the paths whose sign differs from the interval route's
PARITY_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1] + "/perfbench")
import workloads
from curveinv import parity
paths = [item.data[0] for item in workloads.build("parity-paths", int(sys.argv[2]))]
route = getattr(parity, sys.argv[4])
def signs():
    out = []
    for path in paths:
        try:
            out.append(route(path).sign)
        except parity.NonTransversalCrossing:
            out.append(0)
    return out
times = []
for _ in range(int(sys.argv[3])):
    start = time.process_time()
    got = signs()
    times.append(time.process_time() - start)
want = [parity.interval_parity(path).sign for path in paths]
print(f"{1e3 * min(times):.1f}", len(paths), got.count(0),
      sum(1 for g, w in zip(got, want) if g and g != w))
"""


def _run(root: Path, child: str, argv: list, timeout: float):
    """The child's stdout fields, or the cell's text when it timed out or failed."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    args = [sys.executable, "-c", child, str(root), *map(str, argv)]
    try:
        proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"> {timeout:g} s"
    if proc.returncode:
        last = proc.stderr.strip().splitlines()[-1:]
        return f"exit {proc.returncode}: {' '.join(last)}"
    return proc.stdout.split()


def cell(root: Path, n: int, route: str, timeout: float) -> str:
    out = _run(root, CHILD, [n, ROUTES[route]], timeout)
    if isinstance(out, str):
        return out
    seconds, value, expected = out
    if value == expected:
        return seconds
    if value.startswith("refused:"):
        return f"{seconds} ({value[len('refused:'):]})"
    return f"WRONG {value} != {expected}"


def parity_cell(root: Path, route: str, timeout: float) -> str:
    out = _run(root, PARITY_CHILD, [PARITY_SEED, PARITY_PASSES, PARITY_ROUTES[route]], timeout)
    if isinstance(out, str):
        return out
    ms, paths, declined, wrong = out
    if wrong != "0":
        return f"WRONG {wrong} of {paths} signs"
    return ms if declined == "0" else f"{ms} ({declined} declined)"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/route_times.py ROOT", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    if not (root / "src" / "curveinv" / "__init__.py").is_file():
        print(f"no curveinv source under {root / 'src'}", file=sys.stderr)
        return 2
    print("| `parity-paths`, ms | " + " | ".join(f"`{r}`" for r in PARITY_ROUTES) + " |")
    print("| --- " * (len(PARITY_ROUTES) + 1) + "|", flush=True)
    cells = [parity_cell(root, r, TIMEOUT) for r in PARITY_ROUTES]
    print(f"| seed {PARITY_SEED} | " + " | ".join(cells) + " |\n", flush=True)
    print("| n | " + " | ".join(f"`{r}`" for r in ROUTES) + " |")
    print("| --- " * (len(ROUTES) + 1) + "|", flush=True)
    for n in SIZES:
        cells = [cell(root, n, r, TIMEOUT) for r in ROUTES]
        print(f"| {n} | " + " | ".join(cells) + " |", flush=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())
