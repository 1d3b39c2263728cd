"""Time each multiplicity route on larger curves, one process per cell.

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
wall time is killed and prints ``> T s``.  The output is one markdown
table, a row per size, printed as each row completes; two checkouts are
compared by running this on each in the same spell.
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


def cell(root: Path, n: int, route: str, timeout: float) -> str:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    args = [sys.executable, "-c", CHILD, str(root), str(n), ROUTES[route]]
    try:
        proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"> {timeout:g} s"
    if proc.returncode:
        last = proc.stderr.strip().splitlines()[-1:]
        return f"exit {proc.returncode}: {' '.join(last)}"
    seconds, value, expected = proc.stdout.split()
    if value == expected:
        return seconds
    if value.startswith("refused:"):
        return f"{seconds} ({value[len('refused:'):]})"
    return f"WRONG {value} != {expected}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/route_times.py ROOT", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    if not (root / "src" / "curveinv" / "__init__.py").is_file():
        print(f"no curveinv source under {root / 'src'}", file=sys.stderr)
        return 2
    print("| n | " + " | ".join(f"`{r}`" for r in ROUTES) + " |")
    print("| --- " * (len(ROUTES) + 1) + "|", flush=True)
    for n in SIZES:
        cells = [cell(root, n, r, TIMEOUT) for r in ROUTES]
        print(f"| {n} | " + " | ".join(cells) + " |", flush=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())
