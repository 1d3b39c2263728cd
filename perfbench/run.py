"""Benchmark of curveinv: one workload, one closed loop, one result line.

    python3 perfbench/run.py --workload curves-mixed --seed 1 --seconds 20 --trace 0

A single client runs the workload's items one after another, each only
after the previous one has finished, and checks every answer.  With
``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run.  A full record (environment, rates, failures) goes to
``.bench_out/`` in the checkout, and the traced run writes its spans there.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import checkout

checkout.use_source()

import gen  # noqa: E402  (needs the checkout's source on the path)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
MAX_DIM = 9
PROBE_MATRIX = gen.random_matrix(random.Random(0), 6, 4, 3)
# the reference speed: about the fastest the probe ran on the 2-vCPU Intel
# Xeon virtual machine on which the bounds were set
REFERENCE_PROBE_S = 0.0003


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# the machine's speed
#
# On a shared machine the speed of one process drifts by tens of per cent
# within seconds, and runs of the same code an hour apart differ by as
# much.  So every library call is bracketed by a speed probe just before
# and just after it, and its time is taken as its ratio to the mean of
# the two probes, times the probe's time at a fixed reference speed: the
# time the call would take at that speed.  The probe uses no library code,
# so a change to the library does not move it.


def probe_seconds() -> float:
    """One speed probe: exact elimination of a fixed 6x6 rational matrix in
    plain Python (about 0.3 ms)."""
    start = time.perf_counter()
    gen.is_singular(PROBE_MATRIX)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Outcome of running items one after another."""

    def __init__(self):
        self.keys = []  # item keys in execution order
        self.times = []  # seconds per item, library calls only
        self.ratios = []  # per item, the sum of its calls' probe ratios
        self.probes = []  # every probe time
        self.failures = []
        self.failed_keys = set()
        self.declined = 0

    @property
    def attempted(self) -> int:
        return len(self.keys)

    def best_times(self) -> list:
        """Each item's fastest time over the passes that ran it."""
        best = {}
        for key, elapsed in zip(self.keys, self.times):
            best[key] = min(elapsed, best.get(key, elapsed))
        return list(best.values())

    def item_times(self) -> list:
        """Each item's time at the reference speed, the median over the
        passes."""
        ratios = {}
        for key, ratio in zip(self.keys, self.ratios):
            ratios.setdefault(key, []).append(ratio)
        return [statistics.median(r) * REFERENCE_PROBE_S for r in ratios.values()]


def closed_loop(runner, items, seconds):
    """Run whole passes over ``items`` until ``seconds`` have elapsed.

    Every item runs once per pass, so each gets the same number of
    samples; the run ends at the first pass boundary after ``seconds``.
    """
    loop = Loop()
    probe = probe_seconds()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        for item in items:
            probe = _run_one(runner, item, loop, probe=probe)
    return loop


def traced_pairs(runner, items, tracer, seconds):
    """Each item untraced and then traced, until ``seconds`` have elapsed.

    Running the two back to back keeps them in the same spell of a shared
    machine, so their difference is the tracer's cost; an untimed run of
    the item first keeps its first-run costs out of both.  Returns the
    untraced and the traced loop.
    """
    plain, traced = Loop(), Loop()
    t0 = time.perf_counter()
    for item in items:
        _run_one(runner, item, Loop())
        _run_one(runner, item, plain)
        tracer.install()
        try:
            _run_one(runner, item, traced, tracer)
        finally:
            tracer.restore()
        if time.perf_counter() - t0 >= seconds:
            break
    return plain, traced


def _run_one(runner, item, loop, tracer=None, probe=None):
    """Run and check one item.

    With ``probe``, the time of the last speed probe, a probe follows
    every call, and the sum over the calls of each call's time over the
    mean of the probes around it is recorded; returns the last probe time.
    """
    if tracer is not None:
        tracer.item = item.key
    results, elapsed, ratio = [], 0.0, 0.0
    try:
        for call in runner.calls(item):
            start = time.perf_counter()
            try:
                results.append(call())
            finally:
                step = time.perf_counter() - start
                elapsed += step
                if probe is not None:
                    after = probe_seconds()
                    loop.probes.append(after)
                    ratio += step / ((probe + after) / 2)
                    probe = after
        verdict = runner.verify(item, results)
    except Exception as exc:  # an unexpected error fails the item, not the run
        verdict = f"{item.key}: {type(exc).__name__}: {exc}"
    loop.keys.append(item.key)
    loop.times.append(elapsed)
    loop.ratios.append(ratio)
    if verdict == workloads.DECLINED:
        loop.declined += 1
    elif verdict is not None:
        loop.failures.append(verdict)
        loop.failed_keys.add(item.key)
    return probe


# ---------------------------------------------------------------------------
# helper processes


def _helper(*args) -> subprocess.CompletedProcess:
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
    proc = subprocess.run(
        [sys.executable, probe, *args],
        cwd=checkout.ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: helper {args} failed: {proc.stderr.strip()}")
    return proc


def setup_seconds(workload, seed) -> float:
    """Time at the reference speed of a fresh interpreter that imports the
    library and builds the workload's timed inputs: the median over
    several of its wall time over the probe time around it."""
    ratios = []
    for _ in range(SETUP_REPEATS):
        before = probe_seconds()
        start = time.perf_counter()
        _helper("setup", workload, str(seed))
        elapsed = time.perf_counter() - start
        ratios.append(elapsed / ((before + probe_seconds()) / 2))
    return statistics.median(ratios) * REFERENCE_PROBE_S


def import_seconds() -> float:
    """Median time of ``import curveinv`` in a fresh interpreter."""
    return statistics.median(
        float(_helper("import").stdout) for _ in range(IMPORT_REPEATS)
    )


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of any process it waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


# ---------------------------------------------------------------------------
# metrics


def p90_ms(times) -> float:
    if len(times) < 2:
        return times[0] * 1000.0
    return statistics.quantiles(times, n=10, method="inclusive")[8] * 1000.0


def item_metrics(times, failed: int) -> dict:
    return {
        "throughput_per_s": ((len(times) - failed) / sum(times), "1/s"),
        "item_p50_ms": (statistics.median(times) * 1000.0, "ms"),
        "item_p90_ms": (p90_ms(times), "ms"),
    }


def end_to_end(loop, setup_s):
    """Timing metrics at the reference speed."""
    return {
        **item_metrics(loop.item_times(), len(loop.failed_keys)),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def wall_clock(loop) -> dict:
    """The same item metrics from each item's best wall time, uncorrected."""
    return {
        name: value
        for name, (value, _) in item_metrics(loop.best_times(), len(loop.failed_keys)).items()
    }


def per_layer(tracer, dims, import_s, overhead, declined_rate):
    spans = tracer.spans
    total, self_time = tracing.summarize(spans)
    counts = tracer.counts
    m = {}
    for route in tracing.ROUTES:
        m[f"{route}.total_s"] = (total[route], "s")
    for route in tracing.ROUTES:
        by_dim = [0.0] * (MAX_DIM + 1)
        for name, start, end, _, item in spans:
            if name == route and dims.get(item) is not None:
                by_dim[dims[item]] += end - start
        for d in range(1, MAX_DIM + 1):
            m[f"{route}.dim{d}.total_s"] = (by_dim[d], "s")
    m["multiplicity.projection_pair.total_s"] = (total["multiplicity.projection_pair"], "s")
    attempts = {
        ("multiplicity.multiplicity_det", "exactnum.jet_det"): "jet_det_per_call",
        ("multiplicity.multiplicity_schur", "exactnum.jet_det"): "jet_det_per_call",
        ("multiplicity.multiplicity_laurent", "_poly.mat_adjugate_det"): "adjugate_per_call",
    }
    for (route, inner), label in attempts.items():
        inner_calls = sum(
            1
            for i, span in enumerate(spans)
            if span[0] == inner and tracing.route_of(spans, i) == route
        )
        m[f"{route}.{label}"] = (inner_calls / counts[route] if counts[route] else 0.0, "count/call")
    m["exactnum.jet_det.calls"] = (counts["exactnum.jet_det"], "count")
    m["exactnum.jet_det.self_s"] = (self_time["exactnum.jet_det"], "s")
    m["exactnum.jet_inverse.self_s"] = (self_time["exactnum.jet_inverse"], "s")
    m["exactnum.LaurentMatrix.det.self_s"] = (self_time["exactnum.LaurentMatrix.det"], "s")
    for kernel in ("_poly.mat_det_bareiss", "_poly.mat_adjugate_det"):
        m[f"{kernel}.calls"] = (counts[kernel], "count")
        m[f"{kernel}.self_s"] = (self_time[kernel], "s")
        m[f"{kernel}.result_bits_max"] = (tracer.bits[kernel], "bit")
    m["_poly.isolate_roots.calls"] = (counts["_poly.isolate_roots"], "count")
    m["_poly.isolate_roots.total_s"] = (total["_poly.isolate_roots"], "s")
    m["_poly.sturm_chain.calls"] = (counts["_poly.sturm_chain"], "count")
    m["_poly.eval_at.calls"] = (counts["_poly.eval_at"], "count")
    m["_poly.squarefree_decomposition.self_s"] = (self_time["_poly.squarefree_decomposition"], "s")
    m["_poly.gcd.self_s"] = (self_time["_poly.gcd"], "s")
    for name in ("_linalg.rref", "_linalg.det"):
        m[f"{name}.calls"] = (counts[name], "count")
        m[f"{name}.self_s"] = (self_time[name], "s")
    m["_linalg.inverse.self_s"] = (self_time["_linalg.inverse"], "s")
    for name in (
        "parity.interval_parity",
        "parity.crossing_parity",
        "parity.multiplicity_sum_parity",
        "parity.PolynomialPath.determinant_polynomial",
    ):
        m[f"{name}.total_s"] = (total[name], "s")
    m["cli.import_s"] = (import_s, "s")
    for name in (
        "cli.main",
        "documents.load_file",
        "documents.dumps",
        "torsion.torsion_invariant",
        "torsion.weight_table",
    ):
        m[f"{name}.total_s"] = (total[name], "s")
    m["declined_rate"] = (declined_rate, "frac")
    m["trace.overhead_frac"] = (overhead, "frac")
    # metric names must start with a letter: _poly.x is reported as poly.x
    return {name.lstrip("_"): value for name, value in m.items()}


# ---------------------------------------------------------------------------
# environment and output


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "schedule_seeds": {
            "curves-mixed": workloads.MIXED_SEED,
            "curves-large": workloads.LARGE_SEED,
            "parity-paths": workloads.PATHS_SEED,
        },
        "seconds": args.seconds,
        "commit": _git_commit(),
        "traced": bool(args.trace),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout; "unknown" when it is not a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=checkout.ROOT,
            capture_output=True,
            text=True,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def emit(args, loops: dict, metrics: dict, extra=None) -> None:
    """Write the full record to .bench_out/ and print the result lines."""
    failures = [f for loop in loops.values() for f in loop.failures]
    attempted = sum(loop.attempted for loop in loops.values())
    declined = sum(loop.declined for loop in loops.values())
    summary = {
        "environment": environment(args),
        "error_rate": len(failures) / attempted,
        "declined_rate": declined / attempted,
        "items": {name: loop.attempted for name, loop in loops.items()},
        **(extra or {}),
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {**summary, **result, "failures": failures[:20]}
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (workloads.OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print("# " + json.dumps(summary))
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = workloads.WORKLOADS[args.workload]
    if not args.trace:
        setup_s = setup_seconds(args.workload, args.seed)
        items = workloads.build(args.workload, args.seed, spec.pass_items)
        loop = closed_loop(spec.runner(), items, args.seconds)
        extra = {
            "median_probe_ms": statistics.median(loop.probes) * 1000.0,
            "wall_clock_best": wall_clock(loop),
        }
        emit(args, {"measured": loop}, end_to_end(loop, setup_s), extra)
        return 0

    import_s = import_seconds()
    items = workloads.build(args.workload, args.seed)
    runner = (
        spec.runner(in_process=True) if args.workload == "cli-fixtures" else spec.runner()
    )
    tracer = tracing.Tracer()
    plain, traced = traced_pairs(runner, items, tracer, args.seconds)
    silent = [name for name in spec.fires if tracer.counts[name] == 0]
    if silent:
        raise SystemExit(f"perfbench: traced names never called on {args.workload}: {silent}")
    spans_file = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    spans_file.write_text(
        json.dumps(
            {
                "fields": ["name", "start", "end", "parent", "item"],
                "spans": tracer.spans,
                "counts": dict(tracer.counts),
            }
        )
    )
    metrics = per_layer(
        tracer,
        {item.key: item.dim for item in items},
        import_s,
        sum(traced.times) / sum(plain.times) - 1.0,
        (plain.declined + traced.declined) / (plain.attempted + traced.attempted),
    )
    emit(args, {"untraced": plain, "traced": traced}, metrics, {"spans_file": spans_file.name})
    return 0


if __name__ == "__main__":
    sys.exit(main())
