"""Tests of the benchmark itself: inputs, correctness gate, tracer, output.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import tracing
import workloads
from curveinv import _poly, exactnum, multiplicity, parity

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))
import conftest  # noqa: E402  the acceptance generators


def test_curves_mixed_reproduces_acceptance_criterion_1():
    rng = random.Random(12345)
    acceptance = [conftest.curve_with_known_multiplicity(rng, max_degree=8) for _ in range(500)]
    items = workloads.build("curves-mixed", 12345)
    assert [(i.data[0], i.data[1]) for i in items] == acceptance
    # other seeds keep the dims and the multiplicities, and draw new entries
    other = workloads.build("curves-mixed", 1)
    assert [(i.dim, i.data[1]) for i in other] == [(c.dim, e) for c, e in acceptance]
    assert [i.data[0] for i in other] != [c for c, _ in acceptance]


def test_parity_paths_reproduces_acceptance_criterion_4():
    rng = random.Random(777)
    acceptance = [conftest.random_admissible_path(rng) for _ in range(workloads.PATHS_COUNT)]
    items = workloads.build("parity-paths", 777)
    assert [i.data[0] for i in items] == acceptance
    # other seeds keep the 301 shapes and draw new structured paths
    other = workloads.build("parity-paths", 1)
    assert [i.dim for i in other] == [i.dim for i in items]
    assert [i.data for i in other] != [i.data for i in items]
    # criterion 4 stops at its 300th path with a transversal crossing
    declined = []
    for item in items:
        try:
            parity.crossing_parity(item.data[0])
        except parity.NonTransversalCrossing:
            declined.append(item.key)
    assert len(items) - len(declined) == 300
    assert items[-1].key not in declined


def test_schedules_file_matches_the_generators():
    assert workloads.derive_schedules() == workloads.load_schedules()


def test_generators_are_seeded():
    assert gen.random_admissible_path(random.Random(5)) == gen.random_admissible_path(
        random.Random(5)
    )
    assert workloads.build("curves-large", 3) == workloads.build("curves-large", 3)
    assert [i.dim for i in workloads.build("curves-large", 3)] == [
        row[0] for row in workloads.load_schedules()["curves-large"]
    ]


# -- the correctness gate ----------------------------------------------------


def _execute(runner, item):
    return [call() for call in runner.calls(item)]


@pytest.mark.xfail(
    strict=True,
    reason="multiplicity_laurent overshoots on these curves (7 for 6, 8 for 7); "
    "ord-det and schur agree with the known multiplicity",
)
@pytest.mark.parametrize("seed, key", [(11, "c172"), (10, "c45")])
def test_gate_reports_laurent_defect(seed, key):
    item = next(i for i in workloads.build("curves-mixed", seed) if i.key == key)
    runner = workloads.CurveRoutes()
    assert runner.verify(item, _execute(runner, item)) in (None, workloads.DECLINED)


def _curve_item():
    curve, expected = gen.curve_with_known_multiplicity(random.Random(2), n=3)
    return workloads.Item("c0", curve.dim, (curve, expected))


def test_curve_gate_accepts_right_and_flags_wrong_answers():
    runner = workloads.CurveRoutes()
    item = _curve_item()
    expected = item.data[1]
    assert runner.verify(item, _execute(runner, item)) in (None, workloads.DECLINED)
    assert runner.verify(item, [expected] * 4) is None
    assert runner.verify(item, [expected] * 3 + [workloads.DECLINED]) == workloads.DECLINED
    assert "expected" in runner.verify(item, [expected, expected, expected + 1, expected])


def test_path_gate_flags_disagreeing_signs():
    runner = workloads.PathParities()
    item = workloads.Item("p0", 1, (None,))
    assert runner.verify(item, [1, 1, 1]) is None
    assert runner.verify(item, [-1, -1, workloads.DECLINED]) == workloads.DECLINED
    assert "disagree" in runner.verify(item, [1, -1, 1])


def test_cli_gate_checks_exit_code_bytes_and_torsion_values():
    runner = workloads.CliRuns(in_process=True)
    table = next(
        i for i in workloads.build("cli-fixtures", 0) if i.data[0][:2] == ["torsion", "table"]
    )
    assert runner.verify(table, _execute(runner, table)) is None
    assert "exit" in runner.verify(table, [(4, "boom")])
    path = runner.json_dir / f"{table.key}.json"
    payload = json.loads(path.read_text())
    payload["rows"][1]["value"] += 1e-9
    path.write_text(json.dumps(payload))
    assert "differs" in runner.verify(table, [(0, "")])
    runner.first_report.clear()
    assert "expected" in runner.verify(table, [(0, "")])


# -- tracing -----------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        ("outer", 0.0, 10.0, -1, "a"),
        ("inner", 1.0, 4.0, 0, "a"),
        ("inner", 5.0, 6.0, 0, "a"),
        ("outer", 7.0, 8.0, 0, "a"),  # recursion: not added to the total again
    ]
    total, self_time = tracing.summarize(spans)
    assert total["outer"] == 10.0
    assert total["inner"] == 4.0
    assert self_time["outer"] == pytest.approx(10.0 - 3.0 - 1.0 - 1.0 + 1.0)
    assert self_time["inner"] == 4.0
    assert tracing.route_of(spans, 1) is None


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (
        multiplicity.jet_det,
        exactnum.jet_det,
        _poly.mat_adjugate_det,
        exactnum.LaurentMatrix.__dict__["det"],
    )
    item = _curve_item()
    with tracing.Tracer() as tracer:
        assert multiplicity.jet_det is not originals[0]
        assert exactnum.jet_det is multiplicity.jet_det
        tracer.item = item.key
        _execute(workloads.CurveRoutes(), item)
    after = (
        multiplicity.jet_det,
        exactnum.jet_det,
        _poly.mat_adjugate_det,
        exactnum.LaurentMatrix.__dict__["det"],
    )
    assert after == originals
    assert tracer.counts["multiplicity.multiplicity_det"] == 1
    assert tracer.counts["exactnum.jet_det"] >= 1
    assert tracer.bits["_poly.mat_adjugate_det"] > 0
    assert all(span[4] == item.key for span in tracer.spans)
    det_spans = [i for i, s in enumerate(tracer.spans) if s[0] == "exactnum.jet_det"]
    assert tracing.route_of(tracer.spans, det_spans[0]) in tracing.ROUTES


# -- the command -------------------------------------------------------------


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace, seconds", [("0", "0.2"), ("1", "4")])
def test_result_line(trace, seconds):
    # a traced run must reach every command, or it reports the silent names
    proc = _run(HERE.parent, "--workload", "cli-fixtures", "--seed", "4", "--seconds", seconds, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "curves-mixed", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
