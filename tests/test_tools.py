"""Tests of the scripts under ``tools/``."""

import importlib.util
import random
import sys
from pathlib import Path

from conftest import curve_with_known_multiplicity

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_curves_are_the_criterion_1_draws():
    # the digest builds its curves with the benchmark's generator; at the
    # reference seed it must draw the test suite's curves, draw for draw
    digest = _load("output_digest")
    rng = random.Random(12345)
    expected = [curve_with_known_multiplicity(rng, max_degree=8)[0] for _ in range(30)]
    drawn = digest.curve_inputs("curves-mixed", 12345, 30)
    assert [(c.coefficients, c.base_point) for c in expected] == [
        (c.coefficients, c.base_point) for c in drawn
    ]


def test_route_times_checks_each_route_and_caps_each_cell():
    times = _load("route_times")
    root = TOOLS.parent
    for route in times.ROUTES:
        # a time, or a time and the refusal of a route that declines
        cell = times.cell(root, 3, route, 120)
        assert float(cell.split()[0]) >= 0, cell
        assert "WRONG" not in cell and not cell.startswith("exit")
        assert times.cell(root, 3, route, 0.001) == "> 0.001 s"


def test_route_times_parity_cells_check_signs_against_the_interval_route():
    times = _load("route_times")
    root = TOOLS.parent
    for route in times.PARITY_ROUTES:
        # a time, and the count of paths the crossing route declines
        cell = times.parity_cell(root, route, 120)
        assert float(cell.split()[0]) >= 0, cell
        assert "WRONG" not in cell and not cell.startswith("exit")
    assert times.parity_cell(root, "chi-sum", 0.001) == "> 0.001 s"


def test_route_times_curves_are_the_suite_draws():
    # the tool draws with the benchmark's generator: the suite's curve, draw for draw
    sys.path.insert(0, str(TOOLS.parent / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(TOOLS.parent / "perfbench"))
    for n in (3, 12):
        want, value = curve_with_known_multiplicity(random.Random(3), n)
        got, expected = gen.curve_with_known_multiplicity(random.Random(3), n)
        assert (got.coefficients, got.base_point, expected) == (
            want.coefficients, want.base_point, value)
