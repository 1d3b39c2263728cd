"""Tests of the scripts under ``tools/``."""

import importlib.util
import random
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
