"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its headline numbers once its
assertions have gone through; tolerances are pinned here and nowhere
else.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines as they print.
"""

import json
import math
import random
import time
from itertools import product

import pytest

from conftest import (
    curve_with_known_multiplicity,
    matrix_with_rational_spectrum,
    random_admissible_path,
    random_rank_one_projection,
)
from curveinv import _linalg, fixtures
from curveinv.cli import main
from curveinv.multiplicity import (
    MatrixCurveJet,
    NotTransversal,
    classical_multiplicity,
    multiplicity_det,
    multiplicity_laurent,
    multiplicity_schur,
    multiplicity_transversal,
    pointwise_product,
    shifted_eigen_curve,
)
from curveinv.parity import (
    NonTransversalCrossing,
    crossing_parity,
    interval_parity,
    local_parity,
    loop_parity,
    multiplicity_sum_parity,
)
from curveinv.torsion import (
    FlatTorus,
    Z2Homomorphism,
    direct_sum_torsion,
    is_orientable,
    theta_sum,
    torsion_invariant,
    torsion_value_set,
)

TOL = 1e-12
Q = 2.0 ** -0.25


def _criterion_curves():
    rng = random.Random(12345)
    return [curve_with_known_multiplicity(rng, max_degree=8) for _ in range(500)]


def test_criterion_1_route_equivalence():
    curves = _criterion_curves()
    t0 = time.monotonic()
    disagreements = 0
    transversal_checked = 0
    for curve, expected in curves:
        det_r = multiplicity_det(curve)
        schur_r = multiplicity_schur(curve)
        laurent_r = multiplicity_laurent(curve)
        if not (det_r.value == schur_r.value == laurent_r.value == expected):
            disagreements += 1
            continue
        try:
            if multiplicity_transversal(curve).value != expected:
                disagreements += 1
            transversal_checked += 1
        except NotTransversal:
            pass
    elapsed = time.monotonic() - t0
    assert disagreements == 0
    assert len(curves) >= 500
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1 PASS: det = schur = laurent on {len(curves)} curves "
        f"(transversal agreed on {transversal_checked}) in {elapsed:.1f} s"
    )


def test_criterion_2_product_formula_and_normalization():
    rng = random.Random(54321)
    pairs = 0
    while pairs < 200:
        n = rng.randint(1, 4)
        a, va = curve_with_known_multiplicity(rng, n=n, max_degree=4)
        b, vb = curve_with_known_multiplicity(rng, n=n, max_degree=4)
        b = MatrixCurveJet(n, a.base_point, b.coefficients)
        prod = pointwise_product(a, b)
        assert multiplicity_det(prod).value == va + vb
        pairs += 1
    normalizations = 0
    while normalizations < 50:
        n = rng.randint(2, 5)
        proj = random_rank_one_projection(rng, n)
        rest = tuple(
            tuple(x - y for x, y in zip(r, s))
            for r, s in zip(_linalg.identity(n), proj)
        )
        curve = MatrixCurveJet(n, 0, (rest, proj))
        assert multiplicity_det(curve).value == 1
        assert multiplicity_schur(curve).value == 1
        assert multiplicity_transversal(curve).value == 1
        normalizations += 1
    print(
        f"\nACCEPTANCE 2 PASS: product formula on {pairs} pairs, "
        f"normalization 1 on {normalizations} rank-one projections"
    )


def test_criterion_3_classical_multiplicity():
    rng = random.Random(24680)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 5)
        k, eigs = matrix_with_rational_spectrum(rng, n)
        mu = rng.choice(eigs)
        rep = classical_multiplicity(k, mu)
        det_rep = multiplicity_det(shifted_eigen_curve(k, mu))
        assert det_rep.is_finite and det_rep.value == rep.multiplicity
        checked += 1
    print(
        f"\nACCEPTANCE 3 PASS: kernel-chain multiplicity equals determinant "
        f"order on {checked} matrices"
    )


def test_criterion_4_parity_identities():
    curves = _criterion_curves()
    for curve, expected in curves:
        assert local_parity(curve).sign == (-1) ** expected
    rng = random.Random(777)
    checked = 0
    skipped = 0
    while checked < 300:
        path = random_admissible_path(rng)
        iv = interval_parity(path)
        cs = multiplicity_sum_parity(path)
        assert iv.sign == cs.sign
        try:
            cr = crossing_parity(path)
        except NonTransversalCrossing:
            skipped += 1
            continue
        assert cr.sign == iv.sign
        checked += 1
    print(
        f"\nACCEPTANCE 4 PASS: localized parity on {len(curves)} curves; "
        f"three path parities agree on {checked} paths "
        f"({skipped} multiple-root draws routed to the chi-sum form)"
    )


def test_criterion_5_loop_fixtures():
    twisted = loop_parity(fixtures.twisted_loop())
    constant = loop_parity(fixtures.constant_loop())
    assert twisted.sign == -1
    assert constant.sign == 1
    print(
        "\nACCEPTANCE 5 PASS: twisted loop fixture -1, constant loop fixture +1"
    )


def test_criterion_6_circle_torsion():
    circle = FlatTorus(1)
    trivial = torsion_invariant(circle, Z2Homomorphism((1,)), cutoff=12)
    assert trivial.value == 1.0  # symbolic short-circuit, no truncation
    twisted = torsion_invariant(circle, Z2Homomorphism((-1,)), cutoff=12)
    assert abs(twisted.value - Q) < TOL
    summed = direct_sum_torsion(
        Z2Homomorphism((-1,)), Z2Homomorphism((-1,)), circle, cutoff=12
    )
    assert abs(summed.value - 1.0) < TOL
    print(
        f"\nACCEPTANCE 6 PASS: circle torsion 1 (exact), {twisted.value:.12f} "
        f"= 2^(-1/4) within 1e-12, twisted (+) twisted = 1"
    )


def test_criterion_7_torus_tables(tmp_path):
    out = tmp_path / "table.json"
    assert main(["torsion", "table", "--n", "2", "--json", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    expected2 = [1.0, Q, Q, Q * Q]
    assert len(rows) == 4
    for row, want in zip(rows, expected2):
        assert abs(row["value"] - want) < TOL

    assert main(["torsion", "table", "--n", "3", "--json", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    expected3 = [1.0, Q, Q, Q, Q**2, Q**2, Q**2, Q**3]
    assert len(rows) == 8
    for row, want in zip(rows, expected3):
        assert abs(row["value"] - want) < TOL
    assert any(abs(row["value"] - 8.0 ** -0.25) < TOL for row in rows)

    for n in range(1, 7):
        values = torsion_value_set(FlatTorus(n))
        wanted = sorted((Q**m for m in range(n + 1)), reverse=True)
        assert len(values) == n + 1
        for got, want in zip(values, wanted):
            assert abs(got - want) < TOL
    print(
        "\nACCEPTANCE 7 PASS: torus tables for n = 2, 3 row-for-row; value "
        "sets {(2^(-1/4))^m} for n <= 6"
    )


def test_criterion_8_theta_identities():
    gamma34 = math.gamma(0.75)
    plain = theta_sum(alternating=False, cutoff=12)
    alt = theta_sum(alternating=True, cutoff=12)
    plain_target = math.pi ** 0.25 / gamma34
    alt_target = (math.pi / 2.0) ** 0.25 / gamma34
    assert abs(plain.value - plain_target) < TOL
    assert abs(alt.value - alt_target) < TOL
    print(
        f"\nACCEPTANCE 8 PASS: plain sum {plain.value:.12f} and alternating "
        f"sum {alt.value:.12f} match the gamma-quarter identities within 1e-12"
    )


def test_criterion_9_orientability_equivalence():
    counterexamples = 0
    total = 0
    for n in range(1, 7):
        for signs in product((1, -1), repeat=n):
            zeta = Z2Homomorphism(signs)
            report = is_orientable(zeta, cutoff=12)
            sign_criterion = all(s == 1 for s in signs)
            torsion_criterion = abs(report.torsion_value - 1.0) < 1e-9
            if not (report.orientable == sign_criterion == torsion_criterion):
                counterexamples += 1
            total += 1
    assert counterexamples == 0
    print(
        f"\nACCEPTANCE 9 PASS: orientability criteria coincide on all "
        f"{total} homomorphisms up to rank 6"
    )
