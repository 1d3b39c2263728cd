"""Document round-trips, CLI behavior and the exit-code contract."""

import dataclasses
import json
import math
import os
import random
import sys
from fractions import Fraction

import pytest

from conftest import curve_with_known_multiplicity
from curveinv import cli, documents, errors, fixtures, multiplicity, torsion
from curveinv.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


# -- document round trips -------------------------------------------------------


def test_curve_round_trip():
    for make in (
        fixtures.normalization_curve,
        fixtures.nilpotent_shift_curve,
        fixtures.zero_curve,
    ):
        curve = make()
        doc = documents.curve_to_document(curve)
        again = documents.curve_from_document(json.loads(documents.dumps(doc)))
        assert again == curve


def test_path_round_trip():
    path = fixtures.crossing_path()
    doc = documents.path_to_document(path)
    again = documents.path_from_document(json.loads(documents.dumps(doc)))
    assert again == path


def test_loop_round_trip():
    for make in (fixtures.twisted_loop, fixtures.constant_loop):
        loop = make()
        doc = documents.loop_to_document(loop)
        again = documents.loop_from_document(json.loads(documents.dumps(doc)))
        assert again == loop


def test_matrix_round_trip():
    m = ((Fraction(0), Fraction(1)), (Fraction(-3, 4), Fraction(2)))
    doc = documents.matrix_to_document(m)
    assert documents.matrix_from_document(json.loads(documents.dumps(doc))) == m


def test_rational_parsing():
    assert documents.parse_rational("3/4") == Fraction(3, 4)
    assert documents.parse_rational("-2") == Fraction(-2)
    assert documents.parse_rational(5) == Fraction(5)
    with pytest.raises(errors.DocumentError):
        documents.parse_rational(0.5)
    with pytest.raises(errors.DocumentError):
        documents.parse_rational("3/0")
    with pytest.raises(errors.DocumentError):
        documents.parse_rational("abc")
    # the grammar has no exponent; Fraction would build 10^999999999
    for exponent in ("1e3", "1e999999999"):
        with pytest.raises(errors.DocumentError):
            documents.parse_rational(exponent)


def test_path_document_with_base_point_recenters():
    # coefficients about base 1: (lam - 1) on the diagonal slot
    doc = {
        "dim": 1,
        "base_point": "1",
        "interval": ["0", "2"],
        "coefficients": [[["0"]], [["1"]]],
    }
    path = documents.path_from_document(doc)
    assert path.evaluate(1) == ((Fraction(0),),)
    assert path.evaluate(2) == ((Fraction(1),),)

    # random curves about nonzero base points: the re-expanded path takes
    # the same values as the curve
    rng = random.Random(31)
    for _ in range(8):
        curve = curve_with_known_multiplicity(
            rng, max_degree=4, base_points=(1, Fraction(-1, 2), 3)
        )[0]
        doc = documents.curve_to_document(curve)
        doc["interval"] = ["-2", "2"]
        path = documents.path_from_document(json.loads(documents.dumps(doc)))
        for lam in (-2, Fraction(-1, 3), 0, Fraction(5, 7), 2):
            assert path.evaluate(lam) == curve.evaluate(lam)


# -- chi command -------------------------------------------------------------------


def test_chi_all_routes_np_curve(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["chi", "--curve", fx("np_curve.json"), "--json", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "agreement: yes" in text
    payload = json.loads(out.read_text())
    assert payload["agreement"] is True
    for name in ("ord-det", "schur", "laurent", "transversal"):
        assert payload["reports"][name]["value"] == 1


def test_unwritable_json_path_exits_2_with_one_line(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code = main(["theta", "--json", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_chi_nilpotent_shift(capsys):
    code = main(["chi", "--curve", fx("nilpotent_shift.json"), "--method", "ord-det"])
    assert code == 0
    assert ": 2" in capsys.readouterr().out


def test_chi_zero_curve_exits_3(capsys):
    code = main(["chi", "--curve", fx("zero_curve.json")])
    assert code == 3
    assert "infinite" in capsys.readouterr().out


def test_chi_transversal_only_exits_3_when_not_transversal(capsys):
    code = main(
        ["chi", "--curve", fx("nilpotent_shift.json"), "--method", "transversal"]
    )
    assert code == 3


def test_chi_route_is_looked_up_when_called(monkeypatch, capsys):
    # a wrapper installed on the multiplicity module's name (a tracer, a
    # spy) sees the route call
    calls = []
    route = multiplicity.multiplicity_det
    monkeypatch.setattr(
        multiplicity,
        "multiplicity_det",
        lambda curve: calls.append(curve) or route(curve),
    )
    code = main(["chi", "--curve", fx("nilpotent_shift.json"), "--method", "ord-det"])
    assert code == 0
    assert len(calls) == 1


def test_chi_missing_file_exits_2(capsys):
    assert main(["chi", "--curve", fx("nope.json")]) == 2


def test_chi_malformed_curve_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for doc in (
        b'{"dim": 2, "coefficients": [[["0.5", "0"], ["0", "0"]]]}',
        b'{"dim": true, "coefficients": [[["0"]], [["1"]]]}',
        b'{"dim": 1, "coefficients": [[["1e3"]], [["1"]]]}',
        '{"dim": 1, "coefficients": [[["0"]], [["1"]]]}'.encode("utf-16"),
        b"[" * 200000 + b"]" * 200000,
        b'{"dim": 1, "coefficients": [[[' + b"7" * 5000 + b']], [["1"]]]}',
    ):
        bad.write_bytes(doc)
        assert main(["chi", "--curve", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_entry_over_the_str_digit_limit_gets_one_short_line(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    doc = tmp_path / "long.json"
    doc.write_text(json.dumps(
        {"dim": 1, "coefficients": [[["1" * (limit + 101)]], [["1"]]]}
    ))
    assert main(["chi", "--curve", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not a rational: ") and err.count("\n") == 1
    assert len(err) < 200 and f"more than {limit} digits" in err
    # a short value is echoed whole, as before
    with pytest.raises(errors.DocumentError, match=r"^not a rational: '1/0'$"):
        documents.parse_rational("1/0")


@pytest.mark.parametrize(
    "argv",
    [
        ["theta", "--cutoff"],
        ["torsion", "--signs=1", "--n"],
        ["weights", "--n", "1", "--max-class"],
    ],
)
def test_integer_flag_over_the_str_digit_limit_gets_one_short_line(argv, capsys):
    limit = sys.get_int_max_str_digits()
    assert main([*argv, "1" * (limit + 700)]) == 2
    lines = capsys.readouterr().err.splitlines()
    # argparse's usage lines, then its one error line
    assert [line for line in lines if "error:" in line] == lines[-1:]
    assert max(map(len, lines)) < 200 and f"more than {limit} digits" in lines[-1]
    assert f"invalid int value: '{'1' * 40}'... ({limit + 700} characters)" in lines[-1]
    # a short value is echoed whole, as argparse's own int check did
    assert main([*argv, "x2"]) == 2
    assert capsys.readouterr().err.endswith(f"argument {argv[-1]}: invalid int value: 'x2'\n")


def test_long_unknown_segment_kind_gets_one_short_line(tmp_path, capsys):
    doc = tmp_path / "loop.json"
    doc.write_text(json.dumps({"segments": [{"kind": "k" * 5000}]}))
    assert main(["parity", "loop", "--loop", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown segment kind: 'kkk") and err.count("\n") == 1
    assert len(err) < 200 and "(5000 characters)" in err
    with pytest.raises(errors.DocumentError, match=r"^unknown segment kind: None$"):
        documents.loop_from_document({"segments": [{}]})


def test_long_non_string_entry_gets_one_short_line(tmp_path, capsys):
    doc = tmp_path / "list.json"
    doc.write_text(json.dumps({"dim": 1, "coefficients": [[[[1] * 5000]], [["1"]]]}))
    assert main(["chi", "--curve", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not a rational: [1, 1, ") and err.count("\n") == 1
    assert len(err) < 200 and "(15000 characters)" in err
    with pytest.raises(errors.DocumentError, match=r"^not a rational: \[1, 2\]$"):
        documents.parse_rational([1, 2])


def test_witness_longer_than_the_str_digit_limit_is_printed_exactly(tmp_path, capsys):
    # det(diag(10^2200, 10^2200) + t·diag(1, 0)) = 10^4400 + 10^2200·t: the
    # witness has more digits than the int-to-str limit that guards parsing
    big = "1" + "0" * 2200
    doc = tmp_path / "big.json"
    doc.write_text(json.dumps(
        {"dim": 2, "coefficients": [[[big, "0"], ["0", big]], [["1", "0"], ["0", "0"]]]}
    ))
    out = tmp_path / "report.json"
    limit = sys.get_int_max_str_digits()
    assert main(["chi", "--curve", str(doc), "--json", str(out)]) == 0
    assert sys.get_int_max_str_digits() == limit
    witness = json.loads(out.read_text())["reports"]["ord-det"]["witness"]
    assert witness == f"1{'0' * 4400}*t^0 + 1{'0' * 2200}*t^1 + O(t^3)"
    assert witness in capsys.readouterr().out


def test_unknown_flag_exits_2(capsys):
    assert main(["chi", "--nope"]) == 2


# -- kappa and classical --------------------------------------------------------------


def test_kappa_command(capsys):
    code = main(["kappa", "--curve", fx("nilpotent_shift.json")])
    assert code == 0
    assert "kappa = 2" in capsys.readouterr().out


def test_classical_command(capsys, tmp_path):
    out = tmp_path / "r.json"
    code = main(
        ["classical", "--matrix", fx("jordan_block.json"), "--mu", "0",
         "--json", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["ascent"] == 2 and payload["multiplicity"] == 2


def _off_by_one(route):
    """``route`` with every value it reports raised by one: a route bug."""
    def wrong(*args):
        report = route(*args)
        return dataclasses.replace(report, value=report.value + 1)

    return wrong


@pytest.mark.parametrize(
    "route, argv, err, wrong",
    [
        pytest.param(
            "multiplicity_laurent",
            ["chi", "--method", "all", "--curve", fx("nilpotent_shift.json")],
            "internal consistency failure: multiplicity routes disagree: "
            "ord-det=2 (via ord-det), schur=2 (via schur), laurent=3 (via laurent)\n",
            ("reports", "laurent"),
            id="chi",
        ),
        pytest.param(
            "multiplicity_det",
            ["classical", "--matrix", fx("jordan_block.json"), "--mu", "0"],
            "internal consistency failure: kernel-chain multiplicity 2 disagrees "
            "with determinant order 3 (via ord-det)\n",
            ("determinant_route",),
            id="classical",
        ),
    ],
)
def test_disagreement_exits_4_and_writes_its_report(
    route, argv, err, wrong, monkeypatch, tmp_path, capsys
):
    # the routes looked up on ``multiplicity`` see the off-by-one route; the
    # report the command built still goes to --json
    monkeypatch.setattr(multiplicity, route, _off_by_one(getattr(multiplicity, route)))
    out = tmp_path / "report.json"
    assert main([*argv, "--json", str(out)]) == 4
    assert capsys.readouterr().err == err
    payload = json.loads(out.read_text())
    assert payload["command"] == argv[0] and payload.get("agreement", False) is False
    for key in wrong:
        payload = payload[key]
    assert payload["value"] == 3


# -- parity commands --------------------------------------------------------------------


def test_parity_interval(capsys):
    code = main(
        ["parity", "interval", "--curve", fx("crossing_path.json")]
    )
    assert code == 0
    assert "parity = -1" in capsys.readouterr().out


def test_parity_crossings_reports_root(capsys):
    code = main(["parity", "crossings", "--curve", fx("crossing_path.json")])
    assert code == 0
    text = capsys.readouterr().out
    assert "parity = -1" in text and "crossing at 0" in text


@pytest.mark.parametrize("variant", ["crossings", "chi-sum"])
def test_crossing_beyond_float_range_has_no_approx(variant, tmp_path, capsys):
    # the 1x1 path lam - 10^400 crosses at 10^400, which no float holds
    root = 10**400
    doc = tmp_path / "far.json"
    doc.write_text(json.dumps(
        {"dim": 1, "interval": ["-1", str(10 * root)], "coefficients": [[[str(-root)]], [["1"]]]}
    ))
    out = tmp_path / "report.json"
    assert main(["parity", variant, "--curve", str(doc), "--json", str(out)]) == 0
    text = capsys.readouterr().out
    (crossing,) = json.loads(out.read_text())["crossings"]
    assert crossing["approx"] is None and crossing["multiplicity"] == 1
    assert text == f"parity = -1\n  crossing at {crossing['location']}  multiplicity 1\n"
    lo, hi = (Fraction(x) for x in crossing["location"].strip("()").split(", "))
    assert lo < root < hi


def test_parity_chi_sum(capsys):
    code = main(["parity", "chi-sum", "--curve", fx("crossing_path.json")])
    assert code == 0


def test_parity_interval_overrides(capsys):
    # [1/2, 1] contains no root, parity +1
    code = main(
        ["parity", "interval", "--curve", fx("crossing_path.json"),
         "--a", "1/2", "--b", "1"]
    )
    assert code == 0
    assert "parity = +1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, flag, want",
    [
        (["parity", "interval", "--curve", "crossing_path.json"], "--a", "parity = -1\n"),
        (["parity", "crossings", "--curve", "crossing_path.json"], "--b", "parity = +1\n"),
        (["classical", "--matrix", "jordan_block.json"], "--mu", "multiplicity = 0\n"),
    ],
)
def test_negative_fraction_flag_is_a_value(argv, flag, want, capsys):
    # "-1/2" is read as a value, as "-1" and "-0.5" are, and gives what
    # the glued form "--a=-1/2" gives
    args = [fx(a) if a.endswith(".json") else a for a in argv]
    outputs = []
    for tail in ([flag, "-1/2"], [f"{flag}=-1/2"]):
        assert main([*args, *tail]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].out.endswith(want)
    # a flag in a value's place is still refused, with one error line
    assert main([*args, flag, "--json", "r.json"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if "error:" in line] == lines[-1:]
    assert lines[-1].endswith(f"argument {flag}: expected one argument")


def test_parity_loop_twisted(capsys):
    code = main(["parity", "loop", "--loop", fx("twisted_loop.json")])
    assert code == 0
    text = capsys.readouterr().out
    assert "parity = -1" in text and "GL connector" in text


def test_parity_loop_constant(capsys):
    code = main(["parity", "loop", "--loop", fx("constant_loop.json")])
    assert code == 0
    assert "parity = +1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["loop", "--loop", "twisted_loop.json", "--a", "0", "--b", "1"], "--a"),
        (["loop", "--loop", "twisted_loop.json", "--curve", "crossing_path.json"], "--curve"),
        (["interval", "--curve", "crossing_path.json", "--loop", "twisted_loop.json"], "--loop"),
    ],
)
def test_parity_flag_of_the_other_variant_exits_2(argv, flag, capsys):
    args = [fx(a) if a.endswith(".json") else a for a in argv]
    assert main(["parity", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} does not apply to parity {argv[0]}\n"


def test_parity_inadmissible_exits_3(tmp_path):
    path = fixtures.crossing_path()
    doc = documents.path_to_document(path)
    doc["interval"] = ["0", "1"]  # singular at the left endpoint
    f = tmp_path / "p.json"
    f.write_text(documents.dumps(doc))
    assert main(["parity", "interval", "--curve", str(f)]) == 3


def test_parity_nontransversal_exits_3(tmp_path):
    # diag(lam^2, 1): double root at the origin
    doc = {
        "dim": 2,
        "interval": ["-1", "1"],
        "coefficients": [
            [["0", "0"], ["0", "1"]],
            [["0", "0"], ["0", "0"]],
            [["1", "0"], ["0", "0"]],
        ],
    }
    f = tmp_path / "p.json"
    f.write_text(documents.dumps(doc))
    assert main(["parity", "crossings", "--curve", str(f)]) == 3
    assert main(["parity", "chi-sum", "--curve", str(f)]) == 0


# -- torsion, theta, weights, orientable ---------------------------------------------------


def test_torsion_single_value(capsys):
    code = main(["torsion", "--n", "1", "--signs=-1"])
    assert code == 0
    text = capsys.readouterr().out
    assert "0.840896415254" in text and "2^(-1/4)" in text


def test_torsion_signs_space_separated_form(capsys):
    # a lone negative number is accepted without the = form
    code = main(["torsion", "--n", "1", "--signs", "-1"])
    assert code == 0
    assert "2^(-1/4)" in capsys.readouterr().out


def test_torsion_table_n2(capsys, tmp_path):
    out = tmp_path / "t.json"
    code = main(["torsion", "table", "--n", "2", "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    values = [row["value"] for row in payload["rows"]]
    expected = [1.0, 2 ** -0.25, 2 ** -0.25, 2 ** -0.5]
    assert len(values) == 4
    for got, want in zip(values, expected):
        assert abs(got - want) < 1e-12
    # first row is the trivial class
    assert payload["rows"][0]["signs"] == [1, 1]


def test_torsion_table_n3(capsys, tmp_path):
    out = tmp_path / "t.json"
    code = main(["torsion", "table", "--n", "3", "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    values = [row["value"] for row in payload["rows"]]
    q = 2 ** -0.25
    expected = [1.0, q, q, q, q * q, q * q, q * q, q ** 3]
    assert len(values) == 8
    for got, want in zip(values, expected):
        assert abs(got - want) < 1e-12
    assert any(abs(v - 8 ** -0.25) < 1e-12 for v in values)


def test_torsion_missing_signs_exits_2():
    assert main(["torsion", "--n", "2"]) == 2


def test_torsion_malformed_signs_exits_2():
    assert main(["torsion", "--n", "2", "--signs=-1"]) == 2
    assert main(["torsion", "--n", "1", "--signs=7"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["torsion", "--n", "1", "--signs=-1", "--period", "nan"],
        ["weights", "--n", "1", "--period", "nan"],
        ["orientable", "--n", "1", "--signs=-1", "--period", "inf"],
        ["orientable", "--n", "1", "--signs=1", "--tol", "nan"],
        ["orientable", "--n", "1", "--signs=1", "--tol", "-1"],
        ["torsion", "--n", "0", "--signs=1"],
        ["torsion", "table", "--n", "0"],
        ["weights", "--n", "0"],
        ["orientable", "--n", "0", "--signs=1"],
        ["theta", "--cutoff", "0"],
        ["torsion", "--n", "1", "--signs=-1", "--cutoff", "0"],
        ["weights", "--n", "1", "--max-class", "-1"],
    ],
)
def test_nonfinite_or_nonpositive_torus_flags_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["torsion", "--n", "1", "--signs=-1", "--period", "1e-10"],
        ["weights", "--n", "1", "--period", "1e-10"],
        ["orientable", "--n", "1", "--signs=-1", "--period", "1e-10"],
        ["torsion", "--n", "1", "--signs=-1", "--period", "0.05"],
        ["weights", "--n", "1", "--period", "0.05"],
        ["torsion", "--n", "1", "--signs=1", "--period", "0.05"],
        ["orientable", "--n", "9", "--signs", ",".join(["1"] * 9), "--period", "0.05"],
    ],
)
def test_uncertifiable_tail_bound_exits_3(argv, capsys):
    # the tail bound underflows its geometric ratio (period 1e-10) or
    # exceeds the truncated sum (period 0.05): no error bound to report
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("precondition violated: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["weights", "--n", "9000", "--max-class", "0"],
        ["weights", "--n", "300", "--period", "0.3", "--max-class", "0"],
    ],
)
def test_overflowing_lattice_sum_exits_3(argv, capsys, tmp_path):
    out = tmp_path / "w.json"
    assert main([*argv, "--json", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = captured.err
    assert err.startswith("precondition violated: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["torsion", "orientable"])
def test_cancelled_alternating_sum_exits_3(command, capsys, tmp_path):
    # at this period and cutoff the alternating sum cancels to -7.3e-17
    out = tmp_path / "t.json"
    argv = [command, "--n", "1", "--signs=-1", "--period", "0.025"]
    argv += ["--cutoff", "1000000", "--json", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = captured.err
    assert err.startswith("precondition violated: the alternating lattice sum")
    assert "cancelled to rounding" in err and err.count("\n") == 1


HUGE_CUTOFF = "1" + "0" * 200


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["theta"], "tail_bound"),
        (["torsion", "--n", "1", "--signs=-1"], "error_bound"),
        (["weights", "--n", "1"], "tail_bound"),
    ],
)
def test_huge_cutoff_reports_the_default_cutoffs_value(argv, bound, tmp_path, capsys):
    # (cutoff + 1)**2 is too large for a float past about 1.3e154; the tail
    # is bounded at a smaller cutoff, which still bounds it
    default, huge = tmp_path / "default.json", tmp_path / "huge.json"
    assert main([*argv, "--json", str(default)]) == 0
    assert main([*argv, "--cutoff", HUGE_CUTOFF, "--json", str(huge)]) == 0
    want, got = json.loads(default.read_text()), json.loads(huge.read_text())
    assert got.pop("cutoff") == int(HUGE_CUTOFF) and want.pop("cutoff") == 12
    assert 0.0 <= got.pop(bound) <= want.pop(bound)
    assert got == want


@pytest.mark.parametrize(
    "argv",
    [
        ["torsion", "table", "--n", "40"],
        ["weights", "--n", "12"],
        ["weights", "--n", "11", "--max-class", "1"],
        ["weights", "--n", "1000000000", "--max-class", "0"],
    ],
)
def test_oversized_tables_exit_2_before_building(argv, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized table was built")

    monkeypatch.setattr(torsion, "torsion_invariant", refuse)
    monkeypatch.setattr(torsion, "weight_table", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(cli.MAX_ROWS) in captured.err


@pytest.mark.parametrize(
    "command", [["torsion", "--signs=-1"], ["weights"], ["orientable", "--signs=-1"]]
)
def test_huge_cutoff_at_a_small_period_exits_3(command, capsys):
    # the lattice loop would add about sqrt(745 / decay) = 5.5e7 terms here
    argv = [*command, "--n", "1", "--period", "1e-6", "--cutoff", "1000000000000"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "term limit" in captured.err
    assert str(torsion.MAX_TERMS) in captured.err


def test_torsion_table_builds_no_unit_box(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the table built unit-box contributions")

    monkeypatch.setattr(torsion, "_unit_box_contributions", refuse)
    out = tmp_path / "table.json"
    assert main(["torsion", "table", "--n", "8", "--json", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 256
    for row in rows:
        assert abs(row["value"] - 2.0 ** (-row["signs"].count(-1) / 4)) < 1e-12


def test_theta_command(capsys):
    code = main(["theta", "--kind", "plain", "--cutoff", "12"])
    assert code == 0
    assert "1.086434811213" in capsys.readouterr().out
    code = main(["theta", "--kind", "alternating"])
    assert code == 0
    assert "0.913579138156" in capsys.readouterr().out


def test_weights_command(capsys, tmp_path):
    out = tmp_path / "w.json"
    code = main(
        ["weights", "--n", "1", "--max-class", "2", "--json", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    by_class = {tuple(e["deck_class"]): e["weight"] for e in payload["entries"]}
    assert abs(by_class[(0,)] - math.gamma(0.75) / math.pi ** 0.25) < 1e-12
    assert abs(by_class[(1,)] - by_class[(0,)] * math.exp(-math.pi)) < 1e-15
    assert abs(by_class[(2,)] - 3.21e-6) < 1e-8


def test_row_check_keeps_every_table_it_accepted(monkeypatch, tmp_path, capsys):
    # base 1 passes the row count at every n, so n itself is capped
    cli._check_rows(1, cli.MAX_ROWS, "t")
    with pytest.raises(errors.DocumentError):
        cli._check_rows(1, cli.MAX_ROWS + 1, "t")
    built = []
    real = torsion.weight_table
    monkeypatch.setattr(torsion, "weight_table", lambda *a: built.append(a) or real(*a))
    out = tmp_path / "w.json"
    assert main(["weights", "--n", "2", "--json", str(out)]) == 0
    (args,) = built
    table = real(*args)
    entries = json.loads(out.read_text())["entries"]
    assert [(tuple(e["deck_class"]), e["weight"]) for e in entries] == list(table.entries)
    assert len(entries) == 25


def test_weights_at_an_infinite_decay_are_finite(capsys, tmp_path):
    # period 1e308 overflows period^2 / (4 time) to inf; the trivial class
    # still weighs 1 / plain^n, not exp(-inf * 0) = nan
    out = tmp_path / "w.json"
    code = main(["weights", "--n", "1", "--period", "1e308", "--json", str(out)])
    assert code == 0
    assert "nan" not in capsys.readouterr().out

    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")

    payload = json.loads(out.read_text(), parse_constant=refuse)
    by_class = {tuple(e["deck_class"]): e["weight"] for e in payload["entries"]}
    assert by_class == {(0,): 1.0, (-1,): 0.0, (1,): 0.0, (-2,): 0.0, (2,): 0.0}


def test_orientable_command(capsys):
    code = main(["orientable", "--n", "2", "--signs", "1,1"])
    assert code == 0
    assert "orientable" in capsys.readouterr().out
    code = main(["orientable", "--n", "1", "--signs=-1"])
    assert code == 0
    assert "not orientable" in capsys.readouterr().out
    code = main(["orientable", "--n", "1", "--signs=-1", "--period", "7"])
    assert code == 0
    assert "not orientable" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "1", "--signs=-1", "--period", "11"],
        ["--n", "1", "--signs=-1", "--period", "1e200"],
        ["--n", "2", "--signs=-1,1", "--period", "12", "--tol", "1e-9"],
    ],
)
def test_orientable_exits_3_where_the_torsion_criterion_cannot_decide(argv, capsys):
    assert main(["orientable", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precondition violated: ")
    assert captured.err.count("\n") == 1


# -- output stability -------------------------------------------------------------------


def test_json_reports_are_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["torsion", "table", "--n", "3", "--json", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    for out in (out1, out2):
        assert main(["chi", "--curve", fx("np_curve.json"), "--json", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_console_entry_point_runs():
    import subprocess
    import sys

    import curveinv

    # the child finds the package where this process found it, installed or not
    package_root = os.path.dirname(os.path.dirname(curveinv.__file__))
    path = [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-m", "curveinv.cli", "theta", "--cutoff", "12"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert proc.returncode == 0
    assert "1.086434811213" in proc.stdout


# -- exit-code contract is exhaustive ------------------------------------------------------


def test_every_library_error_maps_to_one_exit_code():
    # ``import curveinv`` loads no submodule, so load every one that can
    # define an error
    import importlib
    import pkgutil

    import curveinv

    for info in pkgutil.iter_modules(curveinv.__path__):
        importlib.import_module(f"curveinv.{info.name}")

    def all_subclasses(cls):
        out = set()
        for sub in cls.__subclasses__():
            out.add(sub)
            out |= all_subclasses(sub)
        return out

    buckets = {
        errors.DocumentError: 2,
        errors.PreconditionError: 3,
        errors.InternalConsistencyError: 4,
    }
    for exc in all_subclasses(errors.CurveInvError):
        if exc in buckets:
            continue
        codes = [code for base, code in buckets.items() if issubclass(exc, base)]
        assert len(codes) == 1, f"{exc} maps to {codes}"
