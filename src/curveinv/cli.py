"""Command-line front end.

Commands: ``chi`` (multiplicity of a curve at its base point, by any or
all routes), ``kappa`` (blow-up order of the inverse), ``classical``
(eigenvalue ascent and multiplicity of a square matrix), ``parity``
(interval, crossings, chi-sum and loop variants), ``torsion`` (invariant
of a sign homomorphism, or the full table), ``theta`` (Gaussian lattice
sums with tail bounds), ``weights`` (deck-class weight table) and
``orientable``.

Exit codes: 0 success, 2 malformed documents or flags or a ``--json``
path that cannot be written, 3 violated mathematical preconditions, 4
internal consistency failure (a bug).
Human-readable output goes to stdout; ``--json PATH`` additionally writes
a canonical machine-readable report, byte-identical for identical inputs.
Exact values are printed in full, however many digits they have.

Each command imports the library modules it runs when it runs, so
``theta`` never loads the exact-arithmetic stack and ``chi`` never loads
``torsion``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import re
import sys

from . import documents
from .errors import (
    CurveInvError,
    DocumentError,
    InternalConsistencyError,
    PreconditionError,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4

# largest table ``torsion table`` or ``weights`` may build (2^n and
# (2*max_class + 1)^n rows)
MAX_ROWS = 100_000

# route name -> function of ``multiplicity``, looked up on that module when
# it is called, so a wrapper installed on ``multiplicity.multiplicity_det``
# (a tracer, a spy) sees it
_ROUTES = {
    "ord-det": "multiplicity_det",
    "schur": "multiplicity_schur",
    "laurent": "multiplicity_laurent",
    "transversal": "multiplicity_transversal",
}

# parity variant -> function of ``parity``, looked up the same way
_PARITY_ROUTES = {
    "interval": "interval_parity",
    "crossings": "crossing_parity",
    "chi-sum": "multiplicity_sum_parity",
}

# torus flag -> the ``torsion`` constant it defaults to; the parser leaves
# it None so that only a torus command imports ``torsion``
_TORUS_DEFAULTS = (("cutoff", "DEFAULT_CUTOFF"), ("period", "DEFAULT_PERIOD"))


def _int_flag(text: str) -> int:
    """``int(text)`` for an integer flag; a rejected value is echoed through
    ``documents._shown``, naming the int-to-str digit limit when it was
    the reason."""
    try:
        return int(text)
    except ValueError:
        why = documents._digit_limit(text)
        raise argparse.ArgumentTypeError(
            f"invalid int value: {documents._shown(text)}{why}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveinv",
        description="Exact multiplicity, parity and torsion invariants "
        "of matrix operator curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument(
        "--json", metavar="PATH", help="write a machine-readable report"
    )
    cutoff_flag = argparse.ArgumentParser(add_help=False)
    cutoff_flag.add_argument("--cutoff", type=_int_flag)
    torus_flags = argparse.ArgumentParser(add_help=False)
    torus_flags.add_argument("--n", type=_int_flag, required=True)
    torus_flags.add_argument("--period", type=float)
    torus = (torus_flags, cutoff_flag)

    def command(name, help, *parents):
        parser = sub.add_parser(name, help=help, parents=[*parents, json_flag])
        # "-1/2" is a value, not a flag, as argparse reads "-1" and "-0.5"
        parser._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
        return parser

    p_chi = command("chi", "multiplicity of a curve at its base point")
    p_chi.add_argument("--curve", required=True, metavar="FILE")
    p_chi.add_argument("--method", default="all", choices=(*_ROUTES, "all"))

    p_kappa = command("kappa", "blow-up order of the inverse curve")
    p_kappa.add_argument("--curve", required=True, metavar="FILE")

    p_classical = command("classical", "ascent and multiplicity of a matrix eigenvalue")
    p_classical.add_argument("--matrix", required=True, metavar="FILE")
    p_classical.add_argument("--mu", required=True, metavar="R")

    p_parity = command("parity", "parity of a path or loop")
    p_parity.add_argument("variant", choices=(*_PARITY_ROUTES, "loop"))
    p_parity.add_argument("--curve", metavar="FILE", help="path document")
    p_parity.add_argument("--loop", metavar="FILE", help="loop document")
    p_parity.add_argument("--a", metavar="R", help="left endpoint override")
    p_parity.add_argument("--b", metavar="R", help="right endpoint override")

    p_torsion = command("torsion", "global torsion invariant", *torus)
    p_torsion.add_argument(
        "table", nargs="?", choices=("table",), help="emit all 2^n rows"
    )
    p_torsion.add_argument("--signs", metavar="s1,s2,...")
    p_torsion.add_argument("--tol", type=float, default=1e-12)

    p_theta = command("theta", "Gaussian lattice sums with tail bounds", cutoff_flag)
    p_theta.add_argument("--kind", choices=("plain", "alternating"), default="plain")

    p_weights = command("weights", "deck-class weight table", *torus)
    p_weights.add_argument("--max-class", type=_int_flag, default=2)

    p_orient = command("orientable", "orientability of a bundle class", *torus)
    p_orient.add_argument("--signs", required=True, metavar="s1,s2,...")
    p_orient.add_argument("--tol", type=float, default=1e-12)

    return parser


# (flag, test, rule) for every numeric flag, in the order _check_flags reads them
_FLAG_RANGES = (
    ("n", lambda v: v >= 1, "must be at least 1"),
    ("max_class", lambda v: v >= 0, "must be non-negative"),
    ("period", lambda v: math.isfinite(v) and v > 0, "must be finite and positive"),
    ("tol", lambda v: math.isfinite(v) and v > 0, "must be finite and positive"),
    ("cutoff", lambda v: v >= 1, "must be at least 1"),
)


def _fill_torus_defaults(args) -> None:
    """Give every torus flag left unset its default from ``torsion``."""
    given = vars(args)
    unset = [(dest, name) for dest, name in _TORUS_DEFAULTS
             if dest in given and given[dest] is None]
    if unset:
        from . import torsion

        for dest, name in unset:
            setattr(args, dest, getattr(torsion, name))


def _check_flags(args) -> None:
    """Refuse a numeric flag out of its range before any command runs."""
    given = vars(args)
    for dest, test, rule in _FLAG_RANGES:
        if dest in given and not test(given[dest]):
            raise DocumentError(f"--{dest.replace('_', '-')} {rule}")


# ---------------------------------------------------------------------------
# payload helpers


def _report_payload(report) -> dict:
    return {
        "kind": report.kind,
        "value": report.value,
        "method": report.method,
        "order_bound": report.order_bound,
        "witness": str(report.witness) if report.witness is not None else None,
    }


def _parity_payload(value) -> dict:
    return {
        "sign": value.sign,
        "crossings": [
            {
                "location": str(c.location),
                "approx": c.location.as_float(),
                "multiplicity": c.multiplicity,
            }
            for c in value.crossings
        ],
        "from_connector_abstraction": value.from_connector_abstraction,
    }


@contextlib.contextmanager
def _exact_digits():
    """Lift the int-to-str digit limit while a report is formatted, so an
    exact value is printed in full; parsing runs under the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):  # a Python without the limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _parse_signs(raw: str, n: int) -> tuple:
    try:
        parts = [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise DocumentError(f"malformed signs: {raw!r}") from exc
    if len(parts) != n or any(s not in (1, -1) for s in parts):
        raise DocumentError(
            f"signs must be {n} comma-separated values from {{1, -1}}"
        )
    return tuple(parts)


def _power_tag(value: float, n: int, tol: float) -> str:
    """The suffix ``  = 2^(...)`` that annotates a torsion value as a
    quarter power of one half, or ``""`` where it is none."""
    for m in range(0, 4 * max(n, 1) + 1):
        if abs(value - 2.0 ** (-m / 4.0)) < tol:
            if m == 0:
                return "  = 1"
            if m % 4 == 0:
                return f"  = 2^(-{m // 4})"
            if m % 2 == 0:
                return f"  = 2^(-{m // 2}/2)"
            return f"  = 2^(-{m}/4)"
    return ""


def _inconsistent(payload: dict, message: str) -> InternalConsistencyError:
    """Exit 4 for a disagreement, carrying the report for ``--json``."""
    exc = InternalConsistencyError(message)
    exc.payload = payload
    return exc


# ---------------------------------------------------------------------------
# commands


def _cmd_chi(args):
    from . import multiplicity
    from .exactnum import SingularToKnownOrder

    curve = documents.curve_from_document(documents.load_file(args.curve))
    routes = tuple(_ROUTES) if args.method == "all" else (args.method,)
    reports = {}
    notes = {}
    for name in routes:
        try:
            reports[name] = getattr(multiplicity, _ROUTES[name])(curve)
        except multiplicity.NotTransversal as exc:
            if args.method == "all":
                notes[name] = f"not transversal ({exc})"
            else:
                raise
        except SingularToKnownOrder as exc:
            if args.method == "all" and name == "laurent":
                notes[name] = f"not isolated ({exc})"
            else:
                raise

    outcomes = {(r.kind, r.value) for r in reports.values()}
    agree = len(outcomes) == 1
    with _exact_digits():
        print(f"multiplicity at base point {curve.base_point}")
        for name in routes:
            if name in reports:
                r = reports[name]
                print(f"  {name:<12}: {r}")
                if r.witness is not None:
                    print(f"  {'':<12}  witness {r.witness}")
            else:
                print(f"  {name:<12}: {notes[name]}")
        if args.method == "all":
            print(f"agreement: {'yes' if agree else 'NO'}")
        payload = {
            "command": "chi",
            "base_point": str(curve.base_point),
            "reports": {k: _report_payload(r) for k, r in reports.items()},
            "notes": notes,
            "agreement": agree,
        }
        if not agree:
            raise _inconsistent(
                payload,
                "multiplicity routes disagree: "
                + ", ".join(f"{k}={v}" for k, v in reports.items()),
            )
    kind = next(iter(reports.values())).kind
    return payload, EXIT_OK if kind == "finite" else EXIT_PRECONDITION


def _cmd_kappa(args):
    from . import multiplicity

    curve = documents.curve_from_document(documents.load_file(args.curve))
    report = multiplicity.algebraic_order(curve)
    if report.is_algebraic:
        print(f"algebraic order kappa = {report.kappa}")
    else:
        print("regular point: the curve is invertible at its base point")
    print(f"determinant order    = {report.determinant_order}")
    payload = {
        "command": "kappa",
        "kappa": report.kappa,
        "determinant_order": report.determinant_order,
    }
    return payload, EXIT_OK


def _cmd_classical(args):
    from . import multiplicity

    mat = documents.matrix_from_document(documents.load_file(args.matrix))
    mu = documents.parse_rational(args.mu)
    report = multiplicity.classical_multiplicity(mat, mu)
    cross = multiplicity.multiplicity_det(multiplicity.shifted_eigen_curve(mat, mu))
    with _exact_digits():
        print(f"eigenvalue {mu}: ascent = {report.ascent}, "
              f"multiplicity = {report.multiplicity}")
        payload = {
            "command": "classical",
            "mu": str(mu),
            "ascent": report.ascent,
            "multiplicity": report.multiplicity,
            "determinant_route": _report_payload(cross),
        }
        if not (cross.is_finite and cross.value == report.multiplicity):
            raise _inconsistent(
                payload,
                f"kernel-chain multiplicity {report.multiplicity} disagrees with "
                f"determinant order {cross}",
            )
    return payload, EXIT_OK


def _cmd_parity(args):
    from . import parity

    for flag in ("curve", "a", "b") if args.variant == "loop" else ("loop",):
        if getattr(args, flag) is not None:
            raise DocumentError(f"--{flag} does not apply to parity {args.variant}")
    if args.variant == "loop":
        if not args.loop:
            raise DocumentError("parity loop requires --loop FILE")
        loop = documents.loop_from_document(documents.load_file(args.loop))
        value = parity.loop_parity(loop)
    else:
        if not args.curve:
            raise DocumentError(f"parity {args.variant} requires --curve FILE")
        a = documents.parse_rational(args.a) if args.a is not None else None
        b = documents.parse_rational(args.b) if args.b is not None else None
        path = documents.path_from_document(
            documents.load_file(args.curve), a=a, b=b
        )
        value = getattr(parity, _PARITY_ROUTES[args.variant])(path)
    with _exact_digits():
        print(f"parity = {value.sign:+d}")
        for c in value.crossings:
            print(f"  crossing at {c.location}  multiplicity {c.multiplicity}")
        if value.from_connector_abstraction:
            print("  (computed through a symbolic GL connector)")
        payload = {"command": f"parity-{args.variant}", **_parity_payload(value)}
    return payload, EXIT_OK


def _check_rows(base: int, n: int, what: str) -> None:
    """Reject a table of base^n rows, or of n indices a row, above MAX_ROWS."""
    # base >= 2 gives base^k > MAX_ROWS at k = MAX_ROWS.bit_length(), so the
    # exponent is capped there and a huge n costs nothing to check
    if base ** min(n, MAX_ROWS.bit_length()) > MAX_ROWS:
        raise DocumentError(f"{what} would have {base}^{n} rows, above {MAX_ROWS}")
    if n > MAX_ROWS:  # base 1 passes above at every n: one row of n indices
        raise DocumentError(f"{what} would have a row of {n} indices, above {MAX_ROWS}")


def _cmd_torsion(args):
    from . import torsion

    torus = torsion.FlatTorus(args.n, period=args.period)
    if args.table == "table":
        _check_rows(2, args.n, "the torsion table")
        rows = []
        for signs in sorted(
            itertools.product((1, -1), repeat=args.n), key=lambda s: s.count(-1)
        ):
            report = torsion.torsion_invariant(
                torus, torsion.Z2Homomorphism(signs), args.cutoff
            )
            rows.append((signs, report))
        header = "  ".join(f"zeta(g{i + 1})" for i in range(args.n))
        print(f"{header}  torsion")
        for signs, report in rows:
            cells = "  ".join(f"{s:+d}".rjust(9) for s in signs)
            tag = _power_tag(report.value, args.n, args.tol)
            print(f"{cells}  {report.value:.12f}{tag}")
        payload = {
            "command": "torsion-table",
            "n": args.n,
            "cutoff": args.cutoff,
            "rows": [
                {
                    "signs": list(signs),
                    "value": report.value,
                    "error_bound": report.error_bound,
                }
                for signs, report in rows
            ],
        }
        return payload, EXIT_OK

    if not args.signs:
        raise DocumentError("torsion requires --signs (or the table subcommand)")
    zeta = torsion.Z2Homomorphism(_parse_signs(args.signs, args.n))
    report = torsion.torsion_invariant(torus, zeta, args.cutoff)
    tag = _power_tag(report.value, args.n, args.tol)
    print(f"torsion invariant = {report.value:.12f}{tag}")
    print(f"error bound       = {report.error_bound:.3e}")
    payload = {
        "command": "torsion",
        "n": args.n,
        "signs": list(zeta.signs),
        "cutoff": report.cutoff,
        "value": report.value,
        "error_bound": report.error_bound,
    }
    return payload, EXIT_OK


def _cmd_theta(args):
    from . import torsion

    result = torsion.theta_sum(args.kind == "alternating", args.cutoff)
    print(f"{args.kind} sum (cutoff {args.cutoff}) = {result.value:.12f}")
    print(f"tail bound = {result.tail_bound:.3e}")
    payload = {
        "command": "theta",
        "kind": args.kind,
        "cutoff": result.cutoff,
        "value": result.value,
        "tail_bound": result.tail_bound,
    }
    return payload, EXIT_OK


def _cmd_weights(args):
    from . import torsion

    _check_rows(2 * args.max_class + 1, args.n, "the weight table")
    torus = torsion.FlatTorus(args.n, period=args.period)
    table = torsion.weight_table(torus, args.max_class, args.cutoff)
    print(f"deck-class weights (n={args.n}, box {args.max_class}, "
          f"cutoff {args.cutoff})")
    shown = set()
    for cls_, w in table.entries:
        if args.n == 1:
            key = abs(cls_[0])
            if key in shown:
                continue
            shown.add(key)
            label = "0" if key == 0 else f"+-{key}"
        else:
            label = str(cls_)
        print(f"  {label:>8}: {w:.10e}")
    print(f"tail bound on the normalizer: {table.tail_bound:.3e}")
    payload = {
        "command": "weights",
        "n": args.n,
        "max_class": args.max_class,
        "cutoff": table.cutoff,
        "entries": [
            {"deck_class": list(cls_), "weight": w} for cls_, w in table.entries
        ],
        "normalization": table.normalization,
        "tail_bound": table.tail_bound,
    }
    return payload, EXIT_OK


def _cmd_orientable(args):
    from . import torsion

    zeta = torsion.Z2Homomorphism(_parse_signs(args.signs, args.n))
    torus = torsion.FlatTorus(args.n, period=args.period)
    report = torsion.is_orientable(zeta, torus, cutoff=args.cutoff, tol=args.tol)
    print("orientable" if report.orientable else "not orientable")
    print(f"torsion invariant = {report.torsion_value:.12f}")
    payload = {
        "command": "orientable",
        "n": args.n,
        "signs": list(zeta.signs),
        "orientable": report.orientable,
        "torsion_value": report.torsion_value,
        "error_bound": report.error_bound,
    }
    return payload, EXIT_OK


_DISPATCH = {
    "chi": _cmd_chi,
    "kappa": _cmd_kappa,
    "classical": _cmd_classical,
    "parity": _cmd_parity,
    "torsion": _cmd_torsion,
    "theta": _cmd_theta,
    "weights": _cmd_weights,
    "orientable": _cmd_orientable,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE

    payload = None
    try:
        _fill_torus_defaults(args)
        _check_flags(args)
        payload, code = _DISPATCH[args.command](args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        payload, code = getattr(exc, "payload", None), EXIT_INTERNAL
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CurveInvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION

    if payload is not None and getattr(args, "json", None):
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(documents.dumps(payload))
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"error: cannot write {args.json}: {reason}", file=sys.stderr)
            return EXIT_PARSE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
