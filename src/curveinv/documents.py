"""Reading and writing curve, path, loop and matrix documents.

Documents are UTF-8 JSON with every rational written as a string such as
"3/4" or "-2"; numeric literals for matrix entries are rejected if they
are floats, since the library's exactness contract forbids lossy input.
Serialization is canonical (sorted keys, fixed indentation), so identical
values produce byte-identical documents.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import DocumentError

# the loaders import the modules whose objects they build, so writing a
# report or reading a file loads only json and fractions
if TYPE_CHECKING:
    from .multiplicity import MatrixCurveJet
    from .parity import LoopPath, PolynomialPath


def parse_rational(value) -> Fraction:
    """Exact rational from a document scalar ("3/4", "-2", or an int)."""
    if isinstance(value, bool):
        raise DocumentError(f"not a rational: {_shown(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise DocumentError(
            f"float literal {value!r} rejected; write rationals as strings"
        )
    if isinstance(value, str):
        # the grammar has no exponent: Fraction("1e999999999") builds 10^999999999
        if "e" in value.lower():
            raise DocumentError(f"exponent notation rejected: {_shown(value)}")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(
                f"not a rational: {_shown(value)}{_digit_limit(value)}"
            ) from exc
    raise DocumentError(f"not a rational: {_shown(value)}")


def _shown(value) -> str:
    """``repr(value)``, or past 60 characters the first 40 of the string (of
    the ``repr`` of any other value) and its length."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 60:
        return repr(value)
    head = repr(text[:40]) if isinstance(value, str) else text[:40]
    return f"{head}... ({len(text)} characters)"


def _digit_limit(value: str) -> str:
    """``": a number has more than N digits"`` when a run of digits in
    ``value`` passes the int-to-str limit N, else ``""``."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = max(map(len, re.findall(r"\d+", value.replace("_", ""))), default=0)
    return f": a number has more than {limit} digits" if 0 < limit < digits else ""


def format_rational(q: Fraction) -> str:
    return str(q)


def _parse_grid(obj, dim, what):
    if not isinstance(obj, list) or len(obj) != dim:
        raise DocumentError(f"{what} must be a {dim}x{dim} grid")
    rows = []
    for row in obj:
        if not isinstance(row, list) or len(row) != dim:
            raise DocumentError(f"{what} must be a {dim}x{dim} grid")
        rows.append(tuple(parse_rational(c) for c in row))
    return tuple(rows)


def _grid_payload(mat):
    return [[format_rational(c) for c in row] for row in mat]


def _parse_coefficients(obj, dim):
    if not isinstance(obj, list) or not obj:
        raise DocumentError("coefficients must be a non-empty list of grids")
    return tuple(_parse_grid(g, dim, "coefficient") for g in obj)


def _parse_dim(obj):
    dim = obj.get("dim")
    # bool is a subclass of int, but true is not a dimension
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise DocumentError("dim must be a positive integer")
    return dim


# -- curves -----------------------------------------------------------------


def curve_from_document(obj) -> MatrixCurveJet:
    from .multiplicity import MatrixCurveJet

    if not isinstance(obj, dict):
        raise DocumentError("curve document must be a JSON object")
    dim = _parse_dim(obj)
    base = parse_rational(obj.get("base_point", "0"))
    coeffs = _parse_coefficients(obj.get("coefficients"), dim)
    if len(coeffs) < 2:
        raise DocumentError("a curve needs at least two coefficient grids")
    try:
        return MatrixCurveJet(dim, base, coeffs)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def curve_to_document(curve: MatrixCurveJet) -> dict:
    return {
        "dim": curve.dim,
        "base_point": format_rational(curve.base_point),
        "coefficients": [_grid_payload(m) for m in curve.coefficients],
    }


# -- square matrices (for the classical eigenvalue command) -----------------


def matrix_from_document(obj):
    if not isinstance(obj, dict):
        raise DocumentError("matrix document must be a JSON object")
    dim = _parse_dim(obj)
    return _parse_grid(obj.get("entries"), dim, "entries")


def matrix_to_document(mat) -> dict:
    return {"dim": len(mat), "entries": _grid_payload(mat)}


# -- paths and loops ---------------------------------------------------------


def path_from_document(obj, a=None, b=None) -> PolynomialPath:
    """Path from a document; an ``interval`` field may be overridden by
    explicitly supplied endpoints.  Coefficients are powers of the global
    parameter, optionally re-expanded around ``base_point``."""
    from . import _poly
    from .parity import PolynomialPath

    if not isinstance(obj, dict):
        raise DocumentError("path document must be a JSON object")
    dim = _parse_dim(obj)
    coeffs = _parse_coefficients(obj.get("coefficients"), dim)
    if a is None or b is None:
        interval = obj.get("interval")
        if not isinstance(interval, list) or len(interval) != 2:
            raise DocumentError(
                "path needs an interval [a, b] (in the document or as flags)"
            )
        a = parse_rational(interval[0]) if a is None else a
        b = parse_rational(interval[1]) if b is None else b
    base = parse_rational(obj.get("base_point", "0"))
    if base != 0:  # sum_j C_j (lam - base)^j in powers of lam
        coeffs = _poly.compose_affine(coeffs, -base, 1)
    try:
        return PolynomialPath(dim, Fraction(a), Fraction(b), coeffs)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def path_to_document(path: PolynomialPath) -> dict:
    return {
        "dim": path.dim,
        "interval": [format_rational(path.a), format_rational(path.b)],
        "coefficients": [_grid_payload(m) for m in path.coefficients],
    }


def loop_from_document(obj) -> LoopPath:
    from .parity import AnalyticSegment, GlConnector, LoopPath

    if not isinstance(obj, dict):
        raise DocumentError("loop document must be a JSON object")
    segments = obj.get("segments")
    if not isinstance(segments, list) or not segments:
        raise DocumentError("loop needs a non-empty list of segments")
    parsed = []
    for seg in segments:
        if not isinstance(seg, dict):
            raise DocumentError("each segment must be a JSON object")
        kind = seg.get("kind")
        if kind == "gl_connector":
            parsed.append(GlConnector())
        elif kind == "analytic":
            parsed.append(AnalyticSegment(path_from_document(seg)))
        else:
            raise DocumentError(f"unknown segment kind: {_shown(kind)}")
    try:
        return LoopPath(tuple(parsed))
    except (ValueError, TypeError) as exc:
        raise DocumentError(str(exc)) from exc


def loop_to_document(loop: LoopPath) -> dict:
    from .parity import GlConnector

    segments = []
    for seg in loop.segments:
        if isinstance(seg, GlConnector):
            segments.append({"kind": "gl_connector"})
        else:
            payload = path_to_document(seg.path)
            payload["kind"] = "analytic"
            segments.append(payload)
    return {"segments": segments}


# -- files -------------------------------------------------------------------


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting, huge ints
        raise DocumentError(f"cannot parse {path} as JSON: {exc}") from exc
