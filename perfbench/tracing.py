"""Spans and counters around calls into the library, for the traced run.

The tracer replaces library functions in place with wrappers, under every
name a caller resolves them by: ``multiplicity`` imports ``jet_det`` by
name, so both ``curveinv.exactnum.jet_det`` and
``curveinv.multiplicity.jet_det`` are wrapped.  Spans are kept in memory as
``(name, start, end, parent, item)`` and written out once at the end of the
run; the hot leaf functions only count calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

SPAN, COUNT = "span", "count"

# (module, attribute path, kind, record the bit size of the result)
TARGETS = (
    ("multiplicity", "multiplicity_det", SPAN, False),
    ("multiplicity", "multiplicity_schur", SPAN, False),
    ("multiplicity", "multiplicity_laurent", SPAN, False),
    ("multiplicity", "multiplicity_transversal", SPAN, False),
    ("multiplicity", "projection_pair", SPAN, False),
    ("exactnum", "jet_det", SPAN, False),
    ("exactnum", "jet_inverse", SPAN, False),
    ("exactnum", "LaurentMatrix.det", SPAN, False),
    ("_poly", "mat_det_bareiss", SPAN, True),
    ("_poly", "mat_adjugate_det", SPAN, True),
    ("_poly", "isolate_roots", SPAN, False),
    ("_poly", "sturm_chain", COUNT, False),
    ("_poly", "eval_at", COUNT, False),
    ("_poly", "squarefree_decomposition", SPAN, False),
    ("_poly", "gcd", SPAN, False),
    ("_linalg", "rref", SPAN, False),
    ("_linalg", "det", SPAN, False),
    ("_linalg", "inverse", SPAN, False),
    ("parity", "interval_parity", SPAN, False),
    ("parity", "crossing_parity", SPAN, False),
    ("parity", "multiplicity_sum_parity", SPAN, False),
    ("parity", "PolynomialPath.determinant_polynomial", SPAN, False),
    ("cli", "main", SPAN, False),
    ("documents", "load_file", SPAN, False),
    ("documents", "dumps", SPAN, False),
    ("torsion", "torsion_invariant", SPAN, False),
    ("torsion", "weight_table", SPAN, False),
)

ROUTES = (
    "multiplicity.multiplicity_det",
    "multiplicity.multiplicity_schur",
    "multiplicity.multiplicity_laurent",
    "multiplicity.multiplicity_transversal",
)


def result_bits(value) -> int:
    """Largest numerator or denominator bit length in a nested result."""
    if isinstance(value, (tuple, list)):
        return max((result_bits(v) for v in value), default=0)
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    """Installs the wrappers, and restores the originals on ``restore`` or
    on leaving its ``with`` block; spans and counts accumulate across
    installs."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.bits = defaultdict(int)
        self.item = None
        self._stack = []
        self._installed = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def install(self) -> None:
        try:
            for module, path, kind, bits in TARGETS:
                self._install(module, path, kind, bits)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _install(self, module, path, kind, bits) -> None:
        name = f"{module}.{path}"
        owner = importlib.import_module(f"curveinv.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = (
            self._span_wrapper(name, original, bits)
            if kind == SPAN
            else self._count_wrapper(name, original)
        )
        if outer:  # a method: the class holds the only binding
            bindings = [(owner, attr)]
        else:
            bindings = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == "curveinv" or mod_name.startswith("curveinv.")
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for where, key in bindings:
            self._installed.append((where, key, original))
            setattr(where, key, wrapper)

    def _span_wrapper(self, name, fn, bits):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item)
            if bits:
                self.bits[name] = max(self.bits[name], result_bits(result))
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def summarize(spans):
    """Per-name total and self time.

    Self time is a span's duration minus the part of it its child spans
    cover; a span nested in a span of the same name adds nothing to the
    total, so recursion is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_time[name] += end - start - child_time[i]
        if not any(spans[a][0] == name for a in ancestors(spans, i)):
            total[name] += end - start
    return total, self_time


def ancestors(spans, i):
    parent = spans[i][3]
    while parent >= 0:
        yield parent
        parent = spans[parent][3]


def route_of(spans, i):
    """The multiplicity route a span ran under, or None."""
    return next((spans[a][0] for a in ancestors(spans, i) if spans[a][0] in ROUTES), None)
