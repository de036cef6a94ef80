"""Spans and counters installed around the engine's public functions.

The wrappers live in the benchmark, not in the program: ``install`` patches
methods on their classes and rebinds functions in every ``sullivan`` module
that holds them by name.  A span records (name, start, end, parent index);
spans stay in memory and are written as JSON by ``write``.  The hottest
calls (``mul_monomials``, ``GaussianRational.__mul__``, ``TwistSpec``
construction) get counters only, so that their wrappers do not swamp the
self times of the spans around them.

Importing this module changes nothing; ``install`` patches the engine for
the rest of the process, so only a process meant to be traced calls it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.stack = []
        self.counts = Counter()
        self.max_cells = 0
        self._seen = {}  # kind -> set of keys already handled
        self._keep = []  # holds keyed objects alive so their ids stay unique

    # -- recording -----------------------------------------------------------

    def span(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = _clock()
                stack.pop()

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def seen(self, kind, key, keep):
        """Record key under kind; True if it was already recorded."""
        keys = self._seen.setdefault(kind, set())
        if key in keys:
            return True
        keys.add(key)
        self._keep.append(keep)
        return False

    # -- output --------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)

    def summary(self):
        """Per span name: calls, self time, and inclusive time of the spans
        not nested inside another span of the same name."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(spans):
            s = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            s["calls"] += 1
            s["self_s"] += (end - start) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                s["incl_s"] += end - start
        return out


def _rebind(original, replacement):
    """Replace ``original`` wherever a sullivan module binds it by name."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "sullivan" or mod_name.startswith("sullivan.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


# span name -> (module, function) for module-level functions
FUNCTION_SPANS = {
    "linalg.row_reduce": ("sullivan.linalg", "row_reduce"),
    "linalg.kernel_basis": ("sullivan.linalg", "kernel_basis"),
    "linalg.reduce_against": ("sullivan.linalg", "reduce_against"),
    "linalg.rank": ("sullivan.linalg", "rank"),
    "linalg.independent_subset": ("sullivan.linalg", "independent_subset"),
    "dgca.cohomology": ("sullivan.dgca", "cohomology"),
    "parsing.parse": ("sullivan.parsing", "parse_element"),
    "constructions.strip_generator": ("sullivan.constructions", "strip_generator"),
    "constructions.extension": ("sullivan.constructions", "central_extension"),
    "constructions.fiber_product": ("sullivan.constructions", "extension_fiber_product"),
    "twisted.fm_transform": ("sullivan.twisted", "fm_transform"),
    "twisted.gauge_transform": ("sullivan.twisted", "gauge_transform"),
    "twisted.twisted_cohomology": ("sullivan.twisted", "twisted_cohomology"),
    "tduality.validate_config": ("sullivan.tduality", "validate_config"),
    "tduality.derive_quintuple": ("sullivan.tduality", "derive_quintuple"),
    "superminkowski.build_gamma": ("sullivan.superminkowski", "build_gamma"),
    "superminkowski.build_superminkowski": ("sullivan.superminkowski", "build_superminkowski"),
    "superminkowski.mu_f1": ("sullivan.superminkowski", "mu_f1"),
    "cli.load": ("sullivan.cli", "load_algebra_text"),
}


def install():
    """Import the engine, wrap its public entry points, return the Tracer."""
    import importlib

    from sullivan import algebra, dgca, fields, twisted

    for mod, _ in set(FUNCTION_SPANS.values()):
        importlib.import_module(mod)

    tr = Tracer()
    counts = tr.counts

    for name, (mod, fn_name) in FUNCTION_SPANS.items():
        original = getattr(sys.modules[mod], fn_name)
        wrapper = tr.span(name, original)
        if name == "linalg.row_reduce":
            # cells are counted outside the span, so linalg self time is
            # the library's own
            wrapper = _measure_cells(tr, wrapper)
        _rebind(original, wrapper)

    _rebind(algebra.mul_monomials, tr.counter("algebra.mul_monomials", algebra.mul_monomials))

    gr_mul = fields.GaussianRational.__mul__
    GR = fields.GaussianRational

    def qi_mul(self, other):
        counts["fields.qi_mul"] += 1
        if not self.im and (not isinstance(other, GR) or not other.im):
            counts["fields.qi_mul_real"] += 1
        return gr_mul(self, other)

    GR.__mul__ = GR.__rmul__ = qi_mul

    def patch_method(cls, attr, name, before=None):
        """Span a method; ``before`` sees the call's arguments outside the span."""
        spanned = tr.span(name, getattr(cls, attr))
        if before is None:
            setattr(cls, attr, spanned)
            return

        @functools.wraps(spanned)
        def hooked(*args, **kwargs):
            before(*args, **kwargs)
            return spanned(*args, **kwargs)

        setattr(cls, attr, hooked)

    def basis_seen(alg, degree, parity=None):
        if tr.seen("basis", (id(alg), degree, parity), alg):
            counts["algebra.monomial_basis_repeat"] += 1

    def morphism_seen(morphism):
        if tr.seen("morphism", id(morphism), morphism):
            counts["dgca.morphism_verify_repeat"] += 1

    def quintuple_seen(q):
        objs = (q.total, q.side1, q.side2, q.incl1, q.incl2)
        if tr.seen("quintuple", tuple(map(id, objs)) + (q.a1, q.a2, q.b), objs):
            counts["twisted.fmq_verify_repeat"] += 1

    patch_method(dgca.Presentation, "apply_d", "dgca.apply_d")
    patch_method(dgca.Morphism, "apply", "dgca.morphism_apply")
    patch_method(dgca.Morphism, "verify", "dgca.morphism_verify", morphism_seen)
    patch_method(twisted.FMQuintuple, "verify", "twisted.fmq_verify", quintuple_seen)
    patch_method(twisted.FMQuintuple, "reversed", "twisted.fmq_reversed")
    patch_method(algebra.Element, "__mul__", "algebra.elem_mul")
    patch_method(algebra.Algebra, "monomial_basis", "algebra.monomial_basis", basis_seen)
    twisted.TwistSpec.__init__ = tr.counter("twisted.twistspec", twisted.TwistSpec.__init__)
    return tr


def _measure_cells(tr, row_reduce):
    counts = tr.counts

    @functools.wraps(row_reduce)
    def measured(rows, field, ncols=None):
        width = ncols if ncols is not None else (len(rows[0]) if rows else 0)
        cells = len(rows) * width
        counts["linalg.cells"] += cells
        counts["linalg.nnz"] += sum(1 for row in rows for v in row if v)
        tr.max_cells = max(tr.max_cells, cells)
        return row_reduce(rows, field, ncols)

    return measured


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(tr):
    """The per-layer metrics, except the import times and trace overhead,
    which need processes of their own."""
    s = tr.summary()
    c = tr.counts

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(s.get(n, {}).get("self_s", 0.0) for n in names)

    def incl_s(*names):
        return sum(s.get(n, {}).get("incl_s", 0.0) for n in names)

    linalg = [n for n in s if n.startswith("linalg.")]
    extension = ("constructions.extension", "constructions.fiber_product")
    return {
        "fields.qi_mul_calls": c["fields.qi_mul"],
        "fields.qi_mul_real_frac": _frac(c["fields.qi_mul_real"], c["fields.qi_mul"]),
        "algebra.elem_mul_calls": calls("algebra.elem_mul"),
        "algebra.elem_mul_self_s": self_s("algebra.elem_mul"),
        "algebra.mul_monomials_calls": c["algebra.mul_monomials"],
        "algebra.monomial_basis_calls": calls("algebra.monomial_basis"),
        "algebra.monomial_basis_s": incl_s("algebra.monomial_basis"),
        "algebra.monomial_basis_repeat_frac": _frac(
            c["algebra.monomial_basis_repeat"], calls("algebra.monomial_basis")
        ),
        "parsing.parse_calls": calls("parsing.parse"),
        "parsing.parse_s": incl_s("parsing.parse"),
        "linalg.calls": sum(calls(n) for n in linalg),
        "linalg.self_s": self_s(*linalg),
        "linalg.cells": c["linalg.cells"],
        "linalg.max_cells": tr.max_cells,
        "linalg.nnz_frac": _frac(c["linalg.nnz"], c["linalg.cells"]),
        "dgca.apply_d_calls": calls("dgca.apply_d"),
        "dgca.apply_d_self_s": self_s("dgca.apply_d"),
        "dgca.morphism_apply_calls": calls("dgca.morphism_apply"),
        "dgca.morphism_apply_self_s": self_s("dgca.morphism_apply"),
        "dgca.morphism_verify_calls": calls("dgca.morphism_verify"),
        "dgca.morphism_verify_repeat_frac": _frac(
            c["dgca.morphism_verify_repeat"], calls("dgca.morphism_verify")
        ),
        "dgca.cohomology_s": incl_s("dgca.cohomology"),
        "constructions.strip_generator_calls": calls("constructions.strip_generator"),
        "constructions.strip_generator_self_s": self_s("constructions.strip_generator"),
        "constructions.extension_s": _outermost_s(tr, extension),
        "twisted.fm_transform_calls": calls("twisted.fm_transform"),
        "twisted.fm_transform_self_s": self_s("twisted.fm_transform"),
        "twisted.gauge_transform_self_s": self_s("twisted.gauge_transform"),
        "twisted.fmq_verify_calls": calls("twisted.fmq_verify"),
        "twisted.fmq_verify_s": incl_s("twisted.fmq_verify"),
        "twisted.fmq_verify_repeat_frac": _frac(
            c["twisted.fmq_verify_repeat"], calls("twisted.fmq_verify")
        ),
        "twisted.twistspec_calls": c["twisted.twistspec"],
        "twisted.twisted_cohomology_s": incl_s("twisted.twisted_cohomology"),
        "tduality.validate_config_s": incl_s("tduality.validate_config"),
        "tduality.derive_quintuple_s": incl_s("tduality.derive_quintuple"),
        "superminkowski.build_gamma_s": incl_s("superminkowski.build_gamma"),
        "superminkowski.build_superminkowski_s": incl_s("superminkowski.build_superminkowski"),
        "superminkowski.mu_f1_s": incl_s("superminkowski.mu_f1"),
        "cli.load_s": incl_s("cli.load"),
    }


def _outermost_s(tr, names):
    """Inclusive time of spans in ``names`` not nested in another of them."""
    spans = tr.spans
    names = set(names)
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total
