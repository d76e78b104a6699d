"""Span recorder for the traced benchmark run.

Wraps the public functions and methods of each charp layer from outside
the library.  Every call becomes a span (name, start, end, parent span),
kept in memory and written out when the run ends; a span's self time is
its duration minus the time its child spans cover.  A function imported
by name into other charp modules (``buchberger`` in both
``charp.groebner`` and ``charp.frobenius``, say) is replaced in every
module that holds it, so no call path escapes the wrapper.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute); "Class.method" patches the class.
# Polynomial arithmetic and field arithmetic are not wrapped: they are
# called millions of times and the wrapper would dominate their cost.
WRAPPED = (
    ("poly.frobenius_power", "poly", "frobenius_power"),
    ("poly.frobenius_substitute", "poly", "frobenius_substitute"),
    ("poly.divide_exact", "poly", "divide_exact"),
    ("parse.parse_polynomial", "parse", "parse_polynomial"),
    ("ringfile.parse", "ringfile", "parse_ring_file"),
    ("ringfile.quotient_ring", "ringfile", "RingFile.quotient_ring"),
    ("groebner.buchberger", "groebner", "buchberger"),
    ("groebner.normal_form", "groebner", "normal_form"),
    ("groebner.groebner_basis", "groebner", "Ideal.groebner_basis"),
    ("groebner.contains", "groebner", "Ideal.contains"),
    ("groebner.is_subset_of", "groebner", "Ideal.is_subset_of"),
    ("groebner.equals", "groebner", "Ideal.equals"),
    ("groebner.colon", "groebner", "Ideal.colon"),
    ("groebner.colon_ideal", "groebner", "Ideal.colon_ideal"),
    ("groebner.intersect", "groebner", "Ideal.intersect"),
    ("groebner.eliminate", "groebner", "Ideal.eliminate"),
    ("quotient.lift", "quotient", "QuotientRing.lift"),
    ("quotient.regseq", "quotient", "QuotientRing.is_poor_regular_sequence"),
    ("quotient.sop", "quotient", "QuotientRing.is_system_of_parameters"),
    ("frobenius.bracket_power", "frobenius", "bracket_power"),
    ("frobenius.preimage", "frobenius", "frobenius_preimage"),
    ("frobenius.closure_step", "frobenius", "closure_step"),
    ("frobenius.closure", "frobenius", "frobenius_closure"),
    ("frobenius.q_number", "frobenius", "q_number"),
    ("frobenius.instantiate_template", "frobenius", "instantiate_template"),
    ("frobenius.run_census", "frobenius", "run_census"),
    ("frobenius.uniform_census", "frobenius", "uniform_census"),
    ("cohomology.cech_class", "cohomology", "cech_class"),
    ("cohomology.cech_is_zero", "cohomology", "cech_is_zero"),
    ("cohomology.x_act", "cohomology", "x_act"),
    ("cohomology.cech_equal", "cohomology", "cech_equal"),
    ("cohomology.torsion_order", "cohomology", "torsion_order"),
)
LAYERS = ("poly", "parse", "ringfile", "groebner", "quotient", "frobenius", "cohomology")
TASK = "bench.task"


class SpanRecorder:
    """Records spans while installed; ``uninstall`` restores the library."""

    def __init__(self):
        self.spans: list = []  # [name, parent index, start, end]
        self.errors = Counter()
        self.basis_terms = 0
        self._stack: list = []
        self._patched: list = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named ``name``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        record = [name, stack[-1] if stack else -1, 0.0, 0.0]
        spans.append(record)
        stack.append(index)
        record[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[name.split(".", 1)[0]] += 1
            raise
        finally:
            record[3] = perf_counter()
            stack.pop()

    def _wrap(self, name, fn):
        counts_terms = name == "groebner.buchberger"

        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counts_terms:
                self.basis_terms += sum(len(g.terms) for g in result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self):
        """Patch every loaded charp module; call after each fresh import."""
        modules = [m for n, m in sys.modules.items() if n == "charp" or n.startswith("charp.")]
        for name, module, attr in WRAPPED:
            owner = sys.modules[f"charp.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading -------------------------------------------------------------

    def summary(self) -> dict:
        """Calls, self seconds and total seconds (children included) per
        span name, and the number of groebner_basis calls that hit the
        cache (no buchberger child)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        gb_misses = set()
        for name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "groebner.buchberger" and spans[parent][0] == "groebner.groebner_basis":
                    gb_misses.add(parent)
        calls = Counter()
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for i, (name, _, start, end) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            total_s[name] += end - start
        gb_calls = calls["groebner.groebner_basis"]
        return {
            "calls": calls,
            "self_s": self_s,
            "total_s": total_s,
            "gb_hits": gb_calls - len(gb_misses),
            "gb_calls": gb_calls,
        }

    def write(self, path):
        """Spans as gzipped JSON lines: name, parent index, start, end."""
        with gzip.open(path, "wt") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")
