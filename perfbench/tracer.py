"""Span tracer for the ffgenus benchmark, installed from outside the package.

`install` wraps the listed public functions of each ffgenus module at every
module-level binding (`from .ffpoly import factor` copies the function into
the importing module, so each copy is replaced), plus the FqContext.extension,
FqPoly.divrem and FqPoly.__mul__ methods. No file of the package is edited.

Spans live in memory as flat records (name, start, end, parent span, request)
and are written out when the run ends. A layer's self time is its span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import array
import json
import sys
import time
from math import prod

# module -> {function name: span name}
FUNCTIONS = {
    "ffgenus.ffpoly": {
        "make_context": "ffpoly.make_context", "factor": "ffpoly.factor",
        "is_irreducible": "ffpoly.is_irreducible", "powmod": "ffpoly.powmod",
        "poly_gcd": "ffpoly.poly_gcd", "is_eth_power": "ffpoly.is_eth_power",
        "parse_poly": "ffpoly.parse", "parse_element": "ffpoly.parse",
        "render_poly": "ffpoly.render", "render_element": "ffpoly.render",
    },
    "ffgenus.carlitz": {
        "carlitz_action": "carlitz.carlitz_action", "euler_phi": "carlitz.euler_phi",
        "subfield_FP": "carlitz.subfield_FP",
    },
    "ffgenus.ramify": {
        "radical_extension": "ramify.radical_extension",
        "build_profile": "ramify.build_profile", "t0_radical": "ramify.t0_radical",
    },
    "ffgenus.genus": {
        "build_F0": "genus.build_F0", "find_F": "genus.find_F",
        "genus_report": "genus.report", "render_report": "genus.render",
        "report_json": "genus.render",
    },
    "ffgenus.oracle": {
        name: f"oracle.{name}" for name in (
            "naive_factor", "unit_count", "t0_root_degrees",
            "carlitz_compose_check", "splitting_at_finite")
    },
}

# (module, class, method) -> span name
METHODS = {
    ("ffgenus.ffpoly", "FqContext", "extension"): "ffpoly.extension",
    ("ffgenus.ffpoly", "FqPoly", "divrem"): "ffpoly.divrem",
    ("ffgenus.ffpoly", "FqPoly", "__mul__"): "ffpoly.poly_mul",
}

CONTEXT_SPANS = ("ffpoly.make_context", "ffpoly.extension")
FIELDS = 5  # name, start, end, parent, request
SETUP = -1  # request id of spans outside any operation
CHECKING = -2  # request id of spans from the benchmark's own output checks


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = array.array("q")
        self.stack = []
        self.request = SETUP
        self.lattice_sizes = []
        self.reports = []  # (F determined, exact) per genus_report

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, hook=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans) // FIELDS
            spans.extend((nid, 0, 0, stack[-1] if stack else -1, tracer.request))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx * FIELDS + 1] = start
                spans[idx * FIELDS + 2] = end
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every binding of the listed functions in loaded ffgenus modules."""
        hooks = {
            "genus.find_F": lambda args, _: self.lattice_sizes.append(
                prod(pl.c_P for pl in args[1].places if pl.c_P > 1)),
            "genus.report": lambda _, r: self.reports.append(
                (r.components.F is not None, r.exact)),
        }
        wrappers = {}
        for modname, funcs in FUNCTIONS.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr, name in funcs.items():
                fn = getattr(mod, attr)
                wrappers[id(fn)] = (fn, self.wrap(name, fn, hooks.get(name)))
        for (modname, cls, attr), name in METHODS.items():
            owner = getattr(sys.modules[modname], cls)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        for modname, mod in list(sys.modules.items()):
            if modname != "ffgenus" and not modname.startswith("ffgenus."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def summary(self, ops):
        """Aggregates of the recorded spans, additive across processes."""
        spans, names = self.spans, self.names
        count = len(spans) // FIELDS
        child = [0] * count
        for i in range(count):
            parent = spans[i * FIELDS + 3]
            if parent >= 0:
                child[parent] += spans[i * FIELDS + 2] - spans[i * FIELDS + 1]
        out = {"processes": 1, "ops": ops, "op_self_ns": {}, "op_calls": {},
               "all_self_ns": {}, "all_calls": {}, "irreducible_tests": 0,
               "contexts_built": 0, "factor_in_report": 0, "context_total_ns": {}}
        report_id = names.index("genus.report") if "genus.report" in names else -2
        factor_id = names.index("ffpoly.factor") if "ffpoly.factor" in names else -2
        irred_id = names.index("ffpoly.is_irreducible") if "ffpoly.is_irreducible" in names else -2
        context_ids = {names.index(n) for n in CONTEXT_SPANS if n in names}
        searched = set()
        for i in range(count):
            nid, start, end, parent, request = spans[i * FIELDS:(i + 1) * FIELDS]
            if request == CHECKING:
                continue
            name = names[nid]
            self_ns = end - start - child[i]
            for key, calls in (("all_self_ns", "all_calls"), ("op_self_ns", "op_calls")):
                if key == "op_self_ns" and request == SETUP:
                    continue
                out[key][name] = out[key].get(name, 0) + self_ns
                out[calls][name] = out[calls].get(name, 0) + 1
            if nid in context_ids:
                up = parent
                while up >= 0 and spans[up * FIELDS] != nid:
                    up = spans[up * FIELDS + 3]
                if up < 0:  # outermost span of its name: count its whole duration once
                    total = out["context_total_ns"]
                    total[name] = total.get(name, 0) + end - start
            if nid == irred_id and parent >= 0 and spans[parent * FIELDS] in context_ids:
                out["irreducible_tests"] += 1
                searched.add(parent)
            if nid == factor_id:
                while parent >= 0 and spans[parent * FIELDS] != report_id:
                    parent = spans[parent * FIELDS + 3]
                out["factor_in_report"] += parent >= 0
        out["contexts_built"] = len(searched)
        out["reports"] = len(self.reports)
        out["F_determined"] = sum(f for f, _ in self.reports)
        out["exact"] = sum(e for _, e in self.reports)
        out["find_F_calls"] = len(self.lattice_sizes)
        out["lattice_sum"] = sum(self.lattice_sizes)
        return out

    def write(self, path, ops):
        """Write the raw spans next to `path` and the summary to `path`."""
        with open(path + ".spans", "wb") as fh:
            self.spans.tofile(fh)
        summary = self.summary(ops)
        summary["span_fields"] = ["name", "start_ns", "end_ns", "parent", "request"]
        summary["span_names"] = self.names
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        return summary


def merge(summaries):
    """Sum summaries from several traced processes."""
    out = {}
    for s in summaries:
        for key, value in s.items():
            if isinstance(value, dict):
                acc = out.setdefault(key, {})
                for k, v in value.items():
                    acc[k] = acc.get(k, 0) + v
            elif isinstance(value, int):
                out[key] = out.get(key, 0) + value
    return out
