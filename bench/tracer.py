"""Span tracing around the library's public functions, installed from the
benchmark's side: no library file knows about it.

`install` replaces each traced function in every `redei` module that bound
it (so names taken with `from .numthy import ...` are traced too) and each
traced method on its class.  Every call then records a span: name, start,
end, parent span and the request it belongs to.  Per-name calls, total
time (outermost spans only) and self time (duration minus the time child
spans cover) are kept exactly for every span; the span log itself keeps
the first SPAN_LOG_CAP spans, so a run with millions of calls stays small
(a catalog run makes about 1.1e7 spans).
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

__all__ = ["Tracer", "TRACED", "install"]

SPAN_LOG_CAP = 100_000

# (span name, module, attribute path, items): items maps a result to the
# number of items it carries, for the `.items` and `.checks` counters.
_VERIFY_SWEEPS = (
    ("formula_vs_bruteforce", "formula_vs_bruteforce"),
    ("cyclic_transfer", "cyclic_transfer"),
    ("pair_criteria_equivalence", "pair_criteria_equivalence"),
    ("iterate_count_consistency", "iterate_count_consistency"),
    ("isolated_permutations", "isolated_permutations"),
    ("involution_divisors", "involution_divisors"),
    ("shift_symmetries", "shift_symmetries"),
    ("reference_tables_q49", "reference_tables_q49"),
    ("reference_gcd_order_tables", "reference_gcd_order_tables"),
    ("cross_field_correspondence", "cross_field_correspondence"),
    ("families", "family_consistency"),
)

TRACED = (
    ("numthy.is_prime", "redei.numthy", "is_prime", None),
    ("numthy.factorize", "redei.numthy", "factorize", None),
    ("numthy.euler_phi", "redei.numthy", "euler_phi", None),
    ("numthy.divisors", "redei.numthy", "divisors", len),
    ("numthy.mult_order", "redei.numthy", "mult_order", None),
    ("cyclestruct.cycle_structure", "redei.cyclestruct", "cycle_structure", None),
    ("cyclestruct.shares_cycle_structure", "redei.cyclestruct", "shares_cycle_structure", None),
    ("catalog.structure_classes", "redei.catalog", "structure_classes", None),
    ("catalog.structure_pairs", "redei.catalog", "structure_pairs", lambda r: len(r.pairs)),
    ("catalog.isolated_values", "redei.catalog", "isolated_values", None),
    ("families", "redei.families", "frobenius_family", None),
    ("families", "redei.families", "p_qmp1_family", None),
    ("families", "redei.families", "quarter_family", None),
    ("families", "redei.families", "pm2_family", None),
    ("gf.Field.mul", "redei.gf", "Field.mul", None),
    ("gf.Field.inv", "redei.gf", "Field.inv", None),
    ("gf.Field.pow", "redei.gf", "Field.pow", None),
    ("gf.build_field", "redei.gf", "build_field", None),
    ("gf.first_with_character", "redei.gf", "first_with_character", None),
    ("maps.build_permutation", "redei.maps", "build_permutation", None),
    ("maps.cycle_decomposition", "redei.maps", "cycle_decomposition", None),
    ("maps.power_map_structure", "redei.maps", "power_map_structure", None),
    ("maps.mult_map_structure", "redei.maps", "mult_map_structure", None),
    ("verify.run_all", "redei.verify", "run_all", None),
    *(
        (f"verify.{row}", "redei.verify", attr, lambda r: r[0])
        for row, attr in _VERIFY_SWEEPS
    ),
    ("cli.main", "redei.cli", "main", None),
)

VERIFY_ROWS = tuple(row for row, _ in _VERIFY_SWEEPS)


class Tracer:
    """In-memory span recorder with exact per-name aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.items: list[int] = []
        self._depth: list[int] = []
        # open frames: [name id, start, child time, span index]
        self._stack: list[list] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.request = -1

    def name_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            for column, zero in (
                (self.calls, 0), (self.total, 0.0), (self.self_time, 0.0),
                (self.items, 0), (self._depth, 0),
            ):
                column.append(zero)
        return sid

    def wrap(self, fn, name: str, items=None):
        """A stand-in for fn that records one span per call."""
        sid = self.name_id(name)
        stack = self._stack
        calls, total, self_time, depth = self.calls, self.total, self.self_time, self._depth
        counts = self.items
        span_name, span_parent, span_request = self.span_name, self.span_parent, self.span_request
        span_start, span_end = self.span_start, self.span_end
        tracer = self

        def traced(*args, **kwargs):
            index = len(span_start)
            if index < SPAN_LOG_CAP:
                span_name.append(sid)
                span_parent.append(stack[-1][3] if stack else -1)
                span_request.append(tracer.request)
                span_start.append(0.0)
                span_end.append(0.0)
            else:
                index = -1
                tracer.dropped += 1
            frame = [sid, 0.0, 0.0, index]
            stack.append(frame)
            depth[sid] += 1
            frame[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[sid] -= 1
                duration = end - start
                calls[sid] += 1
                self_time[sid] += duration - frame[2]
                if not depth[sid]:
                    total[sid] += duration
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    span_start[index] = start
                    span_end[index] = end
            if items is not None:
                counts[sid] += items(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def stat(self, name: str) -> dict:
        sid = self._ids.get(name)
        if sid is None:
            return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0}
        return {
            "calls": self.calls[sid],
            "total_s": self.total[sid],
            "self_s": self.self_time[sid],
            "items": self.items[sid],
        }

    def write_spans(self, path) -> None:
        """Write the span log as JSON: names, then one [name, parent,
        request, start, end] row per span, times relative to the first."""
        origin = self.span_start[0] if self.span_start else 0.0
        rows = [
            [self.span_name[i], self.span_parent[i], self.span_request[i],
             round(self.span_start[i] - origin, 9), round(self.span_end[i] - origin, 9)]
            for i in range(len(self.span_start))
        ]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "dropped": self.dropped, "spans": rows}, fh)


def install(tracer: Tracer) -> None:
    """Replace every function in TRACED, wherever a redei module bound it."""
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "redei"]
    for name, module_name, attr, items in TRACED:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(getattr(cls, method), name, items))
            continue
        original = getattr(owner, attr)
        traced = tracer.wrap(original, name, items)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
