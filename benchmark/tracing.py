"""Spans around the calls into each layer of hyperblocks, recorded from outside.

`Tracer.install` replaces each listed public function at every module
attribute that callers look it up by (for example both
``hyperblocks.census.canonical_form`` and ``hyperblocks.catalog.canonical_form``),
so calls the library makes to itself are recorded as well as the
benchmark's own.  A span is (id, parent, name, start, end, n): the parent
is the innermost open span on the same thread, and n is a count read from
the call's arguments or result where a per-layer ratio needs one.  Spans
stay in memory until `write` puts them out as JSON lines.  Nothing in the
library is edited; the wrappers live only in the traced process.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path

# (module, attribute, span name, count taken from (args, result) or None)
TARGETS = (
    ("blocks", "compute_blocks", "blocks.compute", None),
    ("groups", "AbelianGroup.automorphisms", "groups.automorphisms", None),
    ("hyperfields", "verify_axioms", "hyperfields.verify", lambda a, r: int(r.ok)),
    ("census", "verify_all_subsets", "census.sweep", lambda a, r: r.subsets_examined),
    ("census", "enumerate_subsets", "census.enumerate", lambda a, r: r.class_count),
    ("census", "canonical_form", "census.canonical", None),
    ("census", "enumerate_sharded", "census.shard", None),
    ("catalog", "append_records", "catalog.io", None),
    ("catalog", "load_records", "catalog.io", None),
    ("catalog", "dedup_records", "catalog.dedup", None),
    ("cli", "main", "cli.main", None),
    ("counting", "count_solutions", "counting.count", None),
    ("counting", "decompose_and_bound", "counting.decompose", None),
    ("quotients", "quotient_status", "quotients.status", None),
    ("quotients", "FiniteField", "quotients.field", None),
    ("linear", "check_fetvins", "linear.fetvins", lambda a, r: r.systems_checked),
    ("linear", "ample_solve", "linear.solve", None),
)

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "blocks.compute_s": "s",
    "groups.automorphisms_calls": "count",
    "groups.automorphisms_s": "s",
    "hyperfields.verify_calls": "count",
    "hyperfields.verify_s": "s",
    "hyperfields.verify_ok_ratio": "ratio",
    "census.sweep_s": "s",
    "census.sweep_subsets_per_s": "1/s",
    "census.enumerate_self_s": "s",
    "census.canonical_calls": "count",
    "census.canonical_s": "s",
    "census.new_class_ratio": "ratio",
    "census.shard_s": "s",
    "catalog.dedup_s": "s",
    "catalog.io_s": "s",
    "cli.main_self_s": "s",
    "counting.count_calls": "count",
    "counting.count_s": "s",
    "counting.decompose_s": "s",
    "quotients.status_calls": "count",
    "quotients.status_self_s": "s",
    "quotients.fields_built": "count",
    "quotients.field_s": "s",
    "linear.fetvins_s": "s",
    "linear.fetvins_systems_per_s": "1/s",
    "linear.solve_calls": "count",
    "linear.solve_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, int | None]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                n = count(args, result) if count is not None and result is not None else None
                spans.append((sid, parent, name, start, end, n))

        return traced

    def install(self) -> None:
        """Wrap every target at each hyperblocks module attribute bound to it."""
        modules = [m for k, m in sys.modules.items() if k == "hyperblocks" or k.startswith("hyperblocks.")]
        for mod_name, attr, name, count in TARGETS:
            home = sys.modules[f"hyperblocks.{mod_name}"]
            if "." in attr:  # a method: callers find it through the class
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), count))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def write(self, path: Path, pass_id: int) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, n in self.spans:
                fh.write(
                    json.dumps(
                        {"pass": pass_id, "id": sid, "parent": parent, "name": name,
                         "start": start, "end": end, "n": n}
                    )
                    + "\n"
                )


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures from one pass's spans; a layer not called reads 0."""
    child_time: dict[int, float] = {}
    name_of: dict[int, str] = {}
    for sid, parent, name, start, end, _ in spans:
        name_of[sid] = name
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counted: dict[str, int] = {}
    canonical_in_census = 0
    for sid, parent, name, start, end, n in spans:
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child_time.get(sid, 0.0)
        calls[name] = calls.get(name, 0) + 1
        if n is not None:
            counted[name] = counted.get(name, 0) + n
        if name == "census.canonical" and name_of.get(parent) == "census.enumerate":
            canonical_in_census += 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "blocks.compute_s": total.get("blocks.compute", 0.0),
        "groups.automorphisms_calls": calls.get("groups.automorphisms", 0),
        "groups.automorphisms_s": total.get("groups.automorphisms", 0.0),
        "hyperfields.verify_calls": calls.get("hyperfields.verify", 0),
        "hyperfields.verify_s": total.get("hyperfields.verify", 0.0),
        "hyperfields.verify_ok_ratio": ratio(
            counted.get("hyperfields.verify", 0), calls.get("hyperfields.verify", 0)
        ),
        "census.sweep_s": total.get("census.sweep", 0.0),
        "census.sweep_subsets_per_s": ratio(
            counted.get("census.sweep", 0), total.get("census.sweep", 0.0)
        ),
        "census.enumerate_self_s": self_time.get("census.enumerate", 0.0),
        "census.canonical_calls": calls.get("census.canonical", 0),
        "census.canonical_s": total.get("census.canonical", 0.0),
        "census.new_class_ratio": ratio(counted.get("census.enumerate", 0), canonical_in_census),
        "census.shard_s": total.get("census.shard", 0.0),
        "catalog.dedup_s": total.get("catalog.dedup", 0.0),
        "catalog.io_s": total.get("catalog.io", 0.0),
        "cli.main_self_s": self_time.get("cli.main", 0.0),
        "counting.count_calls": calls.get("counting.count", 0),
        "counting.count_s": total.get("counting.count", 0.0),
        "counting.decompose_s": total.get("counting.decompose", 0.0),
        "quotients.status_calls": calls.get("quotients.status", 0),
        "quotients.status_self_s": self_time.get("quotients.status", 0.0),
        "quotients.fields_built": calls.get("quotients.field", 0),
        "quotients.field_s": total.get("quotients.field", 0.0),
        "linear.fetvins_s": total.get("linear.fetvins", 0.0),
        "linear.fetvins_systems_per_s": ratio(
            counted.get("linear.fetvins", 0), total.get("linear.fetvins", 0.0)
        ),
        "linear.solve_calls": calls.get("linear.solve", 0),
        "linear.solve_s": total.get("linear.solve", 0.0),
    }
