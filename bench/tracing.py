"""Span recording from outside the library.

The tracer rebinds chosen functions of the ``incentives`` modules to
wrappers that record one span per call: name, start, end, parent span and
the id of the benchmark call that caused it.  Every module namespace that
holds a reference to a traced function gets the wrapper, so calls between
library modules (``closure`` calling ``monoid.msg`` through its own import)
are seen too.  Spans stay in flat arrays in memory and are written out once
at the end.  Nothing is patched unless ``Tracer.patch`` runs, so the
untraced run executes the library unchanged.
"""

from __future__ import annotations

import csv
import gzip
import importlib
from array import array
from time import perf_counter

MODULES = ("monoid", "closure", "sequences", "tree", "cli")

# (module, function) pairs rebound while tracing.  Besides the functions
# the per-layer metrics name, every library entry point the CLI dispatches
# to is traced, so that the CLI's self time excludes library work.
FUNCTIONS = (
    ("monoid", "msg"),
    ("monoid", "numerical_semigroup"),
    ("monoid", "membership"),
    ("closure", "theta"),
    ("closure", "is_admissible"),
    ("closure", "is_incentive"),
    ("closure", "closure_msg"),
    ("closure", "closure_membership"),
    ("sequences", "invoice"),
    ("sequences", "m_ab_membership"),
    ("sequences", "m_ab_set"),
    ("sequences", "verify_theorem5"),
    ("tree", "enumerate_tree"),
    ("tree", "decompose"),
    ("tree", "children"),
    ("tree", "child_viable"),
    ("tree", "msg_after_removal"),
    ("cli", "build_parser"),
    ("cli", "run"),
)

# (module, class, method) triples; tree rendering is library work too
METHODS = (
    ("tree", "IncentiveTree", "to_json_dict"),
    ("tree", "IncentiveTree", "to_dot"),
)


def _count_table_bytes(tracer: "Tracer", result) -> None:
    tracer.counters["monoid.table_bytes"] += len(result.member_table)


def _count_viable(tracer: "Tracer", result) -> None:
    tracer.counters["tree.child_viable.accepted"] += bool(result)


# per-function hooks that read a counter off the returned value
RESULT_HOOKS = {
    "monoid.numerical_semigroup": _count_table_bytes,
    "tree.child_viable": _count_viable,
}


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.call = array("l")
        # 1 when no span of the same name is open around this one
        self.outer = array("b")
        self.counters = {"monoid.table_bytes": 0, "tree.child_viable.accepted": 0}
        self.call_id = -1
        self.on = False
        self._stack = [-1]
        self._open: dict[int, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        k = self.name_id.setdefault(label, len(self.names))
        if k == len(self.names):
            self.names.append(label)
        hook = RESULT_HOOKS.get(label)
        start, end, name, parent, call, outer = (
            self.start, self.end, self.name, self.parent, self.call, self.outer,
        )
        stack, open_ = self._stack, self._open

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = len(start)
            depth = open_.get(k, 0)
            name.append(k)
            parent.append(stack[-1])
            call.append(self.call_id)
            outer.append(depth == 0)
            end.append(0.0)
            stack.append(i)
            open_[k] = depth + 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                open_[k] = depth
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    def patch(self) -> None:
        """Rebind every traced function in every module that refers to it."""
        pkg = importlib.import_module("incentives")
        mods = [pkg] + [importlib.import_module(f"incentives.{m}") for m in MODULES]
        for mod_name, fn_name in FUNCTIONS:
            orig = getattr(importlib.import_module(f"incentives.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"incentives.{mod_name}"), cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{mod_name}.{cls_name}.{meth}", orig))

    def unpatch(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """Write every span as one gzip-compressed CSV row."""
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("span", "parent", "call", "name", "start_s", "end_s"))
            names = self.names
            for i in range(len(self.start)):
                w.writerow(
                    (i, self.parent[i], self.call[i], names[self.name[i]],
                     f"{self.start[i]:.9f}", f"{self.end[i]:.9f}")
                )


class SpanStats:
    """Per-name aggregates over a finished trace."""

    def __init__(self, tr: Tracer) -> None:
        n = len(tr)
        dur = [tr.end[i] - tr.start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            p = tr.parent[i]
            if p >= 0:
                child_time[p] += dur[i]
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        for i in range(n):
            label = tr.names[tr.name[i]]
            self.calls[label] = self.calls.get(label, 0) + 1
            if tr.outer[i]:
                self.busy[label] = self.busy.get(label, 0.0) + dur[i]
            self.self_time[label] = self.self_time.get(label, 0.0) + dur[i] - child_time[i]
        self._tr = tr

    def count(self, label: str) -> int:
        return self.calls.get(label, 0)

    def busy_s(self, label: str) -> float:
        """Wall time with at least one span of this name open."""
        return self.busy.get(label, 0.0)

    def self_s(self, label: str) -> float:
        """Span time not covered by traced child spans."""
        return self.self_time.get(label, 0.0)

    def outer_count_inside(self, label: str, ancestor: str) -> int:
        """Outermost spans of label that have a span of ancestor above them."""
        tr = self._tr
        k, a = tr.name_id.get(label), tr.name_id.get(ancestor)
        if k is None or a is None:
            return 0
        total = 0
        for i in range(len(tr)):
            if tr.name[i] != k or not tr.outer[i]:
                continue
            p = tr.parent[i]
            while p >= 0 and tr.name[p] != a:
                p = tr.parent[p]
            total += p >= 0
        return total

    def outer_count(self, label: str) -> int:
        tr = self._tr
        k = tr.name_id.get(label)
        return sum(1 for i in range(len(tr)) if tr.name[i] == k and tr.outer[i])
