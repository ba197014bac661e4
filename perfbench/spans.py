"""Spans and counts recorded from outside the package.

A ``Trace`` replaces module and class attributes of ``peierls`` with
wrappers that record one span (name, start, end, parent) per call, plus
counts of the work done, and puts every original back when it is
uninstalled.  Spans are kept in flat arrays so a run with a million calls
stays small; self times are worked out afterwards from the parent links.

``PROBES`` lists what is wrapped.  An attribute is wrapped in the module that
defines it and in every other ``peierls`` module that imported it by name,
because callers look it up there.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import pkgutil
import time
from array import array
from dataclasses import dataclass
from typing import Callable


class Trace:
    """Spans and counts of one traced repetition."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.scopes: list[str] = [""]
        self._scope_ids = {"": 0}
        self.name = array("i")
        self.scope = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._current_scope = 0
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return nid

    def set_scope(self, label: str) -> None:
        """Tag the spans and counts that follow with ``label``."""
        sid = self._scope_ids.get(label)
        if sid is None:
            sid = self._scope_ids[label] = len(self.scopes)
            self.scopes.append(label)
        self._current_scope = sid

    def add(self, key: str, amount: float = 1) -> None:
        k = (self.scopes[self._current_scope], key)
        self.counts[k] = self.counts.get(k, 0) + amount

    def record(self, name: str, start: float, end: float, parent: int) -> int:
        """Append a finished span directly (used by tests)."""
        i = len(self.end)
        self.name.append(self.name_id(name))
        self.scope.append(self._current_scope)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return i

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        i = self._open(self.name_id(name))
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def _open(self, nid: int) -> int:
        i = len(self.end)
        stack = self._stack
        self.name.append(nid)
        self.scope.append(self._current_scope)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def wrap_callable(self, fn: Callable, name: str | None,
                      count: Callable | None = None,
                      call: Callable | None = None) -> Callable:
        """A wrapper of ``fn`` that records a span named ``name`` (none when
        ``name`` is None), then calls ``count(trace, args, kwargs, result)``
        outside the span.  ``call``, if given, replaces the plain call as
        ``call(trace, fn, args, kwargs)``."""
        nid = None if name is None else self.name_id(name)
        end, stack, clock = self.end, self._stack, time.perf_counter
        trace = self

        def wrapper(*args, **kwargs):
            if nid is None:
                result = (fn(*args, **kwargs) if call is None
                          else call(trace, fn, args, kwargs))
            else:
                i = trace._open(nid)
                try:
                    result = (fn(*args, **kwargs) if call is None
                              else call(trace, fn, args, kwargs))
                finally:
                    end[i] = clock()
                    stack.pop()
            if count is not None:
                count(trace, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # -- installing --------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        modules = peierls_modules()
        for probe in PROBES:
            targets = probe.targets(modules)
            if not targets:
                self.missing.append(probe.path)
                continue
            original = vars(targets[0][0])[targets[0][1]]
            wrapper = self.wrap_callable(original, probe.span, probe.count,
                                         probe.call)
            for owner, attr in targets:
                self.patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading -----------------------------------------------------------

    def totals(self) -> dict:
        """(scope, span name) -> [calls, total seconds, self seconds].

        A span's self time is its duration minus the durations of its
        direct children; children of one span never overlap, because the
        traced program runs on one thread.
        """
        n = len(self.end)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[tuple, list] = {}
        for i in range(n):
            key = (self.scopes[self.scope[i]], self.span_names[self.name[i]])
            acc = out.get(key)
            if acc is None:
                acc = out[key] = [0, 0.0, 0.0]
            dur = end[i] - start[i]
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - child[i]
        return out


def peierls_modules() -> dict:
    import peierls

    mods = {"peierls": peierls}
    for info in pkgutil.iter_modules(peierls.__path__):
        mods[info.name] = importlib.import_module(f"peierls.{info.name}")
    return mods


@dataclass(frozen=True)
class Probe:
    """One traced attribute, ``module.attr`` or ``module.Class.attr``."""

    path: str
    span: str | None
    count: Callable | None = None
    call: Callable | None = None

    def targets(self, modules: dict) -> list:
        module, _, rest = self.path.partition(".")
        home = modules.get(module)
        if home is None:
            return []
        if "." in rest:
            cls_name, attr = rest.split(".")
            cls = vars(home).get(cls_name)
            if cls is None or attr not in vars(cls):
                return []
            return [(cls, attr)]
        original = vars(home).get(rest)
        if original is None:
            return []
        out = [(home, rest)]
        for mod in modules.values():
            if mod is not home and vars(mod).get(rest) is original:
                out.append((mod, rest))
        return out


# -- counts recorded at the probes ------------------------------------------

def _count_kernel(trace: Trace, args, kwargs, result) -> None:
    arrays = [a for a in result if hasattr(a, "nbytes")]
    trace.add("exact.chunks")
    trace.add("exact.kernel_configs", len(arrays[0]))
    trace.add("exact.kernel_mb_computed", sum(a.nbytes for a in arrays) / 1e6)


def _count_labels(trace: Trace, args, kwargs, result) -> None:
    trace.add("contours.records", len(result))


def _count_csv(trace: Trace, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    with open(path, "rb") as fh:
        data = fh.read()
    trace.add("io.rows_written", data.count(b"\n") - 1)
    trace.add("io.bytes_written", len(data))


def _call_explore(trace: Trace, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    visit = bound.arguments["visit"]
    visited = [0]

    def counting_visit(*a, **k):
        visited[0] += 1
        return visit(*a, **k)

    bound.arguments["visit"] = counting_visit
    try:
        return fn(*bound.args, **bound.kwargs)
    finally:
        trace.add("census.sets_visited", visited[0])


def _call_interiors(trace: Trace, fn, args, kwargs):
    def counted():
        n = 0
        try:
            for item in fn(*args, **kwargs):
                n += 1
                yield item
        finally:
            trace.add("census.interiors_enumerated", n)
    return counted()


def _count_contours(trace: Trace, args, kwargs, report) -> None:
    trace.add("census.contours_counted", sum(rec.count for rec in report.records))


def _call_indicator(trace: Trace, fn, args, kwargs):
    return trace.wrap_callable(fn(*args, **kwargs), "mcmc.observe")


PROBES = (
    Probe("model._tables", "model.tables"),
    Probe("contours._grid", "contours.grid"),
    Probe("exact._chunk_energies", "exact.kernel", count=_count_kernel),
    Probe("exact._dist_task", "exact.task"),
    Probe("exact._trend_task", "exact.task"),
    Probe("exact._contour_task", "exact.task"),
    Probe("exact.contour_statistics", "exact.contour_statistics"),
    Probe("contours._light_contours", "contours.label", count=_count_labels),
    Probe("cli._contour_id", "cli.contour_id"),
    Probe("io.write_csv", "io.write_csv", count=_count_csv),
    Probe("mcmc._stream", "mcmc.stream"),
    Probe("mcmc._ChainState.heat_bath", "mcmc.heat_bath"),
    Probe("mcmc._ChainState.spins", "mcmc.observe"),
    Probe("mcmc.site_indicator", None, call=_call_indicator),
    Probe("census.CubeGraph.neighbors", "census.neighbors"),
    Probe("census._explore_rooted", "census.explore", call=_call_explore),
    Probe("census._iter_marked_interiors", None, call=_call_interiors),
    Probe("census.rooted_contour_counts", None, count=_count_contours),
)


# -- per-layer metrics -------------------------------------------------------

CHAINS = ("16x16", "3x3")

PER_LAYER = (
    ("model.tables_s", "s"),
    ("contours.grid_s", "s"),
    ("exact.kernel_s", "s"),
    ("exact.kernel_configs", "count"),
    ("exact.kernel_mb_computed", "MB"),
    ("exact.chunks", "count"),
    ("exact.reduce_s", "s"),
    ("exact.merge_s", "s"),
    ("contours.label_s", "s"),
    ("contours.label_calls", "count"),
    ("contours.records", "count"),
    ("cli.contour_id_s", "s"),
    ("io.write_csv_s", "s"),
    ("io.rows_written", "count"),
    ("io.bytes_written", "count"),
    *((f"mcmc.{c}.{m}", u) for c in CHAINS for m, u in (
        ("rng_setup_s", "s"), ("rng_streams", "count"),
        ("site_update_s", "s"), ("site_updates", "count"),
        ("observe_s", "s"))),
    ("census.explore_s", "s"),
    ("census.sets_visited", "count"),
    ("census.neighbors_s", "s"),
    ("census.neighbors_calls", "count"),
    ("census.interiors_enumerated", "count"),
    ("census.contours_counted", "count"),
    ("census.contour_yield", "ratio"),
    ("trace.overhead_s", "s"),
)

# Measured on the first, cold repetition of a traced run: with warm caches
# these layers do no work.
COLD_ONLY = ("model.tables_s", "contours.grid_s")


def layer_metrics(trace: Trace) -> dict:
    """Every per-layer metric of one traced repetition except the overhead.

    Layers a workload does not reach read 0.
    """
    totals = trace.totals()
    counts = trace.counts

    def span(name, field, scope=None):
        i = {"calls": 0, "total": 1, "self": 2}[field]
        return sum(v[i] for (sc, nm), v in totals.items()
                   if nm == name and (scope is None or sc == scope))

    def count(key, scope=None):
        return sum(v for (sc, k), v in counts.items()
                   if k == key and (scope is None or sc == scope))

    out = {
        "model.tables_s": span("model.tables", "total"),
        "contours.grid_s": span("contours.grid", "self"),
        "exact.kernel_s": span("exact.kernel", "total"),
        "exact.kernel_configs": count("exact.kernel_configs"),
        "exact.kernel_mb_computed": count("exact.kernel_mb_computed"),
        "exact.chunks": count("exact.chunks"),
        "exact.reduce_s": span("exact.task", "self"),
        "exact.merge_s": span("exact.contour_statistics", "self"),
        "contours.label_s": span("contours.label", "total"),
        "contours.label_calls": span("contours.label", "calls"),
        "contours.records": count("contours.records"),
        "cli.contour_id_s": span("cli.contour_id", "total"),
        "io.write_csv_s": span("io.write_csv", "total"),
        "io.rows_written": count("io.rows_written"),
        "io.bytes_written": count("io.bytes_written"),
        "census.explore_s": span("census.explore", "self"),
        "census.sets_visited": count("census.sets_visited"),
        "census.neighbors_s": span("census.neighbors", "total"),
        "census.neighbors_calls": span("census.neighbors", "calls"),
        "census.interiors_enumerated": count("census.interiors_enumerated"),
        "census.contours_counted": count("census.contours_counted"),
    }
    for c in CHAINS:
        out[f"mcmc.{c}.rng_setup_s"] = span("mcmc.stream", "total", c)
        out[f"mcmc.{c}.rng_streams"] = span("mcmc.stream", "calls", c)
        out[f"mcmc.{c}.site_update_s"] = span("mcmc.heat_bath", "total", c)
        out[f"mcmc.{c}.site_updates"] = span("mcmc.heat_bath", "calls", c)
        out[f"mcmc.{c}.observe_s"] = span("mcmc.observe", "total", c)
    enumerated = out["census.interiors_enumerated"]
    out["census.contour_yield"] = (out["census.contours_counted"] / enumerated
                                   if enumerated else 0.0)
    return out
