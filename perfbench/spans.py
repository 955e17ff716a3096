"""Span tracing at the boundaries of the nlie layers, and the reducer that
turns spans into per-layer metrics.

:func:`install` wraps the public functions and public methods of every
layer module (``trees``, ``linalg``, ``free_algebra``, ``algebra``,
``multiplier``, ``counting``, ``bounds``, ``cli``) and rebinds each wrapper
in every ``nlie`` namespace that holds the original, so calls between
modules and inside a module both go through it.  Nothing under ``src/`` is
edited; the returned callable puts the originals back.

A wrapper records a span: name, start, end, the span that was open when it
started and, for a few names, a work count taken from the arguments and
result.  Two hot functions whose call counts are metrics only count calls;
the hottest leaf helpers are left unwrapped (see ``UNWRAPPED``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

LAYER_MODULES = (
    "trees",
    "linalg",
    "free_algebra",
    "algebra",
    "multiplier",
    "counting",
    "bounds",
    "cli",
)

# Hot but counted, without a span: the call count is a per-layer metric.
COUNT_ONLY = frozenset({"trees.canonicalize", "linalg.Subspace.reduce"})

# Not wrapped: the cache resets the benchmark itself calls between jobs, and
# leaf helpers called up to millions of times per pass, where a wrapper would
# cost more than the work it measures.  Their time stays in the caller's
# self time.
UNWRAPPED_PREFIXES = ("trees.",)
UNWRAPPED = frozenset(
    {
        "free_algebra.clear_caches",
        "multiplier.clear_cache",
        "linalg.as_vector",
        "linalg.zero_vector",
        "linalg.unit_vector",
        "linalg.frac_str",
        "linalg.parse_frac",
        "linalg.SpanBuilder.residue",
        "linalg.SpanBuilder.contains",
        "linalg.Subspace.contains_vector",
        "algebra.StructureAlgebra.bracket_basis",
    }
)

# Work counts taken from a span's arguments and result.
OUTCOMES: dict[str, Callable] = {
    "linalg.SpanBuilder.insert": lambda tracer, args, result: bool(result),
    "free_algebra.canon_trees": lambda tracer, args, result: (
        (tracer.job,) + tuple(args[:3]),
        len(result),
    ),
    "multiplier.present": lambda tracer, args, result: result.free.dim,
    "bounds.run_catalog": lambda tracer, args, result: len(result),
}


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    outcome: object = None


class Tracer:
    """In-memory store of closed spans and count-only call counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.job = 0
        self._stack: list[int] = []
        self._next_id = 0

    def begin_job(self) -> None:
        """Mark a job boundary (distinct-per-job counts use it)."""
        self.job += 1

    def take(self) -> tuple[list[Span], Counter]:
        """Hand over everything recorded so far and start empty."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = tracer.clock()
            done = None
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    done = outcome(tracer, args, result)
                return result
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append(Span(sid, parent, name, start, end, done))

        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, name: str, fn: Callable) -> Callable | None:
        """The wrapper for ``name``, or None when it stays unwrapped."""
        if name in COUNT_ONLY:
            return self.count_wrapper(name, fn)
        if name in UNWRAPPED or name.startswith(UNWRAPPED_PREFIXES):
            return None
        return self.span_wrapper(name, fn)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every public function and method of the layer modules; return a
    callable that restores the originals."""
    modules = {short: importlib.import_module(f"nlie.{short}") for short in LAYER_MODULES}
    undo: list[tuple[object, str, object]] = []
    wrapped: dict[int, tuple[Callable, Callable]] = {}
    for short, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                new = tracer.wrap(f"{short}.{attr}", obj)
                if new is not None:
                    wrapped[id(obj)] = (obj, new)
            elif inspect.isclass(obj):
                for mattr, raw in list(vars(obj).items()):
                    if mattr.startswith("_"):
                        continue
                    name = f"{short}.{obj.__qualname__}.{mattr}"
                    fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                    new = tracer.wrap(name, fn) if inspect.isfunction(fn) else None
                    if new is None:
                        continue
                    if fn is not raw:
                        new = type(raw)(new)
                    setattr(obj, mattr, new)
                    undo.append((obj, mattr, raw))
    namespaces = [importlib.import_module("nlie")] + list(modules.values())
    for namespace in namespaces:
        for attr, obj in list(vars(namespace).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(namespace, attr, hit[1])
                undo.append((namespace, attr, obj))

    def restore() -> None:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return restore


# -- reduction -------------------------------------------------------------------


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


# Count-type metrics: they must repeat exactly between two traced sets.
COUNT_METRICS = (
    "trees.canonicalize.calls",
    "free_algebra.trees",
    "free_algebra.relation_rows",
    "linalg.SpanBuilder.insert.calls",
    "linalg.left_kernel.calls",
    "linalg.Subspace.reduce.calls",
    "algebra.StructureAlgebra.bracket.calls",
    "algebra.bracket_product.calls",
    "algebra.lower_central_series.calls",
    "multiplier.dim_E",
    "multiplier.multiplier_report.calls",
    "bounds.rows",
    "counting.convention_count.calls",
    "trace.spans",
)

# Self times taken from the traced pass.
PASS_SELF_TIMES = (
    "free_algebra.canon_trees",
    "free_algebra.graded_component",
    "free_algebra.GradedComponent.build",
    "free_algebra.free_nilpotent",
    "linalg.SpanBuilder.insert",
    "linalg.SpanBuilder.subspace",
    "linalg.left_kernel",
    "linalg.rref",
    "linalg.subspace_intersect",
    "algebra.StructureAlgebra.bracket",
    "algebra.bracket_product",
    "algebra.lower_central_series",
    "algebra.upper_central_series",
    "algebra.quotient_algebra",
    "multiplier.present",
    "multiplier.gamma_ideal_chain",
    "bounds.run_catalog",
    "cli.main",
)


def layer_metrics(
    pass_spans: list[Span], pass_counts: Counter, pass_seconds: float
) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  ``pass_seconds`` is the pass's
    wall time (sum of its job times)."""
    metrics: dict[str, float] = {}
    own = self_times(pass_spans)
    totals: dict[str, float] = defaultdict(float)
    for s in pass_spans:
        totals[s.name] += own[s.id]
    for name in PASS_SELF_TIMES:
        metrics[f"{name}.self_s"] = totals.get(name, 0.0)

    calls = Counter(s.name for s in pass_spans)
    calls.update(pass_counts)
    for metric in COUNT_METRICS:
        if metric.endswith(".calls"):
            metrics[metric] = calls.get(metric[: -len(".calls")], 0)

    by_id = {s.id: s for s in pass_spans}

    def parent_name(s: Span) -> str | None:
        parent = by_id.get(s.parent)
        return parent.name if parent is not None else None

    inserts = [s for s in pass_spans if s.name == "linalg.SpanBuilder.insert"]
    rel = [s for s in inserts if parent_name(s) == "free_algebra.graded_component"]
    prod = [s for s in inserts if parent_name(s) == "algebra.bracket_product"]
    metrics["free_algebra.relation_rows"] = len(rel)
    metrics["free_algebra.relation_useful_ratio"] = _ratio(sum(1 for s in rel if s.outcome), len(rel))
    metrics["algebra.bracket_product.useful_ratio"] = _ratio(
        sum(1 for s in prod if s.outcome), len(prod)
    )

    # canon_trees is memoised, so count each (job, n, d, w) layer once.
    layers = dict(
        s.outcome for s in pass_spans
        if s.name == "free_algebra.canon_trees" and s.outcome is not None
    )
    metrics["free_algebra.trees"] = sum(layers.values())
    metrics["multiplier.dim_E"] = sum(
        s.outcome for s in pass_spans if s.name == "multiplier.present" and s.outcome is not None
    )
    metrics["bounds.rows"] = sum(
        s.outcome for s in pass_spans if s.name == "bounds.run_catalog" and s.outcome is not None
    )

    reports = [s for s in pass_spans if s.name == "multiplier.multiplier_report"]
    presenting: set[int] = set()
    for s in pass_spans:
        if s.name != "multiplier.present":
            continue
        parent = by_id.get(s.parent)
        while parent is not None:
            presenting.add(parent.id)
            parent = by_id.get(parent.parent)
    metrics["multiplier.analysis_hit_ratio"] = _ratio(
        sum(1 for s in reports if s.id not in presenting), len(reports)
    )

    top = sum(s.end - s.start for s in pass_spans if s.parent is None)
    metrics["trace.top_span_share"] = _ratio(top, pass_seconds) if pass_seconds else 0.0
    metrics["trace.spans"] = len(pass_spans)
    return metrics
