"""In-memory span recorder wrapped around the public functions of each layer.

Nothing here edits the program: :func:`install` rebinds, for the duration of
one traced pass, the module attributes that callers look up at call time
(``repro.resilience.local_flow.solve_min_cut``, not only
``repro.flow.compiled.solve_min_cut``), and :func:`uninstall` restores them.

A span is ``(id, name, start_ns, end_ns, parent_id, request_id, extra)``.
Parents come from a per-thread stack, so spans recorded on the serving
layer's drain and exchange threads nest correctly within their own thread.
A span's *self time* is its duration minus its direct children's durations;
within one request the self times of all its spans therefore add up to the
request's root span exactly, which :func:`closure_error` checks.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from collections import defaultdict
from time import perf_counter_ns


class Recorder:
    """Collects spans in memory; ``request`` tags every span opened under it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self.request: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple[int, int | None, int]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, perf_counter_ns()

    def close(self, name: str, token: tuple[int, int | None, int], extra=None) -> None:
        end = perf_counter_ns()
        span_id, parent, start = token
        self._stack().pop()
        self.spans.append((span_id, name, start, end, parent, self.request, extra))

    def wrap(self, name: str, function, describe=None):
        """Return ``function`` recording one span per call.

        ``describe(args, result)`` may attach a small extra payload (graph
        sizes for the min-cut solver).
        """

        def traced(*args, **kwargs):
            token = self.open()
            extra = None
            try:
                result = function(*args, **kwargs)
                if describe is not None:
                    extra = describe(args, result)
                return result
            finally:
                self.close(name, token, extra)

        traced.__wrapped__ = function
        return traced

    def wrap_iterator(self, name: str, function):
        """Like :meth:`wrap` for a function returning an iterator: the span
        lasts from the call until the iterator is exhausted or closed."""
        recorder = self

        def traced(*args, **kwargs):
            token = recorder.open()
            try:
                iterator = function(*args, **kwargs)
            except BaseException:
                recorder.close(name, token)
                raise
            # The consumer may resume the iterator on another thread; the
            # span is closed against the stack of the opening thread only.
            recorder._stack().pop()
            return _SpanIterator(recorder, name, token, iterator)

        traced.__wrapped__ = function
        return traced


class _SpanIterator:
    def __init__(self, recorder: Recorder, name: str, token, iterator) -> None:
        self._recorder = recorder
        self._name = name
        self._token = token
        self._iterator = iterator
        self._done = False

    def __iter__(self):
        return self

    def __next__(self):
        try:
            return next(self._iterator)
        except BaseException:
            self._finish()
            raise

    def close(self) -> None:
        close = getattr(self._iterator, "close", None)
        if close is not None:
            close()
        self._finish()

    def _finish(self) -> None:
        if self._done:
            return
        self._done = True
        span_id, parent, start = self._token
        self._recorder.spans.append(
            (span_id, self._name, start, perf_counter_ns(), parent, self._recorder.request, None)
        )


def _graph_size(args, result):
    graph = args[0]
    return (graph.num_nodes, graph.num_edges)


#: ``(module, attribute, span name, describe)`` — every call site the traced
#: pass instruments, named ``<layer>.<stage>``.  Each entry is the binding the
#: caller actually looks up, so one stage can need several entries.
FUNCTION_PATCHES = (
    ("repro.languages.core", "regex_to_automaton", "languages.parse", None),
    ("repro.languages.infix", "infix_free_sublanguage", "languages.infix_free", None),
    ("repro.languages.operations", "canonical_fingerprint", "languages.fingerprint", None),
    ("repro.resilience.engine", "choose_method", "resilience.choose_method", None),
    ("repro.resilience.engine", "resilience_local", "resilience.local_flow", None),
    ("repro.resilience.engine", "resilience_bcl", "resilience.bcl_flow", None),
    ("repro.resilience.engine", "resilience_one_dangling", "resilience.one_dangling", None),
    ("repro.resilience.engine", "resilience_exact", "resilience.exact", None),
    ("repro.resilience.local_flow", "compile_product_graph", "flow.compile", None),
    ("repro.resilience.one_dangling", "compile_product_graph", "flow.compile", None),
    ("repro.resilience.bcl_flow", "compile_bcl_graph", "flow.compile", None),
    ("repro.flow.substrate", "product_substrate", "flow.substrate", None),
    ("repro.flow.substrate", "bcl_substrate", "flow.substrate", None),
    ("repro.resilience.local_flow", "solve_min_cut", "flow.mincut", _graph_size),
    ("repro.resilience.bcl_flow", "solve_min_cut", "flow.mincut", _graph_size),
    ("repro.resilience.one_dangling", "solve_min_cut", "flow.mincut", _graph_size),
    ("repro.graphdb.database", "DatabaseIndex", "graphdb.index", None),
    ("repro.resilience.exact", "find_l_walk_ids", "rpq.walk_search", None),
    ("repro.service.server", "plan_workload", "service.plan", None),
)

#: Methods whose result is an iterator consumed later (span = until exhausted).
ITERATOR_PATCHES = (
    ("repro.service.exchange.nodes", "ThreadNode", "serve_iter", "service.node_serve"),
)


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Rebind every patched attribute to its traced wrapper; return undo list."""
    undo = []
    for module_name, attribute, span, describe in FUNCTION_PATCHES:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)
        undo.append((module, attribute, original))
        setattr(module, attribute, recorder.wrap(span, original, describe))
    for module_name, class_name, method, span in ITERATOR_PATCHES:
        owner = getattr(importlib.import_module(module_name), class_name)
        original = owner.__dict__[method]
        undo.append((owner, method, original))
        setattr(owner, method, recorder.wrap_iterator(span, original))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> self time in ns (duration minus direct children)."""
    own = {span[0]: span[3] - span[2] for span in spans}
    for span in spans:
        parent = span[4]
        if parent is not None and parent in own:
            own[parent] -= span[3] - span[2]
    return own


def stage_totals(spans: list[tuple]) -> tuple[dict[str, float], dict[str, int]]:
    """Per span name: summed self time (ms) and call count."""
    own = self_times(spans)
    milliseconds: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        milliseconds[span[1]] += own[span[0]] / 1e6
        counts[span[1]] += 1
    return milliseconds, counts


def closure_error(spans: list[tuple], root_name: str) -> float:
    """Largest relative gap, over requests, between the summed self times of
    a request's spans and the duration of its root span (0 when every
    nanosecond of every call is attributed to exactly one layer)."""
    own = self_times(spans)
    attributed: dict[int, int] = defaultdict(int)
    roots: dict[int, int] = {}
    for span in spans:
        request = span[5]
        if request is None:
            continue
        attributed[request] += own[span[0]]
        if span[1] == root_name and span[4] is None:
            roots[request] = span[3] - span[2]
    worst = 0.0
    for request, duration in roots.items():
        if duration > 0:
            worst = max(worst, abs(attributed[request] - duration) / duration)
    return worst


def overlap_ns(interval: tuple[int, int], merged: list[tuple[int, int]]) -> int:
    """Length of ``interval`` covered by the sorted disjoint ``merged`` list."""
    start, end = interval
    covered = 0
    for left, right in merged:
        if right <= start:
            continue
        if left >= end:
            break
        covered += min(end, right) - max(start, left)
    return covered


def merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[list[int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]
