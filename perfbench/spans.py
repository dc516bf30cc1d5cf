"""Span recording around the program's public functions.

The benchmark never edits ``src/``: it wraps functions and methods from
its own files.  A module-level function is replaced in every loaded
module that holds a reference to it (``from x import f`` copies the
reference), a method on its class and on every subclass that overrides
it.  Spans stay in memory as tuples and are written out at the end.

A span is ``(id, name, start_ns, end_ns, parent_id, job_id, nested)``.
``parent_id`` is the innermost open span of the same context: a
``contextvars`` variable, so asyncio tasks inherit the span open where
they were created and each thread starts with none.  ``nested`` is true
when a span of the same name is already open above it, so a layer's
time is the sum over its spans that are not nested.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import time
from array import array
from bisect import bisect_left
from collections import defaultdict

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(None, frozenset())
)


class Recorder:
    """Holds the spans and the counters of one traced phase."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, array] = defaultdict(lambda: array("q"))
        self.job_id = None
        self._ids = itertools.count(1)
        self.submitted: dict[int, int] = {}
        self.queue_waits_ns: list[int] = []

    def span(self, name: str, function):
        """Wrap *function* so every call records a span named *name*."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent, open_names = _current.get()
            span_id = next(self._ids)
            token = _current.set((span_id, open_names | {name}))
            start = time.perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                _current.reset(token)
                self.spans.append(
                    (span_id, name, start, end, parent, self.job_id,
                     name in open_names)
                )

        return traced

    def counter(self, name: str, function):
        """Wrap *function* so every call only records its start time (for
        calls too frequent to time, such as building an ``Instance``)."""
        stamps = self.counts[name]
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def counted(*args, **kwargs):
            stamps.append(clock())
            return function(*args, **kwargs)

        return counted

    def materializing_span(self, name: str, function):
        """Like :meth:`span` for a function returning an iterator: the
        iterator is drained inside the span (and handed back as one), so
        the span covers the work rather than the generator's creation."""

        def drained(*args, **kwargs):
            return list(function(*args, **kwargs))

        inner = self.span(name, drained)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            return iter(inner(*args, **kwargs))

        return wrapper

    # -- service queue wait --------------------------------------------

    def note_submit(self, function):
        submitted = self.submitted

        @functools.wraps(function)
        def submit(service, job):
            submitted[id(job.payload)] = time.perf_counter_ns()
            return function(service, job)

        return submit

    def note_execute(self, function):
        inner = self.span("service.execute", function)
        submitted, waits = self.submitted, self.queue_waits_ns

        @functools.wraps(function)
        def execute(store, payload, **kwargs):
            queued = submitted.pop(id(payload), None)
            if queued is not None:
                waits.append(time.perf_counter_ns() - queued)
            return inner(store, payload, **kwargs)

        return execute

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": {k: list(v) for k, v in self.counts.items()},
                    "queue_waits_ns": self.queue_waits_ns,
                },
                handle,
            )


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------


def _replace_everywhere(original, replacement) -> int:
    """Point every module attribute that is *original* at *replacement*."""
    replaced = 0
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                replaced += 1
    return replaced


def _wrap_function(module, name: str, make) -> None:
    original = getattr(module, name)
    if _replace_everywhere(original, make(original)) == 0:
        raise RuntimeError(f"could not wrap {module.__name__}.{name}")


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _wrap_method(cls, name: str, make) -> None:
    """Wrap *name* on *cls* and on each subclass defining its own."""
    for klass in set(_subclasses(cls)):
        if name in vars(klass):
            setattr(klass, name, make(vars(klass)[name]))


_STORE_METHODS = (
    "ensure_tenant",
    "tenant_id",
    "tenants",
    "record_request",
    "record_run",
    "set_verified",
    "list_runs",
    "get_run",
    "request_for_run",
    "run_count",
)


def install(recorder: Recorder) -> None:
    """Wrap every traced boundary of the program (idempotence is not
    needed: each traced phase runs in a fresh process)."""
    import repro.cluster  # noqa: F401  (loads every module that re-exports)
    import repro.cluster.procs
    import repro.core.analyzer as analyzer
    import repro.core.certificate as certificate
    import repro.datalog.instance as instance
    import repro.datalog.parser as parser
    import repro.datalog.wellfounded as wellfounded
    import repro.ilog.evaluation as ilog_evaluation
    import repro.ilog.program as ilog_program
    import repro.kernel.engine as kernel_engine
    import repro.cluster.codec as codec
    import repro.cluster.runtime as cluster_runtime
    import repro.cluster.telemetry as cluster_telemetry
    import repro.service.app as app
    import repro.service.store as store
    import repro.transducers.telemetry as telemetry
    import repro.transducers.transducer as transducer

    span = recorder.span
    _wrap_function(wellfounded, "evaluate_well_founded", lambda f: span("wfs", f))
    _wrap_function(ilog_evaluation, "evaluate_ilog", lambda f: span("ilog", f))
    _wrap_function(codec, "encode_envelope", lambda f: span("codec.encode", f))
    _wrap_function(codec, "decode_envelope", lambda f: span("codec.decode", f))
    _wrap_function(parser, "parse_program", lambda f: span("parse", f))
    _wrap_function(
        parser, "parse_facts", lambda f: recorder.materializing_span("parse", f)
    )
    _wrap_function(ilog_program, "parse_ilog_program", lambda f: span("parse", f))
    for module, name in (
        (analyzer, "plan_distribution"),
        (analyzer, "plan_ilog_distribution"),
        (certificate, "certificate_for_plan"),
        (certificate, "ilog_certificate_for_plan"),
        (certificate, "certificate"),
    ):
        _wrap_function(module, name, lambda f: span("core.classify", f))
    _wrap_function(
        telemetry, "output_fingerprint", lambda f: span("telemetry.fingerprint", f)
    )
    _wrap_function(telemetry, "build_run_report", lambda f: span("telemetry.report", f))
    _wrap_function(
        cluster_telemetry,
        "build_cluster_report",
        lambda f: span("telemetry.report", f),
    )
    _wrap_function(app, "execute_request", recorder.note_execute)

    _wrap_method(kernel_engine.KernelEvaluator, "run", lambda f: span("kernel", f))
    _wrap_method(transducer.Transducer, "step", lambda f: span("transducers.step", f))
    _wrap_method(
        instance.Instance, "__init__", lambda f: recorder.counter("instances", f)
    )
    _wrap_method(
        cluster_runtime.ClusterRun,
        "run_to_quiescence",
        lambda f: span("cluster.runtime", f),
    )
    _wrap_method(
        repro.cluster.procs.ProcessCluster,
        "run_to_quiescence",
        lambda f: span("procs.run", f),
    )
    for name in _STORE_METHODS:
        _wrap_method(store.RunStore, name, lambda f: span("store", f))
    _wrap_method(app.ReproService, "submit", recorder.note_submit)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def summarize(spans, *, since_ns: int = 0, until_ns: int | None = None) -> dict:
    """Per span name: ``ms`` (time not nested in the same name), ``calls``
    and ``self_ms`` (duration minus the direct children's durations).
    Only spans starting inside ``[since_ns, until_ns]`` count."""
    children_ns: dict = defaultdict(int)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children_ns[parent] += end - start
    totals: dict = defaultdict(lambda: {"ms": 0.0, "calls": 0, "self_ms": 0.0})
    for span_id, name, start, end, _, _, nested in spans:
        if start < since_ns or (until_ns is not None and start > until_ns):
            continue
        entry = totals[name]
        entry["calls"] += 1
        duration = end - start
        entry["self_ms"] += (duration - children_ns.get(span_id, 0)) / 1e6
        if not nested:
            entry["ms"] += duration / 1e6
    return dict(totals)


def count_between(stamps, since_ns: int, until_ns: int) -> int:
    """How many of the sorted timestamps *stamps* fall in the window.
    (Threads append their stamps nearly, not exactly, in order: callers
    sort first.)"""
    return bisect_left(stamps, until_ns) - bisect_left(stamps, since_ns)
