"""The observer that attaches a tracer to the exploration engine.

Mirrors :class:`repro.metrics.MetricsObserver`: put a
:class:`TraceRecorder` in ``explore(observers=...)`` and the engine
notices the attached :class:`~repro.trace.tracer.Tracer` (duck-typed on
the ``tracer`` attribute, the way the registry is duck-typed on
``registry``) and turns on span/event recording in its hot paths.
Without one, no tracer exists and every instrumentation site is a
single ``is not None`` test.
"""

from __future__ import annotations

from repro.explore.observers import Observer, attached
from repro.trace.sinks import ListSink, RingBufferSink
from repro.trace.tracer import Tracer


class TraceRecorder(Observer):
    """Holds the tracer the engine records into.

    With no arguments, records into a bounded in-memory ring
    (:class:`~repro.trace.sinks.RingBufferSink`); pass ``capacity=None``
    for an unbounded :class:`~repro.trace.sinks.ListSink`, or a
    pre-built :class:`Tracer` to control the sinks entirely (e.g. a
    streaming :class:`~repro.trace.sinks.JsonlFileSink`).

    The observer callbacks are deliberately no-ops: the engine records
    spans itself, at sites an observer cannot see (closure loops,
    scatter/gather, checkpoint writes).
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        *,
        capacity: int | None = 65536,
        record_wall: bool = True,
    ) -> None:
        if tracer is None:
            sink = ListSink() if capacity is None else RingBufferSink(capacity)
            tracer = Tracer(sink, record_wall=record_wall)
        self.tracer = tracer

    def records(self) -> list[dict]:
        """Everything recorded so far, from the first sink that keeps
        records (ring and list sinks do; a file sink does not)."""
        for sink in self.tracer.sinks:
            getter = getattr(sink, "records", None)
            if getter is not None:
                return getter()
        return []


def attached_tracer(observers) -> Tracer | None:
    """The tracer of the first observer exposing one, or None — how the
    engine decides whether to record spans and events."""
    return attached(observers, "tracer")
