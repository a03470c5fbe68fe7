"""The tracer core: records, sequence ids, spans, events.

A trace is a flat sequence of JSON-able dict **records**.  Every record
carries:

``seq``
    a deterministic monotonic sequence id, allocated when the span was
    *opened* (or the event fired) — the temporal skeleton of the trace
    that survives wall-clock stripping;
``shard``
    which process recorded it: ``None`` for the master/serial engine,
    the shard id for a parallel worker;
``kind`` / ``name`` / ``args``
    ``"span"`` or ``"event"``, a dotted name, and a dict of
    deterministic attributes.

Spans additionally carry ``end_seq`` (allocated at close — nesting and
duration-in-sequence-time are recoverable) and are emitted to sinks
**at close**, so sink order is close order: deterministic, inner spans
before the spans that contain them.

Wall-clock is confined to optional fields with a ``wall_`` prefix
(``wall_ts_us`` since the tracer's epoch, ``wall_dur_us`` for spans).
:func:`strip_wall` removes exactly those, and
:func:`canonical_lines` yields the byte-stable form the determinism
suite compares.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

#: Version of the trace record vocabulary.  Bump on any key rename or
#: semantic change; the JSONL meta line and the Chrome export embed it.
SCHEMA_VERSION = "repro.trace/1"

#: Key prefix reserved for non-deterministic wall-clock fields.
WALL_PREFIX = "wall_"


def strip_wall(record: dict) -> dict:
    """A copy of *record* without the ``wall_*`` fields — the
    deterministic residue two runs of the same search must agree on."""
    return {k: v for k, v in record.items() if not k.startswith(WALL_PREFIX)}


def encode_record(record: dict) -> str:
    """Canonical single-line JSON encoding (sorted keys, no spaces)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def canonical_lines(records, *, strip: bool = True) -> str:
    """The byte-comparable form of a trace: one canonical JSON line per
    record, wall-clock stripped unless ``strip=False``."""
    if strip:
        records = (strip_wall(r) for r in records)
    return "\n".join(encode_record(r) for r in records)


class Tracer:
    """Records spans and events into the attached sinks.

    Never constructed by the engine itself — callers attach one via
    :class:`~repro.trace.recorder.TraceRecorder` and the engine
    discovers it, exactly as the metrics registry is discovered.  With
    ``record_wall=False`` the records are fully deterministic with no
    stripping needed.
    """

    __slots__ = ("sinks", "shard", "record_wall", "_seq", "_epoch")

    def __init__(
        self,
        *sinks,
        shard: int | None = None,
        record_wall: bool = True,
    ) -> None:
        self.sinks = list(sinks)
        self.shard = shard
        self.record_wall = record_wall
        self._seq = 0
        self._epoch = time.perf_counter()

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq = seq + 1
        return seq

    def emit(self, record: dict) -> None:
        """Deliver a complete record to every sink.  Also the merge
        entry point: the parallel master feeds worker-shipped records
        through here verbatim (they already carry their shard id)."""
        for sink in self.sinks:
            sink.emit(record)

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------

    def event(self, name: str, **args) -> None:
        """Record an instant event."""
        record = {
            "kind": "event",
            "seq": self._next_seq(),
            "shard": self.shard,
            "name": name,
            "args": args,
        }
        if self.record_wall:
            record["wall_ts_us"] = int(
                (time.perf_counter() - self._epoch) * 1e6
            )
        self.emit(record)

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def begin_span(self, name: str, **args) -> list:
        """Open a span; returns a handle for :meth:`end_span`.  The
        explicit begin/end pair is the allocation-light hot-path form;
        :meth:`span` wraps it as a context manager."""
        return [
            self._next_seq(),
            time.perf_counter() if self.record_wall else None,
            name,
            args,
        ]

    def end_span(self, handle: list, **extra) -> None:
        """Close a span, merging *extra* into its attributes, and emit
        the single complete record."""
        seq, t0, name, args = handle
        if extra:
            args = {**args, **extra}
        record = {
            "kind": "span",
            "seq": seq,
            "end_seq": self._next_seq(),
            "shard": self.shard,
            "name": name,
            "args": args,
        }
        if t0 is not None:
            now = time.perf_counter()
            record["wall_ts_us"] = int((t0 - self._epoch) * 1e6)
            record["wall_dur_us"] = int((now - t0) * 1e6)
        self.emit(record)

    @contextmanager
    def span(self, name: str, **args):
        """Context manager form; yields a dict whose entries become
        close-time attributes::

            with tracer.span("stubborn.closure", enabled=3) as out:
                chosen = selector.select(expansions)
                out["chosen"] = len(chosen)
        """
        handle = self.begin_span(name, **args)
        extra: dict = {}
        try:
            yield extra
        finally:
            self.end_span(handle, **extra)


class SpanChunker:
    """Rotating span series for loop-shaped work without natural phases.

    The serial loop has no frontier rounds, so its
    ``explore.round`` spans are chunks of *every* expansions each —
    deterministic (tick counts, not wall-clock, decide the boundaries)
    and cheap (one integer compare per tick).  ``close()`` flushes the
    final partial chunk.
    """

    __slots__ = ("tracer", "name", "every", "index", "ticks", "_handle")

    def __init__(self, tracer: Tracer, name: str, every: int = 1024) -> None:
        self.tracer = tracer
        self.name = name
        self.every = max(1, int(every))
        self.index = 0
        self.ticks = 0
        self._handle: list | None = None

    def tick(self) -> None:
        if self._handle is None:
            self._handle = self.tracer.begin_span(self.name, index=self.index)
        self.ticks += 1
        if self.ticks >= self.every:
            self.close()

    def close(self) -> None:
        """Close the open chunk (if any), recording its tick count."""
        if self._handle is None:
            return
        self.tracer.end_span(self._handle, ticks=self.ticks)
        self._handle = None
        self.index += 1
        self.ticks = 0
