"""The live telemetry plane: periodic in-run progress snapshots.

A :class:`ProgressEmitter` is an ordinary engine observer (attach it
through ``observers=``) that the drivers additionally *feed* with
periodic snapshots of their own live state: configs/edges/frontier
depth, expansion counts, expand-cache hit rates, the replies each
parallel worker still owes, the resilience ladder's current rung,
resident-set size.  Discovery is duck-typed exactly like the metrics registry and
the tracer: the engine looks for an observer exposing a non-None
``progress`` attribute, and without one every emission site is a single
``is not None`` test — the default path stays as fast as before the
telemetry plane existed.

Frames follow the trace plane's wall-clock quarantine: every
scheduling- or wall-clock-dependent field is ``wall_``-prefixed, so
:func:`repro.trace.tracer.strip_wall` of a frame stream is
deterministic for the serial loop under a count-based cadence
(``every=``).  Parallel-backend fields (``shard_depths``, the replies
each worker owes; ``shard_steals``, all 0 since the backend has no
stealing) are operational by nature — they depend on when workers
answer — and are documented as such rather than quarantined: the
*frames* are live operator telemetry, never inputs to the byte-stable
final documents.

Cadence
-------
``interval_s`` emits on a wall-clock period (the live default);
``every=N`` emits every N ticks of :meth:`ProgressEmitter.due`
(deterministic — what the strip-wall tests use).  Unconditional frames
(``start``, ``done``, ladder transitions) bypass the cadence via
:meth:`ProgressEmitter.emit`.

Sinks
-----
Any object with ``emit(frame: dict)`` (and an optional ``close()``).
A sink that raises is disabled for the rest of the run and counted in
``sink_failures`` — live telemetry must never kill an analysis.  The
emitter also retains the most recent frames in a bounded deque for
in-process consumers (tests, the CLI's final flush).
"""

from __future__ import annotations

import os
import sys
import time
from collections import deque

try:
    import resource as _resource
except ImportError:  # non-Unix platforms: RSS telemetry reads 0
    _resource = None

#: Version of the progress-frame vocabulary.
SCHEMA_VERSION = "repro.progress/1"

#: ``getrusage().ru_maxrss`` is kilobytes on Linux, bytes on macOS.
_RU_MAXRSS_SCALE = 1 if sys.platform == "darwin" else 1024


def _rss_bytes() -> int:
    """Resident set size now (local copy of the explorer's helper — the
    progress plane must not import the engine it instruments)."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    if _resource is not None:
        ru = _resource.getrusage(_resource.RUSAGE_SELF)
        return ru.ru_maxrss * _RU_MAXRSS_SCALE
    return 0


class ProgressEmitter:
    """Observer + snapshot channel; see the module docstring.

    The observer callbacks are deliberate no-ops — the emitter is not a
    per-event consumer; the drivers feed it whole-state snapshots at the
    cadence it negotiates through :meth:`due`.
    """

    def __init__(
        self,
        *sinks,
        interval_s: float = 1.0,
        every: int | None = None,
        clock=time.monotonic,
        keep: int = 512,
        record_wall: bool = True,
    ) -> None:
        #: duck-typed discovery handle (mirrors ``registry``/``tracer``)
        self.progress = self
        self.sinks: list = list(sinks)
        self.interval_s = interval_s
        self.every = every
        self.record_wall = record_wall
        self._clock = clock
        self._t0 = clock()
        self._next_at = self._t0 + interval_s
        self._ticks = 0
        self.seq = 0
        #: sticky fields merged into every frame (ladder rung, job key)
        self.context: dict = {}
        #: frames lost to raising sinks (the sink is then disabled)
        self.sink_failures = 0
        #: recent frames, newest last (bounded)
        self.frames: deque = deque(maxlen=keep)

    # -- observer protocol (no-ops: snapshots, not per-event consumers)
    def on_config(self, graph, cid, config, fresh, status) -> None:
        pass

    def on_edge(self, graph, src, dst, actions) -> None:
        pass

    def on_done(self, graph) -> None:
        pass

    # -- cadence -------------------------------------------------------

    def due(self) -> bool:
        """One tick of the driver's loop; True when a periodic frame is
        owed.  Count-based when ``every`` is set (deterministic), else
        wall-clock (one comparison per tick)."""
        if self.every is not None:
            self._ticks += 1
            if self._ticks >= self.every:
                self._ticks = 0
                return True
            return False
        now = self._clock()
        if now >= self._next_at:
            self._next_at = now + self.interval_s
            return True
        return False

    # -- emission ------------------------------------------------------

    def set_context(self, **fields) -> None:
        """Merge sticky fields into every subsequent frame (a value of
        None removes the key)."""
        for name, value in fields.items():
            if value is None:
                self.context.pop(name, None)
            else:
                self.context[name] = value

    def emit(self, phase: str, **fields) -> dict:
        """Build one frame, fan it to the sinks, and return it."""
        frame = {
            "schema": SCHEMA_VERSION,
            "kind": "progress",
            "seq": self.seq,
            "phase": phase,
        }
        self.seq += 1
        frame.update(self.context)
        frame.update(fields)
        if self.record_wall:
            frame["wall_ms"] = round((self._clock() - self._t0) * 1000.0, 3)
            frame["wall_rss_bytes"] = _rss_bytes()
        self.frames.append(frame)
        if self.sinks:
            dead = []
            for sink in self.sinks:
                try:
                    sink.emit(frame)
                except Exception:
                    dead.append(sink)
                    self.sink_failures += 1
            if dead:
                self.sinks = [s for s in self.sinks if s not in dead]
        return frame

    def close(self) -> None:
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is None:
                continue
            try:
                close()
            except Exception:
                pass


class NdjsonSink:
    """One frame per line, canonical JSON, flushed per frame — the
    file format ``repro watch`` tails for non-serve runs."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")

    def emit(self, frame: dict) -> None:
        from repro.trace.tracer import encode_record

        self._fh.write(encode_record(frame) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


class PipeSink:
    """Ship frames over a :mod:`multiprocessing` connection — the serve
    worker's end of the server's progress pipe."""

    def __init__(self, conn) -> None:
        self.conn = conn

    def emit(self, frame: dict) -> None:
        self.conn.send(frame)

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


def read_frames(path: str) -> list[dict]:
    """Parse an NDJSON frames file, skipping malformed lines (the tail
    of a live file may hold a partial write)."""
    import json

    frames = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue
                if isinstance(obj, dict):
                    frames.append(obj)
    except OSError:
        return []
    return frames
