"""Shared-memory component transport for the parallel backend.

The parallel backend's master sends BFS levels of configurations to its
workers, and the workers send back the successors they keep.  Pickling
every configuration in full would re-serialize the same interned
:class:`~repro.semantics.config.Process` and
:class:`~repro.semantics.config.HeapObj` components thousands of times —
successors share almost all structure with their parents, which is the
entire point of interning.

This module ships each distinct component across the boundary **once**:

* every participant (each worker, plus the master) owns one append-only
  ``multiprocessing.shared_memory`` segment it alone writes;
* encoding a configuration writes any component not yet published to the
  producer's own segment and replaces it with a ``(producer, offset)``
  handle tuple — the ledger hands back the *same* tuple object on every
  reuse, so within one message blob pickle's memo collapses repeats to a
  2-byte back-reference (an int-packed handle would re-emit ~8 bytes per
  occurrence: pickle never memoizes integers);
* decoding reads the ``[u32 length][pickle]`` record at the handle (the
  component pickle re-interns via ``__reduce__``, so the receiver gets
  its canonical object) and caches the handle → object mapping, making
  repeat decodes pointer lookups;
* a successor is encoded against its parent, which both sides hold: only
  the processes that changed, and the globals and heap if they did.

Segments are created by the master *before* forking and inherited by the
workers through ``Process`` args — no name re-attachment, so the
resource tracker sees each segment exactly once and the master's
``unlink()`` is the single point of cleanup.
When a segment fills up, or when the platform cannot fork / lacks POSIX
shared memory, encoding degrades per-component to an inline ``("b",
pickle)`` payload: strictly the old behaviour, never an error.

The codec is symmetric: any participant can encode (workers publish
successor components; the master publishes the configurations it ships
in full) and any participant can decode any producer's handles.
"""

from __future__ import annotations

import pickle
import struct
from typing import Optional

from repro.semantics.config import Config, intern_composed

#: Default size of each producer's append-only segment.  Components are
#: a few hundred bytes pickled; 8 MiB holds tens of thousands of them,
#: and overflow degrades to inline payloads rather than failing.
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024

_LEN = struct.Struct("<I")


def shm_available() -> bool:
    """True when POSIX shared memory can back the transport."""
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - exotic platforms
        return False
    return True


class ComponentStore:
    """Per-producer shared-memory logs plus the config codec.

    Create in the master with ``nproducers = jobs + 1`` (producer
    ``jobs`` is the master), fork, then call :meth:`bind` in every
    process with its own producer id before encoding.  Decoding needs no
    binding.  ``use_shm=False`` builds an inline-only store (every
    component ships as bytes) with the identical interface.
    """

    def __init__(
        self,
        nproducers: int,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        use_shm: bool = True,
        name_prefix: str = "repro-shm",
    ) -> None:
        self.nproducers = nproducers
        self.segment_bytes = segment_bytes
        self._segments: list = []
        self._producer: Optional[int] = None
        self._tail = [0] * nproducers
        # encoder state: id(component) -> (component, handle); holding
        # the component pins it, so id() reuse cannot alias the map.
        # Decoding feeds this map too: a component received from another
        # producer re-encodes as the *original* handle instead of being
        # republished, so each component crosses the run exactly once
        # no matter how many processes forward configurations built on it.
        self._published: dict[int, tuple] = {}
        # value-keyed ledger for small immutables (the globals tuple):
        # equal-but-distinct objects would defeat both the id-keyed map
        # and pickle's id-based memo, republishing the same value once
        # per successor
        self._value_published: dict = {}
        # decoder state: (producer, offset) handle -> component
        self._decoded: dict[tuple, object] = {}
        if use_shm and shm_available():
            from multiprocessing import shared_memory
            import os
            import secrets

            token = f"{name_prefix}-{os.getpid()}-{secrets.token_hex(4)}"
            try:
                for i in range(nproducers):
                    self._segments.append(
                        shared_memory.SharedMemory(
                            name=f"{token}-{i}", create=True,
                            size=segment_bytes,
                        )
                    )
            except OSError:  # pragma: no cover - /dev/shm unavailable
                self.unlink()
                self._segments = []

    def bind(self, producer: int) -> None:
        """Declare which producer slot this process writes."""
        if not 0 <= producer < self.nproducers:
            raise ValueError(f"producer {producer} out of range")
        self._producer = producer

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------

    def publish(self, component):
        """The transport handle for one shared object (a Process or
        HeapObj of a configuration, or an edge's ActionInfo), published
        on first use; a repeat publish is a dict hit."""
        key = id(component)
        hit = self._published.get(key)
        if hit is not None:
            return hit[1]
        data = pickle.dumps(component, protocol=pickle.HIGHEST_PROTOCOL)
        handle = None
        if self._segments and self._producer is not None:
            seg = self._segments[self._producer]
            tail = self._tail[self._producer]
            end = tail + _LEN.size + len(data)
            if end <= self.segment_bytes:
                _LEN.pack_into(seg.buf, tail, len(data))
                seg.buf[tail + _LEN.size : end] = data
                self._tail[self._producer] = end
                handle = (self._producer, tail)
        if handle is None:
            handle = ("b", data)
        self._published[key] = (component, handle)
        return handle

    def _publish_value(self, value):
        """Publish a small hashable immutable keyed by *value* rather
        than identity — successors rebuild an equal globals tuple, so
        id-keying (and pickle's id-based memo) would republish it per
        configuration."""
        handle = self._value_published.get(value)
        if handle is None:
            handle = self.publish(value)
            self._value_published[value] = handle
        return handle

    def encode_config(self, config: Config, base: Config | None = None):
        """A compact, pipe-shippable payload for *config*.

        With *base*, a configuration the receiver holds (a successor's
        parent), the payload lists only what differs from it: the
        processes at changed positions, and the globals and heap when
        they changed (None when they did not)."""
        procs = config.procs
        if base is not None and len(procs) == len(base.procs):
            procs = [
                (i, self.publish(p))
                for i, (p, q) in enumerate(zip(procs, base.procs))
                if p is not q
            ]
        else:
            procs = tuple([self.publish(p) for p in procs])
        globals_ = config.globals
        heap = config.heap
        return (
            procs,
            None if base is not None and globals_ == base.globals
            else self._publish_value(globals_),
            None if base is not None and heap == base.heap
            else tuple([self.publish(o) for o in heap]),
            config.fault,
        )

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------

    def resolve(self, handle):
        """The canonical object behind a handle from :meth:`publish`."""
        if handle[0] == "b":  # ("b", pickle) inline fallback
            return pickle.loads(handle[1])
        hit = self._decoded.get(handle)
        if hit is not None:
            return hit
        producer, offset = handle
        buf = self._segments[producer].buf
        (length,) = _LEN.unpack_from(buf, offset)
        start = offset + _LEN.size
        component = pickle.loads(bytes(buf[start : start + length]))
        self._decoded[handle] = component
        # ledger reuse: re-encoding this component forwards the original
        # producer's handle (any participant can resolve any handle)
        self._published.setdefault(id(component), (component, handle))
        return component

    def decode_config(self, payload: tuple, base: Config | None = None):
        """Rebuild (and intern) a configuration from a payload made
        with the same *base*, an interned configuration."""
        procs, globals_ref, heap, fault = payload
        resolve = self.resolve
        if type(procs) is list:
            changed = list(base.procs)
            for i, handle in procs:
                changed[i] = resolve(handle)
            procs = tuple(changed)
        else:
            procs = tuple([resolve(h) for h in procs])
        if globals_ref is None:
            globals_ = base.globals
        else:
            globals_ = resolve(globals_ref)
            # ledger reuse for the value-keyed map too: forwarding a
            # config with these globals reuses the producer's handle
            self._value_published.setdefault(globals_, globals_ref)
        heap = base.heap if heap is None else tuple([resolve(h) for h in heap])
        # resolved components are canonical (unpickling re-interns
        # them), and so are an interned base's
        return intern_composed(
            Config(procs=procs, globals=globals_, heap=heap, fault=fault)
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Unmap this process's views (workers, on exit)."""
        for seg in self._segments:
            try:
                seg.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def unlink(self) -> None:
        """Close and remove the segments (master only, exactly once)."""
        for seg in self._segments:
            try:
                seg.close()
            except OSError:  # pragma: no cover
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []
