"""The metrics registry: counters, gauges, histograms, timers.

Exploration telemetry lives here so the engine can argue its
precision/cost tradeoffs with numbers instead of prose — the same
per-phase statistics style Miné's parallel-C analyzer and the BMC
partial-order literature report.  Design constraints:

- **one accounting source** — every exploration run counts into a
  registry of its own (hot counters bound once, bumped like ints), and
  ``ExploreStats`` is a view of it; the deep instrumentation runs only
  with a :class:`~repro.metrics.MetricsObserver` attached;
- **no wall-clock in values** — histograms bucket by powers of two and
  snapshots are plain JSON-able dicts, so telemetry is deterministic
  except for the explicitly-named ``*_s`` timer series;
- **flat namespace** — metric names are dotted strings
  (``explore.frontier_depth``); the registry is a dictionary, not a
  tree, so snapshots diff cleanly across runs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: int = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


@dataclass
class Gauge:
    """A point-in-time value (last write wins)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


def _bucket_of(value: float) -> int:
    """Power-of-two bucket index: values in ``[2^k, 2^(k+1))`` map to
    ``k + 1``; values < 1 map to 0."""
    b = 0
    v = int(value)
    while v >= 1:
        v >>= 1
        b += 1
    return b


@dataclass
class Histogram:
    """Streaming distribution summary with power-of-two buckets.

    Tracks count/sum/min/max exactly and the shape approximately;
    memory is O(log max) regardless of how many observations arrive —
    safe to feed every expansion of a million-configuration run.
    """

    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None
    buckets: dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        b = _bucket_of(value)
        self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


@dataclass
class Timer:
    """Accumulated wall-clock (seconds) over any number of spans."""

    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    def add(self, elapsed_s: float) -> None:
        self.count += 1
        self.total_s += elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s

    def as_dict(self) -> dict:
        return {
            "type": "timer",
            "count": self.count,
            "total_s": self.total_s,
            "max_s": self.max_s,
        }


#: Gauges where merging takes the *other* snapshot's value instead of
#: the maximum: series that mean "final state", not "peak".
LAST_WRITE_GAUGES = frozenset(
    {
        "resilience.final_rung",
    }
)

#: Series that are deterministic but **worker-local**: their values
#: legitimately depend on *where* work ran, so a parallel run's merged
#: registry must not be compared against a serial run's on them.  The
#: single source of truth for the cross-backend differential suite —
#: add any new worker-local series here, or the equality check silently
#: starts comparing scheduling noise.
#:
#: - ``parallel.*`` — no serial counterpart at all;
#: - ``expand.*`` / ``digest.*`` — memo-cache and digest-reuse splits
#:   follow which worker expanded what (the expansion *outcomes* are
#:   asserted equal through the graph checks instead);
#: - ``algorithm1.scans`` / ``algorithm1.scan_hits`` — each worker's
#:   selector keeps its own scan memo, so the split between fresh and
#:   memoised scans follows which worker met a key first.
#: - ``step.shared_objects`` — each worker keeps its own share table,
#:   so the sum over workers counts objects more than one worker built.
WORKER_LOCAL_PREFIXES = ("parallel.", "expand.", "digest.")
WORKER_LOCAL_SERIES = frozenset(
    {
        "algorithm1.scans",
        "algorithm1.scan_hits",
        "step.shared_objects",
    }
)


class MetricsRegistry:
    """A flat name → instrument table with get-or-create accessors.

    Instruments are typed on first use; asking for an existing name with
    a different type raises (a misspelled dashboard is a bug, not data).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}

    # ------------------------------------------------------------------
    # get-or-create
    # ------------------------------------------------------------------

    def _get(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls()
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def timer(self, name: str) -> Timer:
        return self._get(name, Timer)

    # ------------------------------------------------------------------
    # convenience updates (what the engine's hot paths call)
    # ------------------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    @contextmanager
    def time(self, name: str):
        """Context manager: time a span into timer *name*."""
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.timer(name).add(time.perf_counter() - t0)

    # ------------------------------------------------------------------
    # merge (parallel workers ship snapshots back to the master)
    # ------------------------------------------------------------------

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Semantics per instrument type:

        - **counters** add — every worker's count is part of the total;
        - **gauges** take the maximum (peaks like
          ``explore.peak_rss_bytes`` compose as max), except the names
          in :data:`LAST_WRITE_GAUGES`, where the merged-in value wins;
        - **histograms** merge exactly: counts/sums add, min/max
          combine, power-of-two buckets add bucket-wise — the merged
          histogram equals one built from the union of observations;
        - **timers** add count/total and take the max of maxima.

        A name present in both registries with different types raises
        ``TypeError``; an unknown ``type`` tag raises ``ValueError``.

        Merged parallel registries are only serial-comparable outside
        the worker-local series named by :data:`WORKER_LOCAL_PREFIXES`
        and :data:`WORKER_LOCAL_SERIES` — the differential suite builds
        its comparable slice from those constants.
        """
        for name, data in snapshot.items():
            kind = data.get("type")
            if kind == "counter":
                self.counter(name).inc(data["value"])
            elif kind == "gauge":
                fresh = name not in self._instruments
                gauge = self.gauge(name)
                if (
                    fresh
                    or name in LAST_WRITE_GAUGES
                    or data["value"] > gauge.value
                ):
                    gauge.set(data["value"])
            elif kind == "histogram":
                hist = self.histogram(name)
                hist.count += data["count"]
                hist.total += data["sum"]
                for bound in ("min", "max"):
                    other = data.get(bound)
                    if other is None:
                        continue
                    ours = getattr(hist, bound)
                    if ours is None:
                        setattr(hist, bound, other)
                    elif bound == "min":
                        setattr(hist, bound, min(ours, other))
                    else:
                        setattr(hist, bound, max(ours, other))
                for bucket, count in data.get("buckets", {}).items():
                    b = int(bucket)
                    hist.buckets[b] = hist.buckets.get(b, 0) + count
            elif kind == "timer":
                timer = self.timer(name)
                timer.count += data["count"]
                timer.total_s += data["total_s"]
                if data["max_s"] > timer.max_s:
                    timer.max_s = data["max_s"]
            else:
                raise ValueError(
                    f"cannot merge metric {name!r}: unknown type {kind!r}"
                )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def value(self, name: str):
        """Scalar shortcut: counter/gauge value, histogram mean, timer
        total — handy in tests and report code."""
        inst = self._instruments[name]
        if isinstance(inst, (Counter, Gauge)):
            return inst.value
        if isinstance(inst, Histogram):
            return inst.mean
        assert isinstance(inst, Timer)
        return inst.total_s

    def get(self, name: str, default=0):
        """:meth:`value` of *name*, or *default* when it was never
        created (an event that never happened)."""
        return self.value(name) if name in self._instruments else default

    def snapshot(self) -> dict:
        """JSON-able dump of every instrument, sorted by name."""
        return {
            name: self._instruments[name].as_dict()
            for name in sorted(self._instruments)
        }
