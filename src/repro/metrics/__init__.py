"""Exploration telemetry: registry, instruments, and the observer that
wires them into the engine.

Usage::

    from repro.explore import explore
    from repro.metrics import MetricsObserver

    mo = MetricsObserver()
    result = explore(program, "stubborn", coarsen=True, observers=(mo,))
    print(mo.snapshot()["explore.frontier_depth"])

Every run counts its events into a registry of its own, and
``ExploreStats`` is a view of it; an attached :class:`MetricsObserver`
receives that registry merged in at the end of the run.  Without one
the engine skips its deep instrumentation (histograms, timers, intern,
memo and digest series — a single ``is not None`` test per site).
"""

from repro.metrics.observer import MetricsObserver, attached_registry
from repro.metrics.registry import (
    LAST_WRITE_GAUGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)

#: Version of the metric-name vocabulary emitted by the engine (see
#: :mod:`repro.metrics.observer` for the table).  Bump on any rename or
#: semantic change; ``repro bench`` embeds it in ``BENCH_*.json``.
#: ``/2`` adds the resilience series: ``explore.peak_rss_bytes``,
#: ``explore.observer_faults``, ``explore.selector_faults``,
#: ``explore.engine_faults``, ``resilience.escalations``,
#: ``resilience.final_rung``.
#: ``/3``: the parallel backend merges worker registries into the
#: master registry (``MetricsRegistry.merge``), so deep series
#: (``explore.expansions``, ``stubborn.*``, ``coarsen.*``,
#: ``explore.intern.misses``) now cover worker-side work instead of
#: being silently dropped; ``explore.intern.hits`` under ``--jobs`` now
#: counts worker-side interning hits (out-batch dedup makes it smaller
#: than the serial count, which already made it backend-specific).
#: ``/4`` adds the incremental-engine series: ``expand.cache_hits`` /
#: ``expand.cache_misses`` / ``expand.invalidations`` /
#: ``expand.cache_evictions`` / ``expand.cache_uncacheable`` (the
#: footprint memo, :mod:`repro.explore.memo`), ``digest.incremental`` /
#: ``digest.component_new`` / ``digest.config_composed`` /
#: ``digest.config_cached`` (O(delta) digest composition), and the
#: derived gauges ``expand.cache_hit_rate`` /
#: ``digest.incremental_rate``.
#: ``/5`` adds the schedule-generation series (:mod:`repro.schedules`):
#: ``schedules.classes`` / ``schedules.paths`` /
#: ``schedules.edges_covered`` / ``schedules.edge_coverage`` /
#: ``schedules.class_coverage`` / ``schedules.cycles_skipped`` /
#: ``schedules.truncated`` / ``schedules.sample`` / ``schedules.seed``
#: (coverage accounting of canonical-schedule enumeration and seeded
#: sampling) and ``schedules.replays`` / ``schedules.replay_failures``
#: (the replay-verification harness).
#: ``/6`` adds ``trace.dropped_spans`` (gauge): records lost to a full
#: :class:`~repro.trace.RingBufferSink` — a truncated trace is no
#: longer indistinguishable from a complete one — and
#: ``serve.store_evictions`` (``repro store gc``).
#: ``/7`` adds ``algorithm1.scans`` / ``algorithm1.scan_hits``
#: (counters): Algorithm 1's D1/D2 universe scans run fresh versus
#: answered from the selector's per-exploration memo (worker-local).
#: ``/8`` adds ``step.shared_objects`` (counter): the entries of the
#: run's share table (:mod:`repro.semantics.step`) when it ends —
#: processes, actions and action keys; summed over workers.
#: ``/9`` adds ``expand.replays`` (counter): memo successors built, one
#: per kept transition whose expansion the memo answered;
#: ``expand.cache_hits`` counts every probe it answered (worker-local).
#: ``/10``: the parallel master runs the serial queue, so under
#: ``--jobs`` ``explore.intern.hits`` and ``explore.frontier_depth``
#: equal the serial values; ``parallel.batches`` (counter) counts the
#: batch messages sent to workers, ``parallel.handoffs`` counts
#: configurations shipped in full, and ``parallel.steals`` /
#: ``parallel.cand_msgs`` / ``parallel.cand_suppressed`` are no longer
#: recorded.
SCHEMA_VERSION = "repro.metrics/10"

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LAST_WRITE_GAUGES",
    "MetricsObserver",
    "MetricsRegistry",
    "SCHEMA_VERSION",
    "Timer",
    "attached_registry",
]
