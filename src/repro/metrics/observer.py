"""Exploration telemetry as an :class:`~repro.explore.observers.Observer`.

Every exploration run counts into a registry of its own (each parallel
worker too, merged by the master), and ``ExploreStats`` is a view of it.
Attaching a :class:`MetricsObserver` to :func:`repro.explore.explore`:

1. at the end of the run the engine merges the run's registry into the
   attached one — so even an evicted observer gets complete counts —
   and sets the derived gauges (rates, peak RSS, ``graph.*``) there;
2. turns on the engine's *deep* instrumentation — frontier depth,
   intern hit-rate, stubborn closure sizes, coarsened block lengths,
   wall-clock — none of which runs when no registry is attached.

Metric names emitted by the engine (the stable telemetry schema,
version :data:`repro.metrics.SCHEMA_VERSION`):

======================================  =========  =========================
name                                    type       meaning
======================================  =========  =========================
``explore.configs``                     counter    configurations interned
``explore.edges``                       counter    transitions recorded
``explore.actions``                     counter    atomic actions executed
``explore.expansions``                  counter    configurations expanded
``explore.frontier_depth``              histogram  queue/stack depth per step
``explore.intern.hits``                 counter    add_config found existing
``explore.intern.misses``               counter    add_config interned fresh
``explore.terminal.<status>``           counter    per terminal status
``explore.wall_s``                      timer      exploration wall-clock
``explore.expansions_per_s``            gauge      expansions / wall seconds
``stubborn.enabled``                    histogram  candidate-set sizes
``stubborn.chosen``                     histogram  chosen stubborn-set sizes
``stubborn.closure_iterations``         histogram  worklist pops per closure
``stubborn.singleton_steps``            counter    steps with |chosen| == 1
``algorithm1.scans``                    counter    D1/D2 universe scans run
``algorithm1.scan_hits``                counter    D1/D2 scans served memoised
``coarsen.block_len``                   histogram  fused-block lengths
``step.shared_objects``                 counter    share-table entries at run end
``expand.cache_hits``                   counter    expansions answered by the memo
``expand.replays``                      counter    memo successors built (kept)
``expand.cache_misses``                 counter    expansions computed fresh
``expand.invalidations``                counter    footprint mismatches (stale)
``expand.cache_evictions``              counter    memo entries evicted (bound)
``expand.cache_uncacheable``            counter    outcomes not memoizable
``expand.cache_hit_rate``               gauge      hits / (hits + misses)
``digest.incremental``                  counter    component digests reused
``digest.component_new``                counter    component digests computed
``digest.config_composed``              counter    config digests composed
``digest.config_cached``                counter    config digests served cached
``digest.incremental_rate``             gauge      reused / (reused + new)
``fold.hits``                           counter    successor hit existing key
``fold.misses``                         counter    successor opened a new key
``fold.widenings``                      counter    joins replaced by widening
``explore.peak_rss_bytes``              gauge      peak resident set (bytes)
``explore.observer_faults``             counter    observer callbacks isolated
``explore.selector_faults``             counter    selector crashes (fallback)
``explore.engine_faults``               counter    expansion crashes (dropped)
``resilience.escalations``              counter    ladder rung escalations
``resilience.final_rung``               gauge      rung index of the answer
``trace.dropped_spans``                 gauge      records lost to a full ring
======================================  =========  =========================
"""

from __future__ import annotations

from repro.explore.observers import Observer
from repro.metrics.registry import MetricsRegistry


class MetricsObserver(Observer):
    """The :class:`MetricsRegistry` a run publishes its telemetry into."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def snapshot(self) -> dict:
        return self.registry.snapshot()


def attached_registry(observers) -> MetricsRegistry | None:
    """The registry of the first :class:`MetricsObserver` among
    *observers*, or None — how the engine decides whether to run its
    deep instrumentation."""
    for ob in observers:
        if isinstance(ob, MetricsObserver):
            return ob.registry
    return None
