"""Parallel-worker telemetry: workers record into their own tracer and
registry; trace records ride with each reply, registries with the final
dumps, and the master merges both — deep per-expansion series survive
the process boundary."""

from __future__ import annotations

from repro.explore import ExploreOptions, explore
from repro.metrics import MetricsObserver
from repro.programs.corpus import CORPUS
from repro.trace import TraceRecorder


def _run(name, *, policy="stubborn", coarsen=False, jobs=2, observers=()):
    return explore(
        CORPUS[name](),
        options=ExploreOptions(
            policy=policy, coarsen=coarsen, backend="parallel", jobs=jobs
        ),
        observers=observers,
    )


def test_worker_registries_merge_into_master():
    mo = MetricsObserver()
    r = _run("philosophers_3", observers=(mo,))
    reg = mo.registry
    # per-expansion series recorded inside worker processes
    assert reg.counter("explore.expansions").value == r.stats.expansions
    assert reg.histogram("stubborn.enabled").count == r.stats.stubborn.steps
    assert reg.histogram("stubborn.closure_iterations").count > 0
    # master-side series still present
    assert reg.counter("explore.configs").value == r.stats.num_configs
    assert reg.gauge("graph.configs").value == r.stats.num_configs
    assert reg.counter("parallel.steals").value == r.stats.steals


def test_worker_coarsen_histogram_merges():
    mo = MetricsObserver()
    _run("philosophers_3", coarsen=True, observers=(mo,))
    assert mo.registry.histogram("coarsen.block_len").count > 0


def test_intern_metrics_follow_master_convention():
    # interning happens on the master, which runs the serial queue:
    # misses count every configuration, hits every rediscovery
    mo = MetricsObserver()
    r = _run("philosophers_3", observers=(mo,))
    assert (
        mo.registry.counter("explore.intern.misses").value
        == r.stats.num_configs
    )


def test_worker_spans_reach_master_trace():
    rec = TraceRecorder(capacity=None, record_wall=False)
    r = _run("philosophers_3", observers=(rec,))
    records = rec.records()
    names = {rc["name"] for rc in records}
    assert {"parallel.spawn", "parallel.run", "parallel.merge",
            "stubborn.closure", "explore.done"} <= names
    closures = [rc for rc in records if rc["name"] == "stubborn.closure"]
    # every closure span came from a worker and carries its shard id
    assert closures and all(rc["shard"] in (0, 1) for rc in closures)
    # one closure span per selection step (terminal configs skip it)
    assert len(closures) == r.stats.stubborn.steps
    # master spans/events carry shard None
    done = next(rc for rc in records if rc["name"] == "explore.done")
    assert done["shard"] is None


def test_worker_records_remap_into_master_seq_space():
    rec = TraceRecorder(capacity=None, record_wall=False)
    _run("philosophers_3", observers=(rec,))
    records = rec.records()
    # the master re-sequences worker records into its own seq space:
    # seqs stay globally unique, and each shard's stream (emitted in
    # queue order) closes in order
    seqs = [rc["seq"] for rc in records]
    assert len(seqs) == len(set(seqs))
    for shard in (0, 1):
        closes = [
            rc.get("end_seq", rc["seq"])
            for rc in records
            if rc["shard"] == shard
        ]
        assert closes and closes == sorted(closes)


def test_no_trace_observer_means_no_worker_shipping():
    # without a TraceRecorder the reply batches are None end to end and
    # the run is identical to an untraced one
    plain = _run("philosophers_3")
    rec = TraceRecorder(capacity=None)
    traced = _run("philosophers_3", observers=(rec,))
    assert plain.final_stores() == traced.final_stores()
    assert plain.stats.num_configs == traced.stats.num_configs
    assert len(rec.records()) > 0


def test_wall_clock_flag_propagates_to_workers():
    rec = TraceRecorder(capacity=None, record_wall=False)
    _run("deadlock_pair", observers=(rec,))
    assert all(
        not any(k.startswith("wall_") for k in rc)
        for rc in rec.records()
    )
    rec_wall = TraceRecorder(capacity=None, record_wall=True)
    _run("deadlock_pair", observers=(rec_wall,))
    worker = [rc for rc in rec_wall.records() if rc["shard"] is not None]
    assert worker and all("wall_ts_us" in rc for rc in worker)
