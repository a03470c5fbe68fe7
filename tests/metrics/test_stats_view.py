"""One accounting source: every run counts into its own registry, and
``ExploreStats`` is a view of it.

Each counter field of :class:`~repro.explore.explorer.ExploreStats`
reads one series of the name table
:data:`~repro.explore.explorer.STATS_SERIES`.  With a
:class:`~repro.metrics.MetricsObserver` attached, the run's registry is
merged into the observer's, so each field must equal its series there —
on both backends, and as a delta over the snapshot on a resumed run.
The expected names come from the table itself, so a new counter field
cannot drift silently.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.explore import ExploreOptions, explore
from repro.explore.explorer import STATS_SERIES, ExploreStats
from repro.metrics import MetricsObserver
from repro.programs.corpus import CORPUS
from repro.resilience import chaos
from repro.resilience.checkpoint import Checkpointer, read_snapshot

#: terminated, deadlocked and faulting runs among them
PROGRAMS = (
    "mutex_counter", "deadlock_pair", "peterson_broken", "philosophers_3"
)
COMBOS = (
    ("full", False, False),
    ("stubborn", True, False),
    ("stubborn", True, True),
)
#: integer fields that are run metadata, not counts of the run's events
METADATA = {
    "num_configs", "num_edges", "peak_rss_bytes", "checkpoint_faults",
    "checkpoints_written", "jobs", "worker_restarts",
}


def _options(policy, coarsen, sleep, jobs, **kw) -> ExploreOptions:
    return ExploreOptions(
        policy=policy, coarsen=coarsen, sleep=sleep,
        backend="parallel" if jobs > 1 else "serial", jobs=jobs, **kw,
    )


def _series(registry) -> dict:
    return {series: registry.get(series) for series in STATS_SERIES.values()}


def test_every_counter_field_reads_one_series():
    ints = {
        f.name for f in dataclasses.fields(ExploreStats) if f.type == "int"
    }
    assert ints - METADATA == set(STATS_SERIES)
    assert len(set(STATS_SERIES.values())) == len(STATS_SERIES)


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("policy,coarsen,sleep", COMBOS)
@pytest.mark.parametrize("name", PROGRAMS)
def test_stats_view_equals_the_registry(name, policy, coarsen, sleep, jobs):
    mo = MetricsObserver()
    r = explore(
        CORPUS[name](),
        options=_options(policy, coarsen, sleep, jobs),
        observers=(mo,),
    )
    counts = {s: getattr(r.stats, f) for f, s in STATS_SERIES.items()}
    assert counts == _series(mo.registry)
    assert r.stats.expansions > 0


@pytest.mark.parametrize("jobs", (1, 2))
def test_resumed_stats_add_this_runs_registry_to_the_snapshot(tmp_path, jobs):
    program = CORPUS["philosophers_3"]()
    opts = _options("stubborn", True, False, jobs)
    path = str(tmp_path / "snap.ckpt")
    explore(
        program, options=opts,
        checkpointer=Checkpointer(path, every=5, stop_after=1),
    )
    base = read_snapshot(path)["stats"]
    mo = MetricsObserver()
    r = explore(program, options=opts, resume_from=path, observers=(mo,))
    assert r.stats.resumed and not r.stats.truncated
    delta = {
        s: getattr(r.stats, f) - getattr(base, f)
        for f, s in STATS_SERIES.items()
    }
    assert delta == _series(mo.registry)
    assert delta["explore.expansions"] > 0


def test_evicted_metrics_observer_still_receives_complete_counts():
    mo = MetricsObserver()
    # the first dispatch (the initial configuration's) evicts it
    with chaos.injected("observer", times=1):
        r = explore(CORPUS["mutex_counter"](), "stubborn", observers=(mo,))
    assert r.stats.degraded_observers == 1
    reg = mo.registry
    assert reg.value("explore.observer_faults") == 1
    assert reg.value("explore.configs") == r.stats.num_configs
    assert reg.value("explore.edges") == r.stats.num_edges
    assert reg.value("graph.configs") == r.stats.num_configs
