"""MetricsObserver ↔ engine integration: the deep instrumentation."""

import pytest

from repro.explore import ExploreOptions, explore
from repro.explore.explorer import PEAK_RSS
from repro.metrics import MetricsObserver, MetricsRegistry, attached_registry
from repro.programs.philosophers import philosophers
from repro.programs.synthetic import local_heavy


def test_graph_counters_match_stats(fig2):
    mo = MetricsObserver()
    r = explore(fig2, "full", observers=(mo,))
    reg = mo.registry
    assert reg.counter("explore.edges").value == r.stats.num_edges
    # fresh on_config announcements include the initial configuration
    # (same contract as the parallel merge)
    assert reg.counter("explore.configs").value == r.stats.num_configs
    assert reg.counter("explore.expansions").value == r.stats.expansions
    assert (
        reg.counter("explore.terminal.terminated").value
        == r.stats.num_terminated
    )
    assert reg.gauge("graph.configs").value == r.stats.num_configs


def test_intern_hit_rate_identity(fig2):
    # every add_config is either a hit or a miss; misses intern fresh
    # configurations (including the initial one), and every edge target
    # plus the initial config is one add_config call
    mo = MetricsObserver()
    r = explore(fig2, "full", observers=(mo,))
    hits = mo.registry.counter("explore.intern.hits").value
    misses = mo.registry.counter("explore.intern.misses").value
    assert misses == r.stats.num_configs
    assert hits + misses == r.stats.num_edges + 1


def test_frontier_depth_observed(fig2):
    mo = MetricsObserver()
    r = explore(fig2, "full", observers=(mo,))
    fd = mo.registry.histogram("explore.frontier_depth")
    assert fd.count == r.stats.expansions
    assert fd.max >= 1


def test_stubborn_metrics(fig2):
    mo = MetricsObserver()
    r = explore(fig2, "stubborn", observers=(mo,))
    reg = mo.registry
    se = reg.histogram("stubborn.enabled")
    assert se.count == r.stats.stubborn.steps
    assert se.total == r.stats.stubborn.enabled_total
    assert reg.histogram("stubborn.chosen").total == r.stats.stubborn.chosen_total
    assert (
        reg.counter("stubborn.singleton_steps").value
        == r.stats.stubborn.singleton_steps
    )
    assert reg.histogram("stubborn.closure_iterations").count > 0


def test_stubborn_proc_metrics(fig2):
    mo = MetricsObserver()
    r = explore(fig2, "stubborn-proc", observers=(mo,))
    assert (
        mo.registry.histogram("stubborn.enabled").count
        == r.stats.stubborn.steps
    )


def test_coarsen_block_length_histogram():
    mo = MetricsObserver()
    explore(local_heavy(2, 4), "full", coarsen=True, observers=(mo,))
    bl = mo.registry.histogram("coarsen.block_len")
    assert bl.count > 0
    assert bl.max >= 3  # thread-local runs fuse (the coarsening best case)


def test_sleep_driver_reports_metrics(fig2):
    mo = MetricsObserver()
    r = explore(fig2, "stubborn", sleep=True, observers=(mo,))
    reg = mo.registry
    assert reg.counter("explore.expansions").value == r.stats.expansions
    assert reg.timer("explore.wall_s").count == 1
    assert reg.gauge("explore.expansions_per_s").value > 0


def test_wall_clock_and_rate(fig2):
    mo = MetricsObserver()
    r = explore(fig2, "full", observers=(mo,))
    wall = mo.registry.timer("explore.wall_s")
    assert wall.count == 1 and wall.total_s > 0
    rate = mo.registry.gauge("explore.expansions_per_s").value
    assert abs(rate - r.stats.expansions / wall.total_s) < 1e-6


def test_deterministic_except_timing(fig2):
    a, b = MetricsObserver(), MetricsObserver()
    explore(fig2, "stubborn", coarsen=True, observers=(a,))
    explore(fig2, "stubborn", coarsen=True, observers=(b,))
    sa, sb = a.snapshot(), b.snapshot()
    # peak RSS depends on what the process ran before, so it is stripped
    # like the timings (as the cross-backend metric checks do)
    timing = {"explore.wall_s", "explore.expansions_per_s", PEAK_RSS}
    assert {k: v for k, v in sa.items() if k not in timing} == {
        k: v for k, v in sb.items() if k not in timing
    }


def test_attached_registry_detection():
    mo = MetricsObserver()
    assert attached_registry((mo,)) is mo.registry
    assert attached_registry(()) is None
    reg = MetricsRegistry()
    assert attached_registry((MetricsObserver(reg),)) is reg


def test_default_path_allocates_no_registry(fig2):
    # zero-cost contract: without a MetricsObserver the graph carries no
    # registry and no instrument is ever created
    r = explore(fig2, "stubborn", coarsen=True)
    assert r.graph.metrics is None


def test_results_identical_with_and_without_metrics():
    prog = philosophers(3)
    plain = explore(prog, "stubborn", coarsen=True, sleep=True)
    mo = MetricsObserver()
    instrumented = explore(
        prog, "stubborn", coarsen=True, sleep=True, observers=(mo,)
    )
    assert plain.final_stores() == instrumented.final_stores()
    assert plain.stats.num_configs == instrumented.stats.num_configs
    assert plain.stats.num_edges == instrumented.stats.num_edges


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_attached_metrics_observer_gets_the_run(jobs):
    """A run publishes its registry into each attached MetricsObserver,
    not only the first, on both backends."""
    first, second = MetricsObserver(), MetricsObserver()
    opts = ExploreOptions(
        policy="stubborn", coarsen=True, jobs=jobs,
        backend="parallel" if jobs > 1 else "serial",
    )
    r = explore(philosophers(3), options=opts, observers=(first, second))
    snap = first.snapshot()
    assert snap["explore.expansions"]["value"] == r.stats.expansions > 0
    assert snap["graph.configs"]["value"] == r.stats.num_configs
    assert second.snapshot() == snap
