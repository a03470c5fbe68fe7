"""Unit tests for the parallel backend: composition rules,
budgets, stats/metrics surface, and the ladder hookup.

Graph/result equivalence against the serial reference is covered by
``test_parallel_differential.py`` (corpus × policy × jobs matrix) and
``tests/properties/test_parallel_random.py`` (seeded random programs).
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.explore import ExploreOptions, explore
from repro.metrics import MetricsObserver
from repro.programs.corpus import CORPUS
from repro.resilience import Budgets, Checkpointer, explore_resilient
from repro.util.errors import ReproError


def _opts(**kw) -> ExploreOptions:
    kw.setdefault("backend", "parallel")
    kw.setdefault("jobs", 2)
    return ExploreOptions(**kw)


# --------------------------------------------------------------------------
# composition rules
# --------------------------------------------------------------------------


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        explore(CORPUS["mutex_counter"](), options=ExploreOptions(backend="gpu"))


def test_bad_jobs_rejected():
    with pytest.raises(ValueError, match="jobs"):
        explore(CORPUS["mutex_counter"](), options=_opts(jobs=0))


def test_sleep_sets_compose():
    """Sleep sets compose with ``backend="parallel"``: the run keeps the
    parallel tag and yields the serial sleep driver's graph."""
    par = explore(CORPUS["mutex_counter"](), options=_opts(sleep=True))
    ser = explore(
        CORPUS["mutex_counter"](), options=ExploreOptions(sleep=True)
    )
    assert par.stats.backend == "parallel"
    assert par.graph.configs == ser.graph.configs
    assert par.graph.edges == ser.graph.edges
    assert par.stats.expansions == ser.stats.expansions


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("name", ["mutex_counter", "philosophers_3"])
def test_sleep_runs_start_no_workers(monkeypatch, name, jobs):
    """Sleep-set pruning follows one DFS order, so a parallel sleep run
    is the serial sleep driver: no worker pool, the serial graph, and
    stats tagged with the requested backend and jobs."""
    from repro.explore import parallel

    def no_pool(*args, **kwargs):
        raise AssertionError("a sleep-set run started a worker pool")

    monkeypatch.setattr(parallel, "_Pool", no_pool)
    program = CORPUS[name]()
    ser = explore(program, options=ExploreOptions(sleep=True))
    par = explore(program, options=_opts(sleep=True, jobs=jobs))
    assert par.stats.backend == "parallel"
    assert par.stats.jobs == jobs
    assert par.graph.configs == ser.graph.configs
    assert par.graph.edges == ser.graph.edges
    assert par.graph.terminal == ser.graph.terminal
    assert par.stats.expansions == ser.stats.expansions


def test_serial_runs_never_load_the_parallel_backend():
    """``repro.explore`` imports the backend on the first parallel run
    only, so serial set-up pays for neither it nor multiprocessing."""
    code = (
        "import sys\n"
        "from repro.explore import explore\n"
        "from repro.programs.corpus import CORPUS\n"
        "explore(CORPUS['mutex_counter'](), 'stubborn')\n"
        "assert 'repro.explore.parallel' not in sys.modules\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_explore_parallel_rejects_sleep_options():
    from repro.explore import explore_parallel

    with pytest.raises(ValueError, match="sleep"):
        explore_parallel(CORPUS["mutex_counter"](), _opts(sleep=True))


def test_checkpointer_composes(tmp_path):
    """Checkpoints are written at quiescent points (no ReproError)."""
    ck = Checkpointer(str(tmp_path / "snap.ckpt"), every=25)
    r = explore(
        CORPUS["philosophers_3"](),
        options=_opts(policy="stubborn"),
        checkpointer=ck,
    )
    assert not r.stats.truncated
    assert r.stats.checkpoints_written >= 1


def test_resume_missing_snapshot_rejected(tmp_path):
    with pytest.raises(ReproError, match="snapshot"):
        explore(
            CORPUS["mutex_counter"](),
            options=_opts(),
            resume_from=str(tmp_path / "snap.ckpt"),
        )


def test_serial_backend_unchanged_by_new_fields():
    r = explore(CORPUS["mutex_counter"](), options=ExploreOptions())
    assert r.stats.backend == "serial"
    assert r.stats.jobs == 1
    assert r.stats.shard_sizes == ()
    assert r.stats.shard_balance is None
    assert ExploreOptions().describe() == "full"


# --------------------------------------------------------------------------
# stats & metrics surface
# --------------------------------------------------------------------------


def test_parallel_stats_fields():
    r = explore(
        CORPUS["philosophers_3"](), options=_opts(policy="stubborn", jobs=2)
    )
    s = r.stats
    assert s.backend == "parallel"
    assert s.jobs == 2
    assert s.shard_sizes == s.worker_expansions
    assert s.shard_balance is not None and s.shard_balance >= 1.0
    # every non-terminal configuration is expanded once, by one worker
    assert len(s.worker_expansions) == 2
    assert sum(s.worker_expansions) == (
        s.expansions - s.num_terminated - s.num_faults
    )
    assert s.handoffs > 0  # the initial configuration ships in full
    assert 0 < s.batches <= 2 * s.num_configs
    assert s.steals == s.cand_msgs == s.cand_suppressed == 0
    assert s.worker_restarts == 0
    assert s.stubborn is not None and s.stubborn.steps > 0
    assert r.options.describe() == "stubborn@j2"


def test_parallel_metrics():
    mo = MetricsObserver()
    r = explore(
        CORPUS["philosophers_3"](),
        options=_opts(policy="full", jobs=2),
        observers=(mo,),
    )
    reg = mo.registry
    assert reg.counter("parallel.handoffs").value == r.stats.handoffs
    assert reg.counter("parallel.steals").value == r.stats.steals
    assert reg.gauge("parallel.shard_balance").value == pytest.approx(
        r.stats.shard_balance
    )
    # the intern hit/miss telemetry stays comparable across backends:
    # misses = unique configs, hits = rediscoveries of visited ones
    assert reg.counter("explore.intern.misses").value == r.stats.num_configs
    assert reg.counter("explore.intern.hits").value > 0
    # observers saw every configuration and every edge at merge time
    assert reg.counter("explore.configs").value == r.stats.num_configs
    assert reg.counter("explore.edges").value == r.stats.num_edges
    assert reg.gauge("graph.configs").value == r.stats.num_configs


# --------------------------------------------------------------------------
# budgets
# --------------------------------------------------------------------------


def test_configs_budget_truncates_gracefully():
    r = explore(
        CORPUS["philosophers_3"](), options=_opts(policy="full", max_configs=50)
    )
    assert r.stats.truncated
    assert r.stats.truncation_reason == "configs"
    # the master cuts where the serial loop cuts: every edge endpoint
    # is a real node
    for e in r.graph.edges:
        assert 0 <= e.src < r.graph.num_configs
        assert 0 <= e.dst < r.graph.num_configs


def test_time_budget_truncates_gracefully():
    r = explore(
        CORPUS["philosophers_3"](),
        options=_opts(policy="full", time_limit_s=0.0),
    )
    assert r.stats.truncated
    assert r.stats.truncation_reason == "time"
    # the initial configuration still lands in the graph
    assert r.stats.num_configs >= 1


# --------------------------------------------------------------------------
# resilience-ladder composition
# --------------------------------------------------------------------------


def test_ladder_composes_with_parallel_backend():
    rr = explore_resilient(
        CORPUS["philosophers_3"](),
        budgets=Budgets(max_configs=200),
        backend="parallel",
        jobs=2,
    )
    assert rr.exact
    assert rr.rung == "stubborn"  # full blew the 200-config budget
    assert rr.result.stats.backend == "parallel"
    assert rr.result.stats.jobs == 2
    assert rr.trail == ("full->stubborn: configs",)
