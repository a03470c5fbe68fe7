"""Worker-fault chaos: the parallel backend survives killed and wedged
worker processes.

The ``worker`` failure point hard-exits a shard owner (``os._exit``) at
the top of a task execution — the harshest interruption short of a real
OOM kill: no cleanup, no final dump, in-flight work lost.  The
``worker-hang`` point wedges the worker instead, which must trip the
master's progress watchdog rather than deadlock the run.

Contract under both faults: the master tears the pool down, restarts the
attempt, and the final merged graph is *identical* to the fault-free
parallel run (which the differential suite pins to serial).  Budgets are
armed ``shared=True`` so a firing inside a forked child draws down the
same counter the restarted pool consults — ``times=1`` means exactly one
kill across the whole run.
"""

from __future__ import annotations

import pytest

from repro.explore import ExploreOptions, explore
from repro.programs.corpus import CORPUS
from repro.resilience import chaos
from repro.util.errors import ReproError


@pytest.fixture(autouse=True)
def no_leaked_injector():
    assert chaos.active() is None
    yield
    leaked = chaos.active() is not None
    chaos.uninstall()
    assert not leaked, "test left a chaos injector installed"


def _opts(**kw) -> ExploreOptions:
    kw.setdefault("policy", "stubborn")
    kw.setdefault("backend", "parallel")
    kw.setdefault("jobs", 2)
    return ExploreOptions(**kw)


def test_killed_worker_restarts_and_completes_identically():
    program = CORPUS["philosophers_3"]()
    clean = explore(program, options=_opts())
    with chaos.injected("worker", shared=True) as inj:
        r = explore(program, options=_opts())
    assert inj.armed_fired("worker") == 1  # fired inside a forked child
    assert r.stats.worker_restarts == 1
    assert not r.stats.truncated
    # in-flight work of the killed worker was not lost: the retried run
    # merges to the exact same canonical graph
    assert r.graph.configs == clean.graph.configs
    assert r.graph.edges == clean.graph.edges
    assert r.graph.terminal == clean.graph.terminal
    assert r.final_stores() == clean.final_stores()


def test_mid_run_kill_after_offset_completes_identically():
    program = CORPUS["philosophers_3"]()
    clean = explore(program, options=_opts())
    # let some work complete first so the kill lands mid-exploration,
    # with real state to throw away
    with chaos.injected("worker", after=40, shared=True) as inj:
        r = explore(program, options=_opts())
    assert inj.armed_fired("worker") == 1
    assert r.stats.worker_restarts == 1
    assert r.graph.configs == clean.graph.configs
    assert r.graph.edges == clean.graph.edges


def test_hung_worker_trips_watchdog_not_deadlock():
    program = CORPUS["philosophers_3"]()
    clean = explore(program, options=_opts())
    with chaos.injected("worker-hang", shared=True):
        r = explore(program, options=_opts(parallel_watchdog_s=1.0))
    assert r.stats.worker_restarts == 1
    assert not r.stats.truncated
    assert r.graph.configs == clean.graph.configs
    assert r.graph.edges == clean.graph.edges


def test_unlimited_kills_surface_as_repro_error():
    program = CORPUS["philosophers_3"]()
    with chaos.injected("worker", times=-1, shared=True):
        with pytest.raises(ReproError, match="failed after"):
            explore(program, options=_opts())


def test_kill_between_checkpoint_and_finish_still_resumable(tmp_path):
    """A worker kill composes with checkpointing: the interrupted-then-
    resumed run under chaos still matches the fault-free reference."""
    from repro.resilience.checkpoint import Checkpointer

    program = CORPUS["philosophers_3"]()
    reference = explore(program, options=_opts())
    path = str(tmp_path / "snap.ckpt")
    with chaos.injected("worker", after=20, shared=True):
        first = explore(
            program,
            options=_opts(),
            checkpointer=Checkpointer(path, every=11, stop_after=1),
        )
        resumed = explore(program, options=_opts(), resume_from=path)
    assert first.stats.truncation_reason == "interrupted"
    assert resumed.stats.resumed
    assert resumed.graph.configs == reference.graph.configs
    assert resumed.graph.edges == reference.graph.edges
    assert resumed.stats.expansions == reference.stats.expansions
