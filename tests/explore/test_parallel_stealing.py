"""Work-stealing under skew, and shared-memory hygiene.

The hash partition usually spreads configurations evenly, which makes
organic steals rare and hard to assert on.  These tests *force* skew by
monkeypatching :func:`repro.explore.parallel.shard_of` to dump every
configuration on shard 0 — the patched global is inherited by the forked
workers — and then require the idle worker to live off stolen batches.

The second half audits ``/dev/shm``: every transport segment the backend
creates must be unlinked by the master's ``finally`` — after clean runs,
after worker-kill retries, and after runs that die with an error.
Segments of other live processes on the host are not counted.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.explore import ExploreOptions, explore
from repro.programs.corpus import CORPUS
from repro.programs.philosophers import philosophers
from repro.resilience import chaos
from repro.semantics.transport import shm_available
from repro.util.errors import ReproError


def _opts(**kw) -> ExploreOptions:
    kw.setdefault("policy", "stubborn")
    kw.setdefault("backend", "parallel")
    kw.setdefault("jobs", 2)
    return ExploreOptions(**kw)


# --------------------------------------------------------------------------
# stealing under forced skew
# --------------------------------------------------------------------------


def test_skewed_shards_force_steals_and_rebalance(monkeypatch):
    from repro.explore import parallel as par

    program = philosophers(4)
    clean = explore(program, options=_opts())

    monkeypatch.setattr(par, "shard_of", lambda config, n: 0)
    skewed = explore(program, options=_opts())

    s = skewed.stats
    assert s.steals > 0
    # shard 0 owns every configuration...
    assert s.shard_sizes[0] == s.num_configs and s.shard_sizes[1] == 0
    # ...but worker 1 executed a real share of the work via stealing
    assert s.worker_expansions[1] > 0
    total = sum(s.worker_expansions)
    assert min(s.worker_expansions) >= total // 20

    # skew moves *where* work runs, never what is explored: the merge is
    # canonical by structural digest, so even the node numbering agrees
    assert skewed.graph.configs == clean.graph.configs
    assert skewed.graph.edges == clean.graph.edges
    assert skewed.graph.terminal == clean.graph.terminal
    assert skewed.final_stores() == clean.final_stores()


def test_natural_runs_record_steal_telemetry():
    from repro.metrics import MetricsObserver

    mo = MetricsObserver()
    r = explore(philosophers(4), options=_opts(), observers=(mo,))
    assert mo.registry.counter("parallel.steals").value == r.stats.steals
    if r.stats.steals:
        h = mo.registry.histogram("parallel.steal_batch")
        assert h.count == r.stats.steals


# --------------------------------------------------------------------------
# /dev/shm hygiene
# --------------------------------------------------------------------------

_SHM_DIR = "/dev/shm"

needs_shm = pytest.mark.skipif(
    not (shm_available() and os.path.isdir(_SHM_DIR)),
    reason="POSIX shared memory not available",
)


def _segments() -> set:
    return set(glob.glob(os.path.join(_SHM_DIR, "repro-shm-*")))


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by another user
        return True
    return True


def _leaked(before: set) -> set:
    """Segments that appeared since *before* and whose producer (the pid
    embedded in the name, ``repro-shm-<pid>-<token>-<i>``) is this
    process or one that has exited.  A live producer's segments belong
    to another exploration sharing the host's ``/dev/shm``, not to this
    test."""
    me = os.getpid()
    leaked = set()
    for path in _segments() - before:
        pid = int(os.path.basename(path).split("-")[2])
        if pid == me or not _alive(pid):
            leaked.add(path)
    return leaked


@needs_shm
def test_no_segment_leak_after_clean_run():
    before = _segments()
    explore(CORPUS["philosophers_3"](), options=_opts())
    assert not _leaked(before)


@needs_shm
def test_no_segment_leak_after_worker_kill_retry():
    before = _segments()
    with chaos.injected("worker", shared=True):
        r = explore(CORPUS["philosophers_3"](), options=_opts())
    assert r.stats.worker_restarts == 1
    assert not _leaked(before)


@needs_shm
def test_no_segment_leak_after_fatal_failure():
    before = _segments()
    with chaos.injected("worker", times=-1, shared=True):
        with pytest.raises(ReproError):
            explore(CORPUS["philosophers_3"](), options=_opts())
    assert not _leaked(before)
