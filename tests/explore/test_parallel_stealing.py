"""Batch placement under skew, and shared-memory hygiene.

Affinity and the even-share rule usually split each BFS level across
the workers.  The first test *forces* skew by monkeypatching
:meth:`repro.explore.parallel._Remote._place` to put every
configuration of every level on worker 0, in full: the other worker
idles, and the graph must still be the serial one, because placement
decides where a configuration is expanded, never where its result
lands.

The second half audits ``/dev/shm``: every transport segment the backend
creates must be unlinked by the master — after clean runs, after
worker-kill restarts, and after runs that die with an error.  Segments
of other live processes on the host are not counted.
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
# placement under forced skew
# --------------------------------------------------------------------------


def test_skewed_batches_keep_the_serial_graph(monkeypatch):
    from repro.explore import parallel as par

    program = philosophers(4)
    serial = explore(program, options=ExploreOptions(policy="stubborn"))

    def all_on_worker_0(self, level):
        encode = self.pool.store.encode_config
        return [(0, encode(self.graph.configs[c])) for c in level]

    monkeypatch.setattr(par._Remote, "_place", all_on_worker_0)
    skewed = explore(program, options=_opts())

    s = skewed.stats
    assert s.worker_expansions[1] == 0
    assert s.worker_expansions[0] == s.expansions - s.num_terminated
    assert s.handoffs == s.worker_expansions[0]
    assert skewed.graph.configs == serial.graph.configs
    assert skewed.graph.edges == serial.graph.edges
    assert skewed.graph.terminal == serial.graph.terminal
    assert skewed.stats.stubborn == serial.stats.stubborn


def test_batch_telemetry_matches_stats():
    from repro.metrics import MetricsObserver

    mo = MetricsObserver()
    r = explore(philosophers(4), options=_opts(), observers=(mo,))
    reg = mo.registry
    assert reg.counter("parallel.batches").value == r.stats.batches > 0
    assert reg.counter("parallel.handoffs").value == r.stats.handoffs > 0
    assert reg.counter("parallel.msg_bytes").value == r.stats.msg_bytes
    # both workers took part, and the placement kept them balanced
    assert min(r.stats.worker_expansions) > 0
    assert r.stats.shard_balance < 1.5


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
