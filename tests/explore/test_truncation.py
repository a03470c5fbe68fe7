"""Truncation paths: ``max_configs`` and ``time_limit_s`` in both the
BFS and the sleep-set (DFS) drivers.

Graceful degradation contract: a truncated exploration sets
``stats.truncated``, keeps graph/stats consistent, and still notifies
observers with ``on_done`` — long sweeps degrade instead of hanging.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.explore import ExploreOptions, Observer, explore
from repro.lang import parse_program
from repro.programs.corpus import CORPUS
from repro.resilience.checkpoint import Checkpointer, read_snapshot

INFINITE_SRC = "var g = 0; func main() { while (true) { g = g + 1; } }"

INFINITE_PAR_SRC = """
var g = 0; var h = 0;
func main() {
    cobegin
    { while (true) { g = g + 1; } }
    { while (true) { h = h + 1; } }
}
"""


class DoneRecorder(Observer):
    def __init__(self):
        self.done = 0
        self.configs = 0

    def on_config(self, graph, cid, config, fresh, status):
        if fresh:
            self.configs += 1

    def on_done(self, graph):
        self.done += 1


@pytest.fixture
def infinite():
    return parse_program(INFINITE_SRC)


@pytest.fixture
def infinite_par():
    return parse_program(INFINITE_PAR_SRC)


# ----------------------------------------------------------------------
# max_configs
# ----------------------------------------------------------------------


def test_bfs_max_configs_truncates_and_notifies(infinite):
    rec = DoneRecorder()
    opts = ExploreOptions(policy="full", max_configs=30)
    r = explore(infinite, options=opts, observers=(rec,))
    assert r.stats.truncated
    assert rec.done == 1
    assert r.stats.num_configs == r.graph.num_configs
    assert 30 <= r.stats.num_configs <= 32


def test_sleep_max_configs_truncates_and_notifies(infinite_par):
    rec = DoneRecorder()
    opts = ExploreOptions(policy="full", sleep=True, max_configs=30)
    r = explore(infinite_par, options=opts, observers=(rec,))
    assert r.stats.truncated
    assert rec.done == 1
    assert r.stats.num_configs == r.graph.num_configs


def test_stubborn_max_configs_truncates(infinite_par):
    opts = ExploreOptions(policy="stubborn", max_configs=25)
    r = explore(infinite_par, options=opts)
    assert r.stats.truncated


# ----------------------------------------------------------------------
# time_limit_s
# ----------------------------------------------------------------------


def test_bfs_time_limit_zero_truncates_immediately(infinite):
    rec = DoneRecorder()
    opts = ExploreOptions(policy="full", time_limit_s=0.0)
    r = explore(infinite, options=opts, observers=(rec,))
    assert r.stats.truncated
    assert rec.done == 1
    assert r.stats.expansions == 0
    assert r.stats.num_configs == 1  # only the initial configuration


def test_sleep_time_limit_zero_truncates_immediately(infinite_par):
    rec = DoneRecorder()
    opts = ExploreOptions(policy="full", sleep=True, time_limit_s=0.0)
    r = explore(infinite_par, options=opts, observers=(rec,))
    assert r.stats.truncated
    assert rec.done == 1
    assert r.stats.expansions == 0
    assert r.stats.num_configs == 1


def test_bfs_time_limit_expires_mid_run(infinite):
    # a tiny but non-zero budget: truncation happens partway, the
    # partial graph stays consistent
    opts = ExploreOptions(policy="full", time_limit_s=0.02, max_configs=10**9)
    r = explore(infinite, options=opts)
    assert r.stats.truncated
    assert r.stats.num_configs == r.graph.num_configs
    assert r.stats.num_edges == r.graph.num_edges


def test_generous_time_limit_does_not_truncate(fig2):
    opts = ExploreOptions(policy="full", time_limit_s=60.0)
    r = explore(fig2, options=opts)
    assert not r.stats.truncated
    base = explore(fig2, "full")
    assert r.stats.num_configs == base.stats.num_configs


def test_generous_time_limit_sleep_does_not_truncate(fig2):
    opts = ExploreOptions(policy="full", sleep=True, time_limit_s=60.0)
    r = explore(fig2, options=opts)
    assert not r.stats.truncated


# ----------------------------------------------------------------------
# a resumed snapshot already over max_configs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("sleep", [False, True], ids=["fifo", "sleep-stack"])
def test_resumed_snapshot_over_budget_runs_to_its_next_fresh_config(
    tmp_path, sleep
):
    """The budget is checked once per fresh configuration, so a snapshot
    that already holds more than ``max_configs`` keeps expanding and
    truncates right after inserting its next fresh configuration —
    exactly where an uninterrupted run whose budget is the snapshot's
    size stops."""
    program = CORPUS["philosophers_3"]()
    opts = ExploreOptions(policy="full", sleep=sleep)
    path = str(tmp_path / "snap.ckpt")
    explore(
        program, options=opts,
        checkpointer=Checkpointer(path, every=7, stop_after=1),
    )
    snap = read_snapshot(path)
    size = snap["graph"].num_configs
    resumed = explore(
        program, options=dataclasses.replace(opts, max_configs=1),
        resume_from=path,
    )
    straight = explore(
        program, options=dataclasses.replace(opts, max_configs=size)
    )
    assert resumed.stats.truncation_reason == "configs"
    assert resumed.graph.num_configs == size + 1
    assert resumed.stats.expansions > snap["stats"].expansions
    assert resumed.graph.configs == straight.graph.configs
    assert resumed.graph.edges == straight.graph.edges
    assert resumed.stats.expansions == straight.stats.expansions
