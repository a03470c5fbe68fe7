"""Exploration driver tests (full policy, graph construction, stats)."""

import pytest

from repro.explore import (
    DEADLOCK,
    FAULT,
    TERMINATED,
    ExploreOptions,
    TransitionLogObserver,
    explore,
)
from repro.lang import parse_program
from repro.programs.paper import deadlock_pair, fig2_shasha_snir


def test_fig2_outcomes_exactly_three(fig2):
    r = explore(fig2, "full")
    assert sorted(r.global_values("x", "y")) == [(0, 1), (1, 0), (1, 1)]


def test_fig2_terminal_counts(fig2):
    r = explore(fig2, "full")
    assert r.stats.num_deadlocks == 0
    assert r.stats.num_faults == 0
    assert r.stats.num_terminated >= 3


def test_single_thread_linear_graph():
    prog = parse_program("var g = 0; func main() { g = 1; g = 2; g = 3; }")
    r = explore(prog, "full")
    # linear: assign, assign, assign, return → 5 configs in a chain
    assert r.stats.num_configs == 5
    assert r.stats.num_edges == 4


def test_diamond_merges_states():
    # two independent writes to different globals: the diamond closes
    prog = parse_program(
        "var a = 0; var b = 0; func main() { cobegin { a = 1; } { b = 1; } }"
    )
    r = explore(prog, "full")
    terminal = r.graph.terminals(TERMINATED)
    assert len(terminal) == 1  # single merged final configuration


def test_deadlock_classified():
    r = explore(deadlock_pair(), "full")
    assert r.stats.num_deadlocks == 1
    dl = r.deadlock_configs()[0]
    assert dl.fault is None


def test_fault_classified():
    prog = parse_program("var g = 0; func main() { g = 1 / g; }")
    r = explore(prog, "full")
    assert r.graph.terminals(FAULT)
    assert any("div-by-zero" in m for m in r.fault_messages())


def test_max_configs_truncation():
    prog = parse_program(
        "var g = 0; func main() { while (true) { g = g + 1; } }"
    )
    opts = ExploreOptions(policy="full", max_configs=50)
    r = explore(prog, options=opts)
    assert r.stats.truncated


def test_infinite_state_space_without_bound_grows():
    # monotone counter: every state distinct; truncation must kick in
    prog = parse_program("var g = 0; func main() { while (true) { g = g + 1; } }")
    r = explore(prog, options=ExploreOptions(policy="full", max_configs=30))
    assert r.stats.num_configs >= 30


def test_cyclic_state_space_terminates():
    # flag flips forever: only finitely many states — exploration closes
    prog = parse_program(
        "var g = 0; func main() { while (true) { g = 1 - g; } }"
    )
    r = explore(prog, "full")
    assert not r.stats.truncated
    assert r.stats.num_terminated == 0  # diverges, no terminal states


def test_observer_sees_every_edge(fig2):
    obs = TransitionLogObserver()
    r = explore(fig2, "full", observers=(obs,))
    assert len(obs.edges) == r.stats.num_edges


def test_unknown_policy_rejected(fig2):
    with pytest.raises(ValueError):
        explore(fig2, "bogus")


def test_determinism_same_graph(fig2):
    a = explore(fig2, "full")
    b = explore(fig2, "full")
    assert a.stats.num_configs == b.stats.num_configs
    assert [e.labels for e in a.graph.edges] == [e.labels for e in b.graph.edges]


def test_edges_carry_actions(fig2):
    r = explore(fig2, "full")
    e = r.graph.edges[0]
    assert e.actions and e.actions[0].label


def test_final_stores_includes_heap():
    prog = parse_program(
        "var p = 0; func main() { m1: p = malloc(1); *p = 9; }"
    )
    r = explore(prog, options=ExploreOptions(policy="full"))
    stores = r.final_stores()
    ((globals_, heap, fault),) = stores
    assert heap[0][1] == (9,)


def test_result_summary(fig2):
    r = explore(fig2, "full")
    summary = r.graph.result_summary()
    assert summary[TERMINATED] == r.stats.num_terminated
    assert summary[DEADLOCK] == 0
