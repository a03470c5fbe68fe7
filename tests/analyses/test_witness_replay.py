"""Witness replay tests: explored paths are genuine executions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses.witness import (
    deadlock_witness,
    fault_witness,
    outcome_witness,
    replay,
    shortest_path_to,
)
from repro.explore import explore
from repro.programs.paper import deadlock_pair, fig2_shasha_snir
from tests.properties.test_reduction_soundness import programs


def test_replay_deadlock_reaches_deadlocked_config():
    prog = deadlock_pair()
    r = explore(prog, "full")
    w = deadlock_witness(r)
    final = replay(prog, w)
    assert final == r.graph.configs[w.target]


def test_replay_outcome(fig2):
    r = explore(fig2, "full")
    w = outcome_witness(r, x=1, y=1)
    final = replay(fig2, w)
    names = fig2.global_names
    vals = dict(zip(names, final.globals))
    # the witness path reaches the target configuration; x=1,y=1 holds
    # at the terminal the BFS selected
    target = r.graph.configs[w.target]
    assert final == target


def test_replay_fault():
    from repro.lang import parse_program

    prog = parse_program(
        "var g = 0; func main() { cobegin { g = 1; } { f1: g = 2 / g; } }"
    )
    r = explore(prog, "full")
    w = fault_witness(r)
    final = replay(prog, w)
    assert final.fault is not None


@given(prog=programs(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_every_terminal_witness_replays(prog, data):
    r = explore(prog, "full")
    terminals = r.graph.terminals()
    if not terminals:
        return
    target = data.draw(st.sampled_from(terminals))
    w = shortest_path_to(r.graph, target)
    assert w is not None
    final = replay(prog, w)
    assert final == r.graph.configs[target]


@given(prog=programs(), data=st.data())
@settings(max_examples=20, deadline=None)
def test_reduced_graph_witnesses_are_real_executions(prog, data):
    """Even in a coarsened+stubborn graph, every edge block replays as a
    genuine execution sequence (the block actions flatten into steps)."""
    r = explore(prog, "stubborn", coarsen=True)
    terminals = r.graph.terminals()
    if not terminals:
        return
    target = data.draw(st.sampled_from(terminals))
    w = shortest_path_to(r.graph, target)
    assert w is not None
    final = replay(prog, w)
    assert final == r.graph.configs[target]


def test_out_of_order_witness_is_rejected():
    """A witness that runs a guarded step before its enabler is no
    execution: replay raises a typed error (not an ``assert``, which
    ``python -O`` strips) instead of executing the disabled guard."""
    import dataclasses

    import pytest

    from repro.lang import parse_program
    from repro.util.errors import ReproError, ScheduleError

    prog = parse_program(
        "var f = 0; var g = 0;"
        "func main() { cobegin { w: assume(f == 1); g = 1; } { s: f = 1; } }"
    )
    r = explore(prog, "full")
    w = outcome_witness(r, f=1, g=1)
    labels = [label for _, label in w.steps]
    assert labels.index("s") < labels.index("w")
    assert replay(prog, w) == r.graph.configs[w.target]

    # move the guard ahead of the write that enables it
    steps = list(w.steps)
    guard = steps.pop(labels.index("w"))
    steps.insert(labels.index("s"), guard)
    bogus = dataclasses.replace(w, steps=tuple(steps))
    with pytest.raises(ScheduleError, match="not enabled"):
        replay(prog, bogus)
    assert issubclass(ScheduleError, ReproError)

    # a step whose label differs from what the process executes
    pid, _ = w.steps[-1]
    relabelled = dataclasses.replace(
        w, steps=w.steps[:-1] + ((pid, "no-such-label"),)
    )
    with pytest.raises(ScheduleError, match="executed"):
        replay(prog, relabelled)
