"""Clan-folding tests (§6.2)."""

import pytest

from repro.abstraction import clan_explore, taylor_explore
from repro.explore import TERMINATED, explore
from repro.lang import parse_program
from repro.programs.synthetic import identical_tasks


#: branch bodies with their own control flow: their jump targets must be
#: compared region-relative, like branch targets, or the branches never
#: group and the folded count grows with n
_CONTROL_SHAPES = (
    "while (x < 2) { x = x + 1; }",
    "if (x == 0) { x = 1; } else { x = 2; }",
)


def _identical_branches(body: str, n: int):
    return parse_program(
        "var x = 0; func main() { cobegin "
        + " ".join("{ " + body + " }" for _ in range(n))
        + " }"
    )


def test_clan_state_count_independent_of_n():
    counts = {n: clan_explore(identical_tasks(n, steps=1)).stats.num_states
              for n in (2, 3, 4)}
    assert counts[2] == counts[3] == counts[4]
    for body in _CONTROL_SHAPES:
        counts = {
            n: clan_explore(_identical_branches(body, n)).stats.num_states
            for n in (2, 3, 4)
        }
        assert counts[2] == counts[3] == counts[4], (body, counts)
        # the folded space still covers every concrete result
        prog = _identical_branches(body, 3)
        folded = clan_explore(prog)
        concrete = explore(prog, "full")
        results = concrete.graph.terminals(TERMINATED)
        assert results
        for cid in results:
            assert folded.covers_config(concrete.graph.configs[cid]), body


def test_clan_beats_full_for_many_tasks():
    prog = identical_tasks(6, steps=1)
    full = explore(prog, "full")
    clan = clan_explore(prog)
    assert clan.stats.num_states < full.stats.num_configs


def test_single_task_matches_taylor():
    prog = identical_tasks(1)
    assert (
        clan_explore(prog).stats.num_states
        == taylor_explore(prog).stats.num_states
    )


def test_distinct_branches_not_grouped():
    prog = parse_program(
        "var a = 0; var b = 0; func main() { cobegin { a = 1; } { b = 2; } }"
    )
    folded = clan_explore(prog)
    # different code: two separate clans spawn
    init_key = folded.initial_key
    spawned = [
        cfg for cfg in folded.table.values() if len(cfg.procs) == 3
    ]
    assert spawned  # parent + two singleton clans


def test_clan_visited_points_cover_concrete_labels():
    # clan folding deliberately identifies the identical branches, so
    # their distinct branch-region pcs in `main` collapse onto the
    # representative branch; coverage is checked on the *shared* code
    # (the task function) and on termination.
    prog = identical_tasks(3, steps=1)
    folded = clan_explore(prog)
    concrete = explore(prog, "full")
    concrete_task_points = set()
    for cfg in concrete.graph.configs:
        for p in cfg.procs:
            if p.frames:
                top = p.frames[-1]
                if top.func != "main":
                    concrete_task_points.add((top.func, top.pc, p.status))
    visited = folded.visited_points()
    assert concrete_task_points <= visited
    assert folded.terminal_states()


def test_identical_branches_same_literal_code_grouped():
    prog = parse_program(
        "var g = 0; func main() { cobegin { g = g + 1; } { g = g + 1; } { g = g + 1; } }"
    )
    folded = clan_explore(prog)
    # one clan for the three branches: spawn yields 2 processes total
    spawned = [cfg for cfg in folded.table.values() if len(cfg.procs) == 2]
    assert spawned
