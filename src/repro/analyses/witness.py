"""Witness extraction: shortest executions reaching a configuration.

The configuration graph is evidence; a *witness* turns it into an
explanation — the shortest interleaving that reaches a deadlock, a
fault, or any chosen outcome.  Useful both as a debugging aid (the
[MH89] side of the motivation) and in tests, where a claimed-reachable
result must be demonstrable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.explore.explorer import ExploreResult
from repro.explore.graph import DEADLOCK, FAULT, TERMINATED, ConfigGraph


@dataclass(frozen=True)
class Witness:
    """A shortest path ``initial → target`` through the explored graph."""

    target: int
    steps: tuple[tuple, ...]  # ((pid, label), ...) in execution order
    #: edge ids of the path, in order — lets the schedule generator
    #: (:mod:`repro.schedules`) canonicalize and replay-verify a witness
    eids: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def describe(self) -> str:
        lines = []
        for i, (pid, label) in enumerate(self.steps):
            lines.append(f"  {i + 1:3d}. thread {pid}: {label}")
        return "\n".join(lines)


def shortest_path_to(graph: ConfigGraph, target: int) -> Witness | None:
    """BFS from the initial configuration to *target*."""
    if target == graph.initial:
        return Witness(target=target, steps=())
    parent: dict[int, int] = {graph.initial: -1}
    via: dict[int, int] = {}
    queue: deque[int] = deque([graph.initial])
    while queue:
        cid = queue.popleft()
        for eid in graph.out_edges.get(cid, []):
            edge = graph.edges[eid]
            if edge.dst in parent:
                continue
            parent[edge.dst] = cid
            via[edge.dst] = eid
            if edge.dst == target:
                return _unwind(graph, target, parent, via)
            queue.append(edge.dst)
    return None


def _unwind(graph, target, parent, via) -> Witness:
    steps: list[tuple] = []
    eids: list[int] = []
    cid = target
    while parent[cid] != -1:
        eids.append(via[cid])
        edge = graph.edges[via[cid]]
        for action in reversed(edge.actions):
            steps.append((action.pid, action.label))
        cid = parent[cid]
    steps.reverse()
    eids.reverse()
    return Witness(target=target, steps=tuple(steps), eids=tuple(eids))


def deadlock_witness(result: ExploreResult) -> Witness | None:
    """Shortest execution reaching some deadlock (None if none exist)."""
    targets = result.graph.terminals(DEADLOCK)
    return _best(result.graph, targets)


def fault_witness(result: ExploreResult) -> Witness | None:
    """Shortest execution reaching some fault."""
    targets = result.graph.terminals(FAULT)
    return _best(result.graph, targets)


def outcome_witness(result: ExploreResult, **globals_values: int) -> Witness | None:
    """Shortest execution terminating with the given global values,
    e.g. ``outcome_witness(r, x=0, y=1)``.

    Only TERMINATED configurations qualify — a deadlocked configuration
    whose globals happen to match is not a terminating execution (it
    used to slip through the old ``fault is None`` filter, so a caller
    asking "can the program *finish* with x=1?" could get a deadlock
    path as its "yes").
    """
    program = result.program
    idx = {program.global_index(k): v for k, v in globals_values.items()}
    targets = [
        cid
        for cid in result.graph.terminals(TERMINATED)
        if all(result.graph.configs[cid].globals[i] == v for i, v in idx.items())
    ]
    return _best(result.graph, targets)


def replay(program, witness: Witness, *, opts=None):
    """Re-execute a witness concretely, step by step.

    Returns the final :class:`~repro.semantics.config.Config`; raises
    :class:`~repro.util.errors.ScheduleError` if a scheduled process is
    not enabled or executes a different statement than recorded — the
    cross-check that the explored graph's paths are genuine executions.
    """
    from repro.schedules.replay import replay_steps

    return replay_steps(program, witness.steps, opts=opts)


def _best(graph: ConfigGraph, targets: list[int]) -> Witness | None:
    best: Witness | None = None
    for t in targets:
        w = shortest_path_to(graph, t)
        if w is not None and (best is None or len(w) < len(best)):
            best = w
    return best
