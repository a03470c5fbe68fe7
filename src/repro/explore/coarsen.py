"""Virtual coarsening — the paper's Observation 5 (after [Pnu86]).

    *Atomic actions of a thread can be combined if they contain at most
    one critical reference.*

A **critical reference** (Definition 4) is a read of a location that a
concurrent thread may write, or a write of a location that a concurrent
thread may read or write.  Purely thread-local runs of actions commute
with everything other processes can do, so fusing them into one atomic
block preserves all result configurations while shrinking the explored
space — often dramatically (benchmark E4).

Sharedness is classified statically by
:class:`~repro.analyses.accesses.AccessAnalysis` (sibling-branch future
intersections); process-management actions (spawn/join/thread-end and
their pseudo-locations) always count as critical so fork/join ordering
is preserved.

The block builder stops:

- after the block has consumed its one critical reference and the next
  action would add another;
- before a disabled instruction (blocked assume/acquire/join);
- when the process terminates, faults, or the configuration repeats
  (a thread-local cycle — the block would spin forever);
- at a configurable length cap (a safety valve; shorter blocks are
  always sound).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyses.accesses import AccessAnalysis
from repro.lang.program import Program
from repro.semantics.config import Config, Pid, loc_value
from repro.semantics.step import (
    ActionInfo,
    StepOptions,
    enabledness,
    execute,
)


@dataclass(frozen=True)
class Block:
    """A fused run of atomic actions by one process."""

    succ: Config
    actions: tuple[ActionInfo, ...]
    reads: tuple
    writes: tuple
    #: total critical references consumed (telemetry; replayed by the
    #: expansion memo cache so cache hits trace like cache misses)
    crit: int = 0


def action_is_critical(access: AccessAnalysis, action: ActionInfo) -> int:
    """Number of critical references in one atomic action."""
    crit = 0
    for r in action.reads:
        if r[0] == "p" or access.crit_read(r):
            crit += 1
    for w in action.writes:
        if w[0] == "p" or access.crit_write(w):
            crit += 1
    return crit


def build_block(
    program: Program,
    config: Config,
    pid: Pid,
    access: AccessAnalysis,
    opts: StepOptions,
    *,
    max_len: int = 256,
    metrics=None,
    tracer=None,
    footprint: list | None = None,
    share: dict | None = None,
) -> Block:
    """Execute the maximal coarsened block of process *pid* from
    *config*.  The first action is executed unconditionally (the caller
    verified enabledness); extensions obey the ≤1-critical-ref budget.

    With a tracer attached, each built block is one ``coarsen.fuse``
    span recording the process and the fused length.

    With *footprint* (a list of ``(loc, value)`` pairs) supplied, every
    shared location the block's *shape* depends on is recorded with its
    value at the block's base configuration, first touch only: reads and
    write pre-values of every action — including the discarded candidate
    that stopped the block and every enabledness probe — so an equal
    process seeing equal footprint values anywhere replays the exact
    same block (the expansion memo cache's soundness condition).
    Locations already written by the block are skipped: their values are
    determined by the block itself, not the base.

    *share* is the run's share table, handed to every
    :func:`~repro.semantics.step.execute` of the block."""
    span = None if tracer is None else tracer.begin_span("coarsen.fuse", pid=pid)
    proc = config.proc(pid)
    touched: set | None = None
    if footprint is not None:
        # the caller's enabledness probe of the first action is already
        # in the footprint; don't re-record those locations
        touched = {loc for loc, _ in footprint}

    def touch(action: ActionInfo, base: Config) -> None:
        """First-touch record of one action's reads and write
        pre-values, as seen at its *base* (the pre-action state).  An
        untouched location holds its block-base value there."""
        for loc in action.reads:
            if loc not in touched:
                touched.add(loc)
                footprint.append((loc, loc_value(base, loc)))
        for loc in action.writes:
            # "p" pseudo-locations are determined by the acting process
            # itself (spawn/join/thread-end); no base value to pin
            if loc[0] != "p" and loc not in touched:
                touched.add(loc)
                footprint.append((loc, loc_value(base, loc)))

    succ, action = execute(program, config, proc, opts, share)
    if touched is not None:
        touch(action, config)
    actions = [action]
    reads = list(action.reads)
    writes = list(action.writes)
    crit = action_is_critical(access, action)
    seen = {config, succ}

    while len(actions) < max_len and succ.fault is None:
        # does the process still exist and can it continue?
        nxt = None
        for p in succ.procs:
            if p.pid == pid:
                nxt = p
                break
        if nxt is None or nxt.status == "done":
            break
        if touched is None:
            enabled, _, _ = enabledness(program, succ, nxt)
        else:
            probe: list = []
            enabled, _, _ = enabledness(program, succ, nxt, footprint=probe)
            for loc, value in probe:
                if loc not in touched:
                    touched.add(loc)
                    footprint.append((loc, value))
        if not enabled:
            break
        cand_succ, cand_action = execute(program, succ, nxt, opts, share)
        if touched is not None:
            # recorded whether the candidate is kept or discarded: a
            # discarded candidate's reads/writes decided the stop
            touch(cand_action, succ)
        cand_crit = action_is_critical(access, cand_action)
        if crit + cand_crit > 1:
            break
        if cand_succ in seen and cand_succ.fault is None:
            break  # thread-local cycle; stop rather than spin
        succ = cand_succ
        actions.append(cand_action)
        reads.extend(cand_action.reads)
        writes.extend(cand_action.writes)
        crit += cand_crit
        seen.add(succ)
        if succ.fault is not None:
            break

    if metrics is not None:
        metrics.observe("coarsen.block_len", len(actions))
    if span is not None:
        tracer.end_span(span, len=len(actions), critical=crit)
    return Block(
        succ=succ,
        actions=tuple(actions),
        reads=tuple(reads),
        writes=tuple(writes),
        crit=crit,
    )
