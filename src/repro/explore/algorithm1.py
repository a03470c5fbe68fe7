"""Algorithm 1 — transition-granularity stubborn sets (§2.3).

This is the paper's "improved version of Overman's algorithm": stubborn
sets computed over *individual instructions* (the static transitions of
each live process), in the style of Valmari's stubborn set theory
[Val88, Val89, Val90].

Elements are ``(pid, func, pc)`` triples ranging over each process's
*instruction universe* — everything statically reachable from its
current frames through the CFG, calls, and cobegin branches.  The
closure rules:

D2 (dependents of enabled transitions)
    For a process's *current, enabled* instruction, with its **dynamic**
    read/write sets: every instruction of every other live process whose
    **static** access sets may conflict joins the set.  (Same-process
    instructions never need to: control order already serializes them.)

D1 (necessary enabling sets of disabled elements)
    * current but guard-disabled (``assume``/``acquire``): the
      instructions (of other processes) that may write the guard's
      locations; for a blocked join, the thread-end instructions of the
      children that have not terminated;
    * a *future* element: its control predecessors within the process's
      universe — CFG predecessors, call sites for a function entry, and,
      for the continuation of an *active* frame, the return instructions
      of the function running above it.

A set closed under D1/D2 containing an enabled current instruction is
stubborn; only the enabled current instructions inside it are expanded.
The distinction between D2 (expensive, data conflicts) and D1 (cheap,
control chains) is what lets the reduction stay *local*: pulling a far
future instruction of another process costs only its control chain back
to that process's current point — this is how the dining-philosophers
space drops from exponential to polynomial (the paper's §2.2 claim,
benchmark E3).

Following the paper, we compute one closure per enabled seed and keep
the one with the fewest enabled transitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analyses.accesses import AccessAnalysis, matches
from repro.explore.expansion import Expansion
from repro.explore.stubborn import StubbornSelector, StubbornStats
from repro.lang.instructions import ICobegin, IThreadEnd
from repro.lang.program import Program
from repro.semantics.config import JOINING, Pid, Process

Element = tuple  # (pid, func, pc)


@dataclass
class AlgorithmOneSelector:
    """Element-granularity stubborn-set selection (the default policy)."""

    program: Program
    access: AccessAnalysis
    stats: StubbornStats = field(default_factory=StubbornStats)
    #: optional :class:`repro.metrics.MetricsRegistry` (set by the
    #: exploration driver when telemetry is attached)
    metrics: object | None = field(default=None, repr=False, compare=False)

    _record = StubbornSelector._record

    def select(self, expansions: list[Expansion]) -> list[Expansion]:
        by_pid: dict[Pid, Expansion] = {e.pid: e for e in expansions}
        enabled = [e for e in expansions if e.enabled]
        if len(enabled) <= 1:
            self._record(len(enabled), len(enabled))
            return enabled

        universes: dict[Pid, frozenset] = {
            e.pid: self._universe(e.proc) for e in expansions
        }
        cur: dict[Pid, tuple[str, int]] = {
            e.pid: (e.proc.top.func, e.proc.top.pc) for e in expansions
        }

        best: list[Expansion] | None = None
        best_key: tuple | None = None
        for seed in enabled:
            chosen, size = self._closure(seed, by_pid, universes, cur)
            key = (len(chosen), size, seed.pid)
            if best_key is None or key < best_key:
                best, best_key = chosen, key
            if len(chosen) == 1:
                break
        assert best is not None
        self._record(len(enabled), len(best))
        return best

    # ------------------------------------------------------------------

    def _universe(self, proc: Process) -> frozenset:
        out: set = set()
        for fr in proc.frames[:-1]:
            out |= self.access.reachable_from(fr.func, fr.pc)
        top = proc.frames[-1]
        if proc.status == JOINING:
            # the parent never executes the branch bodies — its children
            # carry them as their own elements; counting them here would
            # fabricate control chains through the parent's join
            code = self.program.funcs[top.func]
            instr = code.instrs[top.pc]
            assert isinstance(instr, ICobegin)
            out |= self.access.reachable_from(
                top.func, code.landing[instr.join_target]
            )
        else:
            out |= self.access.reachable_from(top.func, top.pc)
        return frozenset(out)

    def _closure(
        self,
        seed: Expansion,
        by_pid: dict[Pid, Expansion],
        universes: dict[Pid, frozenset],
        cur: dict[Pid, tuple[str, int]],
    ) -> tuple[list[Expansion], int]:
        access = self.access
        S: set[Element] = set()
        work: list[Element] = []

        def add(el: Element) -> None:
            if el not in S:
                S.add(el)
                work.append(el)

        spid = seed.pid
        add((spid, *cur[spid]))

        iterations = 0
        while work:
            iterations += 1
            pid, f, pc = work.pop()
            exp = by_pid[pid]
            is_cur = (f, pc) == cur[pid]
            if is_cur and exp.enabled:
                self._add_dependents(exp, by_pid, universes, add)
            elif is_cur:
                self._add_guard_enablers(exp, by_pid, universes, add)
            else:
                self._add_control_enablers(pid, f, pc, by_pid, universes, add)

        chosen = [
            by_pid[p]
            for p in sorted(by_pid)
            if by_pid[p].enabled and (p, *cur[p]) in S
        ]
        if self.metrics is not None:
            self.metrics.observe("stubborn.closure_iterations", iterations)
        return chosen, len(S)

    # -- D2 ------------------------------------------------------------

    def _add_dependents(self, exp, by_pid, universes, add) -> None:
        access = self.access
        writes = exp.writes
        reads = exp.reads
        for other, uni in universes.items():
            if other == exp.pid:
                continue
            for f2, pc2 in uni:
                g = access.gen_at(f2, pc2)
                hit = False
                for w in writes:
                    if matches(g.reads, w) or matches(g.writes, w):
                        hit = True
                        break
                if not hit:
                    for r in reads:
                        if matches(g.writes, r):
                            hit = True
                            break
                if hit:
                    add((other, f2, pc2))

    # -- D1: guard-disabled current ------------------------------------

    def _add_guard_enablers(self, exp, by_pid, universes, add) -> None:
        access = self.access
        if exp.proc.status == JOINING or exp.blocked_children:
            for child in exp.blocked_children:
                uni = universes.get(child, frozenset())
                for f2, pc2 in uni:
                    ins = self.program.funcs[f2].instrs[pc2]
                    if isinstance(ins, IThreadEnd):
                        add((child, f2, pc2))
            return
        locs = exp.nes
        for other, uni in universes.items():
            if other == exp.pid:
                continue
            for f2, pc2 in uni:
                g = access.gen_at(f2, pc2)
                if any(matches(g.writes, loc) for loc in locs):
                    add((other, f2, pc2))

    # -- D1: future elements (control chain) ----------------------------

    def _add_control_enablers(self, pid, f, pc, by_pid, universes, add) -> None:
        access = self.access
        uni = universes[pid]
        frames = by_pid[pid].proc.frames
        # continuation of an active frame: enabled by the frame above
        # returning
        for k in range(len(frames) - 1):
            if (frames[k].func, frames[k].pc) == (f, pc):
                above = frames[k + 1].func
                for rpc in access.returns_of(above):
                    add((pid, above, rpc))
        for pf, ppc in access.preds(f, pc):
            if (pf, ppc) in uni:
                add((pid, pf, ppc))
        if pc == 0:
            for cf, cpc in access.entry_callers(f):
                if (cf, cpc) in uni:
                    add((pid, cf, cpc))
