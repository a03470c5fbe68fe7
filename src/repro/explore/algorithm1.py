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

Static model and scan memo
--------------------------
Each process's universe is a :class:`Universe`: its elements plus, per
element, the static read/write sets the D1/D2 scans test (its model,
built on the first scan).  Those sets
are the instruction's own (:meth:`AccessAnalysis.gen_at`), except that
every return instruction of a frame with a shared destination also
*writes* that destination (:meth:`AccessAnalysis.ret_write`): inside a
call, the caller's ``r = f(...)`` / ``*p = f(...)`` store happens at
the callee's ``IReturn``, and the ``ICall`` that statically carries it
has already left the universe.  Without these pending return writes
the static sets would not cover the dynamic ones, and the reduction
would drop result configurations.

A universe is a function of the process's status and each frame's
``(func, pc, pending return write)``, so the selector builds it once
per distinct such key and numbers it.  The scans are memoised on the
selector for the life of one exploration: D2 hits per (reads, writes,
universe) and guard-enabler hits per (nes, universe), with the dynamic
locations keyed by their static projection (``("g", i)`` stays,
a heap cell becomes its ``("site", s)``, ``("p", pid)`` drops out).
:func:`~repro.analyses.accesses.matches` reads nothing else, so the
projection yields exactly the same hits, and the memo is bounded by
the program's static size.  Each memo row also keeps, per (universe,
process), its hits already tagged as that process's ``(pid, func,
pc)`` elements, so a memoised scan costs one lookup and no new tuples.
A future element's control predecessors depend on the universe key
alone; they are memoised on the universe per element, tagged likewise.
Within one selection, what each element requires is the same for every
seed, so the seeds' closures share it.  Every exploration (and every
parallel worker) builds its own selector, so no memo crosses runs or
processes; checkpoints carry only ``stats``.
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


class Universe(frozenset):
    """A process's instruction universe: a frozenset of ``(func, pc)``
    elements that also carries the static model the scans read.

    ``uid`` numbers the universe within its selector (the memo keys use
    it); ``frames`` is the key's ``(func, pc, pending return write)``
    per frame; ``model`` (built on the first scan, see
    :meth:`AlgorithmOneSelector._model`) lists ``(func, pc, reads,
    writes)`` per element, with the pending return writes folded into
    ``writes``; ``enablers`` memoises each future ``(pid, func, pc)``
    element's control predecessors (a function of the universe key
    alone), as elements of the same process.
    """

    __slots__ = ("uid", "frames", "model", "enablers")


def _static(locs) -> frozenset:
    """The static projection of dynamic locations: all that
    :func:`matches` reads of them."""
    out = set()
    for loc in locs:
        kind = loc[0]
        if kind == "g":
            out.add(loc)
        elif kind == "h":
            out.add(("site", loc[1][0]))
    return frozenset(out)


@dataclass
class AlgorithmOneSelector:
    """Element-granularity stubborn-set selection (the default policy)."""

    program: Program
    access: AccessAnalysis
    stats: StubbornStats = field(default_factory=StubbornStats)
    #: optional :class:`repro.metrics.MetricsRegistry` (set by the
    #: exploration driver when telemetry is attached)
    metrics: object | None = field(default=None, repr=False, compare=False)
    #: (status, frame projections) -> Universe
    _universes: dict = field(default_factory=dict, init=False, repr=False)
    #: (static reads, static writes) -> {uid: hit (func, pc) elements,
    #: (uid, pid): the same hits as (pid, func, pc) elements}
    _d2: dict = field(default_factory=dict, init=False, repr=False)
    #: static nes -> the same row layout as ``_d2``
    _d1: dict = field(default_factory=dict, init=False, repr=False)

    _record = StubbornSelector._record

    def select(self, expansions: list[Expansion]) -> list[Expansion]:
        by_pid: dict[Pid, Expansion] = {e.pid: e for e in expansions}
        enabled = [e for e in expansions if e.enabled]
        if len(enabled) <= 1:
            self._record(len(enabled), len(enabled))
            return enabled

        universes: dict[Pid, Universe] = {
            e.pid: self._universe(e.proc) for e in expansions
        }
        cur: dict[Pid, tuple[str, int]] = {
            e.pid: (e.proc.top.func, e.proc.top.pc) for e in expansions
        }

        # what each element requires does not depend on the seed, so
        # the closures of one selection share it
        required: dict[Element, list[Element]] = {}
        best: list[Expansion] | None = None
        best_key: tuple | None = None
        for seed in enabled:
            chosen, size = self._closure(
                seed, by_pid, universes, cur, required
            )
            key = (len(chosen), size, seed.pid)
            if best_key is None or key < best_key:
                best, best_key = chosen, key
            if len(chosen) == 1:
                break
        assert best is not None
        self._record(len(enabled), len(best))
        return best

    # ------------------------------------------------------------------

    def _universe(self, proc: Process) -> Universe:
        ret_write = self.access.ret_write
        frames = tuple([
            (fr.func, fr.pc, None if fr.ret_loc is None else ret_write(fr))
            for fr in proc.frames
        ])
        key = (proc.status, frames)
        uni = self._universes.get(key)
        if uni is None:
            uni = self._build_universe(proc, frames)
            uni.uid = len(self._universes)
            self._universes[key] = uni
        return uni

    def _build_universe(self, proc: Process, frames: tuple) -> Universe:
        access = self.access
        out: set = set()
        for fr in proc.frames[:-1]:
            out |= access.reachable_from(fr.func, fr.pc)
        top = proc.frames[-1]
        if proc.status == JOINING:
            # the parent never executes the branch bodies — its children
            # carry them as their own elements; counting them here would
            # fabricate control chains through the parent's join
            code = self.program.funcs[top.func]
            instr = code.instrs[top.pc]
            assert isinstance(instr, ICobegin)
            out |= access.reachable_from(
                top.func, code.landing[instr.join_target]
            )
        else:
            out |= access.reachable_from(top.func, top.pc)
        uni = Universe(out)
        uni.frames = frames
        uni.model = None
        uni.enablers = {}
        return uni

    def _model(self, uni: Universe) -> tuple:
        """*uni*'s static model, built on its first scan."""
        if uni.model is None:
            access = self.access
            # a frame's return instructions store into its caller's
            # destination: a write no instruction's own sets carry
            pending: dict[tuple[str, int], set] = {}
            for func, _pc, w in uni.frames:
                if w is not None:
                    for rpc in access.returns_of(func):
                        pending.setdefault((func, rpc), set()).add(w)
            sets = []
            for f, pc in uni:
                g = access.gen_at(f, pc)
                writes = g.writes
                extra = pending.get((f, pc))
                if extra:
                    writes = writes | extra
                sets.append((f, pc, g.reads, writes))
            uni.model = tuple(sets)
        return uni.model

    def _closure(
        self,
        seed: Expansion,
        by_pid: dict[Pid, Expansion],
        universes: dict[Pid, Universe],
        cur: dict[Pid, tuple[str, int]],
        required: dict[Element, list[Element]] | None = None,
    ) -> tuple[list[Expansion], int]:
        if required is None:
            required = {}
        spid = seed.pid
        start = (spid, *cur[spid])
        S: set[Element] = {start}
        work: list[Element] = [start]
        while work:
            el = work.pop()
            req = required.get(el)
            if req is None:
                req = required[el] = self._requires(el, by_pid, universes, cur)
            for x in req:
                if x not in S:
                    S.add(x)
                    work.append(x)

        chosen = [
            by_pid[p]
            for p in sorted(by_pid)
            if by_pid[p].enabled and (p, *cur[p]) in S
        ]
        if self.metrics is not None:
            # every element is popped once
            self.metrics.observe("stubborn.closure_iterations", len(S))
        return chosen, len(S)

    def _requires(self, el: Element, by_pid, universes, cur) -> list[Element]:
        """The elements a stubborn set holding *el* must also hold."""
        pid, f, pc = el
        exp = by_pid[pid]
        if (f, pc) != cur[pid]:
            return self._control_enablers(el, exp.proc.frames, universes)
        if exp.enabled:
            return self._dependents(exp, universes)
        return self._guard_enablers(exp, universes)

    def _scanned(self, memo, key, pid, universes, scan) -> list[Element]:
        """The hits of ``scan(universe)`` over every other process's
        universe, memoised per (*key*, universe) and tagged per
        (*key*, universe, process)."""
        row = memo.get(key)
        if row is None:
            row = memo[key] = {}
        out = []
        fresh = 0
        for other, uni in universes.items():
            if other == pid:
                continue
            tagged = row.get((uni.uid, other))
            if tagged is None:
                hits = row.get(uni.uid)
                if hits is None:
                    hits = row[uni.uid] = scan(uni)
                    fresh += 1
                tagged = row[(uni.uid, other)] = tuple(
                    [(other, f2, pc2) for f2, pc2 in hits]
                )
            out += tagged
        m = self.metrics
        if m is not None:
            m.inc("algorithm1.scans", fresh)
            m.inc("algorithm1.scan_hits", len(universes) - 1 - fresh)
        return out

    # -- D2 ------------------------------------------------------------

    def _dependents(self, exp, universes) -> list[Element]:
        reads, writes = exp.reads, exp.writes
        key = (_static(reads), _static(writes))
        if not key[0] and not key[1]:
            return []  # only process pseudo-locations: nothing conflicts
        return self._scanned(
            self._d2, key, exp.pid, universes,
            lambda uni: self._scan_dependents(uni, reads, writes),
        )

    def _scan_dependents(self, uni: Universe, reads, writes) -> tuple:
        """Elements of *uni* whose static sets conflict with a dynamic
        access: they read or write a written location, or write a read
        one."""
        hits = []
        for f2, pc2, greads, gwrites in self._model(uni):
            hit = False
            for w in writes:
                if matches(greads, w) or matches(gwrites, w):
                    hit = True
                    break
            if not hit:
                for r in reads:
                    if matches(gwrites, r):
                        hit = True
                        break
            if hit:
                hits.append((f2, pc2))
        return tuple(hits)

    # -- D1: guard-disabled current ------------------------------------

    def _guard_enablers(self, exp, universes) -> list[Element]:
        if exp.proc.status == JOINING or exp.blocked_children:
            funcs = self.program.funcs
            return [
                (child, f2, pc2)
                for child in exp.blocked_children
                for f2, pc2 in universes.get(child, ())
                if isinstance(funcs[f2].instrs[pc2], IThreadEnd)
            ]
        locs = exp.nes
        key = _static(locs)
        if not key:
            return []
        return self._scanned(
            self._d1, key, exp.pid, universes,
            lambda uni: tuple(
                (f2, pc2)
                for f2, pc2, _greads, gwrites in self._model(uni)
                if any(matches(gwrites, loc) for loc in locs)
            ),
        )

    # -- D1: future elements (control chain) ----------------------------

    def _control_enablers(self, el, frames, universes) -> tuple:
        pid, f, pc = el
        uni = universes[pid]
        enablers = uni.enablers.get(el)
        if enablers is None:
            enablers = uni.enablers[el] = tuple([
                (pid, f2, pc2)
                for f2, pc2 in self._scan_control(uni, frames, f, pc)
            ])
        return enablers

    def _scan_control(self, uni, frames, f, pc) -> tuple:
        """Control predecessors of the future element ``(f, pc)``: the
        frame above's returns for an active frame's continuation, CFG
        predecessors, and call sites of a function entry."""
        access = self.access
        out = []
        for k in range(len(frames) - 1):
            if (frames[k].func, frames[k].pc) == (f, pc):
                above = frames[k + 1].func
                out.extend((above, rpc) for rpc in access.returns_of(above))
        out.extend(el for el in access.preds(f, pc) if el in uni)
        if pc == 0:
            out.extend(el for el in access.entry_callers(f) if el in uni)
        return tuple(out)
