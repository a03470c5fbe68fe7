"""Static access sets and sharedness classification.

Two static substrates used by the exploration reductions:

1. **Future access sets** — for every program point ``(func, pc)``, an
   over-approximation of every shared location the process could read or
   write *from that point on* (through calls, spawned threads, loops).
   The stubborn-set closure uses them for processes outside the
   candidate set: if the candidate's next action cannot conflict with
   anything an outside process will *ever* do, that process can safely
   stay outside (the paper's §2.2-2.3 "locality" argument).

2. **Sharedness / critical references** — the paper's Definition 4:
   a read is *critical* if the location may be written by a concurrent
   thread; a write is critical if the location may be read or written by
   a concurrent thread.  Virtual coarsening (Observation 5) fuses atomic
   actions as long as a block holds at most one critical reference.
   Concurrency is structural: only sibling cobegin branches (and their
   descendants) overlap, so we intersect the branch-start future sets of
   sibling pairs.

Static locations:

- ``("g", i)`` — a specific global;
- ``("g", "*")`` — any global (dereference of an ``&g`` pointer);
- ``("site", s)`` — any cell of any object allocated at site *s*.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

from repro.analyses.pointsto import PointsTo, points_to
from repro.lang.instructions import (
    IAcquire,
    IAlloc,
    IAssert,
    IAssign,
    IAssume,
    IBranch,
    ICall,
    ICobegin,
    IJump,
    IRelease,
    IReturn,
    LDeref,
    LGlobal,
    LLocal,
    RBinary,
    RDeref,
    RExpr,
    RGlobal,
    RUnary,
)
from repro.lang.program import Program
from repro.semantics.config import Frame, Loc, Process
from repro.util.fixpoint import Worklist

StaticLoc = tuple

ANY_GLOBAL: StaticLoc = ("g", "*")


@dataclass(frozen=True)
class StaticAccess:
    """A pair of static read/write location sets."""

    reads: frozenset[StaticLoc]
    writes: frozenset[StaticLoc]

    EMPTY: ClassVar["StaticAccess"]

    def union(self, other: "StaticAccess") -> "StaticAccess":
        return StaticAccess(self.reads | other.reads, self.writes | other.writes)

    @property
    def all(self) -> frozenset[StaticLoc]:
        return self.reads | self.writes


StaticAccess.EMPTY = StaticAccess(frozenset(), frozenset())


def matches(static_set: frozenset[StaticLoc], loc: Loc) -> bool:
    """Does a *dynamic* location fall under a static location set?"""
    kind = loc[0]
    if kind == "g":
        return ("g", loc[1]) in static_set or ANY_GLOBAL in static_set
    if kind == "h":
        return ("site", loc[1][0]) in static_set
    return False  # ("p", pid) pseudo-locations are handled structurally


def _covered(a: StaticLoc, sset: frozenset[StaticLoc]) -> bool:
    """May static location *a* denote a location also denoted in *sset*?"""
    if a in sset:
        return True
    if a[0] == "g":
        if a[1] == "*":
            return any(x[0] == "g" for x in sset)
        return ANY_GLOBAL in sset
    return False


class AccessAnalysis:
    """Future access sets plus sharedness classification for a program."""

    def __init__(
        self,
        program: Program,
        pts: PointsTo | None = None,
        *,
        coarse_derefs: bool = False,
    ):
        """``coarse_derefs=True`` disables the points-to refinement:
        every dereference statically touches every allocation site (and
        the globals area) — the ablation baseline for how much pointer
        precision buys the reductions."""
        self.program = program
        self.coarse_derefs = coarse_derefs
        self.pts = pts if pts is not None else points_to(program)
        self._future: dict[tuple[str, int], StaticAccess] = {}
        self._gen_cache: dict[tuple[str, int], StaticAccess] = {}
        self._compute_structure()
        self._compute_futures()
        self._compute_sharedness()

    def gen_at(self, func: str, pc: int) -> StaticAccess:
        """Cached static access sets of the instruction at ``(func, pc)``."""
        acc = self._gen_cache.get((func, pc))
        if acc is None:
            acc = self.gen(func, self.program.funcs[func].instrs[pc])
            self._gen_cache[(func, pc)] = acc
        return acc

    # ------------------------------------------------------------------
    # per-instruction generated accesses
    # ------------------------------------------------------------------

    def _expr_reads(self, func: str, expr: RExpr | None, out: set[StaticLoc]) -> None:
        if expr is None:
            return
        if isinstance(expr, RGlobal):
            out.add(("g", expr.index))
        elif isinstance(expr, RDeref):
            self._expr_reads(func, expr.base, out)
            self._expr_reads(func, expr.index, out)
            out |= self._deref_locs(func, expr.base)
        elif isinstance(expr, RUnary):
            self._expr_reads(func, expr.operand, out)
        elif isinstance(expr, RBinary):
            self._expr_reads(func, expr.left, out)
            self._expr_reads(func, expr.right, out)

    def _deref_locs(self, func: str, base: RExpr) -> set[StaticLoc]:
        if self.coarse_derefs:
            locs: set[StaticLoc] = {("site", s) for s in self.program.sites}
            locs.add(ANY_GLOBAL)
            return locs
        sites, gobj = self.pts.deref_sites(func, base)
        locs = {("site", s) for s in sites}
        if gobj:
            locs.add(ANY_GLOBAL)
        return locs

    def gen(self, func: str, ins) -> StaticAccess:
        """Static read/write sets of a single instruction."""
        reads: set[StaticLoc] = set()
        writes: set[StaticLoc] = set()
        if isinstance(ins, IAssign):
            self._expr_reads(func, ins.expr, reads)
            self._lvalue_access(func, ins.target, reads, writes)
        elif isinstance(ins, IAlloc):
            self._expr_reads(func, ins.size, reads)
            self._lvalue_access(func, ins.target, reads, writes)
        elif isinstance(ins, (IBranch, IAssume, IAssert)):
            self._expr_reads(func, ins.cond, reads)
        elif isinstance(ins, IAcquire):
            reads.add(("g", ins.index))
            writes.add(("g", ins.index))
        elif isinstance(ins, IRelease):
            writes.add(("g", ins.index))
        elif isinstance(ins, ICall):
            self._expr_reads(func, ins.callee, reads)
            for a in ins.args:
                self._expr_reads(func, a, reads)
            if ins.target is not None:
                self._lvalue_access(func, ins.target, reads, writes)
        elif isinstance(ins, IReturn):
            self._expr_reads(func, ins.expr, reads)
        return StaticAccess(frozenset(reads), frozenset(writes))

    def _lvalue_access(
        self, func: str, lv, reads: set[StaticLoc], writes: set[StaticLoc]
    ) -> None:
        if isinstance(lv, LGlobal):
            writes.add(("g", lv.index))
        elif isinstance(lv, LDeref):
            self._expr_reads(func, lv.base, reads)
            self._expr_reads(func, lv.index, reads)
            writes |= self._deref_locs(func, lv.base)
        elif isinstance(lv, LLocal):
            pass

    # ------------------------------------------------------------------
    # control structure
    # ------------------------------------------------------------------

    def succs(self, func: str, pc: int) -> list[tuple[str, int]]:
        """Intraprocedural CFG successors (branch targets, fallthrough,
        cobegin branches + join)."""
        return self._succs(func, pc)

    def preds(self, func: str, pc: int) -> tuple[tuple[str, int], ...]:
        """Intraprocedural CFG predecessors."""
        return self._preds.get((func, pc), ())

    def entry_callers(self, func: str) -> tuple[tuple[str, int], ...]:
        """Call instructions (anywhere) that may invoke *func*."""
        return self._entry_callers.get(func, ())

    def returns_of(self, func: str) -> tuple[int, ...]:
        """PCs of the return instructions of *func*."""
        return self._returns.get(func, ())

    def threadends_of(self, func: str) -> tuple[int, ...]:
        """PCs of the thread-end instructions of *func*."""
        return self._threadends.get(func, ())

    def call_targets(self, func: str, pc: int) -> list[str]:
        return self._call_targets(func, self.program.funcs[func].instrs[pc])

    def reachable_from(self, func: str, pc: int) -> frozenset[tuple[str, int]]:
        """All instruction points statically reachable from ``(func,
        pc)`` through the CFG, calls, and cobegin branches (the process's
        *instruction universe* from that point)."""
        cached = self._reach_cache.get((func, pc))
        if cached is not None:
            return cached
        seen: set[tuple[str, int]] = set()
        work = [(func, pc)]
        while work:
            key = work.pop()
            if key in seen:
                continue
            seen.add(key)
            f, p = key
            for s in self._succs(f, p):
                if s not in seen:
                    work.append(s)
            ins = self.program.funcs[f].instrs[p]
            for callee in self._call_targets(f, ins):
                if self.program.funcs[callee].instrs and (callee, 0) not in seen:
                    work.append((callee, 0))
        result = frozenset(seen)
        self._reach_cache[(func, pc)] = result
        return result

    def _compute_structure(self) -> None:
        from repro.lang.instructions import IReturn as _IReturn
        from repro.lang.instructions import IThreadEnd as _IThreadEnd

        program = self.program
        preds: dict[tuple[str, int], list[tuple[str, int]]] = {}
        entry_callers: dict[str, list[tuple[str, int]]] = {}
        returns: dict[str, list[int]] = {}
        threadends: dict[str, list[int]] = {}
        for f in sorted(program.funcs):
            instrs = program.funcs[f].instrs
            returns[f] = [pc for pc, i in enumerate(instrs) if isinstance(i, _IReturn)]
            threadends[f] = [
                pc for pc, i in enumerate(instrs) if isinstance(i, _IThreadEnd)
            ]
            for pc, ins in enumerate(instrs):
                for s in self._succs(f, pc):
                    preds.setdefault(s, []).append((f, pc))
                for callee in self._call_targets(f, ins):
                    entry_callers.setdefault(callee, []).append((f, pc))
        self._preds = {k: tuple(v) for k, v in preds.items()}
        self._entry_callers = {k: tuple(v) for k, v in entry_callers.items()}
        self._returns = {k: tuple(v) for k, v in returns.items()}
        self._threadends = {k: tuple(v) for k, v in threadends.items()}
        self._reach_cache: dict[tuple[str, int], frozenset] = {}

    # ------------------------------------------------------------------
    # future sets (backward interprocedural fixpoint)
    # ------------------------------------------------------------------

    def _succs(self, func: str, pc: int) -> list[tuple[str, int]]:
        from repro.lang.instructions import IThreadEnd as _IThreadEnd

        ins = self.program.funcs[func].instrs[pc]
        if isinstance(ins, (IReturn, _IThreadEnd)):
            return []
        if isinstance(ins, IJump):
            return [(func, ins.target)]
        if isinstance(ins, IBranch):
            return [(func, ins.then_target), (func, ins.else_target)]
        if isinstance(ins, ICobegin):
            return [(func, t) for t in ins.branch_targets] + [
                (func, ins.join_target)
            ]
        if pc + 1 < len(self.program.funcs[func].instrs):
            return [(func, pc + 1)]
        return []

    def _call_targets(self, func: str, ins) -> list[str]:
        if not isinstance(ins, ICall):
            return []
        callees = self.pts.callees(func, ins.callee)
        return sorted(c for c in callees if c in self.program.funcs)

    def _compute_futures(self) -> None:
        program = self.program
        keys = [
            (f, pc)
            for f in sorted(program.funcs)
            for pc in range(len(program.funcs[f].instrs))
        ]
        future = {k: StaticAccess.EMPTY for k in keys}
        # reverse dependency map: when value(k) changes, recompute preds(k)
        preds: dict[tuple[str, int], list[tuple[str, int]]] = {k: [] for k in keys}
        call_sites_of: dict[str, list[tuple[str, int]]] = {
            f: [] for f in program.funcs
        }
        for f, pc in keys:
            ins = program.funcs[f].instrs[pc]
            for s in self._succs(f, pc):
                preds[s].append((f, pc))
            for callee in self._call_targets(f, ins):
                call_sites_of[callee].append((f, pc))
        wl = Worklist(reversed(keys))
        while wl:
            f, pc = wl.pop()
            ins = program.funcs[f].instrs[pc]
            acc = self.gen(f, ins)
            for s in self._succs(f, pc):
                acc = acc.union(future[s])
            for callee in self._call_targets(f, ins):
                if program.funcs[callee].instrs:
                    acc = acc.union(future[(callee, 0)])
            if acc != future[(f, pc)]:
                future[(f, pc)] = acc
                for p in preds[(f, pc)]:
                    wl.push(p)
                if pc == 0:
                    for cs in call_sites_of[f]:
                        wl.push(cs)
        self._future = future

    def future(self, func: str, pc: int) -> StaticAccess:
        """Everything reachable code from ``(func, pc)`` may access."""
        return self._future[(func, pc)]

    def future_of_proc(self, proc: Process) -> StaticAccess:
        """Union of futures over all frames of a process.

        Lower frames resume at their stored continuation pc; a joining
        process sits at its cobegin, whose future includes the join
        continuation.
        """
        acc = StaticAccess.EMPTY
        for fr in proc.frames:
            acc = acc.union(self.future(fr.func, fr.pc))
            w = self.ret_write(fr)
            if w is not None:
                acc = StaticAccess(acc.reads, acc.writes | {w})
        return acc

    @staticmethod
    def ret_write(frame: Frame) -> StaticLoc | None:
        """The static location *frame*'s pending return writes.

        An ``IReturn`` stores its value into the caller's destination,
        recorded on the callee frame as ``ret_loc``: a global maps to
        ``("g", i)``, a heap cell to its allocation ``("site", s)``.  A
        caller local (or no destination) is process-private: None.
        """
        loc = frame.ret_loc
        if loc is None:
            return None
        if loc[0] == "g":
            return ("g", loc[1])
        if loc[0] == "h":
            return ("site", loc[1][0])
        return None

    # ------------------------------------------------------------------
    # sharedness (critical references)
    # ------------------------------------------------------------------

    def _compute_sharedness(self) -> None:
        program = self.program
        conc_written: set[StaticLoc] = set()   # written w/ concurrent access
        conc_read_or_written: set[StaticLoc] = set()
        for f in sorted(program.funcs):
            for ins in program.funcs[f].instrs:
                if not isinstance(ins, ICobegin):
                    continue
                branch_accs = [self.future(f, t) for t in ins.branch_targets]
                for i, a in enumerate(branch_accs):
                    for j, b in enumerate(branch_accs):
                        if i == j:
                            continue
                        # writes in a concurrent with any access in b
                        for w in a.writes:
                            if _covered(w, b.all):
                                conc_written.add(w)
                        # reads in a concurrent with writes in b
                        for r in a.reads:
                            if _covered(r, b.writes):
                                conc_read_or_written.add(r)
                        for w in a.writes:
                            if _covered(w, b.all):
                                conc_read_or_written.add(w)
        self._conc_written = frozenset(conc_written)
        self._conc_any = frozenset(conc_read_or_written)

    def crit_read(self, loc: Loc) -> bool:
        """May this dynamic read see a concurrent write?  (Def. 4)"""
        return matches(self._conc_written, loc)

    def crit_write(self, loc: Loc) -> bool:
        """May this dynamic write race a concurrent access?  (Def. 4)"""
        return matches(self._conc_any, loc)

    @property
    def shared_static_locs(self) -> frozenset[StaticLoc]:
        """Locations with any potential concurrent access (reporting)."""
        return self._conc_any


@lru_cache(maxsize=64)
def access_analysis(program: Program) -> AccessAnalysis:
    """Compute (and cache per program object) the access analysis.

    ``Program`` hashes by identity, so the cache is per compiled object.
    """
    return AccessAnalysis(program)
