"""Exploration *modulo an abstraction* — the paper's state folding (§6).

The driver explores abstract configurations but keeps only one table
entry per **fold key**; configurations mapping to the same key are
*joined* (data lattice join — the folding of "related states").  A key
function must determine the control skeleton, so joins are pointwise.

With the Taylor key (the skeleton itself, §6.1) this computes the
*concurrency states* of the program; with clan spawning enabled
(§6.2, via :class:`~repro.abstraction.absstep.AbsOptions`) identical
tasks collapse and the table size becomes independent of how many of
them the program forks.

Termination: keys are finitely many (control skeletons of a program
with bounded nesting), and after ``widen_after`` joins at one key the
data join is replaced by the domain's widening, so each entry's
ascending chain stabilizes even over infinite-height domains
(intervals).  This is the standard abstract-interpretation fixpoint
([CC77]) presented as a state-space construction — the framework's
central claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.absdomain.absvalue import AbsValueDomain
from repro.abstraction.absconfig import (
    AbsConfig,
    AbsFrame,
    AbsProcess,
    Member,
    join_configs,
    leq_configs,
)
from repro.abstraction.absstep import AbsOptions, abstract_successors
from repro.lang.program import Program
from repro.semantics.config import Config, initial_config
from repro.util.fixpoint import Worklist

KeyFn = Callable[[AbsConfig], tuple]


def taylor_key(acfg: AbsConfig) -> tuple:
    """§6.1: fold configurations by control skeleton — Taylor's
    *concurrency states* [Tay83]."""
    return acfg.skeleton()


@dataclass
class FoldStats:
    num_states: int = 0
    num_edges: int = 0
    iterations: int = 0
    widenings: int = 0
    narrowings: int = 0


@dataclass
class FoldResult:
    """The folded (quotient) state space."""

    program: Program
    options: AbsOptions
    key_fn: KeyFn
    table: dict[tuple, AbsConfig]
    edges: set[tuple]  # (src_key, dst_key, label, kind, pid)
    initial_key: tuple
    stats: FoldStats
    warnings: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------

    def terminal_states(self) -> list[AbsConfig]:
        return [cfg for cfg in self.table.values() if cfg.is_terminated]

    def covers_config(self, config: Config) -> bool:
        """Is the concrete configuration covered by the folded space?
        (Only meaningful without clan folding: clans change the key
        vocabulary.)"""
        acfg = alpha_config(self.options.dom, config)
        key = self.key_fn(acfg)
        entry = self.table.get(key)
        return entry is not None and leq_configs(self.options.dom, acfg, entry)

    def visited_points(self) -> set[tuple]:
        """All (func, pc, status) control points occurring in the folded
        space — the may-execute/may-happen vocabulary for clan runs."""
        out: set[tuple] = set()
        for cfg in self.table.values():
            for p in cfg.procs:
                for m, _ in p.points:
                    if m.frames:
                        top = m.frames[-1]
                        out.add((top.func, top.pc, m.status))
                    else:
                        out.add(("", -1, m.status))
        return out


def alpha_config(dom: AbsValueDomain, config: Config) -> AbsConfig:
    """α on configurations: concrete processes become single-point
    count-1 clans; heap objects collapse onto their sites."""
    from repro.abstraction.absconfig import ONE, AbsHeapObj
    from repro.semantics.config import Process

    procs = []
    for p in config.procs:
        frames = tuple(
            AbsFrame(
                func=f.func,
                pc=f.pc,
                locals=tuple(dom.abstract(v) for v in f.locals),
                ret_loc=_abs_ret_loc(f.ret_loc),
            )
            for f in p.frames
        )
        procs.append(
            AbsProcess(
                pid=p.pid,
                points=((Member(frames=frames, status=p.status), ONE),),
                children=p.children,
            )
        )
    by_site: dict[str, list] = {}
    single: dict[str, bool] = {}
    single_cell: dict[str, bool] = {}
    for o in config.heap:
        site = o.oid[0]
        single[site] = site not in by_site
        single_cell[site] = single_cell.get(site, True) and len(o.cells) == 1
        by_site.setdefault(site, []).extend(o.cells)
    aheap = []
    for site in sorted(by_site):
        val = dom.bottom
        for v in by_site[site]:
            val = dom.join(val, dom.abstract(v))
        aheap.append(
            AbsHeapObj(
                site=site,
                val=val,
                single=single[site],
                single_cell=single_cell[site],
            )
        )
    return AbsConfig(
        procs=tuple(procs),
        aglobals=tuple(dom.abstract(v) for v in config.globals),
        aheap=tuple(aheap),
    )


def _narrow_once(program, opts, key_fn, table, init, ikey) -> bool:
    """One descending pass: recompute every entry from its current
    predecessors and narrow.  Returns whether anything changed."""
    from repro.abstraction.absconfig import narrow_configs

    recomputed: dict[tuple, AbsConfig] = {ikey: init}
    for cfg in list(table.values()):
        for succ, _info in abstract_successors(program, cfg, opts):
            k2 = key_fn(succ)
            cur = recomputed.get(k2)
            recomputed[k2] = succ if cur is None else join_configs(
                opts.dom, cur, succ
            )
    changed = False
    for key, old in table.items():
        new = recomputed.get(key)
        if new is None:
            continue  # never re-derived; keep the stable value
        narrowed = narrow_configs(opts.dom, old, new)
        if narrowed != old:
            table[key] = narrowed
            changed = True
    return changed


def _abs_ret_loc(ret_loc):
    if ret_loc is None:
        return None
    if ret_loc[0] in ("l", "g"):
        return ret_loc
    assert ret_loc[0] == "h"
    return ("sites", frozenset((ret_loc[1][0],)), False)


def initial_abs_config(program: Program, dom: AbsValueDomain) -> AbsConfig:
    return alpha_config(dom, initial_config(program))


def fold_explore(
    program: Program,
    opts: AbsOptions,
    *,
    key_fn: KeyFn = taylor_key,
    widen_after: int = 3,
    narrow_passes: int = 0,
    max_states: int = 200_000,
    metrics=None,
    tracer=None,
) -> FoldResult:
    """Explore the abstract transition system folded by *key_fn*.

    ``narrow_passes > 0`` runs that many descending (narrowing)
    iterations after the widened fixpoint stabilizes — recomputing each
    entry from its predecessors and refining where the recomputation is
    smaller (classic [CC77] narrowing; intervals recover finite bounds
    that widening threw to ∞).

    With a tracer attached (see :mod:`repro.trace`), every lattice join
    that actually grows a table entry is one ``fold.join`` span (with a
    ``widen`` flag), so a Perfetto timeline shows where the fixpoint
    spends its ascending chain.

    With a registry as *metrics*, each successor counts as a
    ``fold.hits`` or ``fold.misses``, and a completed run adds its
    ``stats.widenings`` as ``fold.widenings``.
    """
    init = initial_abs_config(program, opts.dom)
    ikey = key_fn(init)
    table: dict[tuple, AbsConfig] = {ikey: init}
    updates: dict[tuple, int] = {ikey: 0}
    edges: set[tuple] = set()
    warnings: list[str] = []
    warned: set[str] = set()
    stats = FoldStats()

    wl = Worklist([ikey])
    while wl:
        if len(table) > max_states:
            raise RuntimeError("folded exploration exceeded max_states")
        key = wl.pop()
        cfg = table[key]
        stats.iterations += 1
        sink: list[str] = []
        succs = abstract_successors(program, cfg, opts, warning_sink=sink)
        for w in sink:
            if w not in warned:
                warned.add(w)
                warnings.append(w)
        for succ, info in succs:
            k2 = key_fn(succ)
            edges.add((key, k2, info.label, info.kind, info.pid))
            cur = table.get(k2)
            if cur is None:
                table[k2] = succ
                updates[k2] = 0
                wl.push(k2)
                if metrics is not None:
                    metrics.inc("fold.misses")
            else:
                if metrics is not None:
                    metrics.inc("fold.hits")
                if not leq_configs(opts.dom, succ, cur):
                    updates[k2] += 1
                    widen = updates[k2] > widen_after
                    if widen:
                        stats.widenings += 1
                    span = (
                        tracer.begin_span("fold.join", widen=widen)
                        if tracer is not None
                        else None
                    )
                    table[k2] = join_configs(opts.dom, cur, succ, widen=widen)
                    if span is not None:
                        tracer.end_span(span, updates=updates[k2])
                    wl.push(k2)

    for _ in range(narrow_passes):
        if not _narrow_once(program, opts, key_fn, table, init, ikey):
            break
        stats.narrowings += 1

    stats.num_states = len(table)
    stats.num_edges = len(edges)
    if metrics is not None and stats.widenings:
        metrics.inc("fold.widenings", stats.widenings)
    return FoldResult(
        program=program,
        options=opts,
        key_fn=key_fn,
        table=table,
        edges=edges,
        initial_key=ikey,
        stats=stats,
        warnings=warnings,
    )
