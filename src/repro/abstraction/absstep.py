"""The abstract transition function (the paper's abstract semantics).

Mirrors :mod:`repro.semantics.step` over abstract configurations:

- expression evaluation in the abstract value domain;
- **may** nondeterminism: a branch whose condition may be true *and*
  false yields both successors; a blocked guard that may pass yields the
  passing successor;
- weak updates on summarized heap sites, strong updates on globals,
  locals, and single-instance sites;
- clan counting: stepping a MANY point forks "one member stays behind" /
  "last member moves" (members advance one at a time, as in the
  interleaving semantics).

Possible runtime faults (dereference of a maybe-non-pointer, assertion
that may fail, call through a maybe-non-function) are reported as
*warnings* attached to the step — the abstract analogue of the concrete
fault configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.absdomain.absvalue import AbsValue, AbsValueDomain
from repro.abstraction.absconfig import (
    MANY,
    ONE,
    AbsConfig,
    AbsFrame,
    AbsHeapObj,
    AbsProcess,
    Member,
    canon_points,
)
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
    ISkip,
    IThreadEnd,
    LDeref,
    LGlobal,
    LLocal,
    RAddrGlobal,
    RBinary,
    RConst,
    RDeref,
    RExpr,
    RFunc,
    RGlobal,
    RLocal,
    RUnary,
)
from repro.lang.program import Program
from repro.semantics.config import DONE, JOINING, RUNNING, Pid
from repro.util.errors import AnalysisError


@dataclass(frozen=True)
class AbsOptions:
    """Abstract-semantics knobs."""

    dom: AbsValueDomain
    clan_fold: bool = False


@dataclass(frozen=True)
class AbsStepInfo:
    """Metadata of one abstract transition."""

    pid: Pid
    label: str
    kind: str
    warnings: tuple[str, ...] = ()


# --------------------------------------------------------------------------
# abstract evaluation
# --------------------------------------------------------------------------


def eval_abs(
    dom: AbsValueDomain,
    expr: RExpr,
    acfg: AbsConfig,
    locals_: tuple[AbsValue, ...],
    warnings: list[str],
) -> AbsValue:
    if isinstance(expr, RConst):
        return dom.const(expr.value)
    if isinstance(expr, RLocal):
        return locals_[expr.slot]
    if isinstance(expr, RGlobal):
        return acfg.aglobals[expr.index]
    if isinstance(expr, RAddrGlobal):
        return dom.ptr_val((("gobj",),))
    if isinstance(expr, RFunc):
        return dom.func_val(expr.name)
    if isinstance(expr, RDeref):
        base = eval_abs(dom, expr.base, acfg, locals_, warnings)
        eval_abs(dom, expr.index, acfg, locals_, warnings)  # offsets are smashed
        return _read_through(dom, base, acfg, warnings)
    if isinstance(expr, RUnary):
        return dom.unop(expr.op, eval_abs(dom, expr.operand, acfg, locals_, warnings))
    if isinstance(expr, RBinary):
        lhs = eval_abs(dom, expr.left, acfg, locals_, warnings)
        rhs = eval_abs(dom, expr.right, acfg, locals_, warnings)
        return dom.binop(expr.op, lhs, rhs)
    raise AnalysisError(f"unknown expression {type(expr).__name__}")


def _read_through(
    dom: AbsValueDomain, base: AbsValue, acfg: AbsConfig, warnings: list[str]
) -> AbsValue:
    num, ptrs, funcs = base
    if not dom.num.is_bottom(num) or funcs:
        warnings.append("deref of a possibly-non-pointer value")
    out = dom.bottom
    for t in ptrs:
        if t == ("gobj",):
            for g in acfg.aglobals:
                out = dom.join(out, g)
        else:
            obj = acfg.heap_obj(t[1])
            if obj is None:
                warnings.append(f"deref of not-yet-allocated site {t[1]!r}")
            else:
                out = dom.join(out, obj.val)
    if not ptrs:
        warnings.append("deref with no pointer targets (definite fault)")
    return out


def resolve_lv_abs(
    dom: AbsValueDomain,
    lv,
    acfg: AbsConfig,
    locals_: tuple[AbsValue, ...],
    warnings: list[str],
):
    """Abstract write destination:
    ``("l", slot) | ("g", i) | ("sites", frozenset[str], gobj: bool)``."""
    if isinstance(lv, LLocal):
        return ("l", lv.slot)
    if isinstance(lv, LGlobal):
        return ("g", lv.index)
    if isinstance(lv, LDeref):
        base = eval_abs(dom, lv.base, acfg, locals_, warnings)
        eval_abs(dom, lv.index, acfg, locals_, warnings)
        _, ptrs, _ = base
        sites = frozenset(t[1] for t in ptrs if t[0] == "site")
        gobj = ("gobj",) in ptrs
        if not ptrs:
            warnings.append("store with no pointer targets (definite fault)")
        return ("sites", sites, gobj)
    raise AnalysisError(f"unknown lvalue {type(lv).__name__}")


def write_shared(
    dom: AbsValueDomain,
    acfg: AbsConfig,
    dest,
    val: AbsValue,
) -> tuple[tuple[AbsValue, ...], tuple[AbsHeapObj, ...]]:
    """Apply a shared write; strong where sound, weak otherwise."""
    aglobals, aheap = acfg.aglobals, acfg.aheap
    if dest[0] == "g":
        i = dest[1]
        return aglobals[:i] + (val,) + aglobals[i + 1 :], aheap
    assert dest[0] == "sites"
    sites, gobj = dest[1], dest[2]
    if gobj:
        aglobals = tuple(dom.join(g, val) for g in aglobals)
    if sites:
        strong = len(sites) == 1 and not gobj
        new_heap = []
        for obj in aheap:
            if obj.site in sites:
                # strong only when the summary is exactly one cell of
                # exactly one object — otherwise the write covers part
                # of what the summary denotes and must join
                if strong and obj.single and obj.single_cell:
                    new_heap.append(replace(obj, val=val))
                else:
                    new_heap.append(replace(obj, val=dom.join(obj.val, val)))
            else:
                new_heap.append(obj)
        aheap = tuple(new_heap)
    return aglobals, aheap


# --------------------------------------------------------------------------
# guard refinement
# --------------------------------------------------------------------------

_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
_NEGATE = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}

#: sentinel: the refined path is infeasible (guard unsatisfiable on
#: closer inspection than the truth test could see)
INFEASIBLE = object()


def refine_guard(
    dom: AbsValueDomain,
    cond,
    acfg: AbsConfig,
    locals_: tuple[AbsValue, ...],
    *,
    negate: bool = False,
):
    """Meet the implications of a passed guard into the store.

    Handles the ``var op const`` comparison shapes (either operand
    order); everything else refines nothing.  Returns
    ``(aglobals | None, locals | None)`` with None meaning unchanged,
    or :data:`INFEASIBLE` when the refinement empties the value.
    """
    if not isinstance(cond, RBinary):
        return None, None
    op = _NEGATE.get(cond.op) if negate else cond.op
    if op not in _MIRROR:
        return None, None
    left, right = cond.left, cond.right
    if isinstance(right, RConst) and isinstance(left, (RGlobal, RLocal)):
        var, c = left, right.value
    elif isinstance(left, RConst) and isinstance(right, (RGlobal, RLocal)):
        var, c, op = right, left.value, _MIRROR[op]
    else:
        return None, None
    old = (
        acfg.aglobals[var.index]
        if isinstance(var, RGlobal)
        else locals_[var.slot]
    )
    new = (dom.num.refine(old[0], op, c), old[1], old[2])
    if new == old:
        return None, None
    if dom.is_bottom(new):
        return INFEASIBLE
    if isinstance(var, RGlobal):
        i = var.index
        return acfg.aglobals[:i] + (new,) + acfg.aglobals[i + 1 :], None
    s = var.slot
    return None, locals_[:s] + (new,) + locals_[s + 1 :]


# --------------------------------------------------------------------------
# member stepping
# --------------------------------------------------------------------------


@dataclass
class _MemberSucc:
    member: Member
    label: str
    kind: str
    aglobals: tuple | None = None
    aheap: tuple | None = None
    spawns: tuple[AbsProcess, ...] = ()
    drop_children: bool = False


def _advance(program: Program, member: Member, pc: int, locals_=None) -> Member:
    top = member.frames[-1]
    new_top = AbsFrame(
        func=top.func,
        pc=program.funcs[top.func].landing[pc],
        locals=top.locals if locals_ is None else locals_,
        ret_loc=top.ret_loc,
    )
    return Member(frames=member.frames[:-1] + (new_top,), status=member.status)


def member_successors(
    program: Program,
    acfg: AbsConfig,
    proc: AbsProcess,
    member: Member,
    opts: AbsOptions,
    warnings: list[str],
) -> list[_MemberSucc]:
    """Abstract successors of one clan member (may be several)."""
    dom = opts.dom
    if member.status == DONE:
        return []
    if member.status == JOINING:
        if all(acfg.proc(c).all_done for c in proc.children):
            top = member.frames[-1]
            instr = program.funcs[top.func].instrs[top.pc]
            assert isinstance(instr, ICobegin)
            resumed = Member(
                frames=member.frames[:-1]
                + (
                    AbsFrame(
                        func=top.func,
                        pc=program.funcs[top.func].landing[instr.join_target],
                        locals=top.locals,
                        ret_loc=top.ret_loc,
                    ),
                ),
                status=RUNNING,
            )
            return [
                _MemberSucc(
                    member=resumed,
                    label=(instr.label + "$join") if instr.label else "$join",
                    kind="IJoin",
                    drop_children=True,
                )
            ]
        return []

    top = member.frames[-1]
    instr = program.funcs[top.func].instrs[top.pc]
    locals_ = top.locals

    if isinstance(instr, ISkip):
        return [_MemberSucc(_advance(program, member, top.pc + 1), instr.label, "ISkip")]

    if isinstance(instr, IAssume):
        cond = eval_abs(dom, instr.cond, acfg, locals_, warnings)
        may_t, _ = dom.truth(cond)
        if not may_t:
            return []
        refined = refine_guard(dom, instr.cond, acfg, locals_)
        if refined is INFEASIBLE:
            return []
        aglobals, new_locals = refined
        return [
            _MemberSucc(
                _advance(program, member, top.pc + 1, new_locals),
                instr.label,
                "IAssume",
                aglobals=aglobals,
            )
        ]

    if isinstance(instr, IAssert):
        cond = eval_abs(dom, instr.cond, acfg, locals_, warnings)
        may_t, may_f = dom.truth(cond)
        if may_f:
            warnings.append(f"assertion {instr.label!r} may fail")
        if not may_t:
            return []
        return [_MemberSucc(_advance(program, member, top.pc + 1), instr.label, "IAssert")]

    if isinstance(instr, IBranch):
        cond = eval_abs(dom, instr.cond, acfg, locals_, warnings)
        may_t, may_f = dom.truth(cond)
        out = []
        for taken, target in ((True, instr.then_target), (False, instr.else_target)):
            if not (may_t if taken else may_f):
                continue
            refined = refine_guard(
                dom, instr.cond, acfg, locals_, negate=not taken
            )
            if refined is INFEASIBLE:
                continue
            aglobals, new_locals = refined
            out.append(
                _MemberSucc(
                    _advance(program, member, target, new_locals),
                    instr.label,
                    "IBranch",
                    aglobals=aglobals,
                )
            )
        return out

    if isinstance(instr, IAcquire):
        lock = acfg.aglobals[instr.index]
        _, may_zero = dom.truth(lock)
        if not may_zero:
            return []
        aglobals = (
            acfg.aglobals[: instr.index]
            + (dom.const(1),)
            + acfg.aglobals[instr.index + 1 :]
        )
        return [
            _MemberSucc(
                _advance(program, member, top.pc + 1),
                instr.label,
                "IAcquire",
                aglobals=aglobals,
            )
        ]

    if isinstance(instr, IRelease):
        aglobals = (
            acfg.aglobals[: instr.index]
            + (dom.const(0),)
            + acfg.aglobals[instr.index + 1 :]
        )
        return [
            _MemberSucc(
                _advance(program, member, top.pc + 1),
                instr.label,
                "IRelease",
                aglobals=aglobals,
            )
        ]

    if isinstance(instr, IAssign):
        val = eval_abs(dom, instr.expr, acfg, locals_, warnings)
        dest = resolve_lv_abs(dom, instr.target, acfg, locals_, warnings)
        if dest[0] == "l":
            new_locals = locals_[: dest[1]] + (val,) + locals_[dest[1] + 1 :]
            return [
                _MemberSucc(
                    _advance(program, member, top.pc + 1, new_locals),
                    instr.label,
                    "IAssign",
                )
            ]
        aglobals, aheap = write_shared(dom, acfg, dest, val)
        return [
            _MemberSucc(
                _advance(program, member, top.pc + 1),
                instr.label,
                "IAssign",
                aglobals=aglobals,
                aheap=aheap,
            )
        ]

    if isinstance(instr, IAlloc):
        eval_abs(dom, instr.size, acfg, locals_, warnings)
        one_cell = isinstance(instr.size, RConst) and instr.size.value == 1
        existing = acfg.heap_obj(instr.site)
        if existing is None:
            aheap = tuple(
                sorted(
                    acfg.aheap
                    + (
                        AbsHeapObj(
                            site=instr.site,
                            val=dom.const(0),
                            single=True,
                            single_cell=one_cell,
                        ),
                    ),
                    key=lambda o: o.site,
                )
            )
        else:
            aheap = tuple(
                replace(
                    o,
                    val=dom.join(o.val, dom.const(0)),
                    single=False,
                    single_cell=o.single_cell and one_cell,
                )
                if o.site == instr.site
                else o
                for o in acfg.aheap
            )
        ptr = dom.ptr_val((("site", instr.site),))
        dest = resolve_lv_abs(dom, instr.target, acfg, locals_, warnings)
        if dest[0] == "l":
            new_locals = locals_[: dest[1]] + (ptr,) + locals_[dest[1] + 1 :]
            return [
                _MemberSucc(
                    _advance(program, member, top.pc + 1, new_locals),
                    instr.label,
                    "IAlloc",
                    aheap=aheap,
                )
            ]
        tmp = AbsConfig(procs=acfg.procs, aglobals=acfg.aglobals, aheap=aheap)
        aglobals, aheap = write_shared(dom, tmp, dest, ptr)
        return [
            _MemberSucc(
                _advance(program, member, top.pc + 1),
                instr.label,
                "IAlloc",
                aglobals=aglobals,
                aheap=aheap,
            )
        ]

    if isinstance(instr, ICall):
        callee_val = eval_abs(dom, instr.callee, acfg, locals_, warnings)
        num, ptrs, funcs = callee_val
        if not dom.num.is_bottom(num) or ptrs:
            warnings.append(f"call at {instr.label!r} through a possibly-non-function")
        if not funcs:
            return []
        args = [eval_abs(dom, a, acfg, locals_, warnings) for a in instr.args]
        ret_loc = None
        if instr.target is not None:
            dest = resolve_lv_abs(dom, instr.target, acfg, locals_, warnings)
            if dest[0] == "sites":
                ret_loc = ("sites", dest[1], dest[2])
            else:
                ret_loc = dest
        out = []
        for fname in sorted(funcs):
            fc = program.funcs.get(fname)
            if fc is None or fc.num_params != len(args):
                warnings.append(f"call at {instr.label!r}: bad callee {fname!r}")
                continue
            caller_top = AbsFrame(
                func=top.func,
                pc=program.funcs[top.func].landing[top.pc + 1],
                locals=locals_,
                ret_loc=top.ret_loc,
            )
            callee_locals = tuple(args) + (dom.const(0),) * (
                fc.num_locals - fc.num_params
            )
            callee_frame = AbsFrame(
                func=fname,
                pc=fc.landing[0],
                locals=callee_locals,
                ret_loc=ret_loc,
            )
            out.append(
                _MemberSucc(
                    Member(
                        frames=member.frames[:-1] + (caller_top, callee_frame),
                        status=RUNNING,
                    ),
                    instr.label,
                    "ICall",
                )
            )
        return out

    if isinstance(instr, IReturn):
        val = (
            eval_abs(dom, instr.expr, acfg, locals_, warnings)
            if instr.expr is not None
            else dom.const(0)
        )
        if len(member.frames) == 1:
            return [
                _MemberSucc(Member(frames=(), status=DONE), instr.label, "IReturn")
            ]
        ret_loc = top.ret_loc
        caller = member.frames[-2]
        if ret_loc is None:
            return [
                _MemberSucc(
                    Member(frames=member.frames[:-2] + (caller,), status=RUNNING),
                    instr.label,
                    "IReturn",
                )
            ]
        if ret_loc[0] == "l":
            new_caller = AbsFrame(
                func=caller.func,
                pc=caller.pc,
                locals=caller.locals[: ret_loc[1]]
                + (val,)
                + caller.locals[ret_loc[1] + 1 :],
                ret_loc=caller.ret_loc,
            )
            return [
                _MemberSucc(
                    Member(frames=member.frames[:-2] + (new_caller,), status=RUNNING),
                    instr.label,
                    "IReturn",
                )
            ]
        aglobals, aheap = write_shared(dom, acfg, ret_loc, val)
        return [
            _MemberSucc(
                Member(frames=member.frames[:-2] + (caller,), status=RUNNING),
                instr.label,
                "IReturn",
                aglobals=aglobals,
                aheap=aheap,
            )
        ]

    if isinstance(instr, ICobegin):
        return _spawn(program, acfg, proc, member, instr, opts)

    if isinstance(instr, IThreadEnd):
        return [
            _MemberSucc(Member(frames=(), status=DONE), instr.label, "IThreadEnd")
        ]

    raise AnalysisError(f"unknown instruction {type(instr).__name__}")


def _branch_signature(program: Program, func: str, start: int, end: int) -> tuple:
    """Structural signature of a branch region — labels dropped, branch
    and jump targets made region-relative — for clan grouping of
    identical branches."""
    import dataclasses

    out = []
    instrs = program.funcs[func].instrs
    for pc in range(start, end):
        ins = dataclasses.replace(instrs[pc], label="", line=0)
        if isinstance(ins, IBranch):
            ins = dataclasses.replace(
                ins, then_target=ins.then_target - start, else_target=ins.else_target - start
            )
        if isinstance(ins, IJump):
            ins = dataclasses.replace(ins, target=ins.target - start)
        if isinstance(ins, ICobegin):
            return ("has-nested-cobegin", pc)  # never grouped
        if isinstance(ins, IAlloc):
            ins = dataclasses.replace(ins, site="")
        out.append(ins)
    return tuple(out)


def _spawn(
    program: Program,
    acfg: AbsConfig,
    proc: AbsProcess,
    member: Member,
    instr: ICobegin,
    opts: AbsOptions,
) -> list[_MemberSucc]:
    dom = opts.dom
    top = member.frames[-1]
    fc = program.funcs[top.func]
    n = len(instr.branch_targets)
    # region boundaries: branch i spans [target_i, target_{i+1}) with the
    # last ending at the join target
    bounds = list(instr.branch_targets) + [instr.join_target]

    groups: list[tuple[int, list[int]]] = []  # (first branch idx, members)
    if opts.clan_fold:
        by_sig: dict[tuple, list[int]] = {}
        order: list[tuple] = []
        for i in range(n):
            sig = _branch_signature(program, top.func, bounds[i], bounds[i + 1])
            if sig not in by_sig:
                by_sig[sig] = []
                order.append(sig)
            by_sig[sig].append(i)
        groups = [(idxs[0], idxs) for sig in order for idxs in (by_sig[sig],)]
    else:
        groups = [(i, [i]) for i in range(n)]

    children: list[AbsProcess] = []
    for first, idxs in groups:
        count = ONE if len(idxs) == 1 else MANY
        start = Member(
            frames=(
                AbsFrame(
                    func=top.func,
                    pc=fc.landing[instr.branch_targets[first]],
                    locals=(dom.const(0),) * fc.num_locals,
                    ret_loc=None,
                ),
            ),
            status=RUNNING,
        )
        children.append(
            AbsProcess(
                pid=proc.pid + (first,), points=((start, count),), children=()
            )
        )
    joining = Member(frames=member.frames, status=JOINING)
    return [
        _MemberSucc(
            member=joining,
            label=instr.label,
            kind="ICobegin",
            spawns=tuple(children),
        )
    ]


# --------------------------------------------------------------------------
# configuration-level successors
# --------------------------------------------------------------------------


def abstract_successors(
    program: Program,
    acfg: AbsConfig,
    opts: AbsOptions,
    warning_sink: list[str] | None = None,
) -> list[tuple[AbsConfig, AbsStepInfo]]:
    """All abstract successors of *acfg*, over every clan point.

    ``warning_sink`` additionally receives every warning, including
    those of members that produce *no* successor (e.g. an assertion
    that definitely fails) — successors alone would drop them.
    """
    out: list[tuple[AbsConfig, AbsStepInfo]] = []
    for proc in acfg.procs:
        if proc.points and all(m.status == DONE for m, _ in proc.points):
            continue
        for m, count in proc.points:
            warnings: list[str] = []
            succs = member_successors(program, acfg, proc, m, opts, warnings)
            if warning_sink is not None:
                warning_sink.extend(warnings)
            for ms in succs:
                for cfg in _apply_member_succ(acfg, proc, m, count, ms):
                    out.append(
                        (
                            cfg,
                            AbsStepInfo(
                                pid=proc.pid,
                                label=ms.label,
                                kind=ms.kind,
                                warnings=tuple(warnings),
                            ),
                        )
                    )
    return out


def _apply_member_succ(
    acfg: AbsConfig,
    proc: AbsProcess,
    member: Member,
    count: int,
    ms: _MemberSucc,
) -> list[AbsConfig]:
    """Lift a member successor to configuration successors, forking on
    the MANY count ("one stays" / "the last one moves")."""
    remaining = [(m, c) for m, c in proc.points if m != member]

    variants: list[list[tuple[Member, int]]] = []
    if count == ONE:
        variants.append(remaining + [(ms.member, ONE)])
    else:
        variants.append(remaining + [(member, MANY), (ms.member, ONE)])
        variants.append(remaining + [(member, ONE), (ms.member, ONE)])

    out = []
    for points in variants:
        new_proc = AbsProcess(
            pid=proc.pid,
            points=canon_points(points),
            children=()
            if ms.drop_children
            else (proc.children + tuple(s.pid for s in ms.spawns)),
        )
        procs = []
        dropped = set(proc.children) if ms.drop_children else set()
        for p in acfg.procs:
            if p.pid == proc.pid:
                procs.append(new_proc)
            elif p.pid not in dropped:
                procs.append(p)
        procs.extend(ms.spawns)
        procs.sort(key=lambda p: p.pid)
        out.append(
            AbsConfig(
                procs=tuple(procs),
                aglobals=ms.aglobals if ms.aglobals is not None else acfg.aglobals,
                aheap=ms.aheap if ms.aheap is not None else acfg.aheap,
            )
        )
    return out
