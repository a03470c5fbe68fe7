"""The atomic-step (transition) function of the concrete semantics.

One call to :func:`execute` performs one **atomic action** of one
process: the granularity at which the exploration engine interleaves.
Besides the successor configuration, every action reports:

- its dynamic **read/write location sets** — the ``r_i``/``w_i`` of the
  paper's Algorithm 1 (stubborn sets);
- instrumentation for the client analyses: the acting process's function
  stack and depth, its procedure string, objects allocated, functions
  entered/exited.

:func:`next_infos` additionally reports, for *disabled* processes, the
**necessary enabling set** (NES): the locations some other process must
write before the process can become enabled.  The stubborn-set closure
consumes this.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.lang.instructions import (
    IAcquire,
    IAlloc,
    IAssert,
    IAssign,
    IAssume,
    IBranch,
    ICall,
    ICobegin,
    IRelease,
    IReturn,
    ISkip,
    IThreadEnd,
    Instr,
    RFunc,
)
from repro.lang.program import Program
from repro.semantics import procstring as PS
from repro.semantics.config import (
    DONE,
    JOINING,
    RUNNING,
    Config,
    Frame,
    HeapObj,
    Loc,
    Pid,
    Process,
    collect_garbage,
    glob_loc,
    loc_value,
    proc_loc,
)
from repro.semantics.eval import eval_expr, eval_lvalue
from repro.semantics.values import FuncRef, Pointer, Value, truthy
from repro.util.errors import RuntimeFault


@dataclass(frozen=True)
class StepOptions:
    """Knobs of the semantics.

    track_procstrings:
        Maintain procedure strings and object birthdates (instrumented
        semantics, §5).  Off by default: instrumentation refines state
        identity and grows the explored space.
    gc:
        Garbage-collect unreachable heap objects after each action, so
        configurations differing only in dead objects merge.
    """

    track_procstrings: bool = False
    gc: bool = True


@dataclass(frozen=True)
class ActionInfo:
    """Metadata of one executed atomic action."""

    pid: Pid
    label: str
    kind: str
    reads: tuple[Loc, ...]
    writes: tuple[Loc, ...]
    stack: tuple[str, ...]
    depth: int
    allocs: tuple = ()
    entered: str | None = None
    exited: str | None = None
    ps: PS.ProcString = ()
    line: int = 0


@dataclass(frozen=True)
class NextInfo:
    """Per-process expansion info at a configuration."""

    proc: Process
    enabled: bool
    succ: Config | None = None
    action: ActionInfo | None = None
    # For disabled processes: locations whose *write* could enable it,
    # plus (for joins) the children that must terminate first.
    nes: tuple[Loc, ...] = ()
    blocked_children: tuple[Pid, ...] = ()


# --------------------------------------------------------------------------
# control-flow helpers
# --------------------------------------------------------------------------


def current_instr(program: Program, proc: Process) -> Instr:
    top = proc.top
    return program.funcs[top.func].instrs[top.pc]


# --------------------------------------------------------------------------
# enabledness
# --------------------------------------------------------------------------


def enabledness(
    program: Program, config: Config, proc: Process, footprint: list | None = None
) -> tuple[bool, tuple[Loc, ...], tuple[Pid, ...]]:
    """Return ``(enabled, nes_locations, blocked_children)`` for *proc*.

    For a disabled process the NES lists the shared locations whose
    change could enable it (guard reads / the lock cell); for a blocked
    join the children that must still terminate are listed instead.

    With *footprint* (a list) supplied, every shared location this
    decision consulted is appended as a ``(loc, value)`` pair — the
    values it saw in *config*.  Any configuration where the same process
    sees the same footprint values reaches the same verdict, which is
    what the expansion memo cache keys on.  Note the footprint can be
    strictly larger than the NES: a join consults *every* child's
    status, enabled assumes consult their guard reads.
    """
    if proc.status == DONE:
        return (False, (), ())
    if proc.status == JOINING:
        if footprint is None:
            waiting = tuple(
                c for c in proc.children if config.proc(c).status != DONE
            )
        else:
            blocked = []
            for c in proc.children:
                status = config.proc(c).status
                footprint.append((proc_loc(c), status))
                if status != DONE:
                    blocked.append(c)
            waiting = tuple(blocked)
        if waiting:
            return (False, tuple(proc_loc(c) for c in waiting), waiting)
        return (True, (), ())
    instr = current_instr(program, proc)
    if isinstance(instr, IAssume):
        reads: list[Loc] = []
        try:
            v = eval_expr(instr.cond, config, proc.top.locals, reads)
        except RuntimeFault:
            # executing it will fault — that's a transition
            _record_reads(footprint, config, reads)
            return (True, (), ())
        _record_reads(footprint, config, reads)
        if truthy(v):
            return (True, (), ())
        return (False, tuple(reads), ())
    if isinstance(instr, IAcquire):
        if footprint is not None:
            footprint.append(
                (glob_loc(instr.index), config.globals[instr.index])
            )
        if config.globals[instr.index] == 0:
            return (True, (), ())
        return (False, (glob_loc(instr.index),), ())
    return (True, (), ())


def _record_reads(
    footprint: list | None, config: Config, reads: list[Loc]
) -> None:
    """Append ``(loc, value-in-config)`` for every read location.  The
    locations were just read successfully, so the values are present."""
    if footprint is None:
        return
    for loc in reads:
        footprint.append((loc, loc_value(config, loc)))


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------


def execute(
    program: Program,
    config: Config,
    proc: Process,
    opts: StepOptions = StepOptions(),
) -> tuple[Config, ActionInfo]:
    """Execute *proc*'s next atomic action.  The caller must have checked
    enabledness.  A :class:`RuntimeFault` in the subject program yields a
    terminal fault configuration, not a Python exception."""
    stack = proc.func_stack()
    depth = proc.depth if proc.frames else 0
    base = dict(
        pid=proc.pid,
        stack=stack,
        depth=depth,
        ps=proc.ps,
    )

    if proc.status == JOINING:
        return _exec_join(program, config, proc, base)

    instr = current_instr(program, proc)
    reads: list[Loc] = []
    try:
        return _dispatch(program, config, proc, instr, reads, base, opts)
    except RuntimeFault as fault:
        action = ActionInfo(
            label=instr.label,
            kind=type(instr).__name__,
            reads=tuple(reads),
            writes=(),
            line=instr.line,
            **base,
        )
        fault_cfg = Config(
            procs=config.procs,
            globals=config.globals,
            heap=config.heap,
            fault=f"{fault.kind} at {instr.label or instr.line}: {fault.detail}",
        )
        return fault_cfg, action


def _finish(
    config: Config,
    opts: StepOptions,
) -> Config:
    if opts.gc and config.fault is None:
        return collect_garbage(config)
    return config


def _exec_join(
    program: Program, config: Config, proc: Process, base: dict
) -> tuple[Config, ActionInfo]:
    instr = current_instr(program, proc)
    assert isinstance(instr, ICobegin)
    join_pc = program.funcs[proc.top.func].landing[instr.join_target]
    new_top = replace(proc.top, pc=join_pc)
    new_proc = replace(
        proc,
        frames=proc.frames[:-1] + (new_top,),
        status=RUNNING,
        children=(),
    )
    children = set(proc.children)
    new_procs = tuple(
        new_proc if p.pid == proc.pid else p
        for p in config.procs
        if p.pid not in children
    )
    new_cfg = Config(procs=new_procs, globals=config.globals, heap=config.heap)
    action = ActionInfo(
        label=(instr.label + "$join") if instr.label else "$join",
        kind="IJoin",
        reads=tuple(proc_loc(c) for c in proc.children),
        writes=(),
        line=instr.line,
        **base,
    )
    return new_cfg, action


def _dispatch(
    program: Program,
    config: Config,
    proc: Process,
    instr: Instr,
    reads: list[Loc],
    base: dict,
    opts: StepOptions,
) -> tuple[Config, ActionInfo]:
    top = proc.top
    func = top.func
    code = program.funcs[func]
    landing = code.landing

    def advance(pc: int, locals_: tuple[Value, ...] | None = None) -> Process:
        new_top = replace(
            top, pc=landing[pc], locals=top.locals if locals_ is None else locals_
        )
        return replace(proc, frames=proc.frames[:-1] + (new_top,))

    def mk_action(writes: tuple[Loc, ...], **extra) -> ActionInfo:
        return ActionInfo(
            label=instr.label,
            kind=type(instr).__name__,
            reads=tuple(reads),
            writes=writes,
            line=instr.line,
            **base,
            **extra,
        )

    def commit(
        new_proc: Process,
        writes: tuple[Loc, ...] = (),
        globals_: tuple | None = None,
        heap: tuple | None = None,
        extra_procs: tuple[Process, ...] = (),
        **extra,
    ) -> tuple[Config, ActionInfo]:
        procs = tuple(new_proc if p.pid == proc.pid else p for p in config.procs)
        if extra_procs:
            procs = tuple(sorted(procs + extra_procs, key=lambda p: p.pid))
        cfg = Config(
            procs=procs,
            globals=config.globals if globals_ is None else globals_,
            heap=config.heap if heap is None else heap,
        )
        return _finish(cfg, opts), mk_action(writes, **extra)

    # ---------------- simple actions ----------------
    if isinstance(instr, ISkip):
        return commit(advance(top.pc + 1))

    if isinstance(instr, IAssume):
        v = eval_expr(instr.cond, config, top.locals, reads)
        assert truthy(v), "execute() on a disabled assume"
        return commit(advance(top.pc + 1))

    if isinstance(instr, IAssert):
        v = eval_expr(instr.cond, config, top.locals, reads)
        if not truthy(v):
            raise RuntimeFault("assert-failed", f"assertion {instr.label!r} is false")
        return commit(advance(top.pc + 1))

    if isinstance(instr, IBranch):
        v = eval_expr(instr.cond, config, top.locals, reads)
        target = instr.then_target if truthy(v) else instr.else_target
        return commit(advance(target))

    if isinstance(instr, IAcquire):
        assert config.globals[instr.index] == 0, "execute() on a held lock"
        new_globals = _set_tuple(config.globals, instr.index, 1)
        reads.append(glob_loc(instr.index))
        return commit(
            advance(top.pc + 1),
            writes=(glob_loc(instr.index),),
            globals_=new_globals,
        )

    if isinstance(instr, IRelease):
        new_globals = _set_tuple(config.globals, instr.index, 0)
        return commit(
            advance(top.pc + 1),
            writes=(glob_loc(instr.index),),
            globals_=new_globals,
        )

    # ---------------- data actions ----------------
    if isinstance(instr, IAssign):
        value = eval_expr(instr.expr, config, top.locals, reads)
        dest = eval_lvalue(instr.target, config, top.locals, reads)
        return _store_to(
            program, config, proc, dest, value, advance, commit, top
        )

    if isinstance(instr, IAlloc):
        size = eval_expr(instr.size, config, top.locals, reads)
        if not isinstance(size, int) or size < 0:
            raise RuntimeFault("bad-alloc", f"malloc size {size!r}")
        oid = config.fresh_oid(instr.site)
        obj = HeapObj(
            oid=oid,
            cells=(0,) * size,
            birth_pid=proc.pid,
            birth_ps=proc.ps if opts.track_procstrings else (),
        )
        new_heap = tuple(sorted(config.heap + (obj,), key=lambda o: o.oid))
        dest = eval_lvalue(instr.target, config, top.locals, reads)
        value = Pointer(oid, 0)
        if dest[0] == "l":
            new_locals = _set_tuple(top.locals, dest[1], value)
            return commit(
                advance(top.pc + 1, new_locals), heap=new_heap, allocs=(oid,)
            )
        new_globals, new_heap = _write_shared(config, dest, value, heap=new_heap)
        return commit(
            advance(top.pc + 1),
            writes=(dest,),
            globals_=new_globals,
            heap=new_heap,
            allocs=(oid,),
        )

    # ---------------- control transfers ----------------
    if isinstance(instr, ICall):
        callee = eval_expr(instr.callee, config, top.locals, reads)
        if not isinstance(callee, FuncRef):
            raise RuntimeFault("bad-call", f"calling non-function {callee!r}")
        fc = program.funcs.get(callee.name)
        if fc is None:  # pragma: no cover - RFunc values always name real funcs
            raise RuntimeFault("bad-call", f"no function {callee.name!r}")
        args = [eval_expr(a, config, top.locals, reads) for a in instr.args]
        if len(args) != fc.num_params:
            raise RuntimeFault(
                "bad-call",
                f"{callee.name} expects {fc.num_params} args, got {len(args)}",
            )
        ret_loc = None
        if instr.target is not None:
            ret_loc = eval_lvalue(instr.target, config, top.locals, reads)
        # caller resumes past the call
        caller_top = replace(top, pc=landing[top.pc + 1])
        locals_ = tuple(args) + (0,) * (fc.num_locals - fc.num_params)
        callee_frame = Frame(
            func=callee.name,
            pc=fc.landing[0],
            locals=locals_,
            ret_loc=ret_loc,
        )
        new_ps = proc.ps
        if opts.track_procstrings:
            new_ps = PS.push(proc.ps, PS.enter_proc(callee.name, instr.label))
        new_proc = replace(
            proc, frames=proc.frames[:-1] + (caller_top, callee_frame), ps=new_ps
        )
        return commit(new_proc, entered=callee.name)

    if isinstance(instr, IReturn):
        value: Value = 0
        if instr.expr is not None:
            value = eval_expr(instr.expr, config, top.locals, reads)
        new_ps = proc.ps
        if opts.track_procstrings and proc.ps and proc.ps[-1][0] == "+":
            new_ps = proc.ps[:-1]
        if len(proc.frames) == 1:
            new_proc = replace(
                proc, frames=(), status=DONE, retval=value, ps=new_ps
            )
            writes: tuple[Loc, ...] = ()
            if proc.pid != (0,):  # pragma: no cover - only root runs plain returns
                writes = (proc_loc(proc.pid),)
            return commit(new_proc, writes=writes, exited=func)
        ret_loc = top.ret_loc
        caller = proc.frames[-2]
        if ret_loc is None:
            new_proc = replace(
                proc, frames=proc.frames[:-2] + (caller,), ps=new_ps
            )
            return commit(new_proc, exited=func)
        if ret_loc[0] == "l":
            new_caller = replace(
                caller, locals=_set_tuple(caller.locals, ret_loc[1], value)
            )
            new_proc = replace(
                proc, frames=proc.frames[:-2] + (new_caller,), ps=new_ps
            )
            return commit(new_proc, exited=func)
        new_globals, new_heap = _write_shared(config, ret_loc, value)
        new_proc = replace(proc, frames=proc.frames[:-2] + (caller,), ps=new_ps)
        return commit(
            new_proc,
            writes=(ret_loc,),
            globals_=new_globals,
            heap=new_heap,
            exited=func,
        )

    if isinstance(instr, ICobegin):
        children: list[Process] = []
        writes: list[Loc] = []
        for i, bt in enumerate(instr.branch_targets):
            cpid = proc.pid + (i,)
            cps: PS.ProcString = ()
            if opts.track_procstrings:
                cps = PS.push(proc.ps, PS.enter_thread(i, instr.label))
            children.append(
                Process(
                    pid=cpid,
                    frames=(
                        Frame(
                            func=func,
                            pc=landing[bt],
                            locals=(0,) * code.num_locals,
                            ret_loc=None,
                        ),
                    ),
                    status=RUNNING,
                    ps=cps,
                )
            )
            writes.append(proc_loc(cpid))
        new_proc = replace(
            proc,
            status=JOINING,
            children=tuple(c.pid for c in children),
        )
        return commit(new_proc, writes=tuple(writes), extra_procs=tuple(children))

    if isinstance(instr, IThreadEnd):
        new_proc = replace(proc, frames=(), status=DONE, retval=None)
        return commit(new_proc, writes=(proc_loc(proc.pid),))

    raise RuntimeFault("bad-instr", f"unknown instruction {type(instr).__name__}")


def _store_to(program, config, proc, dest, value, advance, commit, top):
    if dest[0] == "l":
        new_locals = _set_tuple(top.locals, dest[1], value)
        return commit(advance(top.pc + 1, new_locals))
    new_globals, new_heap = _write_shared(config, dest, value)
    return commit(
        advance(top.pc + 1), writes=(dest,), globals_=new_globals, heap=new_heap
    )


def _write_shared(
    config: Config, loc, value: Value, heap: tuple | None = None
) -> tuple[tuple, tuple]:
    """Write a global or heap cell; returns (globals, heap)."""
    the_heap = config.heap if heap is None else heap
    if loc[0] == "g":
        return _set_tuple(config.globals, loc[1], value), the_heap
    assert loc[0] == "h"
    oid, off = loc[1], loc[2]
    new_heap = []
    found = False
    for obj in the_heap:
        if obj.oid == oid:
            new_heap.append(replace(obj, cells=_set_tuple(obj.cells, off, value)))
            found = True
        else:
            new_heap.append(obj)
    if not found:
        raise RuntimeFault("bad-deref", f"dangling pointer to {oid}")
    return config.globals, tuple(new_heap)


def _set_tuple(t: tuple, i: int, v) -> tuple:
    return t[:i] + (v,) + t[i + 1 :]


# --------------------------------------------------------------------------
# frontier computation
# --------------------------------------------------------------------------


def next_infos(
    program: Program, config: Config, opts: StepOptions = StepOptions()
) -> list[NextInfo]:
    """Expansion info for every live process of *config*, in pid order.

    Enabled processes carry their successor configuration and action;
    disabled ones carry their NES.  Terminal/fault configurations return
    an empty list.
    """
    if config.fault is not None:
        return []
    out: list[NextInfo] = []
    for proc in config.live_procs():
        enabled, nes, blocked = enabledness(program, config, proc)
        if not enabled:
            out.append(
                NextInfo(proc=proc, enabled=False, nes=nes, blocked_children=blocked)
            )
            continue
        succ, action = execute(program, config, proc, opts)
        out.append(NextInfo(proc=proc, enabled=True, succ=succ, action=action))
    return out
