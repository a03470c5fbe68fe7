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

Successors
----------
:func:`execute` swaps one new :class:`Process` into the configuration;
every other component is shared with the parent by reference.  When it
is built, the process gets one new :class:`Frame` (a call pushes two),
by direct construction.

An exploration passes its **share table** (a plain dict it creates and
drops with the run; each parallel worker keeps its own) as ``share``.
The successor process comes from it by a key of plain values before
anything is built: ``(pre-step process, new top pc, new locals, status,
children, retval, ps)`` when only the top frame's pc and locals change,
the same with pc ``None`` when the process ends.  A miss, and a step
that pushes or pops a frame or spawns children, builds the process and
replaces it by the run's canonical equal object.  The
:class:`ActionInfo` comes from the table by its key ``(pre-step
process, reads, writes, (allocs, entered, exited))``: the program fixes
the instruction from the process, so the key fixes the action, and a
hit builds nothing.  A new action is canonicalised by value too, so a
run holds each distinct process and action once (on ``philosophers(5)``
fully interleaved: 44 processes and 38 actions instead of 18,343 and
69,438 objects, with 44 processes and 37 frames built instead of 69,444
and 55,202).  Shared processes carry their cached hash
(:class:`~repro.semantics.config.Process`), so hashing and comparing
successor configurations costs per changed process.  Called without
``share`` (replay, the scheduler, tests), :func:`execute` builds fresh,
equal objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

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
)
from repro.lang.program import Program
from repro.semantics import procstring as PS
from repro.semantics.config import (
    DONE,
    JOINING,
    ROOT_PID,
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

#: ``(allocs, entered, exited)`` of an action that does none of them
_NO_EXTRA = ((), None, None)

#: the share-table entry that maps successor keys to the run's
#: canonical successor processes (see :func:`_successor`)
_BY_KEY = object()


def shared_objects(share: dict) -> int:
    """The processes, actions and action keys *share* holds; the
    successor keys that only find processes again are not counted."""
    return len(share) - (_BY_KEY in share)


_by_pid = attrgetter("pid")
_by_oid = attrgetter("oid")


def execute(
    program: Program,
    config: Config,
    proc: Process,
    opts: StepOptions = StepOptions(),
    share: dict | None = None,
) -> tuple[Config, ActionInfo]:
    """Execute *proc*'s next atomic action.  The caller must have checked
    enabledness.  A :class:`RuntimeFault` in the subject program yields a
    terminal fault configuration, not a Python exception.

    *share* is the calling run's share table (see the module doc): the
    successor's new processes and the action come back as the run's
    canonical equal objects.  Without it every call builds fresh ones."""
    instr = current_instr(program, proc)
    reads: list[Loc] = []
    try:
        procs, writes, globals_, heap, extra = _successor(
            program, config, proc, instr, reads, opts, share
        )
    except RuntimeFault as fault:
        fault_cfg = Config(
            config.procs,
            config.globals,
            config.heap,
            f"{fault.kind} at {instr.label or instr.line}: {fault.detail}",
        )
        return fault_cfg, _action(proc, instr, tuple(reads), (), _NO_EXTRA, share)
    succ = Config(procs, globals_, heap)
    if opts.gc and heap:
        succ = collect_garbage(succ)
    return succ, _action(proc, instr, tuple(reads), writes, extra, share)


def _action(proc, instr, reads, writes, extra, share) -> ActionInfo:
    """The record of *proc* executing *instr*.  It is a function of
    ``(proc, reads, writes, extra)`` (the program fixes *instr* from
    *proc*), so with *share* a repeated key returns the run's canonical
    action without building one; a new one is canonicalised by value."""
    if share is not None:
        key = (proc, reads, writes, extra)
        action = share.get(key)
        if action is not None:
            return action
    label, kind = instr.label, type(instr).__name__
    if proc.status == JOINING:
        label, kind = (label + "$join") if label else "$join", "IJoin"
    allocs, entered, exited = extra
    action = ActionInfo(
        proc.pid, label, kind, reads, writes, proc.func_stack(),
        len(proc.frames), allocs, entered, exited, proc.ps, instr.line,
    )
    if share is not None:
        action = share[key] = share.setdefault(action, action)
    return action


def _successor(program, config, proc, instr, reads, opts, share):
    """The successor's ``(procs, writes, globals, heap, extra)``: one new
    process with one new top frame (a call pushes a second), plus the
    children a cobegin spawns, each canonical in *share* when given.
    Shared reads are appended to *reads* as they happen."""
    top = proc.top
    code = program.funcs[top.func]
    landing = code.landing
    globals_, heap, procs = config.globals, config.heap, config.procs
    writes: tuple[Loc, ...] = ()
    extra = _NO_EXTRA
    status, children, retval, ps = proc.status, proc.children, proc.retval, proc.ps
    locals_ = top.locals
    target = top.pc + 1  # unlanded index of the next instruction
    frames = None  # set when more than the top frame's pc/locals change
    spawned: list[Process] = []

    if status == JOINING:
        reads.extend(proc_loc(c) for c in children)
        target = instr.join_target
        procs = tuple([p for p in procs if p.pid not in children])
        status, children = RUNNING, ()

    elif isinstance(instr, ISkip):
        pass

    elif isinstance(instr, IAssume):
        v = eval_expr(instr.cond, config, locals_, reads)
        assert truthy(v), "execute() on a disabled assume"

    elif isinstance(instr, IAssert):
        v = eval_expr(instr.cond, config, locals_, reads)
        if not truthy(v):
            raise RuntimeFault("assert-failed", f"assertion {instr.label!r} is false")

    elif isinstance(instr, IBranch):
        v = eval_expr(instr.cond, config, locals_, reads)
        target = instr.then_target if truthy(v) else instr.else_target

    elif isinstance(instr, IAcquire):
        assert globals_[instr.index] == 0, "execute() on a held lock"
        globals_ = _set_tuple(globals_, instr.index, 1)
        reads.append(glob_loc(instr.index))
        writes = (glob_loc(instr.index),)

    elif isinstance(instr, IRelease):
        globals_ = _set_tuple(globals_, instr.index, 0)
        writes = (glob_loc(instr.index),)

    # ---------------- data actions ----------------
    elif isinstance(instr, IAssign):
        value = eval_expr(instr.expr, config, locals_, reads)
        dest = eval_lvalue(instr.target, config, locals_, reads)
        if dest[0] == "l":
            locals_ = _set_tuple(locals_, dest[1], value)
        else:
            globals_, heap = _write_shared(config, dest, value)
            writes = (dest,)

    elif isinstance(instr, IAlloc):
        size = eval_expr(instr.size, config, locals_, reads)
        if not isinstance(size, int) or size < 0:
            raise RuntimeFault("bad-alloc", f"malloc size {size!r}")
        oid = config.fresh_oid(instr.site)
        obj = HeapObj(
            oid, (0,) * size, proc.pid, ps if opts.track_procstrings else ()
        )
        heap = tuple(sorted(heap + (obj,), key=_by_oid))
        dest = eval_lvalue(instr.target, config, locals_, reads)
        value = Pointer(oid, 0)
        if dest[0] == "l":
            locals_ = _set_tuple(locals_, dest[1], value)
        else:
            globals_, heap = _write_shared(config, dest, value, heap=heap)
            writes = (dest,)
        extra = ((oid,), None, None)

    # ---------------- control transfers ----------------
    elif isinstance(instr, ICall):
        callee = eval_expr(instr.callee, config, locals_, reads)
        if not isinstance(callee, FuncRef):
            raise RuntimeFault("bad-call", f"calling non-function {callee!r}")
        fc = program.funcs.get(callee.name)
        if fc is None:  # pragma: no cover - RFunc values always name real funcs
            raise RuntimeFault("bad-call", f"no function {callee.name!r}")
        args = [eval_expr(a, config, locals_, reads) for a in instr.args]
        if len(args) != fc.num_params:
            raise RuntimeFault(
                "bad-call",
                f"{callee.name} expects {fc.num_params} args, got {len(args)}",
            )
        ret_loc = None
        if instr.target is not None:
            ret_loc = eval_lvalue(instr.target, config, locals_, reads)
        # the caller resumes past the call
        frames = proc.frames[:-1] + (
            Frame(top.func, landing[target], locals_, top.ret_loc),
            Frame(
                callee.name,
                fc.landing[0],
                tuple(args) + (0,) * (fc.num_locals - fc.num_params),
                ret_loc,
            ),
        )
        if opts.track_procstrings:
            ps = PS.push(ps, PS.enter_proc(callee.name, instr.label))
        extra = ((), callee.name, None)

    elif isinstance(instr, IReturn):
        value: Value = 0
        if instr.expr is not None:
            value = eval_expr(instr.expr, config, locals_, reads)
        if opts.track_procstrings and ps and ps[-1][0] == "+":
            ps = ps[:-1]
        extra = ((), None, top.func)
        if len(proc.frames) == 1:
            frames, status, retval = (), DONE, value
            if proc.pid != ROOT_PID:  # pragma: no cover - only root runs plain returns
                writes = (proc_loc(proc.pid),)
        else:
            ret_loc = top.ret_loc
            caller = proc.frames[-2]
            if ret_loc is None:
                pass
            elif ret_loc[0] == "l":
                caller = Frame(
                    caller.func,
                    caller.pc,
                    _set_tuple(caller.locals, ret_loc[1], value),
                    caller.ret_loc,
                )
            else:
                globals_, heap = _write_shared(config, ret_loc, value)
                writes = (ret_loc,)
            frames = proc.frames[:-2] + (caller,)

    elif isinstance(instr, ICobegin):
        for i, bt in enumerate(instr.branch_targets):
            cps: PS.ProcString = ()
            if opts.track_procstrings:
                cps = PS.push(ps, PS.enter_thread(i, instr.label))
            frame = Frame(top.func, landing[bt], (0,) * code.num_locals, None)
            spawned.append(Process(proc.pid + (i,), (frame,), RUNNING, ps=cps))
        frames, status = proc.frames, JOINING
        children = tuple(c.pid for c in spawned)
        writes = tuple(proc_loc(c) for c in children)

    elif isinstance(instr, IThreadEnd):
        frames, status, retval = (), DONE, None
        writes = (proc_loc(proc.pid),)

    else:
        raise RuntimeFault("bad-instr", f"unknown instruction {type(instr).__name__}")

    pc = None  # the process ended, or a call or return rebuilt its stack
    if frames is None:  # only the top frame's pc and locals changed
        pc = landing[target]
    new = key = None
    if share is not None and not frames:
        # the successor is a function of the pre-step process and what
        # the step changed: look it up before building it
        key = (proc, pc, locals_, status, children, retval, ps)
        by_key = share.get(_BY_KEY)
        if by_key is None:
            by_key = share[_BY_KEY] = {}
        new = by_key.get(key)
    if new is None:
        if frames is None:
            frames = proc.frames[:-1] + (
                Frame(top.func, pc, locals_, top.ret_loc),
            )
        new = Process(
            proc.pid, frames, status, proc.join_pc, children, retval, ps
        )
        if share is not None:
            new = share.setdefault(new, new)
            if key is not None:
                by_key[key] = new
    pid = proc.pid
    procs = tuple([new if p.pid == pid else p for p in procs])
    if spawned:
        if share is not None:
            spawned = [share.setdefault(c, c) for c in spawned]
        procs = tuple(sorted(procs + tuple(spawned), key=_by_pid))
    return procs, writes, globals_, heap, extra


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
            cells = _set_tuple(obj.cells, off, value)
            new_heap.append(HeapObj(oid, cells, obj.birth_pid, obj.birth_ps))
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
