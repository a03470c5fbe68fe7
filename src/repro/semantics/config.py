"""Configurations: the global states of the transition system.

A *configuration* (the paper's term) packages every live process, the
globals area, and the heap.  Configurations are immutable and hashable —
the exploration engine relies on structural equality to merge states
reached along different interleavings.

The records (:class:`Frame`, :class:`Process`, :class:`HeapObj`,
:class:`Config`) are slotted frozen dataclasses with a hand-written
``__init__`` that fills the slots through their descriptors
(:func:`slot_setters`); assigning a field still raises
:class:`~dataclasses.FrozenInstanceError`.  ``Frame`` pickles
positionally and still reads the ``__dict__`` state of pickles written
before it had slots (:func:`restore_slots`), as
:class:`~repro.explore.graph.Edge` does.

Process identities are **canonical paths**: the root process is ``(0,)``
and the *i*-th branch of a cobegin executed by process ``p`` is
``p + (i,)``.  Identities are therefore independent of interleaving
order, and two pids are *concurrent* exactly when neither is a prefix of
the other (a parent is blocked at its join while children run).

Interning
---------
Successor configurations along different interleavings share almost all
of their structure.  Within one exploration, the interpreter shares
what it builds: every run (the serial loop, each parallel worker) keeps
a share table, and :func:`~repro.semantics.step.execute` returns the
run's canonical equal :class:`Process` for each successor, found by a
key of plain values before any frame or process is built, so equality
checks between configurations of one run degrade to pointer comparisons
and the resident set holds each distinct process once.  The table
belongs to the run and is dropped with it.

The process-global tables behind :func:`intern_config` (and the
per-component :func:`intern_process` / :func:`intern_heap_obj`) remain
for transport: unpickling routes through them, which is what makes
configurations cheap to ship between the processes of the parallel
exploration backend — a worker that receives a configuration it has
seen before gets back the exact object it already holds.

``Config._hash`` and ``Process._hash`` are *salted, per-process* hashes —
fine for dict probing, never for identity: all visited-set structures
key on full structural equality (dict/set semantics), and the
cross-process digest, :func:`stable_digest`, is independent of
``PYTHONHASHSEED``.  Both are slots outside comparison: a configuration
computes its hash in ``__init__``, a process caches its own on first
use, so a configuration's hash is composed from the cached hashes of its
(shared) processes.  Neither hash is pickled, so a snapshot written
under one hash seed resumes under another.

O(delta) digests
----------------
:func:`stable_digest` composes fixed-size per-component digests cached
on each :class:`Process` and :class:`HeapObj` (``_digest`` fields), so
hashing a successor configuration costs proportional to what changed:
unchanged components are shared by reference with the parent and their
digests are reused.  ``__reduce__`` carries the cached digests across
pickle transport, so the parallel backend never re-hashes a received
configuration; :func:`digest_stats` exposes the compose/reuse counters
the transport tests and telemetry consume.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.lang.program import Program
from repro.semantics import procstring as PS
from repro.semantics.values import GLOBALS_OBJ, ObjId, Pointer, Value

Pid = tuple[int, ...]

ROOT_PID: Pid = (0,)

# Process statuses
RUNNING = "run"
JOINING = "join"
DONE = "done"

# Location keys (the currency of read/write sets):
#   ("g", index)          — a global variable
#   ("h", oid, offset)    — a heap cell
#   ("p", pid)            — process-completion pseudo-location
Loc = tuple


def glob_loc(index: int) -> Loc:
    return ("g", index)


def heap_loc(oid: ObjId, offset: int) -> Loc:
    return ("h", oid, offset)


def proc_loc(pid: Pid) -> Loc:
    return ("p", pid)


class _Missing:
    """Sentinel for :func:`loc_value`: location absent (unequal to every
    program value, including None)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing>"


MISSING = _Missing()


def loc_value(config: "Config", loc: Loc):
    """The current value of a shared location in *config*, or
    :data:`MISSING` when the location does not exist there (heap object
    absent or offset out of range, process pid absent).

    For ``("p", pid)`` pseudo-locations the "value" is the process's
    status — exactly the attribute join enabledness consults.  This is
    the probe primitive of the expansion memo cache: a cached footprint
    matches iff every recorded location still holds its recorded value.
    """
    tag = loc[0]
    if tag == "g":
        globals_ = config.globals
        index = loc[1]
        return globals_[index] if 0 <= index < len(globals_) else MISSING
    if tag == "h":
        obj = config.heap_obj(loc[1])
        if obj is None:
            return MISSING
        off = loc[2]
        return obj.cells[off] if 0 <= off < len(obj.cells) else MISSING
    try:
        return config.proc(loc[1]).status
    except KeyError:
        return MISSING


# Return destination of a call, resolved at call time:
#   ("g", index) | ("l", slot) | ("h", oid, offset) | None
RetLoc = Optional[tuple]


def slot_setters(cls: type, *names: str) -> tuple:
    """The slot descriptors' setters for *names* of *cls*.  A record's
    ``__init__`` fills its slots through them: one C call per slot,
    instead of the frozen dataclass's ``object.__setattr__`` per field.
    Assignment through the instance still raises
    :class:`~dataclasses.FrozenInstanceError`."""
    return tuple(getattr(cls, name).__set__ for name in names)


def restore_slots(obj, state: dict) -> None:
    """Fill *obj*'s slots from the dict state of a pickle written while
    the record kept a ``__dict__`` (older snapshots and stores)."""
    for name, value in state.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True, slots=True, init=False)
class Frame:
    """One procedure activation of a process."""

    func: str
    pc: int
    locals: tuple[Value, ...]
    ret_loc: RetLoc = None

    def __init__(self, func, pc, locals, ret_loc=None):
        _FRAME_FUNC(self, func)
        _FRAME_PC(self, pc)
        _FRAME_LOCALS(self, locals)
        _FRAME_RET(self, ret_loc)

    def __reduce__(self):
        return (Frame, (self.func, self.pc, self.locals, self.ret_loc))

    __setstate__ = restore_slots


_FRAME_FUNC, _FRAME_PC, _FRAME_LOCALS, _FRAME_RET = slot_setters(
    Frame, "func", "pc", "locals", "ret_loc"
)


@dataclass(frozen=True, slots=True, init=False)
class Process:
    """A sequential thread of control.

    ``status`` is one of :data:`RUNNING`, :data:`JOINING` (blocked at a
    cobegin join), :data:`DONE`.  ``ps`` is the (normalized) procedure
    string — empty when instrumentation is off.
    """

    pid: Pid
    frames: tuple[Frame, ...]
    status: str = RUNNING
    join_pc: int = -1
    children: tuple[Pid, ...] = ()
    retval: Optional[Value] = None
    ps: PS.ProcString = ()
    # Cached component digest (see stable_digest).  Not an init field,
    # so dataclasses.replace() never copies a stale digest onto a
    # changed process.  Never compared, carried through __reduce__.
    _digest: Optional[bytes] = field(
        default=None, init=False, compare=False, repr=False
    )
    #: Cached salted hash, set on first use.  Not an init field and
    #: never compared; ``__reduce__`` omits it: a hash computed under
    #: one ``PYTHONHASHSEED`` never reaches an OS process using another.
    _hash: Optional[int] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __init__(
        self, pid, frames, status=RUNNING, join_pc=-1, children=(),
        retval=None, ps=(),
    ):
        _PROC_PID(self, pid)
        _PROC_FRAMES(self, frames)
        _PROC_STATUS(self, status)
        _PROC_JOIN_PC(self, join_pc)
        _PROC_CHILDREN(self, children)
        _PROC_RETVAL(self, retval)
        _PROC_PS(self, ps)
        _PROC_DIGEST(self, None)
        _PROC_HASH(self, None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(
                (self.pid, self.frames, self.status, self.join_pc,
                 self.children, self.retval, self.ps)
            )
            _PROC_HASH(self, h)
        return h

    @property
    def top(self) -> Frame:
        return self.frames[-1]

    @property
    def depth(self) -> int:
        return len(self.frames)

    def func_stack(self) -> tuple[str, ...]:
        return tuple(f.func for f in self.frames)

    def __reduce__(self):
        # Compact positional pickle that re-interns on load: equal
        # processes received from another OS process collapse onto the
        # receiver's canonical representative.  The cached component
        # digest rides along so the receiver never re-hashes.
        return (
            _unpickle_process,
            (
                self.pid, self.frames, self.status, self.join_pc,
                self.children, self.retval, self.ps, self._digest,
            ),
        )


(
    _PROC_PID, _PROC_FRAMES, _PROC_STATUS, _PROC_JOIN_PC, _PROC_CHILDREN,
    _PROC_RETVAL, _PROC_PS, _PROC_DIGEST, _PROC_HASH,
) = slot_setters(
    Process, "pid", "frames", "status", "join_pc", "children", "retval",
    "ps", "_digest", "_hash",
)


@dataclass(frozen=True, slots=True, init=False)
class HeapObj:
    """A heap object: canonical identity, cells, and birth metadata."""

    oid: ObjId
    cells: tuple[Value, ...]
    birth_pid: Pid = ()
    birth_ps: PS.ProcString = ()
    _digest: Optional[bytes] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __init__(self, oid, cells, birth_pid=(), birth_ps=()):
        _HEAP_OID(self, oid)
        _HEAP_CELLS(self, cells)
        _HEAP_BIRTH_PID(self, birth_pid)
        _HEAP_BIRTH_PS(self, birth_ps)
        _HEAP_DIGEST(self, None)

    def __reduce__(self):
        return (
            _unpickle_heap_obj,
            (self.oid, self.cells, self.birth_pid, self.birth_ps,
             self._digest),
        )


_HEAP_OID, _HEAP_CELLS, _HEAP_BIRTH_PID, _HEAP_BIRTH_PS, _HEAP_DIGEST = (
    slot_setters(HeapObj, "oid", "cells", "birth_pid", "birth_ps", "_digest")
)


@dataclass(frozen=True, slots=True, init=False)
class Config:
    """A global state: processes (sorted by pid), globals area, heap
    (sorted by oid), and an optional fault marker.

    A configuration with ``fault`` set is terminal and represents an
    execution that crashed (bad dereference, division by zero, failed
    assertion); the fault string describes the crash.
    """

    procs: tuple[Process, ...]
    globals: tuple[Value, ...]
    heap: tuple[HeapObj, ...]
    fault: Optional[str] = None
    # The salted hash, computed by __init__; lazily-built lookup
    # indexes (pid -> Process, oid -> HeapObj) and the cached
    # cross-process digest.  Never compared, never pickled.
    _hash: int = field(default=0, init=False, compare=False, repr=False)
    _proc_index: Optional[dict] = field(
        default=None, init=False, compare=False, repr=False
    )
    _heap_index: Optional[dict] = field(
        default=None, init=False, compare=False, repr=False
    )
    _digest: Optional[int] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __init__(self, procs, globals, heap, fault=None):
        _CFG_PROCS(self, procs)
        _CFG_GLOBALS(self, globals)
        _CFG_HEAP(self, heap)
        _CFG_FAULT(self, fault)
        _CFG_HASH(self, hash((procs, globals, heap, fault)))
        _CFG_PROC_INDEX(self, None)
        _CFG_HEAP_INDEX(self, None)
        _CFG_DIGEST(self, None)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Positional payload without the lookup caches; the loader
        # re-interns, so a configuration shipped across a process
        # boundary lands on the receiver's canonical instance
        # (identity-equal to any copy it already holds).  The cached
        # stable digest rides along: scatter/gather never re-hashes.
        return (
            _unpickle_config,
            (self.procs, self.globals, self.heap, self.fault,
             self._digest),
        )

    # ------------------------------------------------------------------
    # process access
    # ------------------------------------------------------------------

    def proc(self, pid: Pid) -> Process:
        idx = self._proc_index
        if idx is None:
            idx = {p.pid: p for p in self.procs}
            _CFG_PROC_INDEX(self, idx)
        return idx[pid]

    def live_procs(self) -> Iterator[Process]:
        """Processes that may still take actions (running or joining)."""
        for p in self.procs:
            if p.status != DONE:
                yield p

    def replace_proc(self, proc: Process) -> tuple[Process, ...]:
        return tuple(proc if p.pid == proc.pid else p for p in self.procs)

    # ------------------------------------------------------------------
    # heap access
    # ------------------------------------------------------------------

    def heap_obj(self, oid: ObjId) -> HeapObj | None:
        idx = self._heap_index
        if idx is None:
            idx = {o.oid: o for o in self.heap}
            _CFG_HEAP_INDEX(self, idx)
        return idx.get(oid)

    def fresh_oid(self, site: str) -> ObjId:
        used = {o.oid[1] for o in self.heap if o.oid[0] == site}
        k = 0
        while k in used:
            k += 1
        return (site, k)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------

    @property
    def is_terminal(self) -> bool:
        """Terminated (root done) or faulted.  Deadlock is *not* covered
        here — it needs enabledness, see the explorer."""
        if self.fault is not None:
            return True
        return all(p.status == DONE for p in self.procs)

    @property
    def is_terminated(self) -> bool:
        return self.fault is None and all(p.status == DONE for p in self.procs)

    def result_store(self) -> tuple:
        """The observable outcome: globals plus live heap contents.

        This is the paper's *result configuration* payload — what
        stubborn-set reduction must preserve.
        """
        return (
            self.globals,
            tuple((o.oid, o.cells) for o in self.heap),
            self.fault,
        )


(
    _CFG_PROCS, _CFG_GLOBALS, _CFG_HEAP, _CFG_FAULT, _CFG_HASH,
    _CFG_PROC_INDEX, _CFG_HEAP_INDEX, _CFG_DIGEST,
) = slot_setters(
    Config, "procs", "globals", "heap", "fault", "_hash", "_proc_index",
    "_heap_index", "_digest",
)


def initial_config(program: Program, *, track_procstrings: bool = False) -> Config:
    """The start configuration: a root process entering ``main``."""
    entry = program.funcs[program.entry]
    frame = Frame(
        func=program.entry,
        pc=0,
        locals=(0,) * entry.num_locals,
        ret_loc=None,
    )
    ps: PS.ProcString = ()
    if track_procstrings:
        ps = PS.push((), PS.enter_proc(program.entry, "<entry>"))
    root = Process(pid=ROOT_PID, frames=(frame,), status=RUNNING, ps=ps)
    return Config(
        procs=(root,),
        globals=tuple(program.global_init),
        heap=(),
    )


def collect_garbage(config: Config) -> Config:
    """Drop heap objects unreachable from globals and process frames.

    Improves state merging during exploration (configurations differing
    only in dead objects become equal).  Analyses that must observe the
    full allocation history run with GC off.
    """
    if not config.heap:
        return config
    reachable: set[ObjId] = set()
    work: list[Value] = list(config.globals)
    for p in config.procs:
        for f in p.frames:
            work.extend(f.locals)
            if f.ret_loc is not None and f.ret_loc[0] == "h":
                reachable.add(f.ret_loc[1])
    objs = {o.oid: o for o in config.heap}
    while work:
        v = work.pop()
        if isinstance(v, Pointer) and v.obj != GLOBALS_OBJ and v.obj not in reachable:
            if v.obj in objs:
                reachable.add(v.obj)
                work.extend(objs[v.obj].cells)
    # ret_loc heap targets queued above need their cells traced too
    changed = True
    while changed:
        changed = False
        for oid in list(reachable):
            for v in objs.get(oid, HeapObj(oid, ())).cells:
                if (
                    isinstance(v, Pointer)
                    and v.obj != GLOBALS_OBJ
                    and v.obj in objs
                    and v.obj not in reachable
                ):
                    reachable.add(v.obj)
                    changed = True
    new_heap = tuple(o for o in config.heap if o.oid in reachable)
    if len(new_heap) == len(config.heap):
        return config
    return Config(
        procs=config.procs, globals=config.globals, heap=new_heap, fault=config.fault
    )


# --------------------------------------------------------------------------
# interning
# --------------------------------------------------------------------------

# Canonical-representative tables.  Keys *are* values (x -> x): probing
# costs one hash + one structural comparison, and every later comparison
# between interned equals is a pointer check.  Exploration already keeps
# every distinct configuration alive in its graph, so the tables add
# only O(live states) bookkeeping — call :func:`clear_intern_caches`
# between unrelated long runs to release them.
_INTERN_PROCS: dict[Process, Process] = {}
_INTERN_HEAP_OBJS: dict[HeapObj, HeapObj] = {}
_INTERN_CONFIGS: dict[Config, Config] = {}


def intern_process(proc: Process) -> Process:
    """The canonical representative of *proc* in this OS process."""
    cached = _INTERN_PROCS.get(proc)
    if cached is not None:
        return cached
    _INTERN_PROCS[proc] = proc
    return proc


def intern_heap_obj(obj: HeapObj) -> HeapObj:
    """The canonical representative of *obj* in this OS process."""
    cached = _INTERN_HEAP_OBJS.get(obj)
    if cached is not None:
        return cached
    _INTERN_HEAP_OBJS[obj] = obj
    return obj


def intern_config(config: Config) -> Config:
    """The canonical representative of *config* in this OS process.

    Guarantees ``intern_config(a) is intern_config(b)`` iff ``a == b``
    and ``intern_config(c) == c`` always.  Sub-structures (processes,
    heap objects) are canonicalized too, so two configurations differing
    in one process share every other component.
    """
    cached = _INTERN_CONFIGS.get(config)
    if cached is not None:
        return cached
    procs = tuple(intern_process(p) for p in config.procs)
    heap = tuple(intern_heap_obj(o) for o in config.heap)
    if any(a is not b for a, b in zip(procs, config.procs)) or any(
        a is not b for a, b in zip(heap, config.heap)
    ):
        config = Config(
            procs=procs, globals=config.globals, heap=heap, fault=config.fault
        )
    _INTERN_CONFIGS[config] = config
    return config


def intern_composed(config: Config) -> Config:
    """:func:`intern_config` for a configuration whose processes and
    heap objects are canonical already: one table lookup."""
    return _INTERN_CONFIGS.setdefault(config, config)


def clear_intern_caches() -> None:
    """Drop all canonical-representative tables (frees their memory;
    subsequently interned values simply become new representatives)."""
    _INTERN_PROCS.clear()
    _INTERN_HEAP_OBJS.clear()
    _INTERN_CONFIGS.clear()


def intern_table_sizes() -> dict[str, int]:
    """Current intern-table populations (telemetry/tests)."""
    return {
        "procs": len(_INTERN_PROCS),
        "heap_objs": len(_INTERN_HEAP_OBJS),
        "configs": len(_INTERN_CONFIGS),
    }


def _unpickle_process(
    pid, frames, status, join_pc, children, retval, ps, digest=None
):
    proc = intern_process(
        Process(
            pid=pid, frames=frames, status=status, join_pc=join_pc,
            children=children, retval=retval, ps=ps,
        )
    )
    if digest is not None and proc._digest is None:
        _PROC_DIGEST(proc, digest)
    return proc


def _unpickle_heap_obj(oid, cells, birth_pid, birth_ps, digest=None):
    obj = intern_heap_obj(
        HeapObj(oid=oid, cells=cells, birth_pid=birth_pid, birth_ps=birth_ps)
    )
    if digest is not None and obj._digest is None:
        _HEAP_DIGEST(obj, digest)
    return obj


def _unpickle_config(procs, globals_, heap, fault, digest=None):
    cfg = intern_config(
        Config(procs=procs, globals=globals_, heap=heap, fault=fault)
    )
    if digest is not None and cfg._digest is None:
        _CFG_DIGEST(cfg, digest)
    return cfg


# --------------------------------------------------------------------------
# cross-process digests
# --------------------------------------------------------------------------

#: Compose/reuse counters behind :func:`stable_digest` — how much of the
#: hashing work was served from component caches (telemetry + the
#: transport test's "never re-hash on receipt" assertion).
_DIGEST_STATS = {
    "config_composed": 0,   # config digests computed (by composition)
    "config_cached": 0,     # config digests served from the cache
    "component_new": 0,     # per-proc/per-heap-obj digests computed
    "component_reused": 0,  # component digests reused from their cache
}

#: blake2b ``person`` tags: domain separation between component kinds,
#: so a process payload can never alias a heap-object payload.
_PERSON_PROC = b"repro.proc"
_PERSON_HEAP = b"repro.heap"
_PERSON_CONFIG = b"repro.config"
_COMPONENT_SIZE = 16


def digest_stats() -> dict[str, int]:
    """A copy of the digest compose/reuse counters."""
    return dict(_DIGEST_STATS)


def reset_digest_stats() -> None:
    for key in _DIGEST_STATS:
        _DIGEST_STATS[key] = 0


def _proc_digest(proc: Process) -> bytes:
    d = proc._digest
    if d is not None:
        _DIGEST_STATS["component_reused"] += 1
        return d
    payload = repr(
        (
            proc.pid,
            tuple((f.func, f.pc, f.locals, f.ret_loc) for f in proc.frames),
            proc.status,
            proc.join_pc,
            proc.children,
            proc.retval,
            proc.ps,
        )
    ).encode("utf-8")
    d = hashlib.blake2b(
        payload, digest_size=_COMPONENT_SIZE, person=_PERSON_PROC
    ).digest()
    _PROC_DIGEST(proc, d)
    _DIGEST_STATS["component_new"] += 1
    return d


def _heap_obj_digest(obj: HeapObj) -> bytes:
    d = obj._digest
    if d is not None:
        _DIGEST_STATS["component_reused"] += 1
        return d
    payload = repr(
        (obj.oid, obj.cells, obj.birth_pid, obj.birth_ps)
    ).encode("utf-8")
    d = hashlib.blake2b(
        payload, digest_size=_COMPONENT_SIZE, person=_PERSON_HEAP
    ).digest()
    _HEAP_DIGEST(obj, d)
    _DIGEST_STATS["component_new"] += 1
    return d


def stable_digest(config: Config) -> int:
    """A 64-bit structural digest, identical across OS processes, runs,
    and ``PYTHONHASHSEED`` values (unlike ``hash()``).

    Schedules record it, and replays are checked against it
    (:mod:`repro.schedules`).  Dedup never relies on it: the graph
    compares full structural equality.

    Cost is O(delta): the digest composes fixed-size per-component
    digests cached on each :class:`Process` and :class:`HeapObj`.  A
    successor sharing all but one process with its parent re-hashes only
    that process (the shared components are the *same objects*, digest
    included).  The composition is unambiguous: components are
    fixed-size and every variable-length section is length-prefixed.
    """
    d = config._digest
    if d is not None:
        _DIGEST_STATS["config_cached"] += 1
        return d
    h = hashlib.blake2b(digest_size=8, person=_PERSON_CONFIG)
    h.update(len(config.procs).to_bytes(4, "big"))
    for proc in config.procs:
        h.update(_proc_digest(proc))
    glob = repr(config.globals).encode("utf-8")
    h.update(len(glob).to_bytes(4, "big"))
    h.update(glob)
    h.update(len(config.heap).to_bytes(4, "big"))
    for obj in config.heap:
        h.update(_heap_obj_digest(obj))
    fault = repr(config.fault).encode("utf-8")
    h.update(len(fault).to_bytes(4, "big"))
    h.update(fault)
    d = int.from_bytes(h.digest(), "big")
    _CFG_DIGEST(config, d)
    _DIGEST_STATS["config_composed"] += 1
    return d


def shard_of(config: Config, nshards: int) -> int:
    """The shard that owns *config* in an ``nshards``-way partition."""
    return stable_digest(config) % nshards
