"""Flat instruction IR produced by the compiler.

Each function body compiles to a dense array of instructions with
explicit control flow (``pc`` indices into the array).  One instruction
is one **atomic action** of the concrete semantics — the granularity at
which interleavings are explored (the paper's transitions).  Virtual
coarsening (Observation 5) later fuses runs of instructions dynamically.

Operands are *resolved*: variable references have been classified as
globals (indices into the globals area) or locals (slots in the current
frame).  Locals are process-private registers; only globals and heap
cells can be shared, which is what makes read/write-set computation for
the stubborn-set algorithm exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# --------------------------------------------------------------------------
# Resolved expressions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RExpr:
    """Base class for resolved (compiled) expressions."""


@dataclass(frozen=True)
class RConst(RExpr):
    """Integer constant."""

    value: int


@dataclass(frozen=True)
class RGlobal(RExpr):
    """Read of global variable ``name`` at globals-area offset ``index``."""

    index: int
    name: str


@dataclass(frozen=True)
class RLocal(RExpr):
    """Read of frame-local slot ``slot`` (process-private)."""

    slot: int
    name: str


@dataclass(frozen=True)
class RDeref(RExpr):
    """Heap read ``base[index]`` (``*p`` is ``p[0]``)."""

    base: RExpr
    index: RExpr


@dataclass(frozen=True)
class RAddrGlobal(RExpr):
    """``&g`` — a pointer to the globals area at offset ``index``."""

    index: int
    name: str


@dataclass(frozen=True)
class RFunc(RExpr):
    """A first-class function value."""

    name: str


@dataclass(frozen=True)
class RUnary(RExpr):
    op: str
    operand: RExpr


@dataclass(frozen=True)
class RBinary(RExpr):
    op: str
    left: RExpr
    right: RExpr


# --------------------------------------------------------------------------
# Resolved l-values
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RLValue:
    """Base class for resolved assignment targets."""


@dataclass(frozen=True)
class LGlobal(RLValue):
    index: int
    name: str


@dataclass(frozen=True)
class LLocal(RLValue):
    slot: int
    name: str


@dataclass(frozen=True)
class LDeref(RLValue):
    base: RExpr
    index: RExpr


# --------------------------------------------------------------------------
# Instructions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Instr:
    """Base instruction.

    ``label`` names the source statement this instruction realizes (used
    by every client analysis); ``line`` is the source line.
    """

    label: str = field(default="", kw_only=True)
    line: int = field(default=0, kw_only=True)


@dataclass(frozen=True)
class IAssign(Instr):
    """``target = expr`` — evaluate and store, atomically."""

    target: RLValue = None  # type: ignore[assignment]
    expr: RExpr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class IAlloc(Instr):
    """``target = malloc(size)`` — allocate a fresh heap object.

    ``site`` is the allocation-site identifier (= the statement label),
    unique program-wide; it is the unit of heap abstraction.
    """

    target: RLValue = None  # type: ignore[assignment]
    size: RExpr = None  # type: ignore[assignment]
    site: str = ""


@dataclass(frozen=True)
class IJump(Instr):
    target: int = -1


@dataclass(frozen=True)
class IBranch(Instr):
    """Conditional branch on ``cond`` (nonzero = true)."""

    cond: RExpr = None  # type: ignore[assignment]
    then_target: int = -1
    else_target: int = -1


@dataclass(frozen=True)
class ICall(Instr):
    """Call ``callee(args)``; on return, the callee's result is stored to
    ``target`` (if any).  ``callee`` may be any expression evaluating to
    a function value (first-class functions)."""

    target: RLValue | None = None
    callee: RExpr = None  # type: ignore[assignment]
    args: tuple[RExpr, ...] = ()


@dataclass(frozen=True)
class IReturn(Instr):
    expr: RExpr | None = None


@dataclass(frozen=True)
class ICobegin(Instr):
    """Spawn one child process per branch entry point, then block until
    all children reach :class:`IThreadEnd`; resume at ``join_target``."""

    branch_targets: tuple[int, ...] = ()
    join_target: int = -1


@dataclass(frozen=True)
class IThreadEnd(Instr):
    """Terminates a cobegin branch (child process)."""


@dataclass(frozen=True)
class IAssume(Instr):
    """Blocking guard: enabled only when ``cond`` evaluates nonzero."""

    cond: RExpr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class IAssert(Instr):
    """Fault the execution when ``cond`` evaluates to zero."""

    cond: RExpr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class IAcquire(Instr):
    """Atomic test-and-set of global lock ``name``: enabled iff its value
    is 0; sets it to 1."""

    index: int = -1
    name: str = ""


@dataclass(frozen=True)
class IRelease(Instr):
    """Set global lock ``name`` to 0."""

    index: int = -1
    name: str = ""


@dataclass(frozen=True)
class ISkip(Instr):
    """No-op atomic action."""


# --------------------------------------------------------------------------
# Compiled units
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FuncCode:
    """A compiled function: instruction array plus frame layout.

    ``landing[pc]`` is the first non-:class:`IJump` pc that control
    reaches from ``pc``: jump chains are resolved once, here, and every
    step (concrete or abstract) lands a new pc through this table.  The
    ``IJump`` instructions stay in ``instrs``, so pcs, the disassembly
    and the static CFG are unchanged; the table is derived, and takes no
    part in ``repr`` or equality."""

    name: str
    num_params: int
    num_locals: int  # includes params (slots 0..num_params-1)
    local_names: tuple[str, ...]
    instrs: tuple[Instr, ...]
    landing: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        assert self.num_params <= self.num_locals
        assert len(self.local_names) == self.num_locals
        # the compiler emits no jump cycles: every IJump ends an if/else
        # arm (forward) or a loop body (back to its IBranch test)
        instrs = self.instrs
        landing = []
        for pc in range(len(instrs)):
            while isinstance(instrs[pc], IJump):
                pc = instrs[pc].target
            landing.append(pc)
        object.__setattr__(self, "landing", tuple(landing))


@dataclass(frozen=True)
class LabelInfo:
    """Source metadata for a statement label."""

    label: str
    func: str
    pc: int
    kind: str  # instruction class name, e.g. "IAssign"
    line: int
