"""Concrete (standard + instrumented) semantics of the cobegin language.

- :mod:`repro.semantics.values` — the value universe;
- :mod:`repro.semantics.config` — configurations (processes, globals,
  heap), the states of the transition system;
- :mod:`repro.semantics.eval` — atomic expression evaluation with
  dynamic read-set reporting;
- :mod:`repro.semantics.step` — the transition function with full
  action metadata (read/write sets, NES, instrumentation);
- :mod:`repro.semantics.procstring` — procedure strings [Har89];
- :mod:`repro.semantics.scheduler` — single-run execution.
"""

from repro.semantics.config import (
    DONE,
    JOINING,
    ROOT_PID,
    RUNNING,
    Config,
    Frame,
    HeapObj,
    Process,
    collect_garbage,
    glob_loc,
    heap_loc,
    initial_config,
    proc_loc,
)
from repro.semantics.scheduler import RunResult, run_program
from repro.semantics.step import (
    ActionInfo,
    NextInfo,
    StepOptions,
    enabledness,
    execute,
    next_infos,
)
from repro.semantics.values import GLOBALS_OBJ, FuncRef, ObjId, Pointer, Value

__all__ = [
    "ActionInfo",
    "Config",
    "DONE",
    "Frame",
    "FuncRef",
    "GLOBALS_OBJ",
    "HeapObj",
    "JOINING",
    "NextInfo",
    "ObjId",
    "Pointer",
    "Process",
    "ROOT_PID",
    "RUNNING",
    "RunResult",
    "StepOptions",
    "Value",
    "collect_garbage",
    "enabledness",
    "execute",
    "glob_loc",
    "heap_loc",
    "initial_config",
    "next_infos",
    "proc_loc",
    "run_program",
]
