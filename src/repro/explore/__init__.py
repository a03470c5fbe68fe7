"""State-space exploration: full interleaving, stubborn sets, coarsening.

Two backends share one result contract: the serial BFS/DFS drivers in
:mod:`repro.explore.explorer` and the same BFS loop with expansion in
worker processes, :mod:`repro.explore.parallel`
(``ExploreOptions(backend="parallel", jobs=N)``), imported on first use.

Resilient entry points (degradation ladder, checkpoint/resume, fault
isolation) live in :mod:`repro.resilience`."""

from repro.explore.coarsen import Block, action_is_critical, build_block
from repro.explore.expansion import Expansion
from repro.explore.explorer import (
    ExploreOptions,
    ExploreResult,
    ExploreStats,
    explore,
)
from repro.explore.memo import ExpandCache, expand
from repro.explore.graph import DEADLOCK, FAULT, TERMINATED, ConfigGraph, Edge
from repro.explore.observers import (
    Observer,
    TransitionLogObserver,
)
from repro.explore.stubborn import StubbornSelector, StubbornStats

__all__ = [
    "Block",
    "ConfigGraph",
    "DEADLOCK",
    "Edge",
    "ExpandCache",
    "Expansion",
    "ExploreOptions",
    "ExploreResult",
    "ExploreStats",
    "FAULT",
    "Observer",
    "StubbornSelector",
    "StubbornStats",
    "TERMINATED",
    "TransitionLogObserver",
    "action_is_critical",
    "build_block",
    "expand",
    "explore",
    "explore_parallel",
]


def __getattr__(name):
    # the parallel backend (and multiprocessing) loads only when used
    if name == "explore_parallel":
        from repro.explore.parallel import explore_parallel

        return explore_parallel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
