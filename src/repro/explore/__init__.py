"""State-space exploration: full interleaving, stubborn sets, coarsening.

Two backends share one result contract: the serial BFS/DFS drivers in
:mod:`repro.explore.explorer` and the multiprocessing frontier-sharding
driver in :mod:`repro.explore.parallel`
(``ExploreOptions(backend="parallel", jobs=N)``).

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
from repro.explore.parallel import explore_parallel
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
