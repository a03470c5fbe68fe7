"""The per-process expansion record shared by the exploration policies."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.semantics.config import Config, Loc, Pid, Process
from repro.semantics.step import ActionInfo


# built for every live process at every expanded configuration, and
# never mutated after: slots and no frozen ``__setattr__`` make that
# construction about three times cheaper
@dataclass(slots=True)
class Expansion:
    """What one process would do next at a configuration.

    For an enabled process: the successor configuration and the executed
    action block (a single atomic action, or a coarsened run of them)
    with its combined dynamic read/write sets.  A memo hit defers the
    successor: ``succ`` is None and ``entry`` holds the memo entry, and
    a driver that keeps the transition builds it with
    :meth:`~repro.explore.memo.ExpandCache.replay`.

    For a disabled process: the necessary enabling set (``nes``) — the
    locations another process must write first — and, for a blocked
    join, the children that must terminate.
    """

    proc: Process
    enabled: bool
    succ: Config | None = None
    actions: tuple[ActionInfo, ...] = ()
    reads: tuple[Loc, ...] = ()
    writes: tuple[Loc, ...] = ()
    nes: tuple[Loc, ...] = ()
    blocked_children: tuple[Pid, ...] = ()
    #: the memo entry of a deferred successor (``succ`` is None)
    entry: object | None = field(default=None, repr=False, compare=False)

    @property
    def pid(self) -> Pid:
        return self.proc.pid
