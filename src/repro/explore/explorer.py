"""The exploration driver: build the configuration graph of a program.

Policies
--------
``full``
    Classic exhaustive interleaving: every enabled process is expanded
    at every configuration (the baseline the paper starts from).
``stubborn``
    Expand only a minimal stubborn set (Algorithm 1): eliminates
    redundant interleavings while preserving all result configurations.

Orthogonally, ``coarsen=True`` fuses thread-local runs into atomic
blocks (virtual coarsening, Observation 5).

Exploration is fully deterministic: breadth-first, or depth-first
with ``sleep=True`` (sleep sets, :mod:`repro.explore.sleepsets`).
Every configuration is expanded by one loop,
:func:`repro.explore.memo.expand`, with the footprint memo on (the
default) or off (``memo=False``).

Resilience
----------
The engine degrades instead of crashing (see
:mod:`repro.resilience`):

- every budget (``max_configs``, ``time_limit_s``, ``max_rss_bytes``)
  truncates gracefully, recording *why* in
  ``stats.truncation_reason``;
- observer callbacks are dispatched through a guard: a raising observer
  is logged, disabled for the rest of the run, and counted in
  ``stats.degraded_observers`` — it never kills exploration;
- a crashing stubborn selector falls back to expanding the full enabled
  set at that configuration (a sound over-approximation) and counts in
  ``stats.selector_faults``;
- an exception while computing a configuration's expansions drops that
  configuration's successors, truncates with reason ``internal-error``,
  and counts in ``stats.engine_faults``;
- a :class:`~repro.resilience.checkpoint.Checkpointer` snapshots the
  frontier/graph/stats periodically, and ``resume_from=`` continues a
  snapshot deterministically (same graph and stats as an uninterrupted
  run).
"""

from __future__ import annotations

import dataclasses
import logging
import os
import sys
import time
from collections import deque
from dataclasses import dataclass

try:
    import resource as _resource
except ImportError:  # non-Unix platforms: RSS telemetry reads 0
    _resource = None

from repro.analyses.accesses import AccessAnalysis, access_analysis
from repro.explore.algorithm1 import AlgorithmOneSelector
from repro.explore.expansion import Expansion
from repro.explore.graph import DEADLOCK, FAULT, TERMINATED, ConfigGraph
from repro.explore.memo import ExpandCache, expand
from repro.explore.observers import Observer, attached, attached_all
from repro.explore.sleepsets import entry_of, independent, transition_key
from repro.explore.stubborn import StubbornSelector, StubbornStats
from repro.lang.program import Program
from repro.metrics.registry import MetricsRegistry
from repro.resilience import chaos
from repro.resilience.checkpoint import (
    Checkpointer,
    program_fingerprint,
    read_snapshot,
)
from repro.semantics.config import Config, digest_stats, initial_config
from repro.semantics.step import StepOptions, shared_objects

LOG = logging.getLogger("repro.explore")

#: ``getrusage().ru_maxrss`` is kilobytes on Linux, bytes on macOS.
_RU_MAXRSS_SCALE = 1 if sys.platform == "darwin" else 1024

#: Expansions between RSS samples (a /proc read is cheap but not free).
_RSS_SAMPLE_EVERY = 64


@dataclass(frozen=True)
class ExploreOptions:
    """Exploration configuration."""

    policy: str = "full"  # "full" | "stubborn" | "stubborn-proc"
    coarsen: bool = False
    sleep: bool = False
    #: "serial" (single-process BFS/DFS) or "parallel" (the same BFS
    #: with expansion in worker processes, see :mod:`repro.explore.parallel`)
    backend: str = "serial"
    #: worker-process count for ``backend="parallel"``
    jobs: int = 1
    step: StepOptions = StepOptions()
    max_configs: int = 1_000_000
    max_block_len: int = 256
    #: wall-clock budget; exploration truncates gracefully (sets
    #: ``stats.truncated``, like ``max_configs``) when it runs out
    time_limit_s: float | None = None
    #: peak-memory budget: truncate gracefully when the process's
    #: resident set exceeds this many bytes (sampled every
    #: ``_RSS_SAMPLE_EVERY`` expansions)
    max_rss_bytes: int | None = None
    #: ablation: compute static access sets without points-to (every
    #: dereference conflicts with every site)
    coarse_derefs: bool = False
    #: footprint memoization of per-process expansions (see
    #: :mod:`repro.explore.memo`); a pure optimization — graphs and
    #: result digests are bit-identical with it off — so it is not part
    #: of ``describe()``/``resume_key()``
    memo: bool = True
    #: parallel backend: seconds without any worker reply before the
    #: master declares the pool dead/wedged and restarts it (an
    #: operational knob like the budgets — not part of ``resume_key()``)
    parallel_watchdog_s: float = 30.0

    def describe(self) -> str:
        c = "+coarsen" if self.coarsen else ""
        s = "+sleep" if self.sleep else ""
        j = f"@j{self.jobs}" if self.backend == "parallel" else ""
        return f"{self.policy}{c}{s}{j}"

    def resume_key(self) -> tuple:
        """The option fields a resumed run must match (budgets excluded
        on purpose: resuming with a *larger* budget is the point)."""
        return (
            self.policy,
            self.coarsen,
            self.sleep,
            self.coarse_derefs,
            self.max_block_len,
            self.step,
        )


@dataclass
class ExploreStats:
    """What the engine reports about one run: counters, a view of the
    run's registry through :data:`STATS_SERIES` and :data:`PEAK_RSS`
    (continued from the snapshot's on a resumed run), and metadata."""

    num_configs: int = 0
    num_edges: int = 0
    num_terminated: int = 0
    num_deadlocks: int = 0
    num_faults: int = 0
    expansions: int = 0
    actions_executed: int = 0
    truncated: bool = False
    #: why the search was cut short: "configs" | "time" | "memory" |
    #: "interrupted" | "internal-error" (None for a complete run)
    truncation_reason: str | None = None
    #: peak resident set observed during the run (bytes; 0 if the
    #: platform exposes no RSS)
    peak_rss_bytes: int = 0
    #: observers disabled after raising from a callback
    degraded_observers: int = 0
    #: stubborn selections that crashed and fell back to full expansion
    selector_faults: int = 0
    #: expansion computations that crashed (their successors are lost)
    engine_faults: int = 0
    #: snapshot writes that failed (run continued without them)
    checkpoint_faults: int = 0
    #: snapshots successfully written
    checkpoints_written: int = 0
    #: this run continued from a checkpoint
    resumed: bool = False
    #: degradation-ladder trail, e.g. ("full->stubborn: configs",);
    #: filled by :func:`repro.resilience.explore_resilient`
    escalations: tuple[str, ...] = ()
    #: the backend the run requested ("serial" | "parallel"); sleep-set
    #: runs stay in the calling process, so "parallel" there means no workers
    backend: str = "serial"
    #: the requested worker-process count (1 for the serial backend)
    jobs: int = 1
    #: configurations shipped to a worker in full rather than by a
    #: reference to the worker that produced them (parallel backend
    #: only: the cost of the affinity misses)
    handoffs: int = 0
    #: kept for report compatibility; the parallel backend has no work
    #: stealing since its master runs the queue, so it reads 0
    steals: int = 0
    #: pool restarts after a worker died or wedged (parallel only)
    worker_restarts: int = 0
    #: configurations each worker expanded (parallel backend; terminal
    #: configurations are classified by the master, so a complete run's
    #: sum is ``expansions`` minus the terminated and faulted ones)
    worker_expansions: tuple[int, ...] = ()
    #: per-worker load: equal to ``worker_expansions``, so that
    #: ``shard_balance`` reads how evenly the levels were split
    shard_sizes: tuple[int, ...] = ()
    #: interconnect bytes over the worker pipes, both directions
    #: (batches, replies and dumps; parallel backend only)
    msg_bytes: int = 0
    #: batch messages the master sent: at most one per worker per BFS
    #: level (parallel backend only)
    batches: int = 0
    #: kept for report compatibility; read 0 since the master inserts
    #: each reply in queue order (no candidate messages, no merge)
    cand_msgs: int = 0
    cand_suppressed: int = 0
    merge_overlap_s: float = 0.0
    merge_tail_s: float = 0.0
    stubborn: StubbornStats | None = None

    @property
    def shard_balance(self) -> float | None:
        """Largest worker load over the mean (1.0 = perfectly balanced);
        None for serial runs."""
        if not self.shard_sizes or sum(self.shard_sizes) == 0:
            return None
        mean = sum(self.shard_sizes) / len(self.shard_sizes)
        return max(self.shard_sizes) / mean


#: The one name table: each :class:`ExploreStats` counter and the
#: registry series that counts it.
STATS_SERIES = {
    "num_terminated": f"explore.terminal.{TERMINATED}",
    "num_deadlocks": f"explore.terminal.{DEADLOCK}",
    "num_faults": f"explore.terminal.{FAULT}",
    "expansions": "explore.expansions",
    "actions_executed": "explore.actions",
    "degraded_observers": "explore.observer_faults",
    "selector_faults": "explore.selector_faults",
    "engine_faults": "explore.engine_faults",
    "handoffs": "parallel.handoffs",
    "steals": "parallel.steals",
    "msg_bytes": "parallel.msg_bytes",
    "batches": "parallel.batches",
    "cand_msgs": "parallel.cand_msgs",
    "cand_suppressed": "parallel.cand_suppressed",
}
#: The gauge ``ExploreStats.peak_rss_bytes`` reads (merges keep the max).
PEAK_RSS = "explore.peak_rss_bytes"


def _stats_view(base: ExploreStats, run: MetricsRegistry) -> ExploreStats:
    """*base* (a fresh run's metadata, or the resumed snapshot's stats)
    with the counts in *run* added on top."""
    view = dataclasses.replace(
        base,
        **{f: getattr(base, f) + run.get(s) for f, s in STATS_SERIES.items()},
    )
    view.peak_rss_bytes = max(base.peak_rss_bytes, int(run.get(PEAK_RSS)))
    return view


@dataclass
class ExploreResult:
    """Everything exploration produced."""

    program: Program
    graph: ConfigGraph
    stats: ExploreStats
    options: ExploreOptions
    access: AccessAnalysis

    def final_stores(self) -> set[tuple]:
        """Observable result-configuration payloads (the reduction
        invariant: identical across policies)."""
        return self.graph.result_stores()

    def terminal_globals(self) -> set[tuple]:
        """Globals tuples of terminated (non-fault) configurations."""
        return {
            self.graph.configs[cid].globals
            for cid in self.graph.terminals(TERMINATED)
        }

    def global_values(self, *names: str) -> set[tuple]:
        """Final values of the given globals across terminated runs."""
        idx = [self.program.global_index(n) for n in names]
        return {
            tuple(g[i] for i in idx) for g in self.terminal_globals()
        }

    def deadlock_configs(self) -> list[Config]:
        return [self.graph.configs[cid] for cid in self.graph.terminals(DEADLOCK)]

    def fault_messages(self) -> set[str]:
        return {
            self.graph.configs[cid].fault or ""
            for cid in self.graph.terminals(FAULT)
        }


def _make_access(program: Program, opts: ExploreOptions) -> AccessAnalysis:
    if opts.coarse_derefs:
        return AccessAnalysis(program, coarse_derefs=True)
    return access_analysis(program)


def _make_selector(program: Program, access: AccessAnalysis, policy: str):
    """The stubborn-set selector for *policy* (None under ``full``)."""
    if policy == "stubborn":
        return AlgorithmOneSelector(program, access)
    if policy == "stubborn-proc":
        return StubbornSelector(program, access)
    return None


def explore(
    program: Program,
    policy: str = "full",
    *,
    coarsen: bool = False,
    sleep: bool = False,
    options: ExploreOptions | None = None,
    observers: tuple[Observer, ...] = (),
    checkpointer: Checkpointer | None = None,
    resume_from: str | None = None,
    expand_cache: ExpandCache | None = None,
) -> ExploreResult:
    """Explore *program*'s state space and return the graph + stats.

    ``policy``/``coarsen``/``sleep`` are convenience shortcuts; pass
    ``options`` for full control (it overrides the shortcuts).

    ``checkpointer`` snapshots the search periodically; ``resume_from``
    continues from a snapshot path (the program and the non-budget
    options must match the snapshot, else
    :class:`~repro.resilience.checkpoint.CheckpointError`).

    ``expand_cache`` seeds the serial loop's footprint-memo cache
    with a caller-owned (possibly pre-warmed) instance — the analysis
    service's warm-start hook.  The caller keeps the reference, so it
    can export the filled cache afterwards.  Ignored when
    ``opts.memo`` is off, and by the parallel backend, whose workers
    expand with memo caches of their own.

    One serial loop drives every run that stays in this process; only
    the frontier discipline differs.  Without sleep sets it is a FIFO
    queue (:class:`_Fifo`, breadth-first, snapshot ``driver="bfs"``).
    Sleep-set pruning follows one DFS order, so ``sleep=True`` uses a
    stack of ``(cid, sleep set)`` (:class:`_SleepStack`, snapshot
    ``driver="sleep"``) whatever the backend; its stats still name the
    requested ``backend``/``jobs``.  ``backend="parallel"`` without
    sleep sets goes to :func:`repro.explore.parallel.explore_parallel`,
    which runs the same FIFO loop with expansion and selection done in
    worker processes.

    ``max_configs`` is checked once per fresh configuration: the run
    truncates right after inserting the one that takes the graph past
    the budget.  A resumed snapshot already over ``max_configs``
    therefore keeps expanding until its next fresh configuration.
    """
    opts = (
        options
        if options is not None
        else ExploreOptions(policy=policy, coarsen=coarsen, sleep=sleep)
    )
    if opts.policy not in ("full", "stubborn", "stubborn-proc"):
        raise ValueError(f"unknown policy {opts.policy!r}")
    if opts.backend not in ("serial", "parallel"):
        raise ValueError(f"unknown backend {opts.backend!r}")

    parallel = opts.backend == "parallel"
    if parallel and opts.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {opts.jobs}")
    if parallel and not opts.sleep:
        from repro.explore.parallel import explore_parallel

        return explore_parallel(
            program,
            opts,
            observers=observers,
            checkpointer=checkpointer,
            resume_from=resume_from,
        )

    cache = None
    if opts.memo:
        cache = expand_cache if expand_cache is not None else ExpandCache()
    return _search(program, opts, observers, checkpointer, resume_from, cache)


def _search(
    program, opts, observers, checkpointer, resume_from, cache=None,
    remote=None,
) -> ExploreResult:
    """The serial loop: pop a configuration, expand it, select, insert
    the kept successors, in frontier order.

    With *remote* (the parallel backend's dispatcher, see
    :mod:`repro.explore.parallel`) the loop stays in this process and
    only expansion and selection move out: ``remote.kept(cid)`` answers
    what ``_expand_guarded`` and ``_select_guarded`` would have, so the
    graph, its ids, truncation and snapshots are the serial ones.
    """
    parallel = opts.backend == "parallel"
    access = _make_access(program, opts)
    if remote is None:
        selector = _make_selector(program, access, opts.policy)
    else:
        selector = remote.tally
    registries = attached_all(observers, "registry")
    # the run's own registry; deep instrumentation needs an attached one
    run = MetricsRegistry()
    deep = run if registries else None
    if selector is not None:
        selector.metrics = deep
    tracer = attached(observers, "tracer")
    progress = attached(observers, "progress")
    rounds = None
    if tracer is not None:
        from repro.trace.tracer import SpanChunker

        rounds = SpanChunker(tracer, "explore.round")
    if checkpointer is not None:
        checkpointer.tracer = tracer

    t0 = time.perf_counter()
    deadline = None if opts.time_limit_s is None else t0 + opts.time_limit_s
    # only snapshots carry or check the program's fingerprint
    fingerprint = None
    if checkpointer is not None or resume_from is not None:
        fingerprint = program_fingerprint(program)
    # the run's share table: successor processes and actions, each kept
    # once (semantics.step); dropped with the run
    share: dict = {}
    digest_base = digest_stats()

    discipline = _SleepStack if opts.sleep else _Fifo
    if resume_from is not None:
        payload = read_snapshot(
            resume_from,
            driver=discipline.driver,
            fingerprint=fingerprint,
            options_key=opts.resume_key(),
        )
        graph = payload["graph"]
        stats = payload["stats"]
        frontier = discipline.restore(payload)
        stats.resumed = True
        graph.metrics = deep
        if selector is not None and payload.get("stubborn") is not None:
            selector.stats = payload["stubborn"]
    else:
        graph = ConfigGraph()
        graph.metrics = deep
        stats = ExploreStats()
        init = initial_config(
            program, track_procstrings=opts.step.track_procstrings
        )
        init_id, _ = graph.add_config(init)
        graph.initial = init_id
        frontier = discipline.start(init_id)
    # snapshots are cross-backend (a parallel run may have written a
    # "bfs" one): the backend tag describes *this* run, not the donor
    stats.backend, stats.jobs = opts.backend, opts.jobs if parallel else 1
    guard = _ObserverGuard(observers, run, tracer)
    if resume_from is None:
        # observers see every configuration, the initial one included
        guard.on_config(
            graph, graph.initial, graph.configs[graph.initial], True, None
        )
    expanded = run.counter("explore.expansions")
    peak = run.gauge(PEAK_RSS)
    n0 = stats.expansions  # a resumed run counts on from its snapshot
    if remote is not None:
        remote.start(access, graph, frontier, run)

    def payload_now() -> dict:
        return {
            "driver": frontier.driver,
            "fingerprint": fingerprint,
            "options_key": opts.resume_key(),
            "graph": graph,
            "stats": _stats_view(stats, run),
            "stubborn": selector.stats if selector is not None else None,
            **frontier.fields(),
        }

    try:
        while frontier:
            if deadline is not None and time.perf_counter() > deadline:
                _truncate(stats, "time", tracer)
                break
            if checkpointer is not None and checkpointer.tick(payload_now):
                _truncate(stats, "interrupted", tracer)
                break
            cid = frontier.pop()
            if cid is None:
                continue
            config = graph.configs[cid]
            expanded.value += 1
            if rounds is not None:
                rounds.tick()
            if not _within_memory_budget(n0 + expanded.value, peak, opts):
                _truncate(stats, "memory", tracer)
                break
            if deep is not None:
                deep.observe("explore.frontier_depth", len(frontier))
            if progress is not None and progress.due():
                if remote is not None:
                    progress.emit(
                        "parallel", **remote.frame(n0 + expanded.value)
                    )
                else:
                    progress.emit(
                        "explore",
                        configs=graph.num_configs,
                        edges=graph.num_edges,
                        frontier=len(frontier),
                        expansions=n0 + expanded.value,
                        cache_hits=cache.hits if cache is not None else 0,
                        cache_misses=(
                            cache.misses if cache is not None else 0
                        ),
                    )

            status = _terminal_status_fast(config)
            if status is not None:
                _mark_terminal(graph, cid, config, status, guard)
                continue

            # kept: the transitions to insert; None after an engine
            # fault, DEADLOCK when nothing is enabled
            if remote is not None:
                kept = remote.kept(cid)
            else:
                expansions = _expand_guarded(
                    program, config, cid, access, opts, run, deep, tracer,
                    cache=cache, share=share,
                )
                if expansions is None:
                    kept = None
                else:
                    enabled = [e for e in expansions if e.enabled]
                    kept = DEADLOCK
                    if enabled:
                        kept = frontier.awake(
                            _select_guarded(
                                selector, expansions, enabled, run, tracer
                            )
                        )
            if kept is None:
                _truncate(stats, "internal-error", tracer)
                continue
            if kept is DEADLOCK:
                _mark_terminal(graph, cid, config, DEADLOCK, guard)
                continue

            children: list[tuple[int, bool, Expansion]] = []
            for exp in kept:
                succ = exp.succ
                if succ is None:
                    succ = cache.replay(exp.entry, exp.proc, config)
                dst, fresh = graph.add_config(succ)
                if frontier.new_edge(cid, dst, exp):
                    graph.add_edge(cid, dst, exp.actions)
                    guard.on_edge(graph, cid, dst, exp.actions)
                    if fresh:
                        guard.on_config(graph, dst, succ, True, None)
                        if graph.num_configs > opts.max_configs:
                            _truncate(stats, "configs", tracer)
                            break
                children.append((dst, fresh, exp))
            # truncated by the budget above, or by an engine fault at an
            # earlier configuration: stop, abandoning the frontier
            if stats.truncated:
                break
            frontier.push(children)

        if rounds is not None:
            rounds.close()
        if remote is not None:
            remote.finish(stats, run)
        return _finalize(
            program, graph, stats, run, opts, access, selector, guard,
            registries, t0, checkpointer, tracer, cache=cache,
            digest_base=digest_base, progress=progress, share=share,
        )
    except BaseException:
        # a run that raises still reports the work it did
        _publish(run, registries)
        raise


class _Fifo:
    """Breadth-first frontier: a FIFO queue of configuration ids plus
    the set already expanded (snapshot ``driver="bfs"``)."""

    driver = "bfs"

    def __init__(self, queue, processed: set[int]) -> None:
        self.queue: deque[int] = deque(queue)
        self.processed = processed

    @classmethod
    def start(cls, init_id: int) -> _Fifo:
        return cls([init_id], set())

    @classmethod
    def restore(cls, payload: dict) -> _Fifo:
        return cls(payload["queue"], payload["processed"])

    def fields(self) -> dict:
        return {"queue": list(self.queue), "processed": self.processed}

    def __len__(self) -> int:
        return len(self.queue)

    def pop(self) -> int | None:
        """The next configuration to expand, or None (skip) when it was
        already expanded."""
        cid = self.queue.popleft()
        if cid in self.processed:
            return None
        self.processed.add(cid)
        return cid

    @staticmethod
    def awake(chosen: list[Expansion]) -> list[Expansion]:
        return chosen

    @staticmethod
    def new_edge(cid: int, dst: int, exp: Expansion) -> bool:
        return True

    def push(self, children) -> None:
        """Queue the fresh successors, in selection order."""
        self.queue.extend(dst for dst, fresh, _ in children if fresh)


class _SleepStack:
    """Depth-first frontier with sleep sets (see
    :mod:`repro.explore.sleepsets`): a stack of ``(cid, sleep set)``,
    the sleep sets each configuration was explored with, and the edges
    already recorded (snapshot ``driver="sleep"``).  A configuration is
    re-expanded only under a sleep set no earlier visit's set is
    contained in, so it may be popped, and expanded, more than once."""

    driver = "sleep"

    def __init__(
        self,
        stack: list[tuple[int, frozenset]],
        explored: dict[int, list[frozenset]],
        seen_edges: set[tuple],
    ) -> None:
        self.stack = stack
        self.explored = explored
        self.seen_edges = seen_edges
        #: the sleep set of the configuration being expanded
        self.sleep: frozenset = frozenset()

    @classmethod
    def start(cls, init_id: int) -> _SleepStack:
        return cls([(init_id, frozenset())], {}, set())

    @classmethod
    def restore(cls, payload: dict) -> _SleepStack:
        return cls(
            payload["stack"], payload["explored"], payload["seen_edges"]
        )

    def fields(self) -> dict:
        return {
            "explored": self.explored,
            "seen_edges": self.seen_edges,
            "stack": list(self.stack),
        }

    def __len__(self) -> int:
        return len(self.stack)

    def pop(self) -> int | None:
        """The next configuration to expand, or None (skip) when an
        earlier visit's sleep set is contained in this one's."""
        cid, sleep = self.stack.pop()
        prev = self.explored.get(cid)
        if prev is not None and any(p <= sleep for p in prev):
            return None
        if prev is None:
            self.explored[cid] = [sleep]
        else:
            prev[:] = [p for p in prev if not sleep <= p]
            prev.append(sleep)
        self.sleep = sleep
        return cid

    def awake(self, chosen: list[Expansion]) -> list[Expansion]:
        """The chosen expansions whose transition is not asleep."""
        sleeping_keys = {z.key for z in self.sleep}
        return [
            e for e in chosen if transition_key(e.proc) not in sleeping_keys
        ]

    def new_edge(self, cid: int, dst: int, exp: Expansion) -> bool:
        """Record the edge once: a revisit under another sleep set
        re-derives edges the graph already has."""
        ekey = (cid, dst, tuple(a.label for a in exp.actions))
        if ekey in self.seen_edges:
            return False
        self.seen_edges.add(ekey)
        return True

    def push(self, children) -> None:
        """Stack every awake successor with its child sleep set."""
        done: list = []
        pending: list[tuple[int, frozenset]] = []
        for dst, _, exp in children:
            child_sleep = frozenset(
                z for z in (set(self.sleep) | set(done)) if independent(z, exp)
            )
            pending.append((dst, child_sleep))
            done.append(entry_of(exp))
        # push in reverse so the first sibling is explored first (its
        # sleep set is the smallest)
        self.stack.extend(reversed(pending))


# --------------------------------------------------------------------------


class _ObserverGuard:
    """Fault isolation for observer dispatch, and the one place graph
    events are counted: every notification (the parallel master's too)
    passes through here and is counted into the run's registry first.

    An observer that raises is logged, counted, and dropped for the
    rest of the run; its co-observers keep receiving every event.  The
    ``observer`` chaos point fires inside the per-observer try so
    injected faults take the same path as real ones.
    """

    __slots__ = ("live", "run", "tracer", "configs", "edges", "actions")

    def __init__(self, observers, run: MetricsRegistry, tracer=None) -> None:
        self.live: list = list(observers)
        self.run = run
        self.tracer = tracer
        self.configs = run.counter("explore.configs")
        self.edges = run.counter("explore.edges")
        self.actions = run.counter("explore.actions")

    def _dispatch(self, method: str, *args) -> None:
        if not self.live:
            return
        dead: list = []
        for ob in self.live:
            try:
                chaos.kick("observer")
                getattr(ob, method)(*args)
            except Exception as exc:
                dead.append(ob)
                self.run.inc("explore.observer_faults")
                if self.tracer is not None:
                    self.tracer.event(
                        "explore.observer_evicted",
                        observer=type(ob).__name__,
                        method=method,
                    )
                LOG.warning(
                    "observer %s raised in %s (%s); disabling it for the "
                    "rest of the run",
                    type(ob).__name__, method, exc,
                )
        if dead:
            self.live = [ob for ob in self.live if ob not in dead]

    def on_config(self, graph, cid, config, fresh, status) -> None:
        if fresh:
            self.configs.value += 1
        if status is not None:
            self.run.inc(f"explore.terminal.{status}")
        self._dispatch("on_config", graph, cid, config, fresh, status)

    def on_edge(self, graph, src, dst, actions) -> None:
        self.edges.value += 1
        self.actions.value += len(actions)
        self._dispatch("on_edge", graph, src, dst, actions)

    def on_done(self, graph) -> None:
        self._dispatch("on_done", graph)


def _truncate(stats: ExploreStats, reason: str, tracer=None) -> None:
    """Cut the search short; the first reason wins (later budget trips
    on an already-truncated run add no information)."""
    stats.truncated = True
    if stats.truncation_reason is None:
        stats.truncation_reason = reason
        if tracer is not None:
            tracer.event("explore.truncated", reason=reason)


def _current_rss_bytes() -> int:
    """Resident set size now: /proc on Linux, peak RSS elsewhere."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    if _resource is not None:
        ru = _resource.getrusage(_resource.RUSAGE_SELF)
        return ru.ru_maxrss * _RU_MAXRSS_SCALE
    return 0


def _within_memory_budget(expansions: int, peak, opts: ExploreOptions) -> bool:
    """Sample RSS into the *peak* gauge every ``_RSS_SAMPLE_EVERY``
    expansions; False when the budget is blown."""
    if expansions % _RSS_SAMPLE_EVERY != 1:
        return True
    rss = _current_rss_bytes()
    if rss > peak.value:
        peak.value = rss
    return opts.max_rss_bytes is None or rss <= opts.max_rss_bytes


def _expand_guarded(
    program, config, cid, access, opts, run, metrics, tracer=None,
    cache=None, share=None,
) -> list[Expansion] | None:
    """Expansion with engine-bug isolation: an exception here loses this
    configuration's successors, so it is counted in
    ``explore.engine_faults`` and None tells the caller to mark the run
    truncated (``internal-error``) — but it never raises.  Both drivers
    expand through here: the serial loop (FIFO or sleep-set stack, the
    latter on every backend) and the parallel backend's workers."""
    try:
        chaos.kick("eval")
        return expand(
            program, config, access, opts, cache, metrics, tracer, share
        )
    except Exception as exc:
        faults = run.counter("explore.engine_faults")
        faults.value += 1
        # warn once, demote repeats: a bug hit at every configuration
        # would otherwise flood the log (the count is in the stats)
        level = logging.WARNING if faults.value == 1 else logging.DEBUG
        LOG.log(
            level,
            "expansion of configuration %d failed (%s); its successors "
            "are dropped and the run is marked truncated", cid, exc,
        )
        return None


def _select_guarded(
    selector, expansions, enabled, run, tracer=None
) -> list[Expansion]:
    """Stubborn selection with fallback: on a selector crash, expand the
    full enabled set at this configuration (always sound — a superset of
    any stubborn set's enabled members).

    With a tracer attached, each selection is one ``stubborn.closure``
    span carrying the enabled-set and chosen-set sizes — the per-config
    reduction decision, visible on the timeline."""
    if selector is None:
        return enabled
    handle = (
        tracer.begin_span("stubborn.closure", enabled=len(enabled))
        if tracer is not None
        else None
    )
    try:
        chaos.kick("selector")
        chosen = selector.select(expansions)
    except Exception as exc:
        faults = run.counter("explore.selector_faults")
        faults.value += 1
        # a selector broken at every configuration would flood the log:
        # warn once, then demote repeats (the count is in the stats)
        level = logging.WARNING if faults.value == 1 else logging.DEBUG
        LOG.log(
            level,
            "stubborn selector failed (%s); expanding the full enabled "
            "set at this configuration", exc,
        )
        chosen = enabled
    if handle is not None:
        tracer.end_span(handle, chosen=len(chosen))
    return chosen


def _terminal_status_fast(config: Config) -> str | None:
    if config.fault is not None:
        return FAULT
    if all(p.status == "done" for p in config.procs):
        return TERMINATED
    return None


def _mark_terminal(graph, cid, config, status, guard) -> None:
    """Classify a terminal configuration reached by the serial loop.

    Idempotent: the sleep-set stack can revisit a configuration under a
    different sleep set; only the first visit counts and notifies.
    """
    if cid in graph.terminal:
        return
    graph.mark_terminal(cid, status)
    guard.on_config(graph, cid, config, False, status)


def _finalize(
    program, graph, base, run, opts, access, selector, guard, registries,
    t0, checkpointer=None, tracer=None, cache=None, digest_base=None,
    progress=None, share=None,
) -> ExploreResult:
    """``on_done`` fan-out, the stats (*base* plus the counts in *run*),
    and publishing *run* into each attached registry in *registries*,
    then, in each, the last-write gauges derived from all it holds —
    shared by both drivers, truncated runs included."""
    guard.on_done(graph)
    run.gauge(PEAK_RSS).set(max(run.get(PEAK_RSS), _current_rss_bytes()))
    elapsed = time.perf_counter() - t0
    if registries:
        run.timer("explore.wall_s").add(elapsed)
        _count_incremental(run, cache, digest_base, share)
    stats = _stats_view(base, run)
    stats.num_configs = graph.num_configs
    stats.num_edges = graph.num_edges
    stats.stubborn = selector.stats if selector is not None else None
    if checkpointer is not None:
        stats.checkpoints_written = checkpointer.written
        stats.checkpoint_faults += checkpointer.faults
    done = dict(
        configs=stats.num_configs,
        edges=stats.num_edges,
        terminated=stats.num_terminated,
        deadlocks=stats.num_deadlocks,
        faults=stats.num_faults,
        truncated=stats.truncated,
        reason=stats.truncation_reason,
    )
    if tracer is not None:
        # args deliberately backend-neutral: the cross-backend trace
        # comparison asserts this event's args are equal serial vs jobs=N
        tracer.event("explore.done", **done)
    if progress is not None:
        progress.emit("done", expansions=stats.expansions, **done)
    _publish(run, registries)
    for metrics in registries:
        metrics.set_gauge(
            "explore.expansions_per_s",
            stats.expansions / elapsed if elapsed > 0 else 0.0,
        )
        metrics.set_gauge(PEAK_RSS, stats.peak_rss_bytes)
        metrics.set_gauge("graph.configs", stats.num_configs)
        metrics.set_gauge("graph.edges", stats.num_edges)
        # the derived rates, from all the attached registry holds
        for rate, hit, miss in (
            ("expand.cache_hit_rate", "expand.cache_hits",
             "expand.cache_misses"),
            ("digest.incremental_rate", "digest.incremental",
             "digest.component_new"),
        ):
            total = metrics.get(hit) + metrics.get(miss)
            if total:
                metrics.set_gauge(rate, metrics.get(hit) / total)
        if tracer is not None:
            # surface ring-buffer truncation: a trace missing spans must
            # be distinguishable from a complete one
            dropped = sum(
                getattr(s, "dropped", 0) for s in getattr(tracer, "sinks", ())
            )
            if dropped:
                metrics.set_gauge("trace.dropped_spans", dropped)
    return ExploreResult(
        program=program, graph=graph, stats=stats, options=opts, access=access
    )


def _publish(run: MetricsRegistry, registries) -> None:
    """Merge a run's registry into every attached one.  A counter that
    never moved stays absent, like an event that never happened; the
    parallel interconnect series are reported even at zero."""
    if not registries:
        return
    snapshot = {
        name: data for name, data in run.snapshot().items()
        if data["type"] != "counter" or data["value"]
        or name.startswith("parallel.")
    }
    for metrics in registries:
        metrics.merge(snapshot)


def _count_incremental(registry, cache, digest_base, share=None) -> None:
    """Count the expansion memo's work (*cache*, if the caller drove
    one), the size of the run's share table (*share*, if it kept one)
    and this run's share of the process-global
    :func:`~repro.semantics.config.digest_stats` into *registry*."""
    if share:
        registry.inc("step.shared_objects", shared_objects(share))
    if cache is not None:
        for name, val in cache.counters().items():
            if val:
                registry.inc(name, val)
    now = digest_stats()
    for stat, name in (
        ("component_reused", "digest.incremental"),
        ("component_new", "digest.component_new"),
        ("config_composed", "digest.config_composed"),
        ("config_cached", "digest.config_cached"),
    ):
        delta = now[stat] - digest_base[stat]
        if delta:
            registry.inc(name, delta)
