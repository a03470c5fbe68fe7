"""Parallel exploration backend (``ExploreOptions.backend="parallel"``).

Architecture: persistent workers + work stealing
------------------------------------------------
The state space is hash-partitioned across ``jobs`` worker processes by
:func:`repro.semantics.config.shard_of` (a ``PYTHONHASHSEED``-independent
structural digest).  Each worker *owns* one shard: its visited set is
authoritative for its slice of the configuration space, and every
candidate configuration is routed to its owner, which deduplicates it,
records the incoming edge, and — if fresh and non-terminal — turns it
into an expansion *task*.

Unlike the original level-synchronous design (scatter a frontier round,
barrier, gather), workers are **persistent** and there is no barrier:

* each worker drains its inbox (an unbounded ``multiprocessing.Queue``),
  executes one ready task, and flushes batched candidate messages to the
  owners of the successors it produced;
* an idle worker *steals*: it picks the peer advertising the deepest
  ready queue (a lock-free shared depth array) and asks for half of it;
  stolen tasks are executed by the thief but their successors still
  route to the owners, and their trace records still carry the owner's
  shard tag — scheduling moves work, never content;
* interned components (:class:`~repro.semantics.config.Process`,
  :class:`~repro.semantics.config.HeapObj`) cross the process boundary
  once, through per-producer ``multiprocessing.shared_memory`` segments
  (:mod:`repro.semantics.transport`); every later reference is a
  3-tuple handle;
* termination is distributed-quiescence detection: a shared
  ``outstanding`` counter tracks unconsumed work units (candidate
  messages, ready/stolen tasks, terminal-mark messages); the master
  polls it lock-free and finishes the run when it reaches zero.

Determinism
-----------
Scheduling (who executes a task, steal timing, message interleaving) is
nondeterministic, so the merge is **canonical**: configurations are
globally ordered by ``(stable_digest, repr)``, edges by ``(src, pid,
dst)`` (unique per edge — an owner expands each configuration exactly
once and a selection contains at most one expansion per process), and
terminal marks by configuration id.  Two runs with the same program and
options therefore produce byte-identical graphs and traces, *including
across different ``jobs`` values* — a stronger guarantee than the old
backend's, whose config ids depended on round/shard discovery order.
Scheduling-dependent quantities (``handoffs``, ``steals``, per-worker
task counts, queue-depth samples) are reported but deliberately kept
out of every cross-run equality contract.

Composition
-----------
* ``sleep=True`` never reaches this module: sleep-set pruning follows
  one DFS order, so :func:`repro.explore.explorer.explore` runs every
  sleep-set exploration in its own serial loop, with the sleep-set
  stack frontier, and only tags its stats with the requested backend
  and ``jobs``.  Workers could only wait on that DFS: farming its
  expansions out to them measured 3-5x slower than serial on a 2-vCPU
  host, for the same graph.
* checkpoint/resume: the master pauses the pool (workers park ready
  tasks; quiescence is ``outstanding == suspended``), collects shard
  dumps, and writes the same ``driver="bfs"`` snapshot the serial
  driver writes — snapshots are cross-backend in both directions.

Failure handling: the master polls worker liveness and counter
progress; a dead or wedged pool (``opts.parallel_watchdog_s`` without
progress) is torn down and the whole run retried — determinism makes
the retry transparent — with ``stats.worker_restarts`` counting the
attempts and :class:`~repro.util.errors.ReproError` raised after
``_MAX_ATTEMPTS``.  The chaos points ``worker`` / ``worker-hang``
(:mod:`repro.resilience.chaos`) exercise exactly these paths.
"""

from __future__ import annotations

import gc
import logging
import multiprocessing
import multiprocessing.connection
import os
import pickle
import queue as _queue
import time
import traceback
from collections import deque

from repro.explore.explorer import (
    PEAK_RSS,
    STATS_SERIES,
    ExploreStats,
    _count_incremental,
    _current_rss_bytes,
    _expand_guarded,
    _finalize,
    _make_access,
    _make_selector,
    _ObserverGuard,
    _publish,
    _select_guarded,
    _stats_view,
    _terminal_status_fast,
    _truncate,
)
from repro.explore.graph import DEADLOCK, ConfigGraph
from repro.explore.memo import ExpandCache
from repro.explore.observers import attached, attached_all
from repro.explore.stubborn import StubbornStats
from repro.lang.program import Program
from repro.metrics.registry import MetricsRegistry
from repro.resilience import chaos
from repro.resilience.checkpoint import (
    program_fingerprint,
    read_snapshot,
    write_snapshot,
)
from repro.semantics.config import (
    Config,
    digest_stats,
    initial_config,
    shard_of,
    stable_digest,
)
from repro.semantics.transport import ComponentStore
from repro.util.errors import ReproError

LOG = logging.getLogger("repro.explore.parallel")

#: Seconds to wait for a worker to exit after the final dump request.
_JOIN_TIMEOUT_S = 10.0
#: Candidate-batch flush threshold: estimated buffered payload bytes at
#: which a destination's batch ships even though the sender is busy.
_CAND_BYTES = 32 * 1024
#: Staleness bound on the size policy: a destination's buffer never
#: waits more than this many locally executed tasks, so a busy sender
#: cannot starve a receiver of its frontier indefinitely.
_CAND_STALE_TASKS = 64
#: Sender-side per-destination seen-digest cache capacity (each entry
#: pins one Config; eviction is insertion-ordered).
_SEEN_CAP = 4096
#: Minimum unshipped items worth a graph fragment on an idle/steal
#: boundary.  Fragments ship only at those natural rotation points —
#: a busy worker never interrupts expansion to stream, so the master's
#: folding stays off the workers' critical path.
_FRAG_MIN = 16
#: Worker inbox poll timeout when idle (seconds).
_IDLE_WAIT_S = 0.002
#: Master readiness-wait timeout (seconds).  The master blocks on the
#: results pipe plus the worker sentinels and is woken *immediately* by
#: a worker's quiescence note, a message, or a death — the timeout only
#: bounds how stale the budget/watchdog/progress checks can get.
_WAIT_S = 0.05
#: Short readiness-wait used while a master-side threshold is armed
#: (checkpoint trigger, a budget close to its cap): those fire on the
#: master's clock, so it must keep looking at the counters.
_TRIGGER_WAIT_S = 0.002
#: Configs-budget proximity (in configurations) at which the master
#: switches to the short wait so truncation lands promptly.
_BUDGET_GUARD = 4096
#: Whole-run retries before giving up on a dying/wedged pool.
_MAX_ATTEMPTS = 3

# Shared run modes (master writes, workers read).
_RUN, _DRAIN, _PAUSE = 0, 1, 2


class _PoolFailure(BaseException):
    """A worker died or the pool wedged: retry the whole run.

    Deliberately *not* an ``Exception``: it must sail through the
    engine's generic degradation guards (``_expand_guarded``, observer
    guards) up to the retry loop in :func:`explore_parallel`.
    """


class _Shared:
    """The lock-free-readable counters coordinating master and workers.

    Writers take ``lock``; readers go bare (aligned 8-byte loads — the
    master's poll loop must keep working even if a chaos-killed worker
    died anywhere, so no reader ever blocks on a lock a dead process
    might have held...  writers are workers, and a worker is killed only
    *between* tasks, outside the lock — see ``_maybe_chaos_exit``).
    """

    def __init__(self, ctx, nshards: int, outstanding: int) -> None:
        self.lock = ctx.Lock()
        self.outstanding = ctx.RawValue("q", outstanding)
        self.configs = ctx.RawValue("q", 0)
        self.expansions = ctx.RawValue("q", 0)
        self.suspended = ctx.RawValue("q", 0)
        self.mode = ctx.RawValue("i", _RUN)
        self.engine_fault = ctx.RawValue("i", 0)
        self.qdepth = ctx.RawArray("q", nshards)
        #: per-worker completed steal count, written by the thief alone
        #: (live telemetry for the master's progress frames; the exact
        #: total comes from the workers' registries at the end)
        self.steals = ctx.RawArray("q", nshards)
        #: per-worker interconnect bytes / suppressed candidates, written
        #: by the sender alone — live telemetry like ``steals``
        self.msg_bytes = ctx.RawArray("q", nshards)
        self.suppressed = ctx.RawArray("q", nshards)

    def apply(self, d_out=0, d_configs=0, d_expansions=0, d_susp=0):
        """Apply one worker's counter deltas atomically.

        Returns ``(outstanding, suspended)`` as observed under the lock
        after the update (None for a no-op flush) so the caller can
        detect the quiescence transition it just caused.
        """
        if not (d_out or d_configs or d_expansions or d_susp):
            return None
        with self.lock:
            self.outstanding.value += d_out
            self.configs.value += d_configs
            self.expansions.value += d_expansions
            self.suspended.value += d_susp
            return (self.outstanding.value, self.suspended.value)


def _maybe_chaos_exit() -> None:
    """The ``worker`` / ``worker-hang`` failure points, fired at the
    top of task execution — never while holding the counter lock."""
    try:
        chaos.kick("worker")
    except chaos.ChaosFault:
        os._exit(11)
    try:
        chaos.kick("worker-hang")
    except chaos.ChaosFault:
        time.sleep(3600.0)


# --------------------------------------------------------------------------
# worker side (BFS mode)
# --------------------------------------------------------------------------


def _seen_key(config) -> int:
    """The suppression-cache key for one candidate configuration.

    A separate function (rather than calling ``stable_digest`` inline)
    so tests can monkeypatch it to force collisions: the cache verifies
    configuration equality before suppressing and poisons colliding
    keys, so even a constant key function must never lose a config.
    """
    return stable_digest(config)


class _Worker:
    """One shard owner: dedup + edge recording for owned candidates,
    task execution (own or stolen), candidate routing, stealing."""

    def __init__(
        self, wid, nshards, program, opts, inboxes, results, shared,
        store, want_metrics, want_trace, trace_wall,
    ) -> None:
        self.wid = wid
        self.nshards = nshards
        self.program = program
        self.opts = opts
        self.inboxes = inboxes
        self.inbox = inboxes[wid]
        self.results = results
        self.shared = shared
        self.store = store
        store.bind(wid)
        self.access = _make_access(program, opts)
        self.selector = _make_selector(program, self.access, opts.policy)
        self.cache = ExpandCache() if getattr(opts, "memo", True) else None
        self.share: dict = {}  # the worker's share table (semantics.step)
        self.digest_base = digest_stats()
        # the worker's counts, shipped with every dump (deep
        # instrumentation only when the master has a registry attached)
        self.registry = MetricsRegistry()
        self.metrics = self.registry if want_metrics else None
        if self.selector is not None:
            self.selector.metrics = self.metrics
        counter = self.registry.counter
        self.expansions = counter("explore.expansions")
        self.dedup_hits = counter("explore.intern.hits")
        self.handoffs = counter("parallel.handoffs")
        self.steals = counter("parallel.steals")
        self.msg_bytes = counter("parallel.msg_bytes")
        self.cand_msgs = counter("parallel.cand_msgs")
        self.cand_suppressed = counter("parallel.cand_suppressed")
        self.tracer = None
        self.sink = None
        if want_trace:
            from repro.trace.sinks import ListSink
            from repro.trace.tracer import Tracer

            self.sink = ListSink()
            self.tracer = Tracer(self.sink, shard=wid, record_wall=trace_wall)
        self.visited: dict[Config, int] = {}
        self.configs: list[Config] = []
        self.edges: list[tuple] = []      # (src_shard, src_lid, actions, dst_lid)
        self.terminals: list[tuple] = []  # (lid, status)
        self.ready: deque = deque()       # (lid, config) — own tasks
        self.stolen: deque = deque()      # (owner, lid, config)
        self.parked: list = []            # (owner, lid, config) while paused
        self.out_buf: dict[int, list] = {}  # dst shard -> candidate entries
        self.buf_bytes: dict[int, int] = {}  # dst shard -> estimated bytes
        self.buf_since: dict[int, int] = {}  # dst -> executed@first buffered
        # sender-side suppression state, per destination: digest ->
        # config already shipped there (insertion-ordered for eviction),
        # plus the digests poisoned by an observed collision
        self.seen: dict[int, dict] = {}
        self.poisoned: dict[int, set] = {}
        # receiver-side ref resolution: (sender, digest) -> local id,
        # updated by every full candidate from that sender (FIFO queues
        # guarantee the full payload precedes any ref that cites it)
        self.ref_map: dict[tuple[int, int], int] = {}
        self.trace_batches: dict[tuple, list] = {}  # (owner, lid) -> records
        #: tasks executed here, stealing included (run metadata: it
        #: becomes ``ExploreStats.worker_expansions`` and paces batching)
        self.executed = 0
        # graph content already streamed to the master as fragments
        self.shipped_configs = 0
        self.shipped_edges = 0
        self.shipped_terminals = 0
        self.awaiting_steal_since: float | None = None
        # per-iteration counter deltas, applied in one lock acquisition
        self.d_out = 0
        self.d_configs = 0
        self.d_expansions = 0
        self.d_susp = 0

    # -- counter deltas -------------------------------------------------

    def _flush_deltas(self) -> None:
        after = self.shared.apply(
            self.d_out, self.d_configs, self.d_expansions, self.d_susp
        )
        self.d_out = self.d_configs = self.d_expansions = self.d_susp = 0
        if after is not None and after[0] == after[1]:
            # this flush reached quiescence (run end: outstanding == 0,
            # or pause: everything suspended) — wake the blocked master
            # now instead of letting its readiness-wait time out
            self.results.put(("quiet",))

    # -- candidate intake (the owner-side half of the protocol) ---------

    def _take_candidate(self, config, src_shard, src_lid, actions) -> int:
        """Consume one counted candidate unit addressed to this shard;
        returns the configuration's local id."""
        lid = self.visited.get(config)
        if lid is not None:
            self.dedup_hits.value += 1
            if src_shard is not None:
                self.edges.append((src_shard, src_lid, actions, lid))
            self.d_out -= 1
            return lid
        lid = len(self.configs)
        self.visited[config] = lid
        self.configs.append(config)
        self.d_configs += 1
        if src_shard is not None:
            self.edges.append((src_shard, src_lid, actions, lid))
        mode = self.shared.mode.value
        if mode == _DRAIN:
            # truncated run: register + resolve the edge, expand nothing
            # (mirrors the serial loop's abandoned frontier)
            self.d_out -= 1
            return lid
        status = _terminal_status_fast(config)
        if status is not None:
            self.terminals.append((lid, status))
            self.expansions.value += 1
            self.d_expansions += 1
            self.d_out -= 1
            return lid
        if mode == _PAUSE:
            self.parked.append((self.wid, lid, config))
            self.d_susp += 1
        else:
            self.ready.append((lid, config))
        return lid

    # -- messages -------------------------------------------------------

    def _handle(self, msg) -> bool:
        """Process one inbox message; True when the worker should exit."""
        if isinstance(msg, (bytes, bytearray)):
            msg = pickle.loads(msg)
        kind = msg[0]
        if kind == "cand":
            sender = msg[1]
            for entry in msg[2]:
                if entry[0]:
                    # digest ref: the sender proved it already shipped
                    # this exact configuration here, so this candidate
                    # is by construction the owner-side dedup path
                    _, dig, src_shard, src_lid, actions = entry
                    lid = self.ref_map[(sender, dig)]
                    self.dedup_hits.value += 1
                    self.edges.append((src_shard, src_lid, actions, lid))
                    self.d_out -= 1
                else:
                    _, payload, src_shard, src_lid, actions = entry
                    lid = self._take_candidate(
                        self.store.decode_config(payload),
                        src_shard, src_lid, actions,
                    )
                    dig = payload[4]  # the digest rides in the payload
                    if dig is not None:
                        self.ref_map[(sender, dig)] = lid
        elif kind == "mark":
            _, lid, status = msg
            self.terminals.append((lid, status))
            self.d_out -= 1
        elif kind == "steal":
            thief = msg[1]
            give = len(self.ready) // 2
            if give and self.shared.mode.value == _RUN:
                # a thief is an idle peer: ship it any buffered
                # candidates along with the stolen tasks
                self._flush_bufs()
                tasks = [self.ready.popleft() for _ in range(give)]
                self._send(
                    thief,
                    (
                        "stolen",
                        self.wid,
                        [
                            (lid, self.store.encode_config(cfg))
                            for lid, cfg in tasks
                        ],
                    ),
                )
                # a steal is a natural rotation boundary: the master is
                # idle-adjacent anyway, so stream the graph delta now
                if len(self.configs) - self.shipped_configs >= _FRAG_MIN:
                    self._ship_frag()
            else:
                self.inboxes[thief].put(("nowork",))
        elif kind == "stolen":
            _, owner, tasks = msg
            self.awaiting_steal_since = None
            self.steals.value += 1
            self.shared.steals[self.wid] = self.steals.value
            if self.metrics is not None:
                self.metrics.observe("parallel.steal_batch", len(tasks))
            for lid, payload in tasks:
                self.stolen.append(
                    (owner, lid, self.store.decode_config(payload))
                )
        elif kind == "nowork":
            self.awaiting_steal_since = None
        elif kind == "preload":
            _, payloads, queued_lids = msg
            for payload in payloads:
                config = self.store.decode_config(payload)
                self.visited[config] = len(self.configs)
                self.configs.append(config)
            for lid in queued_lids:
                self.ready.append((lid, self.configs[lid]))
        elif kind == "resume":
            self._unpark()
        elif kind == "dump":
            self._dump(final=msg[1])
            return msg[1]
        return False

    def _unpark(self) -> None:
        n = len(self.parked)
        if not n:
            return
        for owner, lid, config in self.parked:
            if owner == self.wid:
                self.ready.append((lid, config))
            else:
                self.stolen.append((owner, lid, config))
        self.parked.clear()
        self.d_susp -= n

    def _park_all(self) -> None:
        while self.ready:
            lid, config = self.ready.popleft()
            self.parked.append((self.wid, lid, config))
            self.d_susp += 1
        while self.stolen:
            self.parked.append(self.stolen.popleft())
            self.d_susp += 1

    def _drop_tasks(self) -> None:
        """DRAIN mode: already-queued tasks are never expanded (their
        configurations stay registered, exactly like the serial
        loop's abandoned frontier)."""
        n = len(self.ready) + len(self.stolen) + len(self.parked)
        if not n:
            return
        self.d_susp -= len(self.parked)
        self.ready.clear()
        self.stolen.clear()
        self.parked.clear()
        self.d_out -= n

    # -- task execution -------------------------------------------------

    def _execute(self, owner, lid, config) -> None:
        _maybe_chaos_exit()
        if self.tracer is not None:
            self.tracer.shard = owner  # stolen work keeps the owner tag
        self.expansions.value += 1
        self.d_expansions += 1
        self.executed += 1
        marks: list[tuple] = []
        expansions = _expand_guarded(
            self.program, config, lid, self.access, self.opts, self.registry,
            self.metrics, self.tracer, cache=self.cache, share=self.share,
        )
        if expansions is None:
            self.shared.engine_fault.value = 1
        else:
            enabled = [e for e in expansions if e.enabled]
            if not enabled:
                if owner == self.wid:
                    self.terminals.append((lid, DEADLOCK))
                else:
                    marks.append((owner, lid, DEADLOCK))
                    self.d_out += 1
            else:
                chosen = _select_guarded(
                    self.selector, expansions, enabled, self.registry,
                    self.tracer,
                )
                for exp in chosen:
                    succ = exp.succ
                    if succ is None:
                        succ = self.cache.replay(exp.entry, exp.proc, config)
                    # edges carry action *handles*: each ActionInfo
                    # crosses the interconnect once, ever (memoized
                    # expansions replay identical objects, so the
                    # ledger hit rate tracks the memo hit rate)
                    acts = tuple(
                        self.store.publish(a) for a in exp.actions
                    )
                    dshard = shard_of(succ, self.nshards)
                    if dshard == self.wid:
                        self.d_out += 1
                        self._take_candidate(succ, owner, lid, acts)
                    else:
                        self.handoffs.value += 1
                        self.d_out += 1
                        self._route(dshard, succ, owner, lid, acts)
        self.d_out -= 1  # the task unit itself
        if self.sink is not None:
            self.trace_batches[(owner, lid)] = self.sink.drain()
        # counters first, sends second: a unit must be visible in
        # ``outstanding`` before its message can be consumed
        self._flush_deltas()
        for mowner, mlid, status in marks:
            self.inboxes[mowner].put(("mark", mlid, status))
        self._flush_bufs(only_full=True)

    def _route(self, dshard, succ, owner, lid, actions) -> None:
        """Queue one cross-shard candidate: a digest ref when this
        sender has already shipped the identical configuration to that
        destination, the full store-encoded payload otherwise."""
        dig = _seen_key(succ)
        seen = self.seen.setdefault(dshard, {})
        buf = self.out_buf.setdefault(dshard, [])
        if dshard not in self.buf_since:
            self.buf_since[dshard] = self.executed
        hit = seen.get(dig)
        if hit is not None:
            # interning makes equal configs identical objects in this
            # process, so identity is the fast path; the equality
            # fallback guards the un-interned edge and keeps a digest
            # collision from ever suppressing a genuinely-new config
            if (hit is succ or hit == succ) and dig not in self.poisoned.get(
                dshard, ()
            ):
                buf.append((1, dig, owner, lid, actions))
                self.cand_suppressed.value += 1
                self.shared.suppressed[self.wid] = self.cand_suppressed.value
                self.buf_bytes[dshard] = self.buf_bytes.get(dshard, 0) + 32
                return
            if hit is not succ and hit != succ:
                # two distinct configurations share a cache key: this
                # digest can never again be trusted as a ref for this
                # destination — full payloads only from here on
                self.poisoned.setdefault(dshard, set()).add(dig)
                seen.pop(dig, None)
        else:
            if len(seen) >= _SEEN_CAP:
                seen.pop(next(iter(seen)))
            seen[dig] = succ
        tail0 = self.store.published_bytes()
        payload = self.store.encode_config(succ)
        est = 64 + (self.store.published_bytes() - tail0)
        buf.append((0, payload, owner, lid, actions))
        self.buf_bytes[dshard] = self.buf_bytes.get(dshard, 0) + est

    def _send(self, dshard, msg) -> None:
        """Pickle once (protocol 5), account the bytes, ship the blob."""
        blob = pickle.dumps(msg, protocol=5)
        self.msg_bytes.value += len(blob)
        self.shared.msg_bytes[self.wid] = self.msg_bytes.value
        self.inboxes[dshard].put(blob)

    def _flush_bufs(self, only_full: bool = False) -> None:
        for dshard, buf in list(self.out_buf.items()):
            if not buf:
                continue
            if only_full and self.buf_bytes.get(dshard, 0) < _CAND_BYTES and (
                self.executed - self.buf_since.get(dshard, self.executed)
                < _CAND_STALE_TASKS
            ):
                continue
            self._send(dshard, ("cand", self.wid, buf))
            self.cand_msgs.value += 1
            self.out_buf[dshard] = []
            self.buf_bytes[dshard] = 0
            self.buf_since.pop(dshard, None)

    def _ship_frag(self) -> None:
        """Stream the unshipped graph delta to the master, which folds
        it into the canonical merge while the run is still draining."""
        nc, ne, nt = len(self.configs), len(self.edges), len(self.terminals)
        if (nc, ne, nt) == (
            self.shipped_configs, self.shipped_edges, self.shipped_terminals
        ):
            return
        frag = (
            "frag",
            self.wid,
            self.shipped_configs,
            [
                # the merge recomputes digests; don't ship them
                self.store.encode_config(c, digest=False)
                for c in self.configs[self.shipped_configs:]
            ],
            self.shipped_edges,
            self.edges[self.shipped_edges:],
            self.shipped_terminals,
            self.terminals[self.shipped_terminals:],
        )
        blob = pickle.dumps(frag, protocol=5)
        self.msg_bytes.value += len(blob)
        self.shared.msg_bytes[self.wid] = self.msg_bytes.value
        self.results.put(blob)
        self.shipped_configs = nc
        self.shipped_edges = ne
        self.shipped_terminals = nt

    # -- dumps ----------------------------------------------------------

    def _dump(self, final: bool) -> None:
        self.registry.gauge(PEAK_RSS).set(_current_rss_bytes())
        if final and self.metrics is not None:
            _count_incremental(
                self.registry, self.cache, self.digest_base, self.share
            )
        payload = {
            "wid": self.wid,
            # graph content ships as a delta over the fragments already
            # streamed — the master's accumulator holds the rest
            "base_configs": self.shipped_configs,
            "configs": [
                self.store.encode_config(c, digest=False)
                for c in self.configs[self.shipped_configs:]
            ],
            "base_edges": self.shipped_edges,
            "edges": self.edges[self.shipped_edges:],
            "base_terminals": self.shipped_terminals,
            "terminals": self.terminals[self.shipped_terminals:],
            "parked": [(o, lid) for o, lid, _ in self.parked],
            "executed": self.executed,
            "stubborn": (
                self.selector.stats if self.selector is not None else None
            ),
            # cumulative: the master merges the final dump's only
            "metrics": self.registry.snapshot(),
            "trace": None,
        }
        self.shipped_configs = len(self.configs)
        self.shipped_edges = len(self.edges)
        self.shipped_terminals = len(self.terminals)
        if final and self.sink is not None:
            payload["trace"] = self.trace_batches
        # the dump blob's own size is accounted master-side on receipt
        # (it contains the msg_bytes counter, so it cannot count itself)
        self.results.put(pickle.dumps(("dump", self.wid, payload), protocol=5))

    # -- main loop ------------------------------------------------------

    def run(self) -> None:
        while True:
            # 1. drain the inbox without blocking
            exit_now = False
            while True:
                try:
                    msg = self.inbox.get_nowait()
                except _queue.Empty:
                    break
                if self._handle(msg):
                    exit_now = True
                    break
            if exit_now:
                self._flush_deltas()
                return
            mode = self.shared.mode.value
            if mode == _PAUSE:
                self._park_all()
            elif self.parked:
                if mode == _DRAIN:
                    self._drop_tasks()
                else:
                    self._unpark()
            if mode == _DRAIN:
                self._drop_tasks()
            # 2. execute one task
            task = None
            if mode == _RUN:
                if self.ready:
                    lid, config = self.ready.popleft()
                    task = (self.wid, lid, config)
                elif self.stolen:
                    task = self.stolen.popleft()
            self.shared.qdepth[self.wid] = len(self.ready)
            if task is not None:
                self._execute(*task)
                self.shared.qdepth[self.wid] = len(self.ready)
                continue
            # 3. idle: flush everything, maybe steal, then block briefly
            self._flush_deltas()
            self._flush_bufs()
            if (
                len(self.configs) - self.shipped_configs >= _FRAG_MIN
                or len(self.edges) - self.shipped_edges >= _FRAG_MIN
            ):
                self._ship_frag()
            if (
                mode == _RUN
                and self.shared.outstanding.value > 0
                and self.nshards > 1
            ):
                now = time.monotonic()
                if (
                    self.awaiting_steal_since is not None
                    and now - self.awaiting_steal_since > 0.2
                ):
                    self.awaiting_steal_since = None  # victim likely died
                if self.awaiting_steal_since is None:
                    victim = -1
                    depth = 0
                    for peer in range(self.nshards):
                        if peer != self.wid and self.shared.qdepth[peer] > depth:
                            victim, depth = peer, self.shared.qdepth[peer]
                    if victim >= 0:
                        self.inboxes[victim].put(("steal", self.wid))
                        self.awaiting_steal_since = now
            try:
                msg = self.inbox.get(timeout=_IDLE_WAIT_S)
            except _queue.Empty:
                continue
            if self._handle(msg):
                self._flush_deltas()
                return


def _worker_main(
    wid, nshards, program, opts, inboxes, results, shared, store,
    want_metrics, want_trace, trace_wall,
):
    """Worker process entry point."""
    # the cyclic collector only costs here: exploration state is
    # refcount-reclaimed (frozen dataclasses, tuples), and a gen-2 pass
    # in a forked child copy-on-write-faults the whole inherited heap
    gc.disable()
    try:
        _Worker(
            wid, nshards, program, opts, inboxes, results, shared, store,
            want_metrics, want_trace, trace_wall,
        ).run()
    except Exception:
        try:
            results.put(("crash", wid, traceback.format_exc()))
        except Exception:
            pass
    finally:
        store.close()


# --------------------------------------------------------------------------
# master side
# --------------------------------------------------------------------------


def explore_parallel(
    program: Program, opts, observers=(), checkpointer=None, resume_from=None
):
    """Work-stealing multiprocess exploration; same result contract as
    the serial driver (invoked through
    :func:`repro.explore.explorer.explore` with ``backend="parallel"``).

    A dead or wedged worker pool aborts the attempt and the whole run is
    retried — exploration is deterministic, so the retry converges on
    the identical graph; ``stats.worker_restarts`` reports how many
    attempts it took.

    Sleep-set options are rejected: ``explore()`` runs those on its
    serial loop's sleep-set stack, so reaching here with them means a
    caller bypassed it.
    """
    if opts.sleep:
        raise ValueError(
            "explore_parallel does not run sleep-set explorations; "
            "call repro.explore.explore, which runs them serially"
        )
    attempts = 0
    while True:
        try:
            return _bfs_attempt(
                program, opts, observers, checkpointer, resume_from, attempts
            )
        except _PoolFailure as exc:
            attempts += 1
            if attempts >= _MAX_ATTEMPTS:
                raise ReproError(
                    f"parallel exploration failed after {_MAX_ATTEMPTS} "
                    f"attempts: {exc}"
                ) from None
            LOG.warning(
                "parallel worker pool failed (%s); restarting the run "
                "(attempt %d/%d)", exc, attempts + 1, _MAX_ATTEMPTS,
            )


class _Pool:
    """Worker processes plus their queues/shared state, with hard
    cleanup and dump collection."""

    def __init__(
        self, program, opts, nshards, outstanding0, preloaded_configs,
        want_metrics, want_trace, trace_wall,
    ) -> None:
        methods = multiprocessing.get_all_start_methods()
        self.fork = "fork" in methods
        ctx = multiprocessing.get_context("fork" if self.fork else "spawn")
        self.nshards = nshards
        self.shared = _Shared(ctx, nshards, outstanding0)
        self.shared.configs.value = preloaded_configs
        self.inboxes = [ctx.Queue() for _ in range(nshards)]
        self.results = ctx.Queue()
        # shm transport only under fork (segments are inherited, never
        # re-attached by name — the resource tracker sees each once)
        self.store = ComponentStore(nshards + 1, use_shm=self.fork)
        self.store.bind(nshards)  # the master is producer `nshards`
        self.rx_dump_bytes = 0  # dump blobs received (sender can't count)
        self.procs = []
        # move the parent heap to the permanent generation before
        # forking: a child gc pass would otherwise touch every inherited
        # object header and copy-on-write-fault the whole heap
        if self.fork:
            gc.freeze()
        try:
            for wid in range(nshards):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        wid, nshards, program, opts, self.inboxes,
                        self.results, self.shared, self.store, want_metrics,
                        want_trace, trace_wall,
                    ),
                    daemon=True,
                    name=f"repro-shard-{wid}",
                )
                proc.start()
                self.procs.append(proc)
        finally:
            if self.fork:
                gc.unfreeze()

    def check_alive(self) -> None:
        for wid, proc in enumerate(self.procs):
            if not proc.is_alive():
                raise _PoolFailure(
                    f"worker {wid} died (exit code {proc.exitcode})"
                )

    def wait_events(self, timeout_s: float) -> None:
        """Block until the results pipe has data, a worker dies, or the
        timeout elapses — the readiness wait replacing the old 1ms
        polling sleep.  A dead worker's sentinel stays ready, so the
        caller's next ``check_alive`` fires immediately."""
        waiters = [p.sentinel for p in self.procs]
        reader = getattr(self.results, "_reader", None)
        if reader is not None:
            waiters.append(reader)
        try:
            multiprocessing.connection.wait(waiters, timeout=timeout_s)
        except OSError:  # pragma: no cover - raced a closing sentinel
            time.sleep(min(timeout_s, 0.005))

    def drain_results(self, on_msg=None) -> None:
        """Consume every pending results-queue message without blocking.

        ``("quiet",)`` wake-up notes are absorbed; crashes raise; any
        other message goes to *on_msg* (which returns True when it
        handled the kind) — with no handler taking it, the message is a
        protocol violation and raises."""
        while True:
            try:
                msg = self.results.get_nowait()
            except _queue.Empty:
                return
            if isinstance(msg, (bytes, bytearray)):
                nbytes = len(msg)
                msg = pickle.loads(msg)
                if msg[0] == "dump":
                    # dump payloads carry the sender's own byte counter,
                    # so their blob size is accounted here instead
                    self.rx_dump_bytes += nbytes
            kind = msg[0]
            if kind == "quiet":
                continue
            if kind == "crash":
                raise ReproError(
                    f"parallel exploration worker {msg[1]} crashed:\n{msg[2]}"
                )
            if on_msg is not None and on_msg(msg):
                continue
            raise ReproError(f"unexpected worker message {kind!r}")

    def send_all(self, msg) -> None:
        for inbox in self.inboxes:
            inbox.put(msg)

    def collect_dumps(
        self, final: bool, timeout_s: float, on_msg=None, after_request=None
    ) -> list[dict]:
        """Request and gather one dump per worker, in wid order.

        *after_request* runs once, right after the dump broadcast —
        the overlap window where the workers are busy serializing and
        master-side work (fragment folding) is free."""
        self.send_all(("dump", final))
        if after_request is not None:
            after_request()
        dumps: dict[int, dict] = {}

        def take(msg):
            if msg[0] == "dump":
                dumps[msg[1]] = msg[2]
                return True
            return on_msg is not None and on_msg(msg)

        deadline = time.monotonic() + timeout_s
        dead_deadline = None
        while len(dumps) < self.nshards:
            self.drain_results(take)
            if len(dumps) >= self.nshards:
                break
            now = time.monotonic()
            if now > deadline:
                raise _PoolFailure("timed out waiting for shard dumps")
            missing_dead = [
                wid
                for wid, proc in enumerate(self.procs)
                if wid not in dumps and not proc.is_alive()
            ]
            if missing_dead:
                # a worker exits right after its final dump, so a dead
                # process is not proof of failure while its last message
                # may still be in flight — grace-period it, then fail
                if dead_deadline is None:
                    dead_deadline = now + 1.0
                elif now > dead_deadline:
                    raise _PoolFailure(
                        f"worker {missing_dead[0]} died before dumping"
                    )
                time.sleep(0.02)  # its sentinel makes wait_events moot
            else:
                dead_deadline = None
                self.wait_events(0.05)
        return [dumps[wid] for wid in range(self.nshards)]

    def shutdown(self) -> None:
        deadline = time.monotonic() + _JOIN_TIMEOUT_S
        for proc in self.procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in (*self.inboxes, self.results):
            q.close()
            q.cancel_join_thread()
        self.store.unlink()


class _FragAccumulator:
    """The master-side half of the streaming merge: per-worker graph
    fragments stashed raw as they arrive during the run, then folded in
    the window between the dump request and the last dump's arrival —
    i.e. while workers are busy pickling their tails, which is the only
    window on a saturated machine where master-side decode work truly
    overlaps instead of stealing worker cycles.  Its parts are the
    single source of truth for :func:`_merge_graph`; workers only ever
    ship deltas.  ``overlap_s`` counts fragment folds, ``tail_s`` the
    post-join dump folds."""

    def __init__(self, nshards: int, store) -> None:
        self.parts = [
            {"wid": wid, "configs": [], "edges": [], "terminals": []}
            for wid in range(nshards)
        ]
        self.store = store
        self.pending: list[tuple] = []
        self.overlap_s = 0.0
        self.tail_s = 0.0
        self.frags = 0

    def fold(
        self, wid, base_c, configs, base_e, edges, base_t, terms,
        *, tail: bool = False,
    ) -> None:
        part = self.parts[wid]
        if (
            base_c != len(part["configs"])
            or base_e != len(part["edges"])
            or base_t != len(part["terminals"])
        ):
            # per-producer queue order makes this unreachable short of a
            # protocol bug; fail the attempt rather than corrupt a merge
            raise _PoolFailure(f"worker {wid} fragment stream out of order")
        t0 = time.perf_counter()
        decode = self.store.decode_config
        resolve = self.store.resolve
        part["configs"].extend(decode(p) for p in configs)
        part["edges"].extend(
            (s, sl, tuple(resolve(h) for h in acts), dl)
            for s, sl, acts, dl in edges
        )
        part["terminals"].extend(terms)
        elapsed = time.perf_counter() - t0
        if tail:
            self.tail_s += elapsed
        else:
            self.overlap_s += elapsed
            self.frags += 1

    def on_msg(self, msg) -> bool:
        """Results-queue handler: stashes ``frag`` messages for the
        overlap window (folding them on arrival would contend with the
        workers that are still expanding)."""
        if msg[0] == "frag":
            self.pending.append(msg)
            return True
        return False

    def flush_pending(self) -> None:
        """Fold every stashed fragment, in arrival order (per-producer
        queue order keeps each worker's stream contiguous)."""
        pending, self.pending = self.pending, []
        for msg in pending:
            self.fold(*msg[1:])

    def fold_dump(self, dump: dict, *, tail: bool = True) -> None:
        self.fold(
            dump["wid"],
            dump["base_configs"], dump["configs"],
            dump["base_edges"], dump["edges"],
            dump["base_terminals"], dump["terminals"],
            tail=tail,
        )


def _canonical_order(configs: list[Config]) -> list[Config]:
    """Global deterministic ordering: by stable digest, ``repr`` as the
    collision tie-break (cheap: computed only for colliding digests)."""
    groups: dict[int, list[Config]] = {}
    for config in configs:
        groups.setdefault(stable_digest(config), []).append(config)
    out: list[Config] = []
    for digest in sorted(groups):
        group = groups[digest]
        if len(group) > 1:
            group.sort(key=repr)
        out.extend(group)
    return out


def _merge_graph(parts, snap_edges, snap_terminals, init_cfg, metrics):
    """The canonical merge: accumulated per-worker parts (+ any
    resumed-snapshot content) into one graph with
    scheduling-independent ids and orderings.

    Returns ``(graph, edge_items, term_items, frag)`` where the item
    lists carry ``is_new`` flags (False for snapshot-inherited content,
    which observers of a resumed run must not be re-notified about) and
    ``frag`` maps each configuration to its owning ``(shard, lid)``.
    """
    frag: dict[tuple[int, int], Config] = {}
    all_configs: list[Config] = []
    for d in parts:
        for lid, config in enumerate(d["configs"]):
            frag[(d["wid"], lid)] = config
            all_configs.append(config)
    graph = ConfigGraph()
    graph.metrics = metrics
    for config in _canonical_order(all_configs):
        _, fresh = graph.add_config(config)
        # shard ownership is a partition: equal configs share a digest,
        # hence a shard, hence were deduplicated there
        assert fresh, "cross-shard duplicate — digest partition broken"
    graph.initial = graph.config_id(init_cfg)

    edge_items = [
        (graph.config_id(src), actions, graph.config_id(dst), False)
        for src, dst, actions in snap_edges
    ]
    for d in parts:
        for src_shard, src_lid, actions, dst_lid in d["edges"]:
            edge_items.append(
                (
                    graph.config_id(frag[(src_shard, src_lid)]),
                    actions,
                    graph.config_id(d["configs"][dst_lid]),
                    True,
                )
            )
    # (src, pid) is unique per edge — each configuration is expanded by
    # exactly one owner, contributing at most one edge per process — so
    # this key is a total order and the sort is scheduling-independent
    edge_items.sort(key=lambda e: (e[0], e[1][0].pid, e[2]))
    for src, actions, dst, _ in edge_items:
        graph.add_edge(src, dst, actions)

    term_items = [
        (graph.config_id(config), status, False)
        for config, status in snap_terminals
    ]
    for d in parts:
        for lid, status in d["terminals"]:
            term_items.append(
                (graph.config_id(frag[(d["wid"], lid)]), status, True)
            )
    term_items.sort(key=lambda t: t[0])
    for cid, status, _ in term_items:
        graph.mark_terminal(cid, status)
    return graph, edge_items, term_items, frag


def _merge_dumps(
    pool, acc, dumps, snap, init, stats, run, metrics, *, tail=True
):
    """Fold the gathered *dumps* (and any fragments that raced the dump
    request) into *acc*, then merge: the canonical graph, the workers'
    registries (and the dump bytes their senders cannot count) into
    *run*, shard sizes and task counts into *stats*, and the selector
    statistics.  *tail* charges the dump folds to ``acc.tail_s`` (the
    final merge) rather than to the overlap (a checkpoint, mid-run).

    Returns ``(graph, edge_items, term_items, frag, stubborn)``.
    """
    acc.flush_pending()
    for d in dumps:
        acc.fold_dump(d, tail=tail)
    graph, edge_items, term_items, frag = _merge_graph(
        acc.parts,
        snap["edges"] if snap else [],
        snap["terminals"] if snap else [],
        init,
        metrics,
    )
    for d in dumps:
        run.merge(d["metrics"])
    run.inc("parallel.msg_bytes", pool.rx_dump_bytes)
    # shard sizes come from the accumulated parts: dumps carry deltas
    stats.shard_sizes = tuple(len(p["configs"]) for p in acc.parts)
    stats.worker_expansions = tuple(d["executed"] for d in dumps)
    stubborn = _merge_stubborn(
        [snap["stubborn"] if snap else None] + [d["stubborn"] for d in dumps]
    )
    return graph, edge_items, term_items, frag, stubborn


def _announce(guard, graph, edge_items, term_items, snap, tracer=None,
              batches=None, owner_of=None) -> None:
    """Notify the merged graph's new content through *guard* (which
    counts it): every configuration not inherited from the resumed
    snapshot *snap*, then the new edges and terminal marks, each in
    canonical order.  With a *tracer*, each configuration's worker trace
    batch is re-emitted right after its announcement."""
    preloaded = (
        {graph.config_id(c) for c in snap["configs"]} if snap else set()
    )
    for cid in range(graph.num_configs):
        if cid not in preloaded:
            guard.on_config(graph, cid, graph.configs[cid], True, None)
        if tracer is not None:
            batch = batches.get(owner_of.get(cid))
            if batch:
                _emit_trace_batch(tracer, batch)
    for src, actions, dst, is_new in edge_items:
        if is_new:
            guard.on_edge(graph, src, dst, actions)
    for cid, status, is_new in term_items:
        if is_new:
            guard.on_config(graph, cid, graph.configs[cid], False, status)


def _emit_trace_batch(tracer, records) -> None:
    """Re-emit one worker task's records, renumbered into the master's
    sequence space (contiguous-range remap keeps intra-batch structure;
    batch emission order is canonical, so the result is byte-stable)."""
    if not records:
        return
    seqs = [r["seq"] for r in records]
    seqs += [r["end_seq"] for r in records if "end_seq" in r]
    lo, hi = min(seqs), max(seqs)
    base = tracer._seq  # the master allocates the renumbered range
    for r in records:
        r = dict(r)
        r["seq"] = base + r["seq"] - lo
        if "end_seq" in r:
            r["end_seq"] = base + r["end_seq"] - lo
        tracer.emit(r)
    tracer._seq = base + (hi - lo) + 1


def _read_bfs_snapshot(path, fingerprint, opts):
    """Load a ``driver="bfs"`` snapshot into merge-ready form."""
    payload = read_snapshot(
        path, driver="bfs", fingerprint=fingerprint,
        options_key=opts.resume_key(),
    )
    old = payload["graph"]
    queued = set(payload["queue"])
    return {
        "stats": payload["stats"],
        "stubborn": payload.get("stubborn"),
        "configs": list(old.configs),
        "queued_gids": list(payload["queue"]),
        "queued": queued,
        "initial": old.configs[old.initial],
        "edges": [
            (old.configs[e.src], old.configs[e.dst], e.actions)
            for e in old.edges
        ],
        "terminals": [
            (old.configs[cid], status)
            for cid, status in sorted(old.terminal.items())
        ],
    }


def _bfs_attempt(
    program, opts, observers, checkpointer, resume_from, restarts
):
    t0 = time.perf_counter()
    deadline = None if opts.time_limit_s is None else t0 + opts.time_limit_s
    nshards = opts.jobs
    registries = attached_all(observers, "registry")
    tracer = attached(observers, "tracer")
    emitter = attached(observers, "progress")
    digest_base = digest_stats()
    access = _make_access(program, opts)
    fingerprint = program_fingerprint(program)

    snap = None
    if resume_from is not None:
        snap = _read_bfs_snapshot(resume_from, fingerprint, opts)
        init = snap["initial"]
        outstanding0 = len(snap["queued_gids"])
    else:
        init = initial_config(
            program, track_procstrings=opts.step.track_procstrings
        )
        outstanding0 = 1

    stats = ExploreStats(
        backend="parallel", jobs=nshards, worker_restarts=restarts,
        resumed=snap is not None,
    )
    if snap is not None:
        # cumulative counters continue from the resumed snapshot's
        for name in (*STATS_SERIES, "peak_rss_bytes"):
            setattr(stats, name, getattr(snap["stats"], name))
    # the master counts graph events and merges the workers' counts in
    run = MetricsRegistry()
    deep = run if registries else None
    peak = run.gauge(PEAK_RSS)
    guard = _ObserverGuard(observers, run, tracer)

    spawn_span = (
        tracer.begin_span("parallel.spawn", jobs=nshards)
        if tracer is not None
        else None
    )
    pool = _Pool(
        program, opts, nshards,
        outstanding0, len(snap["configs"]) if snap else 0,
        want_metrics=bool(registries),
        want_trace=tracer is not None,
        trace_wall=tracer.record_wall if tracer is not None else True,
    )
    if spawn_span is not None:
        tracer.end_span(spawn_span)
    acc = _FragAccumulator(nshards, pool.store)
    try:
        # ---- seed ----------------------------------------------------
        if snap is not None:
            preload: list[list] = [[] for _ in range(nshards)]
            queue_lids: list[list[int]] = [[] for _ in range(nshards)]
            for gid, config in enumerate(snap["configs"]):
                s = shard_of(config, nshards)
                if gid in snap["queued"]:
                    queue_lids[s].append(len(preload[s]))
                preload[s].append(pool.store.encode_config(config))
            for s in range(nshards):
                pool.inboxes[s].put(("preload", preload[s], queue_lids[s]))
        else:
            pool.inboxes[shard_of(init, nshards)].put(
                ("cand", nshards,
                 [(0, pool.store.encode_config(init), None, None, ())])
            )

        run_span = (
            tracer.begin_span("parallel.run", jobs=nshards)
            if tracer is not None
            else None
        )
        cp = checkpointer
        next_cp = cp.every if cp is not None else None
        shared = pool.shared
        last_progress = None
        last_progress_t = time.monotonic()

        # ---- drive ---------------------------------------------------
        while True:
            pool.drain_results(acc.on_msg)
            if shared.outstanding.value == 0:
                break
            now = time.monotonic()
            if not stats.truncated:
                if deadline is not None and time.perf_counter() > deadline:
                    _truncate(stats, "time", tracer)
                elif shared.engine_fault.value:
                    _truncate(stats, "internal-error", tracer)
                elif shared.configs.value > opts.max_configs:
                    _truncate(stats, "configs", tracer)
                elif opts.max_rss_bytes is not None:
                    rss = _current_rss_bytes()
                    if rss > peak.value:
                        peak.value = rss
                    if rss > opts.max_rss_bytes:
                        _truncate(stats, "memory", tracer)
                if stats.truncated:
                    shared.mode.value = _DRAIN
            if deep is not None:
                deep.observe(
                    "parallel.queue_depth",
                    sum(shared.qdepth[s] for s in range(nshards)),
                )
            if emitter is not None and emitter.due():
                # shard depths and steal counts are scheduling-dependent
                # (like ExploreStats.steals) — live telemetry, never part
                # of the byte-stable final documents
                depths = [shared.qdepth[s] for s in range(nshards)]
                emitter.emit(
                    "parallel",
                    configs=shared.configs.value,
                    expansions=shared.expansions.value,
                    outstanding=shared.outstanding.value,
                    frontier=sum(depths),
                    shard_depths=depths,
                    shard_steals=[shared.steals[s] for s in range(nshards)],
                    msg_bytes=sum(
                        shared.msg_bytes[s] for s in range(nshards)
                    ),
                    suppressed=sum(
                        shared.suppressed[s] for s in range(nshards)
                    ),
                )
            if (
                next_cp is not None
                and not stats.truncated
                and shared.expansions.value >= next_cp
            ):
                stopped = _quiescent_checkpoint(
                    pool, acc, cp, stats, opts, fingerprint, snap, init,
                    tracer,
                )
                while next_cp <= shared.expansions.value:
                    next_cp += cp.every
                if stopped:
                    _truncate(stats, "interrupted", tracer)
                    shared.mode.value = _DRAIN
                    pool.send_all(("resume",))  # unpark into the drain
                last_progress_t = time.monotonic()
                continue
            progress = (
                shared.outstanding.value,
                shared.configs.value,
                shared.expansions.value,
                shared.suspended.value,
            )
            if progress != last_progress:
                last_progress = progress
                last_progress_t = now
            elif now - last_progress_t > opts.parallel_watchdog_s:
                raise _PoolFailure(
                    f"no progress for {opts.parallel_watchdog_s:.0f}s with "
                    f"{progress[0]} work units outstanding (wedged worker?)"
                )
            wait_s = _WAIT_S
            if not stats.truncated:
                if next_cp is not None:
                    wait_s = _TRIGGER_WAIT_S
                if opts.max_rss_bytes is not None:
                    wait_s = _TRIGGER_WAIT_S
                if shared.configs.value > opts.max_configs - _BUDGET_GUARD:
                    wait_s = _TRIGGER_WAIT_S
                if deadline is not None:
                    wait_s = min(
                        wait_s,
                        max(0.0005, deadline - time.perf_counter()),
                    )
            pool.wait_events(wait_s)
            pool.check_alive()

        dumps = pool.collect_dumps(
            final=True, timeout_s=_JOIN_TIMEOUT_S, on_msg=acc.on_msg,
            after_request=acc.flush_pending,
        )
        if run_span is not None:
            tracer.end_span(run_span)

        # ---- canonical merge ----------------------------------------
        merge_span = (
            tracer.begin_span("parallel.merge") if tracer is not None else None
        )
        graph, edge_items, term_items, frag, merged_stubborn = _merge_dumps(
            pool, acc, dumps, snap, init, stats, run, deep
        )
        stats.merge_overlap_s = acc.overlap_s
        stats.merge_tail_s = acc.tail_s
        trace_batches: dict[tuple, list] = {}
        for d in dumps:
            if d["trace"]:
                trace_batches.update(d["trace"])
        _announce(
            guard, graph, edge_items, term_items, snap, tracer,
            trace_batches, {graph.config_id(c): key for key, c in frag.items()},
        )
        if registries:
            balance = stats.shard_balance
            if balance is not None:
                for metrics in registries:
                    metrics.set_gauge("parallel.shard_balance", balance)
            run.timer("parallel.merge_overlap_s").add(acc.overlap_s)
            run.timer("parallel.merge_tail_s").add(acc.tail_s)
        if merge_span is not None:
            tracer.end_span(
                merge_span, configs=graph.num_configs, edges=graph.num_edges
            )
        result = _finalize(
            program, graph, stats, run, opts, access, None, guard, registries,
            t0, checkpointer, tracer, digest_base=digest_base,
            progress=emitter,
        )
        result.stats.stubborn = merged_stubborn
        return result
    except BaseException:
        # a failed attempt still reports the work its master did
        _publish(run, registries)
        raise
    finally:
        pool.shutdown()


def _quiescent_checkpoint(
    pool, acc, cp, stats, opts, fingerprint, snap, init, tracer
) -> bool:
    """Pause the pool at a quiescent point, snapshot, resume (unless
    ``stop_after`` says to stop).  Returns True when the engine should
    stop (the resume-equivalence "pull the plug here" knob)."""
    shared = pool.shared
    shared.mode.value = _PAUSE
    deadline = time.monotonic() + max(opts.parallel_watchdog_s, 5.0)
    while True:
        pool.drain_results(acc.on_msg)
        # ``outstanding`` only decreases and ``suspended`` only grows
        # during a pause, and suspended <= outstanding always — so
        # reading outstanding *first* makes equality prove quiescence
        out = shared.outstanding.value
        if out == shared.suspended.value:
            break
        pool.check_alive()
        if time.monotonic() > deadline:
            raise _PoolFailure("pool failed to quiesce for a checkpoint")
        pool.wait_events(_WAIT_S)
    dumps = pool.collect_dumps(
        final=False, timeout_s=_JOIN_TIMEOUT_S, on_msg=acc.on_msg,
        after_request=acc.flush_pending,
    )
    # the snapshot's stats count what the run would report if it ended
    # here: the workers' counts so far, and the graph events the final
    # merge will announce, counted by an observer-less guard
    cp_run = MetricsRegistry()
    graph, edge_items, term_items, frag, stubborn = _merge_dumps(
        pool, acc, dumps, snap, init, stats, cp_run, None, tail=False
    )
    _announce(_ObserverGuard((), cp_run), graph, edge_items, term_items, snap)
    # d["parked"] entries are (owner, lid): resolve against the owner
    queued = sorted(
        graph.config_id(frag[(owner, lid)])
        for d in dumps
        for owner, lid in d["parked"]
    )
    payload = {
        "driver": "bfs",
        "fingerprint": fingerprint,
        "options_key": opts.resume_key(),
        "graph": graph,
        "stats": _stats_view(stats, cp_run),
        "stubborn": stubborn,
        "queue": queued,
        "processed": set(range(graph.num_configs)) - set(queued),
    }
    span = (
        tracer.begin_span("checkpoint.write", index=cp.written)
        if tracer is not None
        else None
    )
    try:
        write_snapshot(cp.path, payload)
        cp.written += 1
        if span is not None:
            tracer.end_span(span, ok=True)
    except Exception as exc:  # I/O must never kill the run
        cp.faults += 1
        if span is not None:
            tracer.end_span(span, ok=False)
        LOG.warning(
            "checkpoint write to %r failed (%s); continuing without it",
            cp.path, exc,
        )
    if cp.stop_after is not None and cp.written >= cp.stop_after:
        return True
    shared.mode.value = _RUN
    pool.send_all(("resume",))
    return False


def _merge_stubborn(parts: list) -> StubbornStats | None:
    """Sum per-worker selector statistics (None when the policy is
    ``full``)."""
    merged: StubbornStats | None = None
    for part in parts:
        if part is None:
            continue
        if merged is None:
            merged = StubbornStats()
        merged.steps += part.steps
        merged.enabled_total += part.enabled_total
        merged.chosen_total += part.chosen_total
        merged.singleton_steps += part.singleton_steps
    return merged
