"""Parallel exploration backend (``ExploreOptions.backend="parallel"``).

Architecture: the serial loop, expanding elsewhere
--------------------------------------------------
A stubborn set is chosen from one configuration alone, so expanding a
configuration and selecting among its transitions is a pure function
of that configuration: the only part of the search worth sending to
another process.  The master runs the serial breadth-first loop itself
(:func:`repro.explore.explorer._search`): it owns the FIFO queue, the
graph, the observers, the budgets and the checkpoints.  Workers only
expand.

* When the loop pops a configuration that no worker has been sent, the
  previous BFS level is fully inserted, so the queue holds exactly the
  next one.  The master splits that level into at most one batch per
  worker and sends each over the worker's own ``Pipe``.
* A worker runs ``_expand_guarded``, ``_select_guarded`` and
  ``ExpandCache.replay`` on each configuration of its batch, in order,
  and streams back the kept successors.  Configurations and action
  handles go through the :class:`~repro.semantics.transport.
  ComponentStore` ledger, so an interned component crosses a process
  boundary once.
* The loop inserts a reply when it pops that configuration, so ids,
  edges, terminal marks, truncation points and snapshots are the
  serial run's whatever ``jobs`` is, truncated runs included.

Affinity: a worker keeps the successors it shipped in its last batch,
and the master sends a fresh configuration back to the worker that
produced it as an index into that list, as long as that worker's share
of the level stays at most an even split.  The worker's memo and
selector caches are warm for it, and the configuration crosses no pipe
a second time.  The rest (the initial configuration, a resumed queue,
the overflow of a producer's share) ships in full and counts in
``handoffs``.

Composition
-----------
* ``sleep=True`` never reaches this module: sleep-set pruning follows
  one DFS order, so :func:`repro.explore.explorer.explore` runs every
  sleep-set exploration in its own serial loop and only tags its stats
  with the requested backend and ``jobs``.
* checkpoint/resume is the serial loop's own: snapshots are
  ``driver="bfs"`` and cross-backend in both directions.

Failure handling: a worker that dies, or sends nothing for
``opts.parallel_watchdog_s`` while replies are owed, fails the pool.
The master starts a new one and sends it, in full, the configurations
whose replies it had not received; the loop never notices.
``stats.worker_restarts`` counts the restarts, and a
:class:`~repro.util.errors.ReproError` ends the run after
``_MAX_ATTEMPTS`` failed pools.  The chaos points ``worker`` /
``worker-hang`` (:mod:`repro.resilience.chaos`) exercise both paths.
A restarted pool's worker-side series (``stubborn.*``, ``step.*``, the
memo counters) lack the failed pool's share.
"""

from __future__ import annotations

import gc
import logging
import multiprocessing
import multiprocessing.connection
import os
import pickle
import time
import traceback
from collections import deque

from repro.explore.explorer import (
    PEAK_RSS,
    _count_incremental,
    _current_rss_bytes,
    _expand_guarded,
    _make_selector,
    _search,
    _select_guarded,
    _terminal_status_fast,
)
from repro.explore.graph import DEADLOCK
from repro.explore.memo import ExpandCache
from repro.explore.observers import attached, attached_all
from repro.explore.stubborn import StubbornStats
from repro.metrics.registry import MetricsRegistry
from repro.resilience import chaos
from repro.semantics.config import digest_stats
from repro.semantics.transport import ComponentStore
from repro.util.errors import ReproError

LOG = logging.getLogger("repro.explore.parallel")

#: Seconds to wait for the workers' final dumps and exits.
_JOIN_TIMEOUT_S = 10.0
#: A worker sends its replies in pieces of at least this many
#: configurations (and at most eight pieces per batch), so the master
#: inserts the head of a batch while the worker expands its tail.
_REPLY_MIN = 16
#: Master readiness-wait timeout (seconds): bounds how stale the
#: liveness and watchdog checks get while it waits for a reply.
_WAIT_S = 0.05
#: Failed pools before the run gives up.
_MAX_ATTEMPTS = 3


class _PoolFailure(BaseException):
    """A worker died or the pool wedged: restart the pool.

    Deliberately *not* an ``Exception``: it must sail through the
    engine's generic degradation guards (observer guards, the ladder)
    up to the dispatcher's restart.
    """


def _maybe_chaos_exit() -> None:
    """The ``worker`` / ``worker-hang`` failure points, fired before
    each expansion in a worker."""
    try:
        chaos.kick("worker")
    except chaos.ChaosFault:
        os._exit(11)
    try:
        chaos.kick("worker-hang")
    except chaos.ChaosFault:
        time.sleep(3600.0)


# --------------------------------------------------------------------------
# worker side
# --------------------------------------------------------------------------


class _Worker:
    """Expands the batches the master sends and streams the kept
    successors back; it holds no graph."""

    def __init__(
        self, wid, conn, program, opts, access, stop, store, want_metrics,
        want_trace, trace_wall,
    ) -> None:
        self.program = program
        self.opts = opts
        self.access = access
        self.conn = conn
        self.stop = stop
        self.store = store
        store.bind(wid)
        self.selector = _make_selector(program, access, opts.policy)
        self.cache = ExpandCache() if opts.memo else None
        self.share: dict = {}  # the worker's share table (semantics.step)
        self.digest_base = digest_stats()
        # deep series, merged into the master's registry at the end
        self.registry = MetricsRegistry()
        self.metrics = self.registry if want_metrics else None
        if self.selector is not None:
            self.selector.metrics = self.metrics
        # fault counts stay here: the master counts them from the replies
        self.faults = MetricsRegistry()
        self.selector_faults = self.faults.counter("explore.selector_faults")
        self.tracer = None
        self.sink = None
        if want_trace:
            from repro.trace.sinks import ListSink
            from repro.trace.tracer import Tracer

            self.sink = ListSink()
            self.tracer = Tracer(self.sink, shard=wid, record_wall=trace_wall)
        #: the successors shipped in the current batch, in reply order:
        #: the next batch refers to them by index
        self.out: list = []

    def run(self) -> None:
        while True:
            msg = pickle.loads(self.conn.recv_bytes())
            if msg[0] == "d":
                self._dump()
                return
            self._batch(msg[1], msg[2])

    def _batch(self, cids, refs) -> None:
        prev, self.out = self.out, []
        decode = self.store.decode_config
        every = max(_REPLY_MIN, len(cids) // 8)
        replies = []
        for cid, ref in zip(cids, refs):
            if self.stop.value:
                break  # the master is done: it wants the dump now
            config = prev[ref] if type(ref) is int else decode(ref)
            replies.append(self._expand(cid, config))
            if len(replies) == every:
                self._send(("r", replies))
                replies = []
        if replies:
            self._send(("r", replies))

    def _expand(self, cid, config):
        """One reply: ``(enabled count, selector flag, successors)``, or
        None when expansion raised; paired with the trace records when
        tracing.  The flag is 0 without a selector, 1 when it recorded
        this selection, 2 when it crashed and the full enabled set was
        kept."""
        _maybe_chaos_exit()
        exps = _expand_guarded(
            self.program, config, cid, self.access, self.opts, self.faults,
            self.metrics, self.tracer, cache=self.cache, share=self.share,
        )
        result = None
        if exps is not None:
            enabled = [e for e in exps if e.enabled]
            if not enabled:
                result = (0, 0, ())
            else:
                faults = self.selector_faults.value
                chosen = _select_guarded(
                    self.selector, exps, enabled, self.faults, self.tracer
                )
                flag = 0
                if self.selector is not None:
                    flag = 2 if self.selector_faults.value != faults else 1
                encode = self.store.encode_config
                publish = self.store.publish
                succs = []
                for exp in chosen:
                    succ = exp.succ
                    if succ is None:
                        succ = self.cache.replay(exp.entry, exp.proc, config)
                    self.out.append(succ)
                    succs.append((
                        encode(succ, config),
                        tuple([publish(a) for a in exp.actions]),
                    ))
                result = (len(enabled), flag, succs)
        if self.sink is not None:
            return (result, self.sink.drain())
        return result

    def _send(self, msg) -> None:
        self.conn.send_bytes(pickle.dumps(msg, protocol=5))

    def _dump(self) -> None:
        self.registry.gauge(PEAK_RSS).set(_current_rss_bytes())
        if self.metrics is not None:
            _count_incremental(
                self.registry, self.cache, self.digest_base, self.share
            )
        self._send(("d", self.registry.snapshot()))


def _worker_main(wid, conn, program, opts, access, stop, store, *flags):
    """Worker process entry point."""
    # the cyclic collector only costs here: exploration state is
    # refcount-reclaimed (frozen dataclasses, tuples), and a gen-2 pass
    # in a forked child copy-on-write-faults the whole inherited heap
    gc.disable()
    try:
        _Worker(wid, conn, program, opts, access, stop, store, *flags).run()
    except Exception:
        try:
            conn.send_bytes(pickle.dumps(("x", traceback.format_exc())))
        except Exception:
            pass
    finally:
        store.close()


# --------------------------------------------------------------------------
# master side
# --------------------------------------------------------------------------


def explore_parallel(
    program, opts, observers=(), checkpointer=None, resume_from=None
):
    """The serial BFS loop with expansion in ``opts.jobs`` worker
    processes; same result contract, and the same graph id for id, as
    the serial driver (invoked through
    :func:`repro.explore.explorer.explore` with ``backend="parallel"``).

    Sleep-set options are rejected: ``explore()`` runs those on its
    serial loop's sleep-set stack, so reaching here with them means a
    caller bypassed it.
    """
    if opts.sleep:
        raise ValueError(
            "explore_parallel does not run sleep-set explorations; "
            "call repro.explore.explore, which runs them serially"
        )
    remote = _Remote(program, opts, observers)
    try:
        return _search(
            program, opts, observers, checkpointer, resume_from,
            remote=remote,
        )
    finally:
        remote.close()


class _Pool:
    """Forked workers, one duplex pipe each, and the shared-memory
    component store, with hard cleanup."""

    def __init__(self, program, opts, access, want_metrics, want_trace,
                 trace_wall) -> None:
        fork = "fork" in multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if fork else "spawn")
        n = opts.jobs
        # shm transport only under fork (segments are inherited, never
        # re-attached by name — the resource tracker sees each once)
        self.store = ComponentStore(n + 1, use_shm=fork)
        self.store.bind(n)  # the master is producer `n`
        self.stop = ctx.RawValue("b", 0)
        self.conns: list = []
        self.procs: list = []
        # move the parent heap to the permanent generation before
        # forking: a child gc pass would otherwise touch every inherited
        # object header and copy-on-write-fault the whole heap
        if fork:
            gc.freeze()
        try:
            for wid in range(n):
                mine, theirs = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        wid, theirs, program, opts, access, self.stop,
                        self.store, want_metrics, want_trace, trace_wall,
                    ),
                    daemon=True,
                    name=f"repro-worker-{wid}",
                )
                proc.start()
                theirs.close()
                self.conns.append(mine)
                self.procs.append(proc)
        except BaseException:
            self.close()
            raise
        finally:
            if fork:
                gc.unfreeze()
        self.sentinels = {p.sentinel: wid for wid, p in enumerate(self.procs)}
        self.wids = {id(c): wid for wid, c in enumerate(self.conns)}

    def send(self, wid, msg) -> int:
        """Pickle and ship *msg* to worker *wid*; returns its size."""
        blob = pickle.dumps(msg, protocol=5)
        try:
            self.conns[wid].send_bytes(blob)
        except OSError as exc:
            raise _PoolFailure(f"worker {wid} unreachable ({exc})") from None
        return len(blob)

    def wait(self, timeout_s: float):
        """``(wid, size, message)`` for every message ready within
        *timeout_s*; raises :class:`_PoolFailure` when a worker exited."""
        ready = multiprocessing.connection.wait(
            [*self.conns, *self.sentinels], timeout=timeout_s
        )
        out, dead = [], None
        for obj in ready:
            wid = self.wids.get(id(obj))
            if wid is None:
                dead = self.sentinels[obj]  # an exited worker
                continue
            try:
                blob = obj.recv_bytes()
            except (EOFError, OSError):
                dead = wid
                continue
            out.append((wid, len(blob), pickle.loads(blob)))
        if dead is not None and not out:
            # what arrived before the death is returned first; a dead
            # worker stays ready, so the next wait reports it
            code = self.procs[dead].exitcode
            raise _PoolFailure(f"worker {dead} died (exit code {code})")
        return out

    def dumps(self, timeout_s: float) -> tuple[list, int]:
        """Stop the workers and gather their final registry snapshots
        (best effort: the graph is complete, so a worker that died or
        hangs now only loses its series).  Returns the snapshots and
        the bytes they took."""
        self.stop.value = 1
        waiting = set()
        for wid, proc in enumerate(self.procs):
            if proc.is_alive():
                try:
                    self.send(wid, ("d",))
                    waiting.add(wid)
                except _PoolFailure:
                    pass
        snaps, nbytes = [], 0
        deadline = time.monotonic() + timeout_s
        while waiting and time.monotonic() < deadline:
            ready = multiprocessing.connection.wait(
                [self.conns[wid] for wid in waiting], timeout=_WAIT_S
            )
            for conn in ready:
                wid = self.wids[id(conn)]
                try:
                    blob = conn.recv_bytes()
                except (EOFError, OSError):  # died without a dump
                    waiting.discard(wid)
                    continue
                nbytes += len(blob)
                msg = pickle.loads(blob)
                if msg[0] == "d":
                    snaps.append(msg[1])
                    waiting.discard(wid)
        return snaps, nbytes

    def close(self) -> None:
        deadline = time.monotonic() + 1.0
        for proc in self.procs:
            if proc.is_alive() and not self.stop.value:
                proc.terminate()  # a failed pool: no dump is coming
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self.conns:
            conn.close()
        self.store.unlink()


class _Tally:
    """The master's stand-in for a selector: the selection statistics,
    recorded from the replies in queue order."""

    __slots__ = ("stats", "metrics")

    def __init__(self) -> None:
        self.stats = StubbornStats()
        self.metrics = None


class _Kept:
    """One kept transition as the loop reads it (``succ`` is always
    set, so the loop never replays)."""

    __slots__ = ("succ", "actions")

    def __init__(self, succ, actions) -> None:
        self.succ = succ
        self.actions = actions


class _Remote:
    """The master's dispatcher: sends BFS levels to the pool and answers
    the loop's :meth:`kept` queries in queue order."""

    def __init__(self, program, opts, observers) -> None:
        self.program = program
        self.opts = opts
        self.jobs = opts.jobs
        self.tally = _Tally() if opts.policy != "full" else None
        self.want_metrics = bool(attached_all(observers, "registry"))
        self.tracer = attached(observers, "tracer")
        self.pool: _Pool | None = None
        self.restarts = 0
        #: received replies not yet inserted: cid -> (worker, its batch
        #: number, index of the first successor in that batch, the
        #: decoded reply, the trace records)
        self.replies: dict[int, tuple] = {}
        #: per worker, the cids whose replies it still owes, in order
        self.owed: list[deque] = [deque() for _ in range(self.jobs)]
        self.in_flight: set[int] = set()
        #: cids a failed pool owed, for the next pool
        self.redo: list[int] = []
        #: per worker, successors received from its current batch
        self.produced = [0] * self.jobs
        self.batch_no = [0] * self.jobs
        #: fresh successor -> (wid, batch number, index in that batch)
        self.origin: dict = {}
        #: replies received per worker
        self.expanded = [0] * self.jobs
        self.run_span = None

    # -- the loop's hooks ------------------------------------------------

    def start(self, access, graph, frontier, run) -> None:
        self.access = access
        self.graph = graph
        self.frontier = frontier
        self.msg_bytes = run.counter("parallel.msg_bytes")
        self.handoffs = run.counter("parallel.handoffs")
        self.batches = run.counter("parallel.batches")
        self.engine_faults = run.counter("explore.engine_faults")
        self.selector_faults = run.counter("explore.selector_faults")
        if self.tracer is not None:
            self.run_span = self.tracer.begin_span(
                "parallel.run", jobs=self.jobs
            )

    def kept(self, cid):
        """What ``_expand_guarded`` and ``_select_guarded`` would have
        given the loop at *cid*: the kept transitions, DEADLOCK, or None
        after an engine fault."""
        while True:
            try:
                reply = self._reply(cid)
                break
            except _PoolFailure as exc:
                self._fail(exc)
        wid, batch, base, entry, records = reply
        if records:
            _emit_trace_batch(self.tracer, records)
        if entry is None:
            self.engine_faults.value += 1
            return None
        n_enabled, flag, kept = entry
        if flag == 1:
            self.tally.stats.record(n_enabled, len(kept))
        elif flag == 2:
            self.selector_faults.value += 1
        if not n_enabled:
            return DEADLOCK
        self._remember(wid, batch, base, kept)
        return kept

    def frame(self, expansions: int) -> dict:
        """A ``phase="parallel"`` progress frame (lists per worker)."""
        depths = [len(q) for q in self.owed]
        return dict(
            configs=self.graph.num_configs,
            expansions=expansions,
            outstanding=sum(depths) + len(self.replies),
            frontier=len(self.frontier),
            shard_depths=depths,
            shard_steals=[0] * self.jobs,
            msg_bytes=self.msg_bytes.value,
            suppressed=0,
        )

    def finish(self, stats, run) -> None:
        """After the loop: the workers' series into *run*, the worker
        counts into *stats*."""
        tracer = self.tracer
        if self.run_span is not None:
            tracer.end_span(self.run_span)
        span = tracer.begin_span("parallel.merge") if tracer else None
        if self.pool is not None:
            snaps, nbytes = self.pool.dumps(
                min(_JOIN_TIMEOUT_S, self.opts.parallel_watchdog_s)
            )
            self.msg_bytes.value += nbytes
            for snap in snaps:
                run.merge(snap)
        stats.worker_restarts = self.restarts
        stats.worker_expansions = stats.shard_sizes = tuple(self.expanded)
        if stats.shard_balance is not None:
            run.set_gauge("parallel.shard_balance", stats.shard_balance)
        if span is not None:
            tracer.end_span(span)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    # -- dispatch --------------------------------------------------------

    def _remember(self, wid, batch, base, kept) -> None:
        """Note the producer of each successor the graph does not hold
        yet: the first in queue order is where the loop will find it
        fresh."""
        ids = self.graph._ids
        origin = self.origin
        for i, k in enumerate(kept):
            if k.succ not in ids and k.succ not in origin:
                origin[k.succ] = (wid, batch, base + i)

    def _reply(self, cid):
        reply = self.replies.pop(cid, None)
        if reply is not None:
            return reply
        if self.redo:
            level, self.redo = self.redo, []
            self._send_level(level)
        if cid not in self.in_flight:
            self._dispatch_level(cid)
        deadline = time.monotonic() + self.opts.parallel_watchdog_s
        while True:
            got = self.pool.wait(_WAIT_S)
            if got:
                deadline = time.monotonic() + self.opts.parallel_watchdog_s
                for wid, size, msg in got:
                    self.msg_bytes.value += size
                    self._take(wid, msg)
                reply = self.replies.pop(cid, None)
                if reply is not None:
                    return reply
            elif time.monotonic() > deadline:
                raise _PoolFailure(
                    f"no reply for {self.opts.parallel_watchdog_s:.0f}s "
                    f"with {len(self.in_flight)} expansions owed "
                    "(wedged worker?)"
                )

    def _take(self, wid, msg) -> None:
        """File one message's replies under their cids, decoded now:
        the pool's store may be gone by the time the loop wants them."""
        kind = msg[0]
        if kind == "x":
            raise ReproError(
                f"parallel exploration worker {wid} crashed:\n{msg[1]}"
            )
        if kind != "r":
            raise ReproError(f"unexpected worker message {kind!r}")
        decode = self.pool.store.decode_config
        resolve = self.pool.store.resolve
        owed = self.owed[wid]
        batch = self.batch_no[wid]
        base = self.produced[wid]
        configs = self.graph.configs
        for entry in msg[1]:
            cid = owed.popleft()
            self.in_flight.discard(cid)
            records = None
            if self.tracer is not None:
                entry, records = entry
            if entry is not None:
                n_enabled, flag, succs = entry
                parent = configs[cid]
                entry = (n_enabled, flag, [
                    _Kept(
                        decode(payload, parent),
                        tuple([resolve(h) for h in acts]),
                    )
                    for payload, acts in succs
                ])
            self.replies[cid] = (wid, batch, base, entry, records)
            if entry is not None:
                base += len(entry[2])
        self.produced[wid] = base
        self.expanded[wid] += len(msg[1])

    def _dispatch_level(self, cid) -> None:
        """Send *cid* and the rest of the queue (the current BFS level)
        out, minus the terminal configurations the loop classifies."""
        configs = self.graph.configs
        processed = self.frontier.processed
        level = [cid]
        for c in self.frontier.queue:
            if c not in processed and _terminal_status_fast(configs[c]) is None:
                level.append(c)
        self._send_level(level)

    def _send_level(self, level) -> None:
        if self.pool is None:
            tracer = self.tracer
            span = (
                tracer.begin_span("parallel.spawn", jobs=self.jobs)
                if tracer is not None
                else None
            )
            self.pool = _Pool(
                self.program, self.opts, self.access, self.want_metrics,
                tracer is not None,
                tracer.record_wall if tracer is not None else True,
            )
            if span is not None:
                tracer.end_span(span)
        jobs = self.jobs
        cids: list[list] = [[] for _ in range(jobs)]
        refs: list[list] = [[] for _ in range(jobs)]
        for c, (wid, ref) in zip(level, self._place(level)):
            cids[wid].append(c)
            refs[wid].append(ref)
            if type(ref) is not int:
                self.handoffs.value += 1
        for wid in range(jobs):
            if cids[wid]:
                self.batch_no[wid] += 1
                self.produced[wid] = 0
                self.owed[wid].extend(cids[wid])
                self.in_flight.update(cids[wid])
        for wid in range(jobs):
            if cids[wid]:
                self.msg_bytes.value += self.pool.send(
                    wid, ("b", cids[wid], refs[wid])
                )
                self.batches.value += 1

    def _place(self, level) -> list[tuple]:
        """``(worker, ref)`` for each configuration of *level*: its
        producer and an index into that worker's last batch while the
        producer's load stays within an even share, else the least
        loaded worker and the configuration in full."""
        jobs = self.jobs
        configs = self.graph.configs
        share = -(-len(level) // jobs)
        load = [0] * jobs
        placed: list = [None] * len(level)
        for i, c in enumerate(level):
            o = self.origin.pop(configs[c], None)
            if o is not None:
                wid, batch, idx = o
                if batch == self.batch_no[wid] and load[wid] < share:
                    placed[i] = (wid, idx)
                    load[wid] += 1
        encode = self.pool.store.encode_config
        for i, c in enumerate(level):
            if placed[i] is None:
                wid = load.index(min(load))
                load[wid] += 1
                placed[i] = (wid, encode(configs[c]))
        return placed

    def _fail(self, exc) -> None:
        """Drop a failed pool; the next :meth:`_reply` sends what it
        still owed to a new one."""
        self.restarts += 1
        if self.restarts >= _MAX_ATTEMPTS:
            raise ReproError(
                f"parallel exploration failed after {_MAX_ATTEMPTS} "
                f"attempts: {exc}"
            ) from None
        LOG.warning(
            "parallel worker pool failed (%s); restarting it "
            "(attempt %d/%d)", exc, self.restarts + 1, _MAX_ATTEMPTS,
        )
        self.close()
        self.redo = sorted(self.in_flight)
        self.in_flight.clear()
        self.owed = [deque() for _ in range(self.jobs)]
        # the new workers hold no successors to refer to
        self.origin.clear()
        self.batch_no = [b + 1 for b in self.batch_no]


def _emit_trace_batch(tracer, records) -> None:
    """Re-emit one worker expansion's records, renumbered into the
    master's sequence space (contiguous-range remap keeps intra-batch
    structure; batches are emitted in queue order, so the result is
    byte-stable)."""
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
