"""Per-process expansion, optionally through a footprint memo: the hot path.

:func:`expand` is the one loop that turns a configuration into its
per-process :class:`~repro.explore.expansion.Expansion` list, for every
driver and backend.  It runs with an :class:`ExpandCache` (the default,
``ExploreOptions(memo=True)``) or without one; without one it skips the
probe and fill steps and records no footprint.

Every expansion of a configuration pays ``enabledness`` + ``execute``
(or a whole coarsened block) for *every* live process, even though the
semantics is deterministic per process: what a process does next is a
function of **its own state** plus **the values of the shared locations
it consults**.  The :class:`ExpandCache` exploits exactly that — it
memoizes per-process expansion outcomes keyed on the (interned)
:class:`~repro.semantics.config.Process` plus the ordered *footprint*
``((loc, value), ...)`` of shared reads the outcome depended on:

- a **probe** at a new configuration compares the cached footprint
  values against the current state (O(footprint) dictionary lookups);
  every value equal ⇒ the deterministic interpreter would take the
  identical steps, so the cached outcome is valid;
- a **hit** yields the cached enabledness, ``nes``, actions and
  read/write sets at once, which is all the stubborn-set selector and
  the sleep sets read; its successor is *replayed* (replace the acting
  process, apply the recorded shared writes, add/remove spawned/joined
  processes, then one final garbage collection) only if the driver
  keeps the transition (:meth:`ExpandCache.replay`), instead of
  re-interpreting the block — the paper expands only the transitions
  of the chosen stubborn set, and so does the memo;
- a **miss** computes the expansion the ordinary way while recording
  its footprint, then fills the cache.

Soundness notes (why delta replay is exact):

- *Footprint completeness*: enabledness records every location it
  consults (``enabledness(..., footprint=)``), single steps record
  ``action.reads`` (evaluation reads every shared input it branches
  on), coarsened blocks record first-touch reads **and write
  pre-values** of every action including the discarded stop candidate
  (:func:`~repro.explore.coarsen.build_block`), so block shape — the
  ≤1-critical-ref budget, disabled-next stop, and the thread-local
  cycle check — is footprint-determined.
- *Write existence*: heap write destinations are bounds-checked at
  address resolution, so a hit additionally requires every cached heap
  write target to exist (``write_checks``); a mismatch means the real
  execution would fault differently — recompute.
- *Garbage collection*: reachability loss is permanent (values only
  flow between rooted locations), so per-step GC composed over a block
  equals one final GC of the replayed state — replay does the latter.
- *Not cached*: faulting outcomes (their messages can depend on
  heap-shape beyond the read footprint) and actions that allocate
  (``fresh_oid`` depends on the entire heap), plus blocks whose written
  objects were garbage-collected before the block ended (the written
  values are unrecoverable from the successor).  These recompute every
  time and count as ``uncacheable``.

The cache is bounded (LRU over process keys, capped entries per key)
with eviction counters; the serial loop shares one instance per run, the
parallel backend creates one per shard worker.

Persistence
-----------
:meth:`ExpandCache.export_state` / :meth:`ExpandCache.load_state` turn
the memo table into a plain picklable structure and back — the hook the
analysis service (:mod:`repro.serve`) uses to persist warm caches
across runs.  The exported form is schema-versioned; loading a
mismatched schema is a no-op (the cache simply starts cold).  Loading
re-interns every process key, so a state exported by one OS process is
valid in another.  *Which* entries are safe to import for a possibly
edited program is the caller's problem — see
:mod:`repro.serve.keys` for the function-digest gating the service
applies.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.explore.coarsen import build_block
from repro.explore.expansion import Expansion
from repro.semantics.config import (
    Config,
    HeapObj,
    Process,
    collect_garbage,
    intern_process,
    loc_value,
    MISSING,
)
from repro.semantics.step import enabledness, execute

#: LRU bound on distinct process keys (each key holds a short entry
#: list); ~hundreds of bytes per entry, so the default caps the cache at
#: tens of MB even for adversarial state spaces.
DEFAULT_MAX_PROCS = 65_536

#: Entries kept per process key (distinct footprint valuations); beyond
#: this the oldest valuation for that process is dropped.
DEFAULT_MAX_ENTRIES_PER_PROC = 64


class _Entry:
    """One memoized per-process expansion outcome."""

    __slots__ = (
        "footprint", "enabled", "nes", "blocked_children",
        "actions", "reads", "writes",
        "new_proc", "added_procs", "removed_pids",
        "global_writes", "heap_writes", "write_checks",
        "gc", "block_len", "block_crit",
    )

    def __init__(self, footprint, enabled):
        self.footprint = footprint
        self.enabled = enabled
        self.nes = ()
        self.blocked_children = ()
        self.actions = ()
        self.reads = ()
        self.writes = ()
        self.new_proc = None
        self.added_procs = ()
        self.removed_pids = ()
        self.global_writes = ()
        self.heap_writes = ()
        self.write_checks = ()
        self.gc = False
        self.block_len = 0
        self.block_crit = 0


class ExpandCache:
    """Bounded per-run memo of per-process expansion outcomes."""

    __slots__ = (
        "max_procs", "max_entries_per_proc", "_entries",
        "hits", "misses", "invalidations", "evictions", "uncacheable",
        "replays", "size",
    )

    def __init__(
        self,
        max_procs: int = DEFAULT_MAX_PROCS,
        max_entries_per_proc: int = DEFAULT_MAX_ENTRIES_PER_PROC,
    ) -> None:
        self.max_procs = max_procs
        self.max_entries_per_proc = max_entries_per_proc
        self._entries: OrderedDict[Process, list[_Entry]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: probes that found entries for the process but every cached
        #: footprint mismatched the current shared values — a write
        #: landed in the footprint, the outcome must be recomputed
        self.invalidations = 0
        self.evictions = 0
        self.uncacheable = 0
        #: enabled hits materialised into successors (:meth:`replay`):
        #: the kept transitions among the hits
        self.replays = 0
        self.size = 0

    # ------------------------------------------------------------------
    # probe / replay
    # ------------------------------------------------------------------

    def probe(self, config: Config, proc: Process) -> _Entry | None:
        """The cached outcome valid for *proc* at *config*, or None."""
        entries = self._entries.get(proc)
        if entries is None:
            self.misses += 1
            return None
        for entry in entries:
            for loc, value in entry.footprint:
                if loc_value(config, loc) != value:
                    break
            else:
                for loc in entry.write_checks:
                    if loc_value(config, loc) is MISSING:
                        break
                else:
                    self.hits += 1
                    self._entries.move_to_end(proc)
                    return entry
        self.misses += 1
        self.invalidations += 1
        return None

    def replay(self, entry: _Entry, proc: Process, config: Config) -> Config:
        """The successor of *proc*'s enabled hit *entry* at *config* (a
        footprint match): swap the acting process, apply the recorded
        deltas, then collect garbage exactly when the interpreter would
        have.  Called only for the transitions a driver keeps."""
        self.replays += 1
        pid = proc.pid
        removed = entry.removed_pids
        procs = []
        for p in config.procs:
            if p.pid == pid:
                procs.append(entry.new_proc)
            elif p.pid in removed:
                continue
            else:
                procs.append(p)
        if entry.added_procs:
            procs.extend(entry.added_procs)
            procs.sort(key=lambda p: p.pid)
        globals_ = config.globals
        if entry.global_writes:
            cells = list(globals_)
            for index, value in entry.global_writes:
                cells[index] = value
            globals_ = tuple(cells)
        heap = config.heap
        if entry.heap_writes:
            writes_by_oid = dict(entry.heap_writes)
            new_heap = []
            for obj in heap:
                cell_writes = writes_by_oid.get(obj.oid)
                if cell_writes is None:
                    new_heap.append(obj)
                    continue
                cells = list(obj.cells)
                for off, value in cell_writes:
                    cells[off] = value
                new_heap.append(
                    HeapObj(
                        oid=obj.oid,
                        cells=tuple(cells),
                        birth_pid=obj.birth_pid,
                        birth_ps=obj.birth_ps,
                    )
                )
            heap = tuple(new_heap)
        succ = Config(procs=tuple(procs), globals=globals_, heap=heap)
        if entry.gc:
            return collect_garbage(succ)
        return succ

    # ------------------------------------------------------------------
    # fill
    # ------------------------------------------------------------------

    def fill_disabled(self, proc: Process, footprint: list, exp: Expansion) -> None:
        entry = _Entry(tuple(footprint), enabled=False)
        entry.nes = exp.nes
        entry.blocked_children = exp.blocked_children
        self._insert(proc, entry)

    def fill(
        self,
        config: Config,
        proc: Process,
        footprint: list,
        exp: Expansion,
        gc: bool,
        block_len: int = 0,
        block_crit: int = 0,
    ) -> None:
        """Memoize an enabled expansion by diffing parent vs successor.
        Skips (and counts) the uncacheable shapes — see module doc."""
        succ = exp.succ
        if succ.fault is not None:
            self.uncacheable += 1
            return
        for action in exp.actions:
            if action.allocs:
                self.uncacheable += 1
                return
        entry = _Entry(tuple(footprint), enabled=True)
        entry.actions = exp.actions
        entry.reads = exp.reads
        entry.writes = exp.writes
        entry.gc = gc
        entry.block_len = block_len
        entry.block_crit = block_crit

        parent_pids = {p.pid for p in config.procs}
        succ_index = {p.pid: p for p in succ.procs}
        entry.new_proc = succ_index[proc.pid]
        removed = frozenset(parent_pids - succ_index.keys())
        entry.removed_pids = removed
        entry.added_procs = tuple(
            p for p in succ.procs if p.pid not in parent_pids
        )

        global_writes = {}
        heap_writes: dict = {}
        checks = []
        for action in exp.actions:
            for loc in action.writes:
                tag = loc[0]
                if tag == "g":
                    global_writes[loc[1]] = None
                elif tag == "h":
                    heap_writes.setdefault(loc[1], {})[loc[2]] = None
                    checks.append(loc)
                # "p" writes are carried by the proc replacement/add/remove
        for index in global_writes:
            global_writes[index] = succ.globals[index]
        resolved = []
        for oid, cell_writes in heap_writes.items():
            obj = succ.heap_obj(oid)
            if obj is None:
                # written object collected before the block ended: the
                # final values are unrecoverable — don't cache
                self.uncacheable += 1
                return
            resolved.append(
                (oid, tuple((off, obj.cells[off]) for off in cell_writes))
            )
        entry.global_writes = tuple(global_writes.items())
        entry.heap_writes = tuple(resolved)
        entry.write_checks = tuple(dict.fromkeys(checks))
        self._insert(proc, entry)

    def _insert(self, proc: Process, entry: _Entry) -> None:
        entries = self._entries.get(proc)
        if entries is None:
            if len(self._entries) >= self.max_procs:
                _, dropped = self._entries.popitem(last=False)
                self.evictions += len(dropped)
                self.size -= len(dropped)
            entries = self._entries[proc] = []
        else:
            self._entries.move_to_end(proc)
        if len(entries) >= self.max_entries_per_proc:
            entries.pop(0)
            self.evictions += 1
            self.size -= 1
        entries.append(entry)
        self.size += 1

    # ------------------------------------------------------------------
    # persistence (export/import for the analysis service's warm store)
    # ------------------------------------------------------------------

    #: Version of the exported-state layout; bump on any change to the
    #: per-entry tuple below.
    EXPORT_SCHEMA = "repro.expandcache/1"

    #: _Entry slots carried by the export, in tuple order.
    _EXPORT_FIELDS = (
        "footprint", "enabled", "nes", "blocked_children",
        "actions", "reads", "writes",
        "new_proc", "added_procs", "removed_pids",
        "global_writes", "heap_writes", "write_checks",
        "gc", "block_len", "block_crit",
    )

    def export_state(self) -> dict:
        """The memo table as a plain picklable document.

        Counters are *not* exported — they describe one run, not the
        table.  Insertion (LRU) order is preserved.
        """
        return {
            "schema": self.EXPORT_SCHEMA,
            "entries": [
                (
                    proc,
                    [
                        tuple(getattr(e, f) for f in self._EXPORT_FIELDS)
                        for e in entries
                    ],
                )
                for proc, entries in self._entries.items()
            ],
        }

    def load_state(
        self, state: dict, *, keep: "callable | None" = None
    ) -> int:
        """Refill the table from :meth:`export_state` output; returns
        the number of entries imported.

        *keep* optionally filters per process key: ``keep(proc)`` False
        skips that process's entries (the service's function-digest
        gate).  A state with an unknown schema imports nothing — a cold
        start, never an error.  Imported entries respect the cache's
        bounds (oldest keys evicted as usual).
        """
        if not isinstance(state, dict) or state.get("schema") != self.EXPORT_SCHEMA:
            return 0
        imported = 0
        for proc, rows in state.get("entries", ()):
            proc = intern_process(proc)
            if keep is not None and not keep(proc):
                continue
            for row in rows:
                if len(row) != len(self._EXPORT_FIELDS):
                    continue  # damaged row: skip, never raise
                entry = _Entry(row[0], row[1])
                for name, value in zip(self._EXPORT_FIELDS[2:], row[2:]):
                    setattr(entry, name, value)
                self._insert(proc, entry)
                imported += 1
        return imported

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """The metric series this cache contributes, by final name."""
        return {
            "expand.cache_hits": self.hits,
            "expand.cache_misses": self.misses,
            "expand.invalidations": self.invalidations,
            "expand.cache_evictions": self.evictions,
            "expand.cache_uncacheable": self.uncacheable,
            "expand.replays": self.replays,
        }


def expand(
    program,
    config: Config,
    access,
    opts,
    cache: ExpandCache | None = None,
    metrics=None,
    tracer=None,
    share: dict | None = None,
) -> list[Expansion]:
    """Per-process expansions at *config*, coarsened or single-step —
    the one expansion loop of every driver.  *share* is the run's share
    table, handed to every :func:`~repro.semantics.step.execute`.

    With *cache*, each process is probed first: a hit returns the cached
    outcome with its successor deferred (``succ`` None, ``entry`` set;
    the driver calls :meth:`ExpandCache.replay` for the transitions it
    keeps), a miss computes it while recording its footprint and fills
    the cache.  Without one, probe and fill are skipped and no footprint
    is recorded, so the interpreter does only the uncached work.  Both
    produce the same :class:`Expansion` lists up to the deferred
    successors, and the same graphs (the cache-on/off differential
    suite's contract).

    Telemetry stays *logical*: a coarsened cache hit re-emits the
    ``coarsen.block_len`` observation and the ``coarsen.fuse`` span its
    block would have produced, so metrics and traces count fused blocks
    per expansion, identically across cache states and backends.
    """
    if config.fault is not None:
        return []
    step_opts = opts.step
    coarsen = opts.coarsen
    out: list[Expansion] = []
    for proc in config.live_procs():
        footprint = None
        if cache is not None:
            entry = cache.probe(config, proc)
            if entry is not None:
                if not entry.enabled:
                    out.append(Expansion(
                        proc=proc,
                        enabled=False,
                        nes=entry.nes,
                        blocked_children=entry.blocked_children,
                    ))
                    continue
                if coarsen:
                    if metrics is not None:
                        metrics.observe("coarsen.block_len", entry.block_len)
                    if tracer is not None:
                        span = tracer.begin_span("coarsen.fuse", pid=proc.pid)
                        tracer.end_span(
                            span, len=entry.block_len, critical=entry.block_crit
                        )
                # the successor waits for selection: ``cache.replay``
                # builds it only if this transition is kept
                out.append(Expansion(
                    proc=proc,
                    enabled=True,
                    actions=entry.actions,
                    reads=entry.reads,
                    writes=entry.writes,
                    entry=entry,
                ))
                continue
            footprint = []
        enabled, nes, blocked = enabledness(
            program, config, proc, footprint=footprint
        )
        if not enabled:
            exp = Expansion(
                proc=proc, enabled=False, nes=nes, blocked_children=blocked
            )
            if cache is not None:
                cache.fill_disabled(proc, footprint, exp)
            out.append(exp)
            continue
        if coarsen:
            block = build_block(
                program,
                config,
                proc.pid,
                access,
                step_opts,
                max_len=opts.max_block_len,
                metrics=metrics,
                tracer=tracer,
                footprint=footprint,
                share=share,
            )
            exp = Expansion(
                proc=proc,
                enabled=True,
                succ=block.succ,
                actions=block.actions,
                reads=block.reads,
                writes=block.writes,
            )
            if cache is not None:
                cache.fill(
                    config, proc, footprint, exp, step_opts.gc,
                    block_len=len(block.actions), block_crit=block.crit,
                )
        else:
            succ, action = execute(program, config, proc, step_opts, share)
            exp = Expansion(
                proc=proc,
                enabled=True,
                succ=succ,
                actions=(action,),
                reads=action.reads,
                writes=action.writes,
            )
            if cache is not None:
                touched = {loc for loc, _ in footprint}
                for loc in action.reads:
                    if loc not in touched:
                        touched.add(loc)
                        footprint.append((loc, loc_value(config, loc)))
                cache.fill(config, proc, footprint, exp, step_opts.gc)
        out.append(exp)
    return out
