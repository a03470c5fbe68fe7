"""Cache-on vs cache-off differential suite for the footprint memo
(:mod:`repro.explore.memo`).

The memoized expansion path must be *invisible* in everything but
wall-clock: per corpus program × {full, stubborn, stubborn-proc} ×
{±coarsen}, the serial driver with ``memo=True`` must produce the
**identical** :class:`~repro.explore.graph.ConfigGraph` — same configs
in the same discovery order, same edges with the same labels, same
terminals — and the identical bench ``result_digest`` as ``memo=False``.
The parallel backend gets the same treatment at ``jobs=2`` on the bench
smoke subset (both runs parallel, so the deterministic shard merge makes
graph equality exact there too; the full corpus already runs memo-on
jobs=2 against the serial reference in
``test_parallel_differential.py``).

Plus the targeted soundness probes: a process whose read footprint was
overwritten must be recomputed (an *invalidation*), a process with a
disjoint footprint must replay from cache, and the replayed expansion
must equal the freshly computed one field by field.
"""

from __future__ import annotations

import pytest

from repro.analyses.accesses import access_analysis
from repro.bench import SMOKE_PROGRAMS, result_digest
from repro.explore import ExpandCache, ExploreOptions, expand, explore
from repro.lang import parse_program
from repro.programs.corpus import CORPUS
from repro.semantics.config import initial_config

MEMO_COMBOS = (
    ("full", False),
    ("full", True),
    ("stubborn", False),
    ("stubborn", True),
    ("stubborn-proc", False),
    ("stubborn-proc", True),
)
COMBO_IDS = [
    ExploreOptions(policy=p, coarsen=c).describe() for p, c in MEMO_COMBOS
]

_PROGRAMS: dict = {}


def _program(name):
    prog = _PROGRAMS.get(name)
    if prog is None:
        prog = _PROGRAMS[name] = CORPUS[name]()
    return prog


def _assert_identical_graphs(on, off) -> None:
    """Exact ConfigGraph equality — not just isomorphism: the memo path
    must preserve discovery order, so node ids line up too."""
    g_on, g_off = on.graph, off.graph
    assert g_on.configs == g_off.configs
    assert [
        (e.src, e.dst, e.labels) for e in g_on.edges
    ] == [(e.src, e.dst, e.labels) for e in g_off.edges]
    assert list(g_on.terminal.items()) == list(g_off.terminal.items())
    assert g_on.initial == g_off.initial
    assert on.stats.expansions == off.stats.expansions
    assert on.stats.actions_executed == off.stats.actions_executed
    assert result_digest(on) == result_digest(off)


@pytest.mark.parametrize("combo", MEMO_COMBOS, ids=COMBO_IDS)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_memo_on_off_identical_serial(name, combo):
    policy, coarsen = combo
    prog = _program(name)
    on = explore(
        prog,
        options=ExploreOptions(policy=policy, coarsen=coarsen, memo=True),
    )
    off = explore(
        prog,
        options=ExploreOptions(policy=policy, coarsen=coarsen, memo=False),
    )
    _assert_identical_graphs(on, off)


@pytest.mark.parametrize("combo", MEMO_COMBOS, ids=COMBO_IDS)
@pytest.mark.parametrize("name", sorted(SMOKE_PROGRAMS))
def test_smoke_memo_on_off_identical_parallel(name, combo):
    policy, coarsen = combo
    prog = _program(name)
    runs = [
        explore(
            prog,
            options=ExploreOptions(
                policy=policy,
                coarsen=coarsen,
                backend="parallel",
                jobs=2,
                memo=memo,
            ),
        )
        for memo in (True, False)
    ]
    _assert_identical_graphs(*runs)


def test_sleep_memo_on_off_identical():
    prog = _program("philosophers_3")
    on = explore(
        prog,
        options=ExploreOptions(policy="stubborn", sleep=True, memo=True),
    )
    off = explore(
        prog,
        options=ExploreOptions(policy="stubborn", sleep=True, memo=False),
    )
    _assert_identical_graphs(on, off)


# --------------------------------------------------------------------------
# targeted invalidation semantics
# --------------------------------------------------------------------------


_THREE_THREADS = """
var x = 0; var y = 0; var rx = 0; var ry = 0;
func main() {
    cobegin
        { x = 1; }
        { rx = x; }
        { ry = y; }
}
"""


def _expand_memo(prog, config, access, opts, cache):
    return expand(prog, config, access, opts, cache)


def test_footprint_invalidation_is_targeted():
    """After one process writes ``x``, the cached expansion of the
    ``x``-reader is stale (footprint mismatch → recompute) while the
    ``y``-reader's cached expansion replays untouched."""
    prog = parse_program(_THREE_THREADS)
    access = access_analysis(prog)
    opts = ExploreOptions(policy="full", memo=True)
    cache = ExpandCache()

    init = initial_config(prog)
    [cobegin] = _expand_memo(prog, init, access, opts, cache)
    forked = cobegin.succ

    x_glob = ("g", prog.global_index("x"))
    y_glob = ("g", prog.global_index("y"))
    exps = _expand_memo(prog, forked, access, opts, cache)
    writer = next(
        e for e in exps if e.enabled and x_glob in e.writes
    )
    x_reader = next(
        e for e in exps if e.enabled and x_glob in e.reads
    )
    y_reader = next(
        e for e in exps if e.enabled and y_glob in e.reads
    )
    assert cache.hits == 0  # everything seen exactly once so far

    after_write = writer.succ
    inv0, hit0 = cache.invalidations, cache.hits
    # the x-reader's cached footprint pins x=0; the write made it 1
    assert cache.probe(after_write, x_reader.proc) is None
    assert cache.invalidations == inv0 + 1
    # the y-reader never consulted x; its entry is still valid
    entry = cache.probe(after_write, y_reader.proc)
    assert entry is not None
    assert cache.hits == hit0 + 1

    # and the replay is *exactly* what a fresh computation produces
    replayed = cache.replay(entry, y_reader.proc, after_write)
    [fresh] = [
        e
        for e in expand(
            prog, after_write, access,
            ExploreOptions(policy="full", memo=False),
        )
        if e.proc.pid == y_reader.proc.pid
    ]
    assert replayed == fresh.succ
    assert entry.actions == fresh.actions
    assert entry.reads == fresh.reads
    assert entry.writes == fresh.writes


def test_enabled_hit_defers_its_successor():
    """An enabled hit comes back without a successor; ``replay`` builds
    it on demand, equal to the memo-off one."""
    prog = parse_program(_THREE_THREADS)
    access = access_analysis(prog)
    opts = ExploreOptions(policy="full", memo=True)
    cache = ExpandCache()

    [cobegin] = _expand_memo(prog, initial_config(prog), access, opts, cache)
    forked = cobegin.succ
    first = _expand_memo(prog, forked, access, opts, cache)
    assert all(e.succ is not None for e in first if e.enabled)  # misses
    hits = _expand_memo(prog, forked, access, opts, cache)
    fresh = expand(
        prog, forked, access, ExploreOptions(policy="full", memo=False)
    )
    assert [e.proc for e in hits] == [e.proc for e in fresh]
    enabled = [(h, f) for h, f in zip(hits, fresh) if h.enabled]
    assert len(enabled) == 3
    assert cache.replays == 0
    for hit, off in enabled:
        assert hit.succ is None and hit.entry is not None
        assert cache.replay(hit.entry, hit.proc, forked) == off.succ
        assert (hit.actions, hit.reads, hit.writes) == (
            off.actions, off.reads, off.writes
        )
    assert cache.replays == 3
    assert cache.counters()["expand.replays"] == 3


def test_replays_at_most_edges():
    """Only kept transitions are replayed: every memo successor built
    becomes an edge, so ``expand.replays`` never exceeds the edges."""
    from repro.metrics import MetricsObserver
    from repro.programs.philosophers import philosophers

    mo = MetricsObserver()
    explore(
        philosophers(5),
        options=ExploreOptions(policy="stubborn", coarsen=True, memo=True),
        observers=(mo,),
    )
    reg = mo.registry
    replays, hits = reg.value("expand.replays"), reg.value("expand.cache_hits")
    assert 0 < replays <= reg.value("graph.edges") < hits


def test_disabled_expansion_is_memoized():
    """A blocked process (assume on a false flag) caches its disabled
    verdict and replays it while the flag stays false."""
    prog = parse_program(
        "var f = 0; var g = 0;"
        "func main() { cobegin { assume(f == 1); g = 1; } { f = 1; } }"
    )
    access = access_analysis(prog)
    opts = ExploreOptions(policy="full", memo=True)
    cache = ExpandCache()

    init = initial_config(prog)
    [cobegin] = _expand_memo(prog, init, access, opts, cache)
    forked = cobegin.succ
    exps = _expand_memo(prog, forked, access, opts, cache)
    f_glob = ("g", prog.global_index("f"))
    # the assume-blocked child, not the JOINING parent (whose footprint
    # is the children's statuses, untouched by the setter's store)
    blocked = next(
        e for e in exps if not e.enabled and f_glob in e.nes
    )
    setter = next(e for e in exps if e.enabled and e.proc is not blocked.proc)

    # the setter's step flips f: the blocked process's footprint (f=0)
    # must invalidate, not replay a stale "disabled"
    inv0 = cache.invalidations
    assert cache.probe(setter.succ, blocked.proc) is None
    assert cache.invalidations == inv0 + 1
    fresh = _expand_memo(prog, setter.succ, access, opts, cache)
    now = next(e for e in fresh if e.proc.pid == blocked.proc.pid)
    assert now.enabled


def test_cache_eviction_bounds_size():
    cache = ExpandCache(max_procs=2, max_entries_per_proc=1)
    prog = parse_program(
        "var a = 0; var b = 0; var c = 0;"
        "func main() { cobegin { a = 1; } { b = 1; } { c = 1; } }"
    )
    access = access_analysis(prog)
    opts = ExploreOptions(policy="full", memo=True)
    init = initial_config(prog)
    [cobegin] = _expand_memo(prog, init, access, opts, cache)
    _expand_memo(prog, cobegin.succ, access, opts, cache)
    # >2 distinct process keys were filled through a 2-key cache
    assert cache.evictions > 0
    assert cache.size <= 2


def test_memo_hit_counters_flow_to_metrics():
    from repro.metrics import MetricsObserver

    mo = MetricsObserver()
    explore(
        _program("philosophers_3"),
        options=ExploreOptions(policy="stubborn", coarsen=True, memo=True),
        observers=(mo,),
    )
    reg = mo.registry
    assert reg.value("expand.cache_hits") > 0
    assert 0.0 < reg.value("expand.cache_hit_rate") <= 1.0


# --------------------------------------------------------------------------
# export/import (the analysis service's warm store)
# --------------------------------------------------------------------------


def test_export_state_round_trip_warms_a_fresh_cache():
    prog = _program("philosophers_3")
    opts = ExploreOptions(policy="stubborn", coarsen=True, memo=True)
    cold_cache = ExpandCache()
    cold = explore(prog, options=opts, expand_cache=cold_cache)
    state = cold_cache.export_state()
    assert state["schema"] == ExpandCache.EXPORT_SCHEMA

    warm_cache = ExpandCache()
    imported = warm_cache.load_state(state)
    assert imported == cold_cache.size > 0
    warm = explore(_program("philosophers_3"), options=opts,
                   expand_cache=warm_cache)
    # the pre-warmed run replays instead of recomputing, and the graph
    # is bit-identical
    assert warm_cache.hits > cold_cache.hits
    assert warm.graph.configs == cold.graph.configs
    assert warm.graph.edges == cold.graph.edges


def test_load_state_rejects_unknown_schema_and_filters():
    prog = _program("mutex_counter")
    opts = ExploreOptions(policy="stubborn", memo=True)
    cache = ExpandCache()
    explore(prog, options=opts, expand_cache=cache)
    state = cache.export_state()

    assert ExpandCache().load_state({"schema": "repro.expandcache/99"}) == 0
    assert ExpandCache().load_state("garbage") == 0
    # the keep predicate gates whole process keys
    assert ExpandCache().load_state(state, keep=lambda proc: False) == 0

    # a damaged row is skipped, never raised
    proc, rows = state["entries"][0]
    state["entries"][0] = (proc, [rows[0][:3]] + list(rows[1:]))
    partial = ExpandCache()
    assert partial.load_state(state) == cache.size - 1
