"""Cross-backend differential suite: the parallel work-stealing driver
must be *indistinguishable* from the serial reference in everything the
paper's theory cares about.

Contract, per corpus program × expansion policy (± sleep sets) × jobs
∈ {1, 2, 4}:

- identical configuration count and edge count (the policies are
  deterministic per-configuration functions, so the explored graphs are
  the same graph up to node numbering);
- identical result-configuration payloads (final stores), deadlock
  counts, and fault messages — the paper's reduction invariant;
- identical *content* edge multiset ``(src config, dst config, labels)``
  — a structural graph-isomorphism check that catches dropped or
  duplicated transitions even when the counts accidentally agree;
- identical merged metrics on every backend-comparable series: the
  master merges worker registries (``MetricsRegistry.merge``), so
  deterministic counters and histograms (``explore.expansions``,
  ``stubborn.*``, ``coarsen.*`` …) must equal the serial registry.
  Excluded by design: the worker-local series named by the shared
  constants ``WORKER_LOCAL_PREFIXES`` / ``WORKER_LOCAL_SERIES`` in
  :mod:`repro.metrics.registry` (rationale per series lives on the
  constants — one source of truth for this suite and the
  ``MetricsRegistry.merge`` contract), plus gauges and timers
  (wall-clock / peak semantics).

Determinism (the no-dict-iteration-order-leak guarantee): the merged
graph of two repeated runs at the same ``jobs`` is identical node by
node and edge by edge, and counts/result sets are identical across
``jobs`` values.

The full corpus runs at jobs=2 (every program, every policy); the
wider jobs sweep {1, 4} runs on the bench smoke subset to keep tier-1
wall-clock bounded.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.bench import SMOKE_PROGRAMS
from repro.explore import ExploreOptions, explore
from repro.metrics import MetricsObserver
from repro.metrics.registry import (
    WORKER_LOCAL_PREFIXES,
    WORKER_LOCAL_SERIES,
)
from repro.programs.corpus import CORPUS

#: (policy, coarsen, sleep) — the sleep combos run on the serial sleep
#: driver whatever the backend, and must still match it exactly.
PARALLEL_COMBOS = (
    ("full", False, False),
    ("stubborn", False, False),
    ("stubborn-proc", False, False),
    ("stubborn", True, False),
    ("full", False, True),
    ("stubborn", False, True),
    ("stubborn-proc", False, True),
)
COMBO_IDS = [
    ExploreOptions(policy=p, coarsen=c, sleep=s).describe()
    for p, c, s in PARALLEL_COMBOS
]

_PROGRAMS: dict = {}
_SERIAL: dict = {}


def _program(name):
    prog = _PROGRAMS.get(name)
    if prog is None:
        prog = _PROGRAMS[name] = CORPUS[name]()
    return prog


def _serial(name, policy, coarsen, sleep=False):
    """Serial reference result + its comparable-metrics snapshot."""
    key = (name, policy, coarsen, sleep)
    cached = _SERIAL.get(key)
    if cached is None:
        mo = MetricsObserver()
        r = explore(
            _program(name),
            options=ExploreOptions(policy=policy, coarsen=coarsen, sleep=sleep),
            observers=(mo,),
        )
        cached = _SERIAL[key] = (r, _comparable(mo.snapshot()))
    return cached


def _comparable(snapshot: dict) -> dict:
    """The backend-comparable slice of a registry snapshot:
    deterministic counters and histograms minus the worker-local series
    (the shared exclusion constants in :mod:`repro.metrics.registry`)."""
    return {
        name: {k: v for k, v in data.items() if k != "type"}
        for name, data in snapshot.items()
        if data["type"] in ("counter", "histogram")
        and not name.startswith(WORKER_LOCAL_PREFIXES)
        and name not in WORKER_LOCAL_SERIES
    }


def _edge_content(result) -> Counter:
    """The graph's edge multiset keyed by configuration *content*, not
    node id — invariant across node numberings."""
    g = result.graph
    return Counter(
        (g.configs[e.src], g.configs[e.dst], e.labels) for e in g.edges
    )


def _assert_equivalent(par, ser) -> None:
    assert not par.stats.truncated and not ser.stats.truncated
    assert par.stats.num_configs == ser.stats.num_configs
    assert par.stats.num_edges == ser.stats.num_edges
    assert par.final_stores() == ser.final_stores()
    assert par.stats.num_terminated == ser.stats.num_terminated
    assert par.stats.num_deadlocks == ser.stats.num_deadlocks
    assert par.stats.num_faults == ser.stats.num_faults
    assert frozenset(par.fault_messages()) == frozenset(ser.fault_messages())
    assert set(par.graph.configs) == set(ser.graph.configs)
    assert _edge_content(par) == _edge_content(ser)


@pytest.mark.parametrize("combo", PARALLEL_COMBOS, ids=COMBO_IDS)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_matches_serial_at_two_jobs(name, combo):
    policy, coarsen, sleep = combo
    mo = MetricsObserver()
    par = explore(
        _program(name),
        options=ExploreOptions(
            policy=policy, coarsen=coarsen, sleep=sleep,
            backend="parallel", jobs=2,
        ),
        observers=(mo,),
    )
    ser, ser_metrics = _serial(name, policy, coarsen, sleep)
    _assert_equivalent(par, ser)
    assert _comparable(mo.snapshot()) == ser_metrics


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("combo", PARALLEL_COMBOS, ids=COMBO_IDS)
@pytest.mark.parametrize("name", sorted(SMOKE_PROGRAMS))
def test_smoke_subset_across_jobs(name, combo, jobs):
    policy, coarsen, sleep = combo
    mo = MetricsObserver()
    par = explore(
        _program(name),
        options=ExploreOptions(
            policy=policy, coarsen=coarsen, sleep=sleep,
            backend="parallel", jobs=jobs,
        ),
        observers=(mo,),
    )
    ser, ser_metrics = _serial(name, policy, coarsen, sleep)
    _assert_equivalent(par, ser)
    assert _comparable(mo.snapshot()) == ser_metrics


# --------------------------------------------------------------------------
# determinism
# --------------------------------------------------------------------------


def _run(name, jobs):
    return explore(
        _program(name),
        options=ExploreOptions(
            policy="stubborn", backend="parallel", jobs=jobs
        ),
    )


@pytest.mark.parametrize("name", ["philosophers_3", "deadlock_pair"])
def test_repeated_runs_identical(name):
    """Two runs at the same jobs produce the same merged graph,
    node by node, edge by edge, terminal by terminal — byte-identical
    modulo wall-clock.  (Scheduling-dependent stats — ``handoffs``,
    ``steals``, per-worker task counts — are deliberately *not* part of
    this contract; the canonical quantities are.)"""
    a, b = _run(name, 2), _run(name, 2)
    assert a.graph.configs == b.graph.configs
    assert a.graph.edges == b.graph.edges
    assert list(a.graph.terminal.items()) == list(b.graph.terminal.items())
    assert a.graph.initial == b.graph.initial
    assert a.stats.shard_sizes == b.stats.shard_sizes


@pytest.mark.parametrize("name", ["philosophers_3", "mutex_counter"])
def test_counts_and_results_identical_across_jobs(name):
    runs = {jobs: _run(name, jobs) for jobs in (1, 2, 4)}
    counts = {
        (r.stats.num_configs, r.stats.num_edges) for r in runs.values()
    }
    assert len(counts) == 1
    stores = {frozenset(r.final_stores()) for r in runs.values()}
    assert len(stores) == 1
    contents = [_edge_content(r) for r in runs.values()]
    assert contents[0] == contents[1] == contents[2]


def test_merged_graph_identical_across_jobs():
    """The canonical merge orders configurations by structural digest,
    not by discovery: the merged graph is the *same object* — same node
    numbering, same edge list — whatever the worker count."""
    runs = [_run("philosophers_3", jobs) for jobs in (1, 2, 4)]
    for other in runs[1:]:
        assert runs[0].graph.configs == other.graph.configs
        assert runs[0].graph.edges == other.graph.edges
        assert runs[0].graph.terminal == other.graph.terminal


# --------------------------------------------------------------------------
# checkpoint/resume (mirrors tests/resilience/test_resume_equivalence.py)
# --------------------------------------------------------------------------


def _signature(result):
    g = result.graph
    s = result.stats
    return {
        "stores": result.final_stores(),
        "configs": list(g.configs),
        "edges": list(g.edges),
        "terminal": dict(g.terminal),
        "initial": g.initial,
        "num_terminated": s.num_terminated,
        "num_deadlocks": s.num_deadlocks,
        "num_faults": s.num_faults,
        "expansions": s.expansions,
        "actions": s.actions_executed,
    }


@pytest.mark.parametrize(
    "opts_kw",
    [
        {"policy": "stubborn"},
        {"policy": "full", "coarsen": True},
        {"policy": "stubborn", "sleep": True},
    ],
    ids=["stubborn", "full+coarsen", "stubborn+sleep"],
)
def test_parallel_checkpoint_resume_matches_uninterrupted(opts_kw, tmp_path):
    """Interrupt a parallel run at its first quiescent checkpoint and
    resume it (still parallel): graph and cumulative stats equal the
    uninterrupted parallel run's — which in turn equals serial."""
    from repro.resilience.checkpoint import Checkpointer

    program = _program("philosophers_3")
    opts = ExploreOptions(backend="parallel", jobs=2, **opts_kw)
    reference = explore(program, options=opts)
    path = str(tmp_path / "snap.ckpt")
    first = explore(
        program,
        options=opts,
        checkpointer=Checkpointer(path, every=11, stop_after=1),
    )
    assert first.stats.truncation_reason == "interrupted"
    assert first.stats.checkpoints_written == 1
    resumed = explore(program, options=opts, resume_from=path)
    assert resumed.stats.resumed
    assert _signature(resumed) == _signature(reference)


def test_parallel_snapshot_resumes_serially_and_back(tmp_path):
    """Snapshots are cross-backend in both directions: a parallel
    snapshot feeds a serial resume and a serial snapshot feeds a
    parallel resume, converging on the same explored content."""
    from repro.resilience.checkpoint import Checkpointer

    program = _program("philosophers_3")
    par = ExploreOptions(policy="stubborn", backend="parallel", jobs=2)
    ser = ExploreOptions(policy="stubborn")
    reference = explore(program, options=ser)

    def content(result):
        return (
            frozenset(result.graph.configs),
            _edge_content(result),
            {
                result.graph.configs[c]: st
                for c, st in result.graph.terminal.items()
            },
            result.final_stores(),
        )

    p2s = str(tmp_path / "p2s.ckpt")
    first = explore(
        program,
        options=par,
        checkpointer=Checkpointer(p2s, every=11, stop_after=1),
    )
    assert first.stats.truncation_reason == "interrupted"
    serial_resumed = explore(program, options=ser, resume_from=p2s)
    assert serial_resumed.stats.resumed
    assert content(serial_resumed) == content(reference)

    s2p = str(tmp_path / "s2p.ckpt")
    explore(
        program,
        options=ser,
        checkpointer=Checkpointer(s2p, every=11, stop_after=1),
    )
    parallel_resumed = explore(program, options=par, resume_from=s2p)
    assert parallel_resumed.stats.resumed
    assert content(parallel_resumed) == content(reference)
    assert parallel_resumed.stats.expansions == reference.stats.expansions


# --------------------------------------------------------------------------
# interconnect probes: suppression cache and fragment streaming
# --------------------------------------------------------------------------


def test_suppression_fires_on_reconverging_frontier():
    """The sender-side seen-digest cache earns its keep: on a program
    whose interleavings reconverge heavily, repeat candidates are
    suppressed at the source instead of shipped and rejected by the
    owner's visited set."""
    r = explore(
        _program("philosophers_3"),
        options=ExploreOptions(policy="full", backend="parallel", jobs=2),
    )
    assert r.stats.cand_suppressed > 0
    assert r.stats.msg_bytes > 0


def test_seen_cache_poisoning_never_drops_a_config():
    """Forced digest collisions in the suppression cache: with every
    candidate hashing to the same key, the cache sees nothing but
    collisions — it must verify configuration equality, poison the key,
    and keep shipping, never suppressing a genuinely-new config."""
    from repro.explore import parallel as par

    orig = par._seen_key
    par._seen_key = lambda config: 1  # fork inherits the patch
    try:
        r = explore(
            _program("philosophers_3"),
            options=ExploreOptions(
                policy="full", backend="parallel", jobs=2
            ),
        )
    finally:
        par._seen_key = orig
    ser, _ = _serial("philosophers_3", "full", False)
    _assert_equivalent(r, ser)


def test_worker_killed_mid_fragment_stream_merges_clean():
    """Chaos drill: with the fragment threshold forced to 1 the workers
    stream graph deltas constantly, so a kill lands with fragments of
    the dead worker already folded into the master's accumulator.  The
    restarted attempt must discard them wholesale — the merged graph
    equals the fault-free run's."""
    from repro.explore import parallel as par

    from repro.resilience import chaos

    opts = ExploreOptions(
        policy="stubborn", backend="parallel", jobs=2
    )
    program = _program("philosophers_3")
    clean = explore(program, options=opts)
    orig = par._FRAG_MIN
    par._FRAG_MIN = 1
    try:
        assert chaos.active() is None
        with chaos.injected("worker", after=40, shared=True) as inj:
            r = explore(program, options=opts)
        assert inj.armed_fired("worker") == 1
    finally:
        par._FRAG_MIN = orig
        chaos.uninstall()
    assert r.stats.worker_restarts == 1
    assert r.graph.configs == clean.graph.configs
    assert r.graph.edges == clean.graph.edges
    assert r.graph.terminal == clean.graph.terminal
    assert r.final_stores() == clean.final_stores()
