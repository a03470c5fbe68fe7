"""Cross-backend differential suite: the parallel backend must be
*indistinguishable* from the serial reference.

Contract, per corpus program × expansion policy (± sleep sets) × jobs
∈ {1, 2, 4}:

- the same graph id for id: the parallel master runs the serial BFS
  loop and inserts each worker reply in queue order, so
  ``graph.configs``, ``graph.edges`` and ``graph.terminal`` equal the
  serial lists, truncated runs included;
- identical result-configuration payloads (final stores), deadlock
  counts, and fault messages — the paper's reduction invariant;
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

The full corpus runs at jobs=2 (every program, every policy) and, for
the breadth-first policies, at jobs 1 and 4 as well; the sleep-set
combos (the serial sleep driver on every backend) sweep jobs {1, 4} on
the bench smoke subset only.
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
from repro.programs.philosophers import philosophers

#: (policy, coarsen, sleep) — the sleep combos run on the serial sleep
#: driver whatever the backend, and must still match it exactly.
BFS_COMBOS = (
    ("full", False, False),
    ("stubborn", False, False),
    ("stubborn-proc", False, False),
    ("stubborn", True, False),
)
PARALLEL_COMBOS = BFS_COMBOS + (
    ("full", False, True),
    ("stubborn", False, True),
    ("stubborn-proc", False, True),
)


def _ids(combos):
    return [
        ExploreOptions(policy=p, coarsen=c, sleep=s).describe()
        for p, c, s in combos
    ]


COMBO_IDS = _ids(PARALLEL_COMBOS)

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


def _same_graph(a, b) -> None:
    """Id for id: configuration order, edge list, terminal marks."""
    assert a.graph.configs == b.graph.configs
    assert a.graph.edges == b.graph.edges
    assert a.graph.terminal == b.graph.terminal
    assert a.graph.initial == b.graph.initial


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
    _same_graph(par, ser)


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
@pytest.mark.parametrize("combo", BFS_COMBOS, ids=_ids(BFS_COMBOS))
@pytest.mark.parametrize("name", sorted(set(CORPUS) - set(SMOKE_PROGRAMS)))
def test_corpus_bfs_across_jobs(name, combo, jobs):
    """With the smoke-subset sweep below, every corpus program under
    every breadth-first policy at jobs 1 and 4."""
    policy, coarsen, sleep = combo
    par = explore(
        _program(name),
        options=ExploreOptions(
            policy=policy, coarsen=coarsen, backend="parallel", jobs=jobs,
        ),
    )
    ser, _ = _serial(name, policy, coarsen, sleep)
    _assert_equivalent(par, ser)


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
    modulo wall-clock.  Batch placement is a function of the level
    alone, so the per-worker loads repeat too."""
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
    """The master inserts replies in queue order, so the graph is the
    *same object* — same node numbering, same edge list — whatever the
    worker count."""
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
# truncation and batch placement
# --------------------------------------------------------------------------


def test_truncated_runs_equal_serial_every_time():
    """``max_configs`` cuts the serial queue mid-level; the parallel
    master cuts at the same configuration, so twenty runs at each of
    jobs 2 and 4 give the serial truncated graph every time."""
    program = philosophers(4)
    opts = dict(policy="full", max_configs=300)
    ser = explore(program, options=ExploreOptions(**opts))
    assert ser.stats.truncation_reason == "configs"
    for jobs in (2, 4):
        par_opts = ExploreOptions(backend="parallel", jobs=jobs, **opts)
        for _ in range(20):
            par = explore(program, options=par_opts)
            assert par.stats.truncation_reason == "configs"
            _same_graph(par, ser)
            assert par.stats.expansions == ser.stats.expansions
            assert par.stats.stubborn == ser.stats.stubborn


def test_affinity_ships_fresh_configs_by_reference():
    """A fresh configuration goes back to the worker that produced it
    as an index, so far fewer configurations ship in full than are
    expanded; the batch count stays within one per worker per level."""
    r = explore(
        _program("philosophers_3"),
        options=ExploreOptions(policy="full", backend="parallel", jobs=2),
    )
    s = r.stats
    assert 0 < s.handoffs < sum(s.worker_expansions) // 2
    assert s.msg_bytes > 0
    assert s.batches <= 2 * _depth(r.graph)


def _depth(graph) -> int:
    """BFS levels of *graph* from its initial configuration."""
    level = {graph.initial: 0}
    queue = [graph.initial]
    for cid in queue:
        for _, dst in graph.successors(cid):
            if dst not in level:
                level[dst] = level[cid] + 1
                queue.append(dst)
    return max(level.values()) + 1


def test_forced_handoffs_keep_the_serial_graph(monkeypatch):
    """With affinity off — every origin forgotten, so every
    configuration ships in full through the component ledger — the
    graph is still the serial one."""
    from repro.explore import parallel as par

    monkeypatch.setattr(par._Remote, "_remember", lambda *args: None)
    r = explore(
        _program("philosophers_3"),
        options=ExploreOptions(policy="full", backend="parallel", jobs=2),
    )
    ser, _ = _serial("philosophers_3", "full", False)
    _assert_equivalent(r, ser)
    assert r.stats.handoffs == sum(r.stats.worker_expansions)


def test_worker_killed_mid_level_resends_owed_configs():
    """Chaos drill: a worker killed after replies have started arriving.
    The master keeps what it received, sends the configurations still
    owed to a new pool, and the graph equals the fault-free run's."""
    from repro.resilience import chaos

    opts = ExploreOptions(
        policy="stubborn", backend="parallel", jobs=2
    )
    program = _program("philosophers_3")
    clean = explore(program, options=opts)
    try:
        assert chaos.active() is None
        with chaos.injected("worker", after=40, shared=True) as inj:
            r = explore(program, options=opts)
        assert inj.armed_fired("worker") == 1
    finally:
        chaos.uninstall()
    assert r.stats.worker_restarts == 1
    _same_graph(r, clean)
    assert r.final_stores() == clean.final_stores()
    assert r.stats.stubborn == clean.stats.stubborn
