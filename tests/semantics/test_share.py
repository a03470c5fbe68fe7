"""Successor sharing: one exploration keeps each process and action once.

``semantics.step.execute`` hands every successor's new processes and its
action record back as the run's canonical equal objects (the run's share
table), and finds a known successor process by key without building it.
These tests pin what that buys on the benchmark's full, memo-off
workload, that the table is per run, and that a process's cached hash
never crosses a pickle boundary.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.explore import ExploreOptions, explore
from repro.lang import parse_program
from repro.metrics import MetricsObserver
from repro.programs.corpus import CORPUS
from repro.programs.philosophers import philosophers_source
from repro.semantics.config import Frame, Process, initial_config
from repro.semantics.step import enabledness, execute
from tests.explore.test_graph_order import graph_order_digest

FULL_NOMEMO = ExploreOptions(policy="full", memo=False)
SRC = str(Path(__file__).resolve().parents[2] / "src")


def _objects(graph):
    """``(action objects, process objects)`` the graph references, by
    identity."""
    actions = {id(a): a for e in graph.edges for a in e.actions}
    procs = {id(p): p for c in graph.configs for p in c.procs}
    return list(actions.values()), list(procs.values())


def _count_constructions(monkeypatch, *classes):
    """Count the instances of *classes* built from here on."""
    built = dict.fromkeys((cls.__name__ for cls in classes), 0)
    for cls in classes:
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__, **kw):
            built[_name] += 1
            _init(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_full_nomemo_graph_references_each_object_once(monkeypatch):
    program = parse_program(philosophers_source(5))
    built = _count_constructions(monkeypatch, Process, Frame)
    mo = MetricsObserver()
    result = explore(program, options=FULL_NOMEMO, observers=(mo,))
    graph = result.graph
    assert (graph.num_configs, graph.num_edges) == (18_338, 69_438)
    # the graph-order digest of the engine before successors were shared
    assert graph_order_digest(graph) == "b6c3ced540d2585adb53be8d11cc021f"
    actions, procs = _objects(graph)
    # before sharing: 69,438 action objects and 18,343 process objects
    assert len(actions) == len(set(actions)) == 38
    assert len(procs) == len(set(procs)) == 44
    # the share table, published once at the end of the run, holds the
    # 43 processes a step built (the root comes from initial_config),
    # the 38 actions and one key per action outcome (one each here)
    assert mo.snapshot()["step.shared_objects"]["value"] == 43 + 38 + 38
    # a step looks its successor process up by key before building it:
    # 69,444 processes and 55,202 frames were built before it did
    assert built["Process"] <= 1_000 and built["Frame"] <= 1_000


def test_consecutive_explorations_share_no_actions():
    program = CORPUS["philosophers_3"]()
    first = explore(program, options=FULL_NOMEMO).graph
    second = explore(program, options=FULL_NOMEMO).graph
    assert graph_order_digest(first) == graph_order_digest(second)
    a1, p1 = _objects(first)
    a2, p2 = _objects(second)
    assert not {id(a) for a in a1} & {id(a) for a in a2}
    assert set(a1) == set(a2)
    assert not {id(p) for p in p1} & {id(p) for p in p2}


def test_execute_without_share_builds_fresh_equal_objects():
    program = CORPUS["philosophers_3"]()
    config = initial_config(program)
    proc = config.procs[0]
    assert enabledness(program, config, proc)[0]
    share: dict = {}
    succ1, act1 = execute(program, config, proc)
    succ2, act2 = execute(program, config, proc)
    shared1, sact1 = execute(program, config, proc, share=share)
    shared2, sact2 = execute(program, config, proc, share=share)
    assert succ1 == succ2 == shared1 == shared2
    assert act1 == act2 == sact1 == sact2
    assert act1 is not act2 and succ1.procs[0] is not succ2.procs[0]
    assert sact1 is sact2 and shared1.procs[0] is shared2.procs[0]


def test_unpickled_process_hashes_like_a_fresh_equal_one():
    frame = Frame(func="main", pc=3, locals=(1, 2), ret_loc=None)
    proc = Process(pid=(0, 1), frames=(frame,))
    assert proc._hash is None
    hash(proc)  # populate the cache before pickling
    assert proc._hash == hash(proc)
    blob = pickle.dumps(proc)
    fresh = Process(pid=(0, 1), frames=(frame,))
    back = pickle.loads(blob)
    assert back == fresh and hash(back) == hash(fresh)
    # the cache is derived state: never part of the pickle, never
    # copied by dataclasses.replace
    assert b"_hash" not in blob


_CHILD = textwrap.dedent(
    """
    import sys
    from repro.explore import ExploreOptions, explore
    from repro.programs.corpus import CORPUS
    from repro.resilience.checkpoint import Checkpointer
    from tests.explore.test_graph_order import graph_order_digest

    mode, path = sys.argv[1], sys.argv[2]
    program = CORPUS["philosophers_3"]()
    opts = ExploreOptions(policy="full", memo=False)
    if mode == "write":
        cp = Checkpointer(path, every=40, stop_after=1)
        result = explore(program, options=opts, checkpointer=cp)
        assert result.stats.truncation_reason == "interrupted"
    else:
        result = explore(program, options=opts, resume_from=path)
        assert result.stats.resumed and not result.stats.truncated
    print(graph_order_digest(result.graph))
    """
)


def _child(mode: str, path: str, seed: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    root = str(Path(SRC).parent)
    env["PYTHONPATH"] = os.pathsep.join([SRC, root])
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, path],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return out.stdout.strip()


def test_checkpoint_resumes_under_another_hash_seed(tmp_path):
    path = str(tmp_path / "full-nomemo.ckpt")
    _child("write", path, seed=1)
    resumed = _child("resume", path, seed=2)
    reference = explore(CORPUS["philosophers_3"](), options=FULL_NOMEMO)
    assert resumed == graph_order_digest(reference.graph)
