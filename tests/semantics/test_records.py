"""The state records: slotted frozen dataclasses.

``Frame``, ``Process``, ``HeapObj`` and ``Config`` (semantics.config)
and ``Edge`` (explore.graph) fill their slots in a hand-written
``__init__``.  These tests pin that they stay frozen, and that pickles
written while the records still kept a ``__dict__`` (checkpoint
snapshots, service stores) load into complete records.
"""

from __future__ import annotations

import copyreg
import dataclasses
import io
import pickle
from pathlib import Path

import pytest

from repro.explore import ExploreOptions, explore
from repro.explore.graph import Edge
from repro.programs.corpus import CORPUS
from repro.semantics.config import Config, Frame, HeapObj, Process
from repro.semantics.step import ActionInfo
from tests.explore.test_graph_order import PINS, graph_order_digest

#: philosophers(3), ``policy="full"``, written by
#: ``Checkpointer(path, every=20, stop_after=1)`` with the engine whose
#: ``Frame`` and ``Edge`` pickled their ``__dict__`` (34 configurations
#: of the full graph's 362)
DICT_STATE_SNAPSHOT = (
    Path(__file__).parent / "data" / "philosophers3-full-every20.ckpt"
)


def _records():
    frame = Frame("main", 3, (1, 2))
    proc = Process((0,), (frame,))
    obj = HeapObj(("site", 0), (0, 0), (0,))
    config = Config((proc,), (0,), (obj,))
    action = ActionInfo((0,), "a", "ISkip", (), (), ("main",), 1)
    edge = Edge(0, 1, (action,))
    return [
        (frame, "pc"), (proc, "status"), (obj, "cells"),
        (config, "globals"), (edge, "dst"),
    ]


@pytest.mark.parametrize(
    "record, name", _records(), ids=lambda x: type(x).__name__
)
def test_assigning_a_field_raises_frozen_instance_error(record, name):
    before = getattr(record, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, before)
    assert not hasattr(record, "__dict__")


class _DictStatePickler(pickle.Pickler):
    """Pickles ``Frame`` and ``Edge`` the way a record that keeps its
    fields in ``__dict__`` does: a new instance, then the field dict as
    its state."""

    def reducer_override(self, obj):
        if type(obj) not in (Frame, Edge):
            return NotImplemented
        state = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        return (copyreg.__newobj__, (type(obj),), state)


def test_dict_state_pickles_load_into_complete_records():
    frame = Frame("main", 3, (1, 2), ("l", 0))
    action = ActionInfo((0,), "a", "ISkip", (), (), ("main",), 1)
    edge = Edge(4, 7, (action,))
    for record in (frame, edge):
        buf = io.BytesIO()
        _DictStatePickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(record)
        back = pickle.loads(buf.getvalue())
        assert type(back) is type(record)
        assert back == record and hash(back) == hash(record)


def test_dict_state_snapshot_resumes_to_the_uninterrupted_graph():
    program = CORPUS["philosophers_3"]()
    opts = ExploreOptions(policy="full")
    resumed = explore(
        program, options=opts, resume_from=str(DICT_STATE_SNAPSHOT)
    )
    assert resumed.stats.resumed and not resumed.stats.truncated
    reference = explore(program, options=opts)
    assert (resumed.graph.num_configs, resumed.graph.num_edges) == (362, 816)
    assert graph_order_digest(resumed.graph) == PINS[
        ("philosophers_3", "full")
    ]
    assert resumed.graph.edges == reference.graph.edges
