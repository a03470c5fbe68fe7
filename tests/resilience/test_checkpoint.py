"""Snapshot format, validation, and the periodic Checkpointer."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.explore import ExploreOptions, explore
from repro.programs import paper
from repro.resilience import chaos
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    Checkpointer,
    program_fingerprint,
    read_snapshot,
    write_snapshot,
)


def test_round_trip(tmp_path):
    path = str(tmp_path / "snap.ckpt")
    write_snapshot(path, {"driver": "bfs", "fingerprint": "abc", "x": [1, 2]})
    payload = read_snapshot(path, driver="bfs", fingerprint="abc")
    assert payload["schema"] == CHECKPOINT_SCHEMA
    assert payload["x"] == [1, 2]
    assert not (tmp_path / "snap.ckpt.tmp").exists()  # atomic write


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        read_snapshot(str(tmp_path / "nope.ckpt"))


def test_garbage_file(tmp_path):
    p = tmp_path / "garbage.ckpt"
    p.write_bytes(b"not a pickle at all")
    with pytest.raises(CheckpointError, match="cannot read"):
        read_snapshot(str(p))


def test_non_checkpoint_pickle(tmp_path):
    p = tmp_path / "other.ckpt"
    p.write_bytes(pickle.dumps([1, 2, 3]))
    with pytest.raises(CheckpointError, match="not a repro checkpoint"):
        read_snapshot(str(p))


def test_wrong_schema(tmp_path):
    p = tmp_path / "old.ckpt"
    p.write_bytes(pickle.dumps({"schema": "repro.checkpoint/0"}))
    with pytest.raises(CheckpointError, match="unsupported"):
        read_snapshot(str(p))


def test_driver_mismatch(tmp_path):
    path = str(tmp_path / "snap.ckpt")
    write_snapshot(path, {"driver": "bfs"})
    with pytest.raises(CheckpointError, match="'bfs' driver"):
        read_snapshot(path, driver="sleep")


def test_fingerprint_mismatch(tmp_path):
    path = str(tmp_path / "snap.ckpt")
    write_snapshot(path, {"driver": "bfs", "fingerprint": "abc"})
    with pytest.raises(CheckpointError, match="different program"):
        read_snapshot(path, fingerprint="xyz")


def test_options_mismatch(tmp_path):
    path = str(tmp_path / "snap.ckpt")
    write_snapshot(path, {"options_key": ("full", False)})
    with pytest.raises(CheckpointError, match="do not match"):
        read_snapshot(path, options_key=("stubborn", True))


def test_fingerprint_tracks_program_identity():
    a = program_fingerprint(paper.mutex_counter())
    b = program_fingerprint(paper.mutex_counter())
    c = program_fingerprint(paper.racy_counter())
    assert a == b != c


def test_checkpointer_periodic_writes(tmp_path):
    path = str(tmp_path / "snap.ckpt")
    cp = Checkpointer(path, every=3)
    stops = [cp.tick(lambda: {"n": i}) for i in range(10)]
    assert cp.written == 3  # ticks 3, 6, 9
    assert not any(stops)  # no stop_after: never asks to stop
    assert read_snapshot(path)["n"] == 8  # 9th tick captured i=8


def test_checkpointer_stop_after(tmp_path):
    cp = Checkpointer(str(tmp_path / "snap.ckpt"), every=2, stop_after=2)
    stops = [cp.tick(lambda: {}) for _ in range(6)]
    # stops right after the 2nd successful write (tick 4), not before
    assert stops == [False, False, False, True, False, True]
    assert cp.written >= 2


def test_checkpointer_survives_write_faults(tmp_path):
    """A full disk (simulated) must not kill the run or stop it."""
    path = str(tmp_path / "snap.ckpt")
    cp = Checkpointer(path, every=1, stop_after=1)
    with chaos.injected("checkpoint", times=2):
        stops = [cp.tick(lambda: {"n": i}) for i in range(4)]
    assert cp.faults == 2
    assert cp.written == 2
    # a faulted write does not count toward stop_after
    assert stops == [False, False, True, True]


def test_checkpointer_survives_bad_path():
    cp = Checkpointer("/nonexistent-dir/snap.ckpt", every=1)
    assert cp.tick(lambda: {}) is False
    assert cp.faults == 1 and cp.written == 0


def test_explore_counts_checkpoint_faults(tmp_path):
    program = paper.mutex_counter()
    path = str(tmp_path / "snap.ckpt")
    cp = Checkpointer(path, every=1)
    with chaos.injected("checkpoint", times=2):
        result = explore(
            program,
            options=ExploreOptions(policy="stubborn"),
            checkpointer=cp,
        )
    s = result.stats
    assert not s.truncated  # checkpoint I/O failure never kills the run
    assert s.checkpoint_faults == 2
    assert s.checkpoints_written == cp.written > 0


# --------------------------------------------------------------------------
# damaged snapshots and mid-write crashes (PR 7 hardening)
# --------------------------------------------------------------------------


def test_truncated_snapshot_is_typed_error_with_hint(tmp_path):
    """Regression: a torn download / killed writer leaves a prefix of a
    valid pickle.  Loading it must raise CheckpointError naming the
    file and the way out — never a raw unpickling traceback."""
    path = str(tmp_path / "snap.ckpt")
    write_snapshot(path, {"driver": "bfs", "payload": list(range(1000))})
    blob = open(path, "rb").read()
    for cut in (1, len(blob) // 2, len(blob) - 1):
        with open(path, "wb") as fh:
            fh.write(blob[:cut])
        with pytest.raises(CheckpointError) as err:
            read_snapshot(path)
        message = str(err.value)
        assert path in message
        assert "truncated or corrupt" in message
        assert "re-run without --resume" in message


def test_bitrotted_snapshot_is_typed_error(tmp_path):
    """Bit flips deep in the pickle stream surface as the same typed
    error, whatever exception the unpickler happens to raise."""
    path = str(tmp_path / "snap.ckpt")
    write_snapshot(path, {"driver": "bfs", "payload": {"k": [1, 2, 3]}})
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    try:
        payload = read_snapshot(path)
    except CheckpointError as exc:
        assert "truncated or corrupt" in str(exc)
    else:
        # one flipped byte can survive unpickling; it must then still
        # be a structurally valid snapshot dict, not garbage
        assert isinstance(payload, dict) and "schema" in payload


def test_truncated_resume_fails_typed_through_explore(tmp_path):
    """The same contract holds end to end through explore(--resume)."""
    program = paper.mutex_counter()
    path = str(tmp_path / "snap.ckpt")
    cp = Checkpointer(path, every=1, stop_after=1)
    explore(program, options=ExploreOptions(policy="stubborn"), checkpointer=cp)
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="re-run without --resume"):
        explore(
            program,
            options=ExploreOptions(policy="stubborn"),
            resume_from=path,
        )


def test_mid_write_crash_preserves_previous_snapshot(tmp_path):
    """Atomicity under a crash *during* the write: the ``store-io``
    point fails individual low-level ``write()`` calls inside the
    snapshot dump, exactly like a disk dying mid-file.  Whatever write
    the crash lands on, the previous snapshot stays loadable."""
    path = str(tmp_path / "snap.ckpt")
    write_snapshot(path, {"driver": "bfs", "n": 1, "pad": list(range(4096))})
    before = open(path, "rb").read()
    # sweep the crash point across the file: first write, a later
    # write, and (past the end) no crash at all
    for after in (0, 1, 2, 5):
        with chaos.injected("store-io", after=after, times=1):
            try:
                write_snapshot(
                    path, {"driver": "bfs", "n": 2, "pad": list(range(4096))}
                )
                crashed = False
            except chaos.ChaosFault:
                crashed = True
        if crashed:
            # the interrupted write left the old bytes untouched...
            assert open(path, "rb").read() == before
            payload = read_snapshot(path)
            assert payload["n"] == 1
            # ...and no temp debris
            assert os.listdir(str(tmp_path)) == ["snap.ckpt"]
        else:
            assert read_snapshot(path)["n"] == 2
            write_snapshot(
                path, {"driver": "bfs", "n": 1, "pad": list(range(4096))}
            )
            before = open(path, "rb").read()


def test_mid_write_crash_through_checkpointer(tmp_path):
    """The periodic Checkpointer absorbs a mid-write store-io crash as
    an ordinary checkpoint fault: run continues, old snapshot loads."""
    path = str(tmp_path / "snap.ckpt")
    cp = Checkpointer(path, every=1)
    assert cp.tick(lambda: {"driver": "bfs", "n": 1}) is False
    with chaos.injected("store-io", times=1):
        cp.tick(lambda: {"driver": "bfs", "n": 2, "pad": list(range(4096))})
    assert cp.faults == 1
    assert read_snapshot(path)["n"] == 1


#: Keys every snapshot carries, whichever frontier discipline wrote it.
_COMMON_KEYS = {
    "schema", "driver", "fingerprint", "options_key", "graph", "stats",
    "stubborn",
}


def _mid_run_snapshot(tmp_path, opts):
    """The pickled document of the first checkpoint of a run that is
    interrupted there (so its frontier is non-empty)."""
    from repro.programs.philosophers import philosophers

    path = str(tmp_path / "snap.ckpt")
    cp = Checkpointer(path, every=5, stop_after=1)
    result = explore(philosophers(3), options=opts, checkpointer=cp)
    assert result.stats.truncation_reason == "interrupted"
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _check_common(payload, opts):
    from repro.explore import ConfigGraph, ExploreStats, StubbornStats

    assert payload["schema"] == CHECKPOINT_SCHEMA
    assert isinstance(payload["fingerprint"], str)
    assert payload["options_key"] == opts.resume_key()
    assert isinstance(payload["graph"], ConfigGraph)
    assert isinstance(payload["stats"], ExploreStats)
    assert isinstance(payload["stubborn"], StubbornStats)


def test_bfs_payload_format(tmp_path):
    opts = ExploreOptions(policy="stubborn", coarsen=True)
    payload = _mid_run_snapshot(tmp_path, opts)
    assert payload["driver"] == "bfs"
    assert set(payload) == _COMMON_KEYS | {"queue", "processed"}
    _check_common(payload, opts)
    queue, processed = payload["queue"], payload["processed"]
    assert type(queue) is list and queue
    assert all(type(cid) is int for cid in queue)
    assert type(processed) is set and processed
    assert all(type(cid) is int for cid in processed)


def test_sleep_payload_format(tmp_path):
    from repro.explore.sleepsets import SleepEntry

    opts = ExploreOptions(policy="stubborn", coarsen=True, sleep=True)
    payload = _mid_run_snapshot(tmp_path, opts)
    assert payload["driver"] == "sleep"
    assert set(payload) == _COMMON_KEYS | {"explored", "seen_edges", "stack"}
    _check_common(payload, opts)
    explored = payload["explored"]
    assert type(explored) is dict and explored
    for cid, sleeps in explored.items():
        assert type(cid) is int and type(sleeps) is list
        assert all(type(s) is frozenset for s in sleeps)
    seen_edges = payload["seen_edges"]
    assert type(seen_edges) is set and seen_edges
    for src, dst, labels in seen_edges:
        assert type(src) is int and type(dst) is int
        assert type(labels) is tuple
        assert all(type(label) is str for label in labels)
    stack = payload["stack"]
    assert type(stack) is list and stack
    for cid, sleep in stack:
        assert type(cid) is int and type(sleep) is frozenset
        assert all(type(z) is SleepEntry for z in sleep)
