"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hygiene  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def expected():
    return W.load_expected()


def _orphaning_command(escape_session: bool) -> list[str]:
    """A command that exits at once, leaving a sleeping grandchild."""
    grandchild = "import os, time\n"
    if escape_session:
        grandchild += "os.setsid()\n"
    grandchild += "time.sleep(60)\n"
    return [
        sys.executable, "-c",
        "import subprocess, sys; "
        f"subprocess.Popen([sys.executable, '-c', {grandchild!r}])",
    ]


def test_leak_check_catches_an_orphan_in_the_session(tmp_path):
    with pytest.raises(hygiene.LeakError):
        hygiene.run_isolated(
            _orphaning_command(False), 30, workdir=str(tmp_path)
        )
    assert hygiene.survivors(os.getpid()) == []


def test_leak_check_catches_an_orphan_that_left_the_session(tmp_path):
    # the supervisor is a subreaper, so an orphan that called setsid()
    # is still found by ancestry; run it in a process of its own so
    # the test runner does not become a subreaper
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(HERE)!r})
        import hygiene
        hygiene.become_subreaper()
        try:
            hygiene.run_isolated({_orphaning_command(True)!r}, 30,
                                 workdir={str(tmp_path)!r})
        except hygiene.LeakError:
            print("caught")
        import os
        print("left", len(hygiene.survivors(os.getpid())))
    """)
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=60,
    ).stdout.split()
    assert out == ["caught", "left", "0"]


def test_clean_command_passes_the_leak_check(tmp_path):
    out = hygiene.run_isolated(
        [sys.executable, "-c", "print('ok')"], 30, workdir=str(tmp_path)
    )
    assert out.strip() == "ok"


def test_timeout_stops_the_session(tmp_path):
    with pytest.raises(subprocess.TimeoutExpired):
        hygiene.run_isolated(
            [sys.executable, "-c", "import time; time.sleep(60)"], 0.5,
            workdir=str(tmp_path), grace_s=0.5,
        )
    assert hygiene.survivors(os.getpid()) == []


def test_corrupted_expected_digest_counts_as_a_failure(expected):
    corrupt = copy.deepcopy(expected)
    workload = W.make("phil-reduce")
    workload.prepare(0, corrupt, tiny=True)
    entry = corrupt["programs"][W.source_key(workload.program.source)]
    entry[W.REDUCED]["result_digest"] = "0" * 16
    loop = measure.Loop(workload, corrupt)
    loop.one(0, ())
    assert (loop.attempted, loop.failed) == (1, 1)
    loop = measure.Loop(workload, expected)
    loop.one(0, ())
    assert (loop.attempted, loop.failed) == (1, 0)


def test_unpinned_program_counts_as_a_failure(expected):
    workload = W.make("seeded-corpus")
    workload.prepare(0, expected, tiny=True)
    workload.sources = ["var x = 0; func main() { x = 1; }"]
    loop = measure.Loop(workload, expected)
    loop.one(0, ())
    assert loop.failed == 1


def _assert_restored(before: dict) -> None:
    after = tracing.originals()
    assert {key: after[key] for key in before} == before
    wrappers = [
        key for key, value in after.items()
        if getattr(getattr(value, "__code__", None), "co_filename", None)
        == tracing.__file__
    ]
    assert wrappers == []


def test_wrappers_are_restored_after_a_traced_run(expected, tmp_path):
    workload = W.make("seeded-corpus")
    workload.prepare(0, expected, tiny=True)
    untraced = measure.Loop(workload, expected)
    untraced.run(0)
    before = tracing.originals()
    metrics, traced = tracing.measure(
        "seeded-corpus", 0, True, expected, untraced, 0, tmp_path
    )
    _assert_restored(before)
    # wrapping left every result digest as pinned
    assert traced.attempted >= 1 and traced.failed == 0
    assert metrics["lang.parse_s"] > 0 and metrics["step.calls"] > 0
    assert (tmp_path / "spans-seeded-corpus.jsonl.gz").exists()


def test_wrappers_are_restored_when_the_traced_code_raises():
    before = tracing.originals()
    with pytest.raises(RuntimeError):
        with tracing.Tracing(tracing.SpanLog()):
            assert tracing.originals() != before
            raise RuntimeError("boom")
    _assert_restored(before)


def test_self_time_excludes_children():
    log = tracing.SpanLog()
    outer, inner = log.intern("a.outer"), log.intern("b.inner")
    log.verdict = 0
    o = log.open(outer)
    i = log.open(inner)
    log.close(i)
    log.close(o)
    total = log.end[o] - log.start[o]
    child = log.end[i] - log.start[i]
    assert log.self_s("a.outer") == pytest.approx(total - child)
    assert log.parent[i] == o and log.parent[o] == -1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert measure.tail(samples) == (90.0, 90)
    assert measure.tail(samples[:10]) == (5.5, 50)


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_one_tiny_verdict_per_workload_runs_end_to_end(name, tmp_path):
    out = hygiene.run_isolated(
        [sys.executable, str(HERE / "measure.py"), "--workload", name,
         "--seconds", "0", "--tiny"],
        120, workdir=str(tmp_path),
    )
    result = json.loads(out.splitlines()[-1])
    assert result["attempted"] == 1 and result["failed"] == 0
    assert result["metrics"]["verdict_s_p50"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phil-reduce",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
