"""The degradation ladder: budgets, escalation order, and the final
abstract rung.

The headline acceptance test: a synthetic blowup program (unbounded
counter growth) completes under the ladder with an explicit escalation
trail in the result's stats *and* in the metrics registry.
"""

from __future__ import annotations

import pytest

from repro.explore import explore
from repro.lang import parse_program
from repro.metrics import MetricsObserver
from repro.programs import paper
from repro.programs.philosophers import philosophers
from repro.resilience import (
    DEFAULT_LADDER,
    Budgets,
    Escalation,
    explore_resilient,
)

#: Unbounded interleaved counter growth: every concrete rung must blow
#: any finite budget; only the abstract fold terminates.
BLOWUP_SRC = """
var g = 0; var h = 0;
func main() {
    cobegin
    { while (true) { g = g + 1; } }
    { while (true) { h = h + 1; } }
}
"""


def test_default_ladder_shape():
    names = [r.name for r in DEFAULT_LADDER]
    assert names == [
        "full", "stubborn", "stubborn-proc+coarsen", "abstract-fold",
    ]
    assert DEFAULT_LADDER[-1].policy == "fold"


def test_escalation_describe():
    e = Escalation("full", "stubborn", "configs")
    assert e.describe() == "full->stubborn: configs"


def test_small_program_answers_at_full():
    rr = explore_resilient(paper.mutex_counter())
    assert rr.exact and rr.rung == "full"
    assert rr.escalations == [] and rr.trail == ()
    assert rr.result.stats.escalations == ()
    assert not rr.result.stats.truncated
    assert rr.describe() == "rung=full (no escalation)"
    # the answer is the same one plain exploration gives
    assert rr.result.final_stores() == explore(
        paper.mutex_counter(), "full"
    ).final_stores()


def test_mid_ladder_answer_records_the_trail():
    """Pick a config budget between stubborn's and full's state counts:
    full blows it, stubborn completes — an *exact* answer from rung 2,
    with the escalation recorded."""
    program = philosophers(3)
    full_n = explore(program, "full").stats.num_configs
    stub_n = explore(program, "stubborn").stats.num_configs
    assert stub_n < full_n
    budget = (stub_n + full_n) // 2

    rr = explore_resilient(
        philosophers(3), budgets=Budgets(max_configs=budget)
    )
    assert rr.exact and rr.rung == "stubborn"
    assert rr.trail == ("full->stubborn: configs",)
    assert rr.result.stats.escalations == rr.trail
    assert not rr.result.stats.truncated
    assert rr.result.final_stores() == explore(
        philosophers(3), "full"
    ).final_stores()


def test_blowup_falls_through_to_abstract_fold():
    """Acceptance: the synthetic blowup completes under the ladder with
    the full escalation trail in stats and metrics."""
    program = parse_program(BLOWUP_SRC)
    mo = MetricsObserver()
    rr = explore_resilient(
        program, budgets=Budgets(max_configs=60), observers=(mo,)
    )
    assert not rr.exact
    assert rr.rung == "abstract-fold"
    assert rr.trail == (
        "full->stubborn: configs",
        "stubborn->stubborn-proc+coarsen: configs",
        "stubborn-proc+coarsen->abstract-fold: configs",
    )
    # the deepest concrete attempt is returned, truthfully truncated
    assert rr.result.stats.truncated
    assert rr.result.stats.truncation_reason == "configs"
    assert rr.result.stats.escalations == rr.trail
    # the abstract rung terminated on the infinite-state program
    assert rr.fold is not None
    assert len(rr.fold.table) > 0
    # ... and the registry saw every hop
    assert mo.registry.value("resilience.escalations") == 3
    assert mo.registry.value("resilience.final_rung") == 3


def test_time_budget_reason():
    program = parse_program(BLOWUP_SRC)
    rr = explore_resilient(
        program, budgets=Budgets(time_limit_s=0.0, max_configs=10**9)
    )
    assert not rr.exact
    assert all("time" in t for t in rr.trail)


def test_memory_budget_reason():
    program = parse_program(BLOWUP_SRC)
    rr = explore_resilient(
        program, budgets=Budgets(max_rss_bytes=1, max_configs=10**9)
    )
    assert not rr.exact
    assert all("memory" in t for t in rr.trail)
    assert rr.result.stats.peak_rss_bytes > 1


def test_start_skips_expensive_rungs():
    rr = explore_resilient(paper.mutex_counter(), start="stubborn")
    assert rr.exact and rr.rung == "stubborn"
    assert rr.trail == ()


def test_unknown_start_rung_rejected():
    with pytest.raises(ValueError, match="unknown ladder rung"):
        explore_resilient(paper.mutex_counter(), start="quantum")


def test_ladder_without_fold_returns_deepest_attempt():
    """A ladder of concrete rungs only: when all blow the budget, the
    caller still gets the deepest truncated result, marked inexact."""
    program = parse_program(BLOWUP_SRC)
    rr = explore_resilient(
        program,
        budgets=Budgets(max_configs=40),
        ladder=DEFAULT_LADDER[:2],  # full, stubborn — no fold
    )
    assert not rr.exact
    assert rr.fold is None
    assert rr.rung == "stubborn"
    assert rr.trail == ("full->stubborn: configs",)
    assert rr.result.stats.truncated


def test_every_attached_registry_sees_the_ladder():
    """The ladder's own series (``resilience.*``, and ``fold.*`` from
    the abstract rung) reach every attached registry, like the rungs'
    exploration series."""
    a, b = MetricsObserver(), MetricsObserver()
    rr = explore_resilient(
        philosophers(3), budgets=Budgets(max_configs=30), observers=(a, b)
    )
    assert rr.fold is not None  # answered by the abstract rung
    snap = a.snapshot()
    for name in (
        "resilience.escalations", "resilience.final_rung",
        "fold.hits", "fold.misses",
    ):
        assert name in snap
    assert snap == b.snapshot()
