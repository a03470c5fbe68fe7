"""`repro bench` harness tests (the JSON contract and the soundness gate)."""

import json

import pytest

from repro.bench import (
    COMPATIBLE_SCHEMAS,
    SCHEMA_VERSION,
    SMOKE_PROGRAMS,
    DivergenceError,
    _Baseline,
    _check_equivalence,
    diff_reports,
    format_summary,
    load_report,
    parallel_combos,
    policy_combos,
    run_bench,
    run_serve_load,
    upgrade_document,
    write_report,
)
from repro.explore import explore
from repro.programs.corpus import CORPUS
from repro.util.errors import ReproError


def test_smoke_programs_exist_in_corpus():
    assert set(SMOKE_PROGRAMS) <= set(CORPUS)


def test_unknown_program_rejected():
    with pytest.raises(ReproError, match="unknown corpus"):
        run_bench(programs=["no_such_program"])


def test_single_program_document_shape():
    report = run_bench(programs=["fig2_shasha_snir"])
    doc = report.document
    assert doc["schema"] == SCHEMA_VERSION
    assert doc["metrics_schema"].startswith("repro.metrics/")
    assert doc["policy_grid"][0] == "full"
    assert len(doc["policy_grid"]) == len(policy_combos()) == 12
    entry = doc["programs"]["fig2_shasha_snir"]
    assert entry["baseline"] == "full"
    policies = entry["policies"]
    assert set(policies) == set(doc["policy_grid"])
    full = policies["full"]
    assert full["reduction_vs_full"] == 1.0
    assert full["configs"] > 0 and full["edges"] > 0
    for combo, p in policies.items():
        assert p["results_match_full"], combo
        assert not p["truncated"], combo
        assert p["wall_time_s"] >= 0
    # stubborn policies actually reduce this program
    assert policies["stubborn"]["configs"] < full["configs"]
    assert policies["stubborn"]["reduction_vs_full"] > 1.0
    assert policies["stubborn"]["metrics"]["stubborn_singleton_rate"] > 0


def test_totals_aggregate_and_summary(tmp_path):
    report = run_bench(programs=["fig2_shasha_snir", "mutex_counter"])
    doc = report.document
    per_combo = 0
    for combo in doc["policy_grid"]:
        tot = doc["totals"][combo]
        summed = sum(
            doc["programs"][n]["policies"][combo]["configs"]
            for n in doc["programs"]
        )
        assert tot["configs"] == summed
        per_combo += 1
    assert per_combo == 12

    out = tmp_path / "bench.json"
    write_report(report, str(out))
    loaded = json.loads(out.read_text())
    assert loaded["schema"] == SCHEMA_VERSION

    summary = format_summary(report)
    assert "full" in summary and "stubborn+coarsen+sleep" in summary
    assert "matched 'full'" in summary


def test_divergence_fails_loudly():
    r = explore(CORPUS["fig2_shasha_snir"](), "stubborn")
    good = _Baseline(
        stores=r.final_stores(),
        deadlocks=r.stats.num_deadlocks,
        faults=frozenset(r.fault_messages()),
    )
    _check_equivalence("fig2", "stubborn", r, good)  # no raise

    with pytest.raises(DivergenceError, match="result stores differ"):
        _check_equivalence(
            "fig2",
            "stubborn",
            r,
            _Baseline(stores=set(), deadlocks=0, faults=frozenset()),
        )
    with pytest.raises(DivergenceError, match="deadlock count"):
        _check_equivalence(
            "fig2",
            "stubborn",
            r,
            _Baseline(stores=good.stores, deadlocks=7, faults=good.faults),
        )
    with pytest.raises(DivergenceError, match="fault messages"):
        _check_equivalence(
            "fig2",
            "stubborn",
            r,
            _Baseline(
                stores=good.stores,
                deadlocks=good.deadlocks,
                faults=frozenset({"boom"}),
            ),
        )


def test_time_limit_marks_truncated_instead_of_failing():
    report = run_bench(programs=["fig2_shasha_snir"], time_limit_s=0.0)
    doc = report.document
    assert doc["truncated_runs"]  # every run hit the zero budget
    for p in doc["programs"]["fig2_shasha_snir"]["policies"].values():
        assert p["truncated"]
        assert not p["results_match_full"]
        assert p["truncation_reason"] == "time"


def test_entries_carry_resilience_fields():
    report = run_bench(programs=["fig2_shasha_snir"])
    doc = report.document
    assert doc["errors"] == {} and doc["watchdog_s"] is None
    for p in doc["programs"]["fig2_shasha_snir"]["policies"].values():
        assert p["truncation_reason"] is None
        assert p["peak_rss_bytes"] > 0  # Linux exposes RSS
        assert p["escalations"] == []


def test_load_report_reads_current_schema(tmp_path):
    report = run_bench(programs=["fig2_shasha_snir"])
    path = tmp_path / "bench.json"
    write_report(report, str(path))
    doc = load_report(str(path))
    assert COMPATIBLE_SCHEMAS == (SCHEMA_VERSION,)
    assert doc == json.loads(json.dumps(report.document))


def test_unknown_schema_rejected():
    for schema in ("repro.bench.explore/99", "repro.bench.explore/7"):
        with pytest.raises(ReproError, match="unsupported bench schema"):
            upgrade_document({"schema": schema})


# --------------------------------------------------------------------------
# /3: parallel grid, result digests, bench-diff
# --------------------------------------------------------------------------


def test_entries_carry_backend_fields():
    report = run_bench(programs=["mutex_counter"])
    doc = report.document
    assert doc["jobs"] == [] and doc["scaling"] == {}
    for p in doc["programs"]["mutex_counter"]["policies"].values():
        assert p["backend"] == "serial"
        assert p["jobs"] == 1
        assert p["shard_balance"] is None
        assert isinstance(p["result_digest"], str)


def test_jobs_extend_grid_with_parallel_twins():
    report = run_bench(programs=["mutex_counter"], jobs=[2])
    doc = report.document
    assert doc["jobs"] == [2]
    assert len(doc["policy_grid"]) == 12 + len(parallel_combos())
    policies = doc["programs"]["mutex_counter"]["policies"]
    par = policies["stubborn@j2"]
    ser = policies["stubborn"]
    assert par["backend"] == "parallel" and par["jobs"] == 2
    assert par["shard_balance"] >= 1.0
    assert (par["configs"], par["edges"]) == (ser["configs"], ser["edges"])
    assert par["result_digest"] == ser["result_digest"]
    assert doc["totals"]["stubborn@j2"]["configs"] == par["configs"]


def test_bad_jobs_rejected():
    with pytest.raises(ReproError, match="jobs"):
        run_bench(programs=["mutex_counter"], jobs=[0])


def test_result_digest_deterministic_across_runs():
    a = run_bench(programs=["fig2_shasha_snir"])
    b = run_bench(programs=["fig2_shasha_snir"])
    pa = a.document["programs"]["fig2_shasha_snir"]["policies"]
    pb = b.document["programs"]["fig2_shasha_snir"]["policies"]
    for combo in pa:
        assert pa[combo]["result_digest"] == pb[combo]["result_digest"]


def test_diff_reports_no_drift_on_identical_runs():
    a = upgrade_document(run_bench(programs=["mutex_counter"]).document)
    b = upgrade_document(run_bench(programs=["mutex_counter"]).document)
    assert diff_reports(a, b) == []


def test_diff_reports_flags_count_drift():
    a = upgrade_document(run_bench(programs=["mutex_counter"]).document)
    b = upgrade_document(run_bench(programs=["mutex_counter"]).document)
    b["programs"]["mutex_counter"]["policies"]["stubborn"]["configs"] += 1
    drift = diff_reports(a, b)
    assert any("mutex_counter/stubborn: configs" in line for line in drift)


def test_diff_reports_ignores_nondeterministic_fields():
    a = upgrade_document(run_bench(programs=["mutex_counter"]).document)
    b = upgrade_document(run_bench(programs=["mutex_counter"]).document)
    e = b["programs"]["mutex_counter"]["policies"]["stubborn"]
    e["wall_time_s"] = 9999.0
    e["peak_rss_bytes"] = 1
    e["metrics"] = {}
    assert diff_reports(a, b) == []


def test_diff_reports_compares_only_shared_entries():
    # a smoke-subset run against a wider baseline: only the overlap counts
    a = upgrade_document(run_bench(programs=["mutex_counter"]).document)
    b = upgrade_document(
        run_bench(programs=["mutex_counter", "deadlock_pair"], jobs=[2]).document
    )
    assert diff_reports(a, b) == []


def test_diff_reports_refuses_mismatched_budgets():
    a = upgrade_document(run_bench(programs=["mutex_counter"]).document)
    b = upgrade_document(
        run_bench(programs=["mutex_counter"], max_configs=17).document
    )
    drift = diff_reports(a, b)
    assert drift and "max_configs" in drift[0]


def test_diff_reports_empty_intersection_is_loud():
    a = upgrade_document(run_bench(programs=["mutex_counter"]).document)
    b = upgrade_document(run_bench(programs=["deadlock_pair"]).document)
    drift = diff_reports(a, b)
    assert drift and "no overlapping" in drift[0]


# --------------------------------------------------------------------------
# /5: the serve section
# --------------------------------------------------------------------------


def test_serve_section_null_unless_requested():
    report = run_bench(programs=["fig2_shasha_snir"])
    assert report.document["serve"] is None


def test_diff_reports_ignores_serve_section():
    a = upgrade_document(run_bench(programs=["mutex_counter"]).document)
    b = upgrade_document(run_bench(programs=["mutex_counter"]).document)
    a["serve"] = {"cold_wall_s": 1.0}
    b["serve"] = None
    assert diff_reports(a, b) == []


def test_run_serve_load_smoke():
    section = run_serve_load(smoke=True, max_configs=20_000)
    assert section["all_ok"]
    # warm replay is byte-identical and comes from the store
    assert section["digests_stable"]
    assert section["warm_store_hits"] > 0
    # identical in-flight cold submissions coalesce: one job per program
    assert section["jobs_completed"] == len(section["programs"])
    assert section["shed"] == 0
    assert section["cold_wall_s"] > 0 and section["warm_wall_s"] > 0


# --------------------------------------------------------------------------
# /8: the interconnect sub-dict
# --------------------------------------------------------------------------


def test_parallel_entries_carry_interconnect_section():
    doc = run_bench(programs=["mutex_counter"], jobs=[2]).document
    policies = doc["programs"]["mutex_counter"]["policies"]
    assert policies["stubborn"]["interconnect"] is None
    inter = policies["stubborn@j2"]["interconnect"]
    assert set(inter) == {
        "msgs",
        "msg_bytes",
        "cand_suppressed",
        "merge_overlap_s",
        "merge_tail_s",
    }
    assert inter["msg_bytes"] > 0
    assert inter["cand_suppressed"] >= 0


def test_diff_reports_ignores_interconnect_drift():
    a = upgrade_document(run_bench(programs=["mutex_counter"], jobs=[2]).document)
    b = upgrade_document(run_bench(programs=["mutex_counter"], jobs=[2]).document)
    a["programs"]["mutex_counter"]["policies"]["stubborn@j2"]["interconnect"] = {
        "msgs": 999,
        "msg_bytes": 10**9,
        "cand_suppressed": 0,
        "merge_overlap_s": 5.0,
        "merge_tail_s": 5.0,
    }
    assert diff_reports(a, b) == []
