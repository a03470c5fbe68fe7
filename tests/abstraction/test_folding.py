"""Folding-driver tests (§6): Taylor states, coverage, widening."""

import pytest

from repro.absdomain import AbsValueDomain, FlatConstDomain, IntervalDomain
from repro.abstraction import (
    AbsOptions,
    alpha_config,
    concurrency_states,
    fold_explore,
    taylor_explore,
    taylor_key,
)
from repro.explore import explore
from repro.lang import parse_program
from repro.programs.paper import fig3_folding


def test_fig3_quotient_matches_abstract(analysis_result=None):
    prog = fig3_folding()
    concrete = explore(prog, "full")
    quotient = concurrency_states(concrete.graph)
    folded = taylor_explore(prog)
    assert len(quotient) < concrete.stats.num_configs  # folding merges
    assert folded.stats.num_states == len(quotient)


def test_taylor_covers_all_concrete_configs():
    prog = fig3_folding()
    concrete = explore(prog, "full")
    folded = taylor_explore(prog)
    for cfg in concrete.graph.configs:
        if cfg.fault is None:
            assert folded.covers_config(cfg)


def test_coverage_on_pointer_program(example8):
    concrete = explore(example8, "full")
    folded = taylor_explore(example8)
    for cfg in concrete.graph.configs:
        if cfg.fault is None:
            assert folded.covers_config(cfg)


def test_interval_terminates_on_unbounded_counter():
    prog = parse_program(
        "var g = 0; func main() { while (true) { g = g + 1; } }"
    )
    dom = AbsValueDomain(IntervalDomain())
    folded = taylor_explore(prog, dom)
    assert folded.stats.num_states < 20
    assert folded.stats.widenings > 0


def test_unbounded_counter_covered_by_interval():
    prog = parse_program(
        "var g = 0; func main() { while (true) { g = g + 1; } }"
    )
    from repro.explore import ExploreOptions

    dom = AbsValueDomain(IntervalDomain())
    folded = taylor_explore(prog, dom)
    concrete = explore(prog, options=ExploreOptions(policy="full", max_configs=60))
    for cfg in concrete.graph.configs:
        if cfg.fault is None:
            assert folded.covers_config(cfg)


def test_flat_domain_would_not_terminate_without_key_bound():
    # with the flat domain the counter's global goes to TOP after the
    # widening threshold — the table stays finite
    prog = parse_program(
        "var g = 0; func main() { while (true) { g = g + 1; } }"
    )
    folded = taylor_explore(prog)
    assert folded.stats.num_states < 20


def test_assert_warning_surfaces():
    prog = parse_program(
        "var g = 0; func main() { cobegin { g = 1; } { a1: assert(g == 0); } }"
    )
    folded = taylor_explore(prog)
    assert any("a1" in w for w in folded.warnings)


def test_no_warning_when_assert_safe():
    prog = parse_program("var g = 1; func main() { a1: assert(g == 1); }")
    folded = taylor_explore(prog)
    assert folded.warnings == []


def test_deref_warning():
    prog = parse_program("var p = 0; var r = 0; func main() { r = *p; }")
    folded = taylor_explore(prog)
    assert any("deref" in w for w in folded.warnings)


def test_alpha_config_roundtrip_shape(fig2):
    from repro.semantics import initial_config

    dom = AbsValueDomain(FlatConstDomain())
    acfg = alpha_config(dom, initial_config(fig2))
    assert len(acfg.aglobals) == 4
    assert len(acfg.procs) == 1


def test_terminal_states_reported(fig2):
    folded = taylor_explore(fig2)
    assert folded.terminal_states()


def test_max_states_guard():
    prog = parse_program(
        "var g = 0; func main() { while (true) { g = g + 1; } }"
    )
    dom = AbsValueDomain(IntervalDomain())
    with pytest.raises(RuntimeError):
        fold_explore(
            prog,
            AbsOptions(dom=dom),
            key_fn=taylor_key,
            max_states=1,
        )


def test_fold_metrics_hit_counts():
    from repro.metrics import MetricsRegistry

    prog = fig3_folding()
    reg = MetricsRegistry()
    res = fold_explore(
        prog,
        AbsOptions(dom=AbsValueDomain(FlatConstDomain())),
        key_fn=taylor_key,
        metrics=reg,
    )
    # every distinct key except the seeded initial one was a miss once
    assert reg.counter("fold.misses").value == res.stats.num_states - 1
    assert reg.counter("fold.hits").value > 0
    # constants over a bounded program: no widening needed
    assert "fold.widenings" not in reg


def test_fold_metrics_widenings_from_stats():
    from repro.metrics import MetricsRegistry

    prog = parse_program(
        "var g = 0; func main() { while (true) { g = g + 1; } }"
    )
    reg = MetricsRegistry()
    res = fold_explore(
        prog,
        AbsOptions(dom=AbsValueDomain(IntervalDomain())),
        key_fn=taylor_key,
        metrics=reg,
    )
    assert res.stats.widenings > 0
    assert reg.counter("fold.widenings").value == res.stats.widenings


def test_fold_metrics_default_off():
    prog = fig3_folding()
    res = fold_explore(
        prog, AbsOptions(dom=AbsValueDomain(FlatConstDomain())), key_fn=taylor_key
    )
    assert res.stats.num_states > 0  # metrics=None path unchanged
