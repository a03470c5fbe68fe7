"""Algorithm 1 (element-granularity stubborn sets) — direct unit tests
of the closure behaviour on hand-built configurations."""

from repro.analyses.accesses import access_analysis
from repro.explore import algorithm1
from repro.explore.algorithm1 import AlgorithmOneSelector, _static
from repro.explore.explorer import ExploreOptions, explore
from repro.explore.memo import expand
from repro.lang import parse_program
from repro.metrics import MetricsObserver
from repro.programs.philosophers import philosophers_source
from repro.semantics import initial_config, next_infos
from repro.semantics.step import StepOptions
from tests.explore.test_graph_order import graph_order_digest


def selector_for(prog):
    return AlgorithmOneSelector(prog, access_analysis(prog))


def expansions_at(prog, config):
    return expand(prog, config, access_analysis(prog), ExploreOptions())


def after_spawn(prog):
    config = initial_config(prog)
    ni = next_infos(prog, config, StepOptions())[0]
    return ni.succ


def test_spawn_is_singleton():
    prog = parse_program("var g = 0; func main() { cobegin { g = 1; } { g = 2; } }")
    sel = selector_for(prog)
    config = initial_config(prog)
    chosen = sel.select(expansions_at(prog, config))
    assert len(chosen) == 1  # the spawn commutes with nothing


def test_conflicting_writers_both_chosen():
    prog = parse_program("var g = 0; func main() { cobegin { a: g = 1; } { b: g = 2; } }")
    sel = selector_for(prog)
    config = after_spawn(prog)
    exps = expansions_at(prog, config)
    chosen = sel.select(exps)
    labels = {e.actions[0].label for e in chosen}
    assert labels == {"a", "b"}


def test_independent_writers_reduced_to_one():
    prog = parse_program(
        "var x = 0; var y = 0; func main() { cobegin { a: x = 1; } { b: y = 1; } }"
    )
    sel = selector_for(prog)
    config = after_spawn(prog)
    chosen = sel.select(expansions_at(prog, config))
    assert len(chosen) == 1


def test_future_conflict_pulls_process_in():
    # thread b's *future* (not next) action writes x: a set seeded from
    # a's read of x must pull b in (through the D1 control chain);
    # the selector then rightly prefers b1's independent singleton
    prog = parse_program(
        """
        var x = 0; var y = 0; var r = 0;
        func main() {
            cobegin { a: r = x; }
                    { b1: y = 5; b2: x = 1; }
        }
        """
    )
    sel = selector_for(prog)
    config = after_spawn(prog)
    exps = expansions_at(prog, config)
    chosen = sel.select(exps)
    assert {e.actions[0].label for e in chosen} == {"b1"}

    # inspect the closure of the 'a' seed directly
    by_pid = {e.pid: e for e in exps}
    universes = {e.pid: sel._universe(e.proc) for e in exps}
    cur = {e.pid: (e.proc.top.func, e.proc.top.pc) for e in exps}
    a_exp = next(e for e in exps if e.enabled and e.actions[0].label == "a")
    closure_chosen, _size = sel._closure(a_exp, by_pid, universes, cur)
    labels = {e.actions[0].label for e in closure_chosen}
    assert labels == {"a", "b1"}  # a's closure needs thread b expanded


def test_blocked_guard_pulls_writer():
    prog = parse_program(
        """
        var f = 0; var z = 0;
        func main() {
            cobegin { a: assume(f == 1); }
                    { b: f = 1; }
                    { c: z = 1; }
        }
        """
    )
    sel = selector_for(prog)
    config = after_spawn(prog)
    exps = expansions_at(prog, config)
    chosen = sel.select(exps)
    labels = {e.actions[0].label for e in chosen}
    # both {b} (whose conflict closure only adds the *disabled* waiter)
    # and {c} (fully independent) are valid stubborn singletons; the
    # blocked assume must never be expanded alone
    assert len(chosen) == 1
    assert labels <= {"b", "c"}


def test_stats_accumulate():
    prog = parse_program(
        "var g = 0; func main() { cobegin { g = 1; } { g = 2; } }"
    )
    r = explore(prog, "stubborn")
    st = r.stats.stubborn
    assert st.steps > 0
    assert st.chosen_total <= st.enabled_total


def test_selector_deterministic():
    prog = parse_program(
        "var x = 0; var y = 0; func main() { cobegin { x = 1; } { y = 1; } { x = 2; } }"
    )
    config = after_spawn(prog)
    a = selector_for(prog).select(expansions_at(prog, config))
    b = selector_for(prog).select(expansions_at(prog, config))
    assert [e.pid for e in a] == [e.pid for e in b]


def test_joining_parent_universe_excludes_branch_code():
    # regression: a joining parent's instruction universe must not
    # re-include its children's branch bodies — that fabricated
    # conflicts through the parent and wrecked locality (philosophers
    # went from ~2400 to ~290 reduced configs when this was fixed)
    prog = parse_program(
        """
        var x = 0; var y = 0;
        func main() {
            cobegin { a: x = 1; } { b: y = 1; }
            t: x = 2;
        }
        """
    )
    sel = selector_for(prog)
    config = after_spawn(prog)
    exps = expansions_at(prog, config)
    parent = next(e for e in exps if e.pid == (0,))
    uni = sel._universe(parent.proc)
    labels = {
        prog.label_of_pc.get(pt) for pt in uni
    }
    assert "t" in labels  # the join continuation IS in the universe
    assert "a" not in labels and "b" not in labels  # branch bodies are not
    # and the practical effect: independent branches expand singly
    chosen = sel.select(exps)
    assert len(chosen) == 1


def test_lock_contenders_both_in_set():
    prog = parse_program(
        "var l = 0; func main() { cobegin { a: acquire(l); } { b: acquire(l); } }"
    )
    sel = selector_for(prog)
    config = after_spawn(prog)
    chosen = sel.select(expansions_at(prog, config))
    labels = {e.actions[0].label for e in chosen}
    assert labels == {"a", "b"}  # acquires of one lock disable each other


# -- the per-exploration scan memo ---------------------------------------

#: graph_order_digest of philosophers(7) under stubborn+coarsen, as the
#: selector produced it before its scans were memoised
PHIL7_REDUCED_GRAPH = "61a92d9c15912dd2970fbdf5218587af"
#: ``matches`` calls per configuration on that run before the memo
PHIL7_UNMEMOISED_MATCHES_PER_CONFIG = 285.7


def test_scan_memo_scans_each_key_once(monkeypatch):
    calls = [0]
    real_matches = algorithm1.matches

    def counting_matches(static_set, loc):
        calls[0] += 1
        return real_matches(static_set, loc)

    d2_keys = []
    real_scan = AlgorithmOneSelector._scan_dependents

    def recording_scan(self, uni, reads, writes):
        d2_keys.append((_static(reads), _static(writes), uni.uid))
        return real_scan(self, uni, reads, writes)

    monkeypatch.setattr(algorithm1, "matches", counting_matches)
    monkeypatch.setattr(AlgorithmOneSelector, "_scan_dependents", recording_scan)
    mo = MetricsObserver()
    prog = parse_program(philosophers_source(7))
    result = explore(
        prog, options=ExploreOptions(policy="stubborn", coarsen=True),
        observers=(mo,),
    )

    assert graph_order_digest(result.graph) == PHIL7_REDUCED_GRAPH
    configs = result.stats.num_configs
    assert calls[0] / configs <= PHIL7_UNMEMOISED_MATCHES_PER_CONFIG / 10
    assert d2_keys and len(d2_keys) == len(set(d2_keys))
    snap = mo.snapshot()
    scans = snap["algorithm1.scans"]["value"]
    assert scans >= len(d2_keys)  # D1 guard scans count too
    assert snap["algorithm1.scan_hits"]["value"] > scans
