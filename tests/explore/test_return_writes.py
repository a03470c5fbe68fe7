"""Pending return writes: a call's ``IReturn`` stores into its caller's
destination (``r = f(...)``, ``*p = f(...)``), and the reduction must
see that write while the call is still running.

Every program here reaches ``full``'s final stores under every policy,
with and without coarsening and sleep sets, serially and at ``jobs=2``.
Algorithm 1 used to drop some of them: the write sits statically on the
``ICall``, which has left the process's universe once the call is
entered.
"""

from __future__ import annotations

import itertools

import pytest

from repro.analyses.accesses import access_analysis
from repro.explore import ExploreOptions, explore
from repro.explore.algorithm1 import AlgorithmOneSelector
from repro.lang import parse_program
from repro.semantics import initial_config, next_infos
from repro.semantics.config import Frame
from repro.semantics.step import StepOptions

PROGRAMS = {
    # full: 2 final stores; stubborn used to lose seen == 11
    "return_into_read_global": """
        var r = 0; var seen = 0; var t = 0;
        func inc(v) { return v + 1; }
        func main() { cobegin { r = inc(10); } { seen = r; } }
    """,
    # full: 4; stubborn (with or without coarsening) used to reach 2
    "callee_reads_written_global": """
        var r = 0; var seen = 0; var t = 0;
        func f() { var x = t; return x + 1; }
        func main() { cobegin { r = f(); } { t = 5; seen = r; } }
    """,
    # the same through a malloc'd cell: the write lands on a heap site
    "return_through_pointer": """
        var p = 0; var seen = 0; var t = 0;
        func f() { var x = t; return x + 1; }
        func main() {
            p = malloc(1);
            cobegin { *p = f(); } { t = 5; seen = *p; }
        }
    """,
    # full: 3; stubborn used to reach 2 under every combination
    "callee_writes_shared_global": """
        var r = 0; var seen = 0; var t = 0;
        func inc(v) { t = 1; return v + 1; }
        func main() { cobegin { r = inc(10); } { seen = r; t = 2; } }
    """,
}

FULL_FINAL_STORES = {
    "return_into_read_global": 2,
    "callee_reads_written_global": 4,
    "return_through_pointer": 4,
    "callee_writes_shared_global": 3,
}

COMBOS = [
    pytest.param(policy, coarsen, sleep, jobs, id=(
        f"{policy}{'+coarsen' if coarsen else ''}"
        f"{'+sleep' if sleep else ''}@j{jobs}"
    ))
    for policy, coarsen, sleep, jobs in itertools.product(
        ("full", "stubborn", "stubborn-proc"), (False, True), (False, True), (1, 2)
    )
]

_full_cache: dict[str, frozenset] = {}


def full_final_stores(name: str):
    if name not in _full_cache:
        result = explore(parse_program(PROGRAMS[name]), "full")
        _full_cache[name] = result.final_stores()
    return _full_cache[name]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_full_reference_counts(name):
    assert len(full_final_stores(name)) == FULL_FINAL_STORES[name]


@pytest.mark.parametrize("policy,coarsen,sleep,jobs", COMBOS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_policy_reaches_full_final_stores(name, policy, coarsen, sleep, jobs):
    opts = ExploreOptions(
        policy=policy,
        coarsen=coarsen,
        sleep=sleep,
        backend="parallel" if jobs > 1 else "serial",
        jobs=jobs,
    )
    result = explore(parse_program(PROGRAMS[name]), options=opts)
    assert result.final_stores() == full_final_stores(name)


def test_ret_write_maps_destinations_to_static_locations():
    prog = parse_program(PROGRAMS["return_into_read_global"])
    ret_write = access_analysis(prog).ret_write
    assert ret_write(Frame("f", 0, ())) is None
    assert ret_write(Frame("f", 0, (), ret_loc=("l", 0))) is None
    assert ret_write(Frame("f", 0, (), ret_loc=("g", 2))) == ("g", 2)
    assert ret_write(Frame("f", 0, (), ret_loc=("h", ("s1", 0), 0))) == ("site", "s1")


def _inside_call(prog):
    """The configuration after the spawn and the caller entering the
    call, with the other branch not yet moved."""
    opts = StepOptions()
    config = next_infos(prog, initial_config(prog), opts)[0].succ
    for ni in next_infos(prog, config, opts):
        pid = ni.proc.pid
        if ni.succ is not None and len(ni.succ.proc(pid).frames) == 2:
            return ni.succ, pid
    raise AssertionError("no process entered the call")


def test_universe_carries_the_pending_return_write():
    prog = parse_program(PROGRAMS["return_into_read_global"])
    access = access_analysis(prog)
    sel = AlgorithmOneSelector(prog, access)
    config, pid = _inside_call(prog)
    uni = sel._universe(config.proc(pid))
    r = ("g", prog.global_index("r"))
    writes = {(f, pc): w for f, pc, _reads, w in sel._model(uni)}
    returns = [
        ("inc", pc) for pc in access.returns_of("inc") if ("inc", pc) in uni
    ]
    assert returns
    # an IReturn's own static sets carry no write; the model adds r
    for f, pc in returns:
        assert r not in access.gen_at(f, pc).writes
        assert r in writes[(f, pc)]
    # the caller's ICall, which carries the write statically, is behind
    # its resumed pc and so outside the universe
    assert all(r not in w for (f, _pc), w in writes.items() if f != "inc")
