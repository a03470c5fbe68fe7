"""Configuration structure tests: hashing, canonicity, GC."""

from repro.lang import parse_program
from repro.semantics import (
    Config,
    Frame,
    HeapObj,
    Pointer,
    Process,
    collect_garbage,
    initial_config,
)


def _mk(heap=(), globals_=(0,)):
    root = Process(pid=(0,), frames=(Frame(func="main", pc=0, locals=()),))
    return Config(procs=(root,), globals=tuple(globals_), heap=tuple(heap))


def test_equal_configs_hash_equal():
    a = _mk()
    b = _mk()
    assert a == b and hash(a) == hash(b)


def test_configs_differ_on_globals():
    assert _mk(globals_=(0,)) != _mk(globals_=(1,))


def test_configs_differ_on_fault():
    a = _mk()
    b = Config(procs=a.procs, globals=a.globals, heap=a.heap, fault="boom")
    assert a != b


def test_initial_config_shape():
    prog = parse_program("var g = 3; func main() { var t = 0; g = t; }")
    cfg = initial_config(prog)
    assert cfg.globals == (3,)
    assert cfg.procs[0].pid == (0,)
    assert cfg.procs[0].top.locals == (0,)


def test_fresh_oid_skips_used():
    heap = (HeapObj(oid=("s", 0), cells=(0,)), HeapObj(oid=("s", 2), cells=(0,)))
    cfg = _mk(heap=heap)
    assert cfg.fresh_oid("s") == ("s", 1)
    assert cfg.fresh_oid("other") == ("other", 0)


def test_gc_keeps_reachable_from_global():
    obj = HeapObj(oid=("s", 0), cells=(5,))
    cfg = _mk(heap=(obj,), globals_=(Pointer(("s", 0), 0),))
    assert collect_garbage(cfg).heap == (obj,)


def test_gc_drops_unreachable():
    obj = HeapObj(oid=("s", 0), cells=(5,))
    cfg = _mk(heap=(obj,), globals_=(0,))
    assert collect_garbage(cfg).heap == ()


def test_gc_follows_pointer_chains():
    a = HeapObj(oid=("a", 0), cells=(Pointer(("b", 0), 0),))
    b = HeapObj(oid=("b", 0), cells=(7,))
    cfg = _mk(heap=(a, b), globals_=(Pointer(("a", 0), 0),))
    assert len(collect_garbage(cfg).heap) == 2


def test_gc_keeps_locals_roots():
    obj = HeapObj(oid=("s", 0), cells=(1,))
    root = Process(
        pid=(0,),
        frames=(Frame(func="main", pc=0, locals=(Pointer(("s", 0), 0),)),),
    )
    cfg = Config(procs=(root,), globals=(0,), heap=(obj,))
    assert collect_garbage(cfg).heap == (obj,)


def test_gc_returns_a_heapless_config_itself():
    cfg = _mk(globals_=(Pointer(("s", 0), 0),))
    assert cfg.heap == ()
    assert collect_garbage(cfg) is cfg


def test_result_store_excludes_process_state():
    # two configs with different pcs but same store have the same result
    p0 = Process(pid=(0,), frames=(Frame(func="main", pc=0, locals=()),))
    p1 = Process(pid=(0,), frames=(Frame(func="main", pc=1, locals=()),))
    a = Config(procs=(p0,), globals=(1,), heap=())
    b = Config(procs=(p1,), globals=(1,), heap=())
    assert a.result_store() == b.result_store()


def test_is_terminated():
    done = Process(pid=(0,), frames=(), status="done")
    cfg = Config(procs=(done,), globals=(), heap=())
    assert cfg.is_terminated and cfg.is_terminal
