"""Traced mode: spans around the public entry points of each layer.

:class:`Tracing` wraps each layer's functions where their callers look
them up — every ``repro`` module attribute that *is* the original
function (``next_infos`` is imported by name into
``repro.explore.explorer``, so the wrapper goes there too), and the
class attribute for methods.  ``with Tracing(...)`` restores every
original on exit, even when an error is raised.

Spans are kept in memory (name, start, end, parent, verdict id) and
written out by :meth:`SpanLog.write`.  Self time — a span's duration
minus the time its direct children cover — is accumulated as spans
close.  Worker processes forked by the parallel backend inherit the
wrappers but their spans stay in the worker, so the parallel backend's
worker-side layers are reported from counters only.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
import time
from array import array
from collections import Counter

#: (span name, module, attribute): functions wrapped wherever a
#: ``repro`` module binds them.
FUNCTIONS = (
    ("lang.parse_program", "repro.lang", "parse_program"),
    ("accesses.access_analysis", "repro.analyses.accesses", "access_analysis"),
    ("coarsen.build_block", "repro.explore.coarsen", "build_block"),
    ("step.enabledness", "repro.semantics.step", "enabledness"),
    ("step.execute", "repro.semantics.step", "execute"),
    ("step.next_infos", "repro.semantics.step", "next_infos"),
    ("config.collect_garbage", "repro.semantics.config", "collect_garbage"),
    ("explorer.explore", "repro.explore.explorer", "explore"),
)

#: (span name, module, class, method): methods wrapped on their class.
METHODS = (
    ("algorithm1.select", "repro.explore.algorithm1", "AlgorithmOneSelector", "select"),
    ("memo.replay", "repro.explore.memo", "ExpandCache", "replay"),
    ("memo.fill", "repro.explore.memo", "ExpandCache", "fill"),
    ("memo.fill", "repro.explore.memo", "ExpandCache", "fill_disabled"),
    ("graph.add_config", "repro.explore.graph", "ConfigGraph", "add_config"),
    ("graph.add_edge", "repro.explore.graph", "ConfigGraph", "add_edge"),
)

#: modules imported before wrapping, so that every module binding a
#: wrapped function by name is patched (and restored)
_BINDERS = (
    "repro.lang",
    "repro.analyses.accesses",
    "repro.explore.explorer",
    "repro.explore.memo",
    "repro.explore.parallel",
    "repro.semantics.step",
)

#: verdict id of spans recorded outside any verdict (program set-up)
SETUP = -1


class SpanLog:
    """In-memory spans plus running self-time and call totals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.verdict_id = array("l")
        self.verdict = SETUP
        self._stack: list[int] = []
        self._child: list[float] = []
        #: name -> [self seconds, calls]
        self.totals: dict[str, list] = {}
        #: layer counters (name -> number), filled by the wrappers' hooks
        self.counts: dict[str, float] = {}

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.verdict_id.append(self.verdict)
        self.end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        now = time.perf_counter()
        self.end[idx] = now
        dur = now - self.start[idx]
        self._stack.pop()
        own = dur - self._child.pop()
        if self._child:
            self._child[-1] += dur
        name = self.names[self.name_id[idx]]
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0.0, 0]
        tot[0] += own
        tot[1] += 1

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0.0, 0))[0]

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0.0, 0))[1]

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fields = ["name", "start", "end", "parent", "verdict"]
            fh.write(json.dumps({"fields": fields}) + "\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f'["{names[self.name_id[i]]}",{self.start[i]:.9f},'
                    f"{self.end[i]:.9f},{self.parent[i]},{self.verdict_id[i]}]\n"
                )


def _wrap(log: SpanLog, name: str, fn, after=None):
    nid = log.intern(name)

    if after is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = log.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(idx)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = log.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                log.close(idx)
            after(args, out)
            return out

    return wrapper


def _hooks(log: SpanLog) -> dict:
    """Counters measured where the work happens, by span name."""
    count = log.count

    def parse(args, _out):
        count("lang.source_bytes", len(args[0]))

    def select(args, out):
        count("algorithm1.enabled", sum(1 for e in args[1] if e.enabled))
        count("algorithm1.chosen", len(out))

    def add_config(_args, out):
        count("graph.fresh", out[1])

    return {
        "lang.parse_program": parse,
        "algorithm1.select": select,
        "graph.add_config": add_config,
    }


class Tracing:
    """Context manager installing the layer wrappers around a
    :class:`SpanLog`; every original is restored on exit."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._undo: list[tuple[object, str, object]] = []
        #: (wrapper, original) pairs, for the sweep in :meth:`restore`
        self._wrappers: list[tuple[object, object]] = []

    def __enter__(self) -> "Tracing":
        hooks = _hooks(self.log)
        try:
            for modname in _BINDERS:
                importlib.import_module(modname)
            for name, modname, attr in FUNCTIONS:
                original = getattr(sys.modules[modname], attr)
                wrapper = _wrap(self.log, name, original, hooks.get(name))
                self._wrappers.append((wrapper, original))
                for mod in _repro_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
            for name, modname, clsname, attr in METHODS:
                cls = getattr(sys.modules[modname], clsname)
                original = vars(cls)[attr]
                self._set(cls, attr, _wrap(self.log, name, original, hooks.get(name)))
            self._wrap_probe()
        except BaseException:
            self.restore()
            raise
        return self

    def _wrap_probe(self) -> None:
        """``ExpandCache.probe``, counting hits, misses and invalidations
        from the cache's own counter."""
        from repro.explore.memo import ExpandCache

        log = self.log
        count = log.count
        nid = log.intern("memo.probe")
        original = ExpandCache.probe

        @functools.wraps(original)
        def probe(cache, config, proc):
            before = cache.invalidations
            idx = log.open(nid)
            try:
                entry = original(cache, config, proc)
            finally:
                log.close(idx)
            count("memo.hits" if entry is not None else "memo.misses")
            if cache.invalidations != before:
                count("memo.invalidations", cache.invalidations - before)
            return entry

        self._set(ExpandCache, "probe", probe)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        # a module imported while the wrappers were in place bound a
        # wrapper by name: put the original there too
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                for wrapper, original in self._wrappers:
                    if value is wrapper:
                        setattr(mod, key, original)

    def __exit__(self, *exc) -> None:
        self.restore()


def _repro_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def originals() -> dict[str, object]:
    """Identity snapshot of every attribute :class:`Tracing` may patch
    (tests compare it before and after a traced run)."""
    for modname in _BINDERS:
        importlib.import_module(modname)
    snap = {}
    for mod in _repro_modules():
        for key, value in vars(mod).items():
            if callable(value):
                snap[f"{mod.__name__}.{key}"] = value
    for _name, modname, clsname, attr in (
        *METHODS, (None, "repro.explore.memo", "ExpandCache", "probe")
    ):
        cls = getattr(sys.modules[modname], clsname)
        snap[f"{modname}.{clsname}.{attr}"] = vars(cls)[attr]
    return snap


# --------------------------------------------------------------------------
# the traced run
# --------------------------------------------------------------------------


class ParallelSpans:
    """Trace sink keeping the master's ``parallel.*`` span durations
    (the engine's own spans, recorded through the public tracer
    observer)."""

    NAMES = ("parallel.spawn", "parallel.run", "parallel.merge")

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(self.NAMES, 0.0)

    def emit(self, record: dict) -> None:
        name = record.get("name")
        if (
            record.get("kind") == "span"
            and record.get("shard") is None
            and name in self.seconds
        ):
            self.seconds[name] += record.get("wall_dur_us", 0) / 1e6

    def close(self) -> None:
        pass


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: ``ExploreStats`` fields summed over the parallel backend's verdicts
_PARALLEL_STATS = (
    "num_configs", "merge_overlap_s", "merge_tail_s", "msg_bytes",
    "cand_msgs", "cand_suppressed", "handoffs", "steals", "worker_restarts",
)


def measure(workload_name, seed, tiny, expected, untraced, seconds, out_dir):
    """Run the traced phase after the loop *untraced* ran untraced;
    returns the per-layer metrics and the traced loop (a new instance of
    the untraced loop's class)."""
    import workloads as W
    from repro.semantics.config import digest_stats
    from repro.trace.recorder import TraceRecorder
    from repro.trace.tracer import Tracer

    log = SpanLog()
    spans = ParallelSpans()
    acc: Counter = Counter()  # digest and parallel counters, all verdicts
    base = {}

    with Tracing(log):
        workload = W.make(workload_name)
        workload.prepare(seed, expected, tiny)  # traced construction
        loop = type(untraced)(workload, expected)

        def observers():
            log.verdict = loop.attempted
            base.update(digest_stats())
            if workload_name == "phil-parallel-j2":
                return (TraceRecorder(tracer=Tracer(spans)),)
            return ()

        def after(results):
            now = digest_stats()
            acc.update({k: now[k] - base[k] for k in now})
            for result in results:
                stats = result.stats
                if stats.backend == "parallel":
                    acc.update({k: getattr(stats, k) for k in _PARALLEL_STATS})
                    acc["balance_sum"] += stats.shard_balance or 0.0
                    acc["balance_n"] += stats.shard_balance is not None

        loop.run(seconds, observers, after)
        log.verdict = SETUP

    n = loop.attempted
    count = log.counts.get

    def own(name):
        return log.self_s(name) / n

    def calls(*names):
        return sum(log.calls(name) for name in names) / n

    # programs are built, and so parsed, before the first verdict too
    parse_s = log.self_s("lang.parse_program")
    parse_calls = log.calls("lang.parse_program")
    hits, misses = count("memo.hits", 0), count("memo.misses", 0)
    metrics = {
        "lang.parse_s": _ratio(parse_s, parse_calls),
        "lang.source_kb_per_s": _ratio(count("lang.source_bytes", 0) / 1024, parse_s),
        "accesses.analysis_s": own("accesses.access_analysis"),
        "accesses.calls": calls("accesses.access_analysis"),
        "algorithm1.select_s": own("algorithm1.select"),
        "algorithm1.select_calls": calls("algorithm1.select"),
        "algorithm1.chosen_per_enabled": _ratio(
            count("algorithm1.chosen", 0), count("algorithm1.enabled", 0)
        ),
        "memo.probe_s": own("memo.probe"),
        "memo.replay_s": own("memo.replay"),
        "memo.fill_s": own("memo.fill"),
        "memo.hit_ratio": _ratio(hits, hits + misses),
        "memo.invalidations": count("memo.invalidations", 0) / n,
        "coarsen.build_block_s": own("coarsen.build_block"),
        "coarsen.blocks": calls("coarsen.build_block"),
        "step.enabledness_s": own("step.enabledness"),
        "step.execute_s": own("step.execute"),
        "step.next_infos_s": own("step.next_infos"),
        "step.calls": calls("step.enabledness", "step.execute", "step.next_infos"),
        "config.collect_garbage_s": own("config.collect_garbage"),
        "config.digest_calls": (acc["config_composed"] + acc["config_cached"]) / n,
        "config.intern_hit_ratio": _ratio(
            acc["component_reused"],
            acc["component_reused"] + acc["component_new"],
        ),
        "graph.add_config_s": own("graph.add_config"),
        "graph.add_edge_s": own("graph.add_edge"),
        "graph.fresh_ratio": _ratio(
            count("graph.fresh", 0), log.calls("graph.add_config")
        ),
        "explorer.self_s": own("explorer.explore"),
        "parallel.spawn_s": spans.seconds["parallel.spawn"] / n,
        "parallel.run_s": spans.seconds["parallel.run"] / n,
        "parallel.merge_s": spans.seconds["parallel.merge"] / n,
        "parallel.merge_overlap_s": acc["merge_overlap_s"] / n,
        "parallel.merge_tail_s": acc["merge_tail_s"] / n,
        "parallel.msg_bytes_per_config": _ratio(acc["msg_bytes"], acc["num_configs"]),
        "parallel.cand_msgs": acc["cand_msgs"] / n,
        "parallel.cand_suppressed_ratio": _ratio(
            acc["cand_suppressed"], acc["handoffs"]
        ),
        "parallel.steals": acc["steals"] / n,
        "parallel.shard_balance": _ratio(acc["balance_sum"], acc["balance_n"]),
        "parallel.worker_restarts": acc["worker_restarts"] / n,
        "trace.overhead_ratio": (
            statistics.median(loop.wall) / statistics.median(untraced.wall)
        ),
        "trace.verdicts": float(n),
    }
    _report(log, loop, out_dir, workload_name)
    return metrics, loop


def _report(log: SpanLog, loop, out_dir, workload_name) -> None:
    """Print the self-time breakdown by layer and write the spans."""
    wall = sum(loop.wall)
    by_layer: dict[str, float] = {}
    for name, (own, _calls) in log.totals.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + own
    print(f"perfbench: self time by layer, {workload_name}, "
          f"{len(loop.wall)} traced verdicts, {wall:.3f} s:", file=sys.stderr)
    for layer, own in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"perfbench:   {layer:<12} {own:9.3f} s  {100 * own / wall:5.1f} %",
              file=sys.stderr)
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload_name}.jsonl.gz"
    log.write(path)
    print(f"perfbench: {len(log.start)} spans written to {path}", file=sys.stderr)
