"""The ``repro bench`` sweep: corpus × policy grid → ``BENCH_*.json``.

Runs every bundled corpus program under the full policy grid
``{full, stubborn, stubborn-proc} × {±coarsen} × {±sleep}`` (12
combinations), with a :class:`~repro.metrics.MetricsObserver` attached,
and emits one schema-versioned JSON document holding, per program and
per combination: configuration/edge counts, reduction ratios against
the ``full`` baseline, wall-clock, and the key telemetry scalars.
With ``jobs=[2, 4]`` the grid grows parallel-backend columns
(``stubborn@j2`` …) that must reproduce their serial twin's graph
*exactly*, plus a ``scaling`` section timing philosophers(6..7)
serial-vs-parallel.

Two jobs in one:

1. **soundness gate** — while sweeping, every combination's result
   stores, deadlock count, and fault messages are compared against the
   ``full`` baseline; any divergence raises :class:`DivergenceError`
   (the CLI exits non-zero).  This is the paper's central reduction
   invariant checked end-to-end on every bench run.
2. **perf trajectory** — the JSON is the regression baseline future PRs
   diff against: :func:`diff_reports` (CLI ``repro bench-diff``)
   compares the deterministic per-entry fields of two documents and
   reports any drift.

Resilience: an optional per-program **watchdog** (``watchdog_s``) bounds
each program's sweep with a wall-clock alarm; a program that hangs (or
crashes the engine) is retried once, then *skipped with an error entry*
in the document — one pathological program no longer aborts the whole
sweep.  Soundness failures (:class:`DivergenceError`) still abort: a
broken reduction is a bug, not bad luck.

Determinism: everything except the ``wall_time_s`` / ``*_per_s`` /
``peak_rss_bytes`` fields is deterministic; diff tools should ignore
those.
"""

from __future__ import annotations

import hashlib
import json
import logging
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.explore import ExploreOptions, ExploreResult, explore
from repro.metrics import SCHEMA_VERSION as METRICS_SCHEMA_VERSION
from repro.metrics import MetricsObserver
from repro.util.errors import ReproError

LOG = logging.getLogger("repro.bench")

#: Version of the ``BENCH_explore.json`` document layout.  Bump on any
#: key rename or semantic change so trajectory tooling can refuse to
#: compare apples to oranges.
#:
#: ``/2`` added per-entry ``peak_rss_bytes``, ``escalations`` and
#: ``truncation_reason``, and the top-level ``errors`` / ``watchdog_s``
#: keys.  ``/3`` added per-entry ``backend`` / ``jobs`` /
#: ``shard_balance`` / ``result_digest``, the top-level ``jobs`` list
#: and the ``scaling`` section.  ``/4`` extends the parallel grid with
#: sleep-set combos (the work-stealing backend lifted the serial-only
#: restriction), always includes ``j1`` in scaling, and restructures
#: ``scaling`` as ``{cpus, policy, coarsen, programs}`` — ``cpus``
#: records the host's core count so trajectory tooling can tell a
#: genuine scaling regression from a one-core container, and each
#: parallel run reports ``steals``.  ``/5`` (this version) adds the
#: optional top-level ``serve`` section (:func:`run_serve_load` — the
#: analysis-service load bench; ``null`` when not run, and entirely
#: wall-clock, so :func:`diff_reports` ignores it).  ``/6`` (this
#: version) adds the optional top-level ``schedules`` section
#: (:func:`run_schedules_bench` — canonical equivalence-class counts
#: and edge-coverage of exhaustive vs seeded-sample schedule
#: generation on the philosophers family; ``null`` when not run, and
#: ignored by :func:`diff_reports` like ``serve``).  ``/7`` (this
#: version) adds the always-present top-level ``progress`` section
#: (:func:`run_progress_overhead` — the telemetry plane's cost:
#: ns-per-``due()`` tick, ns-per-frame, and attached-vs-unattached
#: exploration wall-clock; entirely wall-clock, so ignored by
#: :func:`diff_reports`).  ``/8`` (this version) adds the per-entry
#: ``interconnect`` sub-dict on parallel runs (and on the ``scaling``
#: section's ``jN`` runs): candidate message count, total message
#: bytes, source-suppressed candidates, and the canonical merge's
#: overlap/tail seconds — the parallel backend's data-plane cost.
#: ``null`` on serial entries; scheduling- and wall-clock-dependent,
#: so :func:`diff_reports` ignores it.
SCHEMA_VERSION = "repro.bench.explore/8"

#: Layouts :func:`load_report` reads.  Only the current one: every
#: checked-in document is ``/8``, so there is nothing to upgrade.
COMPATIBLE_SCHEMAS = (SCHEMA_VERSION,)

POLICIES = ("full", "stubborn", "stubborn-proc")

#: Fast, representative subset for CI smoke runs: one paper figure, one
#: synchronization idiom, one deadlock, one fault-free reducer-friendly
#: workload, one heap program, one scaling family member.
SMOKE_PROGRAMS = (
    "fig2_shasha_snir",
    "fig5_locality",
    "mutex_counter",
    "deadlock_pair",
    "example8_pointers",
    "philosophers_3",
)


class DivergenceError(ReproError):
    """A reduced policy produced different result configurations than
    full exploration — the soundness invariant is broken."""


class WatchdogAlarm(BaseException):
    """A program's sweep exceeded the per-program watchdog budget.

    Deliberately a :class:`BaseException` (like ``KeyboardInterrupt``):
    the exploration engine's resilience guards catch ``Exception`` to
    degrade gracefully, and the watchdog must pierce those guards —
    otherwise a hung program would swallow its own eviction notice and
    keep hanging.  ``run_bench`` converts it to an error entry; it never
    escapes this module.
    """


def policy_combos() -> list[tuple[str, bool, bool]]:
    """The 12-point serial grid, ``full`` (the baseline) first."""
    return [
        (policy, coarsen, sleep)
        for policy in POLICIES
        for coarsen in (False, True)
        for sleep in (False, True)
    ]


def parallel_combos() -> list[tuple[str, bool, bool]]:
    """The parallel-backend grid per jobs value: the same 12-point
    policy grid as the serial sweep.  Its ``+sleep`` combos run in the
    serial loop (see :func:`repro.explore.explore`), so they start no
    workers and record the requested ``backend``/``jobs``."""
    return policy_combos()


def result_digest(result: ExploreResult) -> str:
    """A deterministic fingerprint of the result-configuration set —
    the paper's observable.  Stable across backends, jobs counts,
    machines, and ``PYTHONHASHSEED``."""
    payload = repr(sorted(repr(s) for s in result.final_stores()))
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


@dataclass
class _Baseline:
    stores: set
    deadlocks: int
    faults: frozenset


@dataclass
class BenchReport:
    """In-memory form of the emitted JSON."""

    document: dict
    divergences: list[str] = field(default_factory=list)


def _combo_name(policy: str, coarsen: bool, sleep: bool) -> str:
    return ExploreOptions(policy=policy, coarsen=coarsen, sleep=sleep).describe()


def _ratio(full: int, reduced: int) -> float | None:
    return round(full / reduced, 4) if reduced else None


def _scalar_metrics(mo: MetricsObserver) -> dict:
    """Compact telemetry scalars worth tracking across PRs."""
    reg = mo.registry
    out: dict = {}
    hits = reg.counter("explore.intern.hits").value
    misses = reg.counter("explore.intern.misses").value
    if hits + misses:
        out["intern_hit_rate"] = round(hits / (hits + misses), 4)
    fd = reg.histogram("explore.frontier_depth")
    if fd.count:
        out["frontier_depth_max"] = fd.max
        out["frontier_depth_mean"] = round(fd.mean, 2)
    se = reg.histogram("stubborn.enabled")
    if se.count:
        out["stubborn_mean_enabled"] = round(se.mean, 3)
        out["stubborn_mean_chosen"] = round(
            reg.histogram("stubborn.chosen").mean, 3
        )
        out["stubborn_singleton_rate"] = round(
            reg.counter("stubborn.singleton_steps").value / se.count, 4
        )
        ci = reg.histogram("stubborn.closure_iterations")
        if ci.count:
            out["closure_iterations_mean"] = round(ci.mean, 2)
    bl = reg.histogram("coarsen.block_len")
    if bl.count:
        out["block_len_mean"] = round(bl.mean, 3)
        out["block_len_max"] = bl.max
    # incremental-engine health (schema-compatible additions: absent
    # when the memo cache / digest components saw no traffic)
    if "expand.cache_hit_rate" in reg:
        out["expand_cache_hit_rate"] = round(
            reg.value("expand.cache_hit_rate"), 4
        )
    if "expand.invalidations" in reg:
        out["expand_invalidations"] = reg.value("expand.invalidations")
    if "digest.incremental_rate" in reg:
        out["digest_incremental_rate"] = round(
            reg.value("digest.incremental_rate"), 4
        )
    out["expansions_per_s"] = round(
        reg.gauge("explore.expansions_per_s").value, 1
    )
    return out


def _check_equivalence(
    name: str, combo: str, result: ExploreResult, base: _Baseline
) -> None:
    problems = []
    if result.final_stores() != base.stores:
        problems.append(
            f"result stores differ ({len(result.final_stores())} vs "
            f"{len(base.stores)} baseline)"
        )
    if result.stats.num_deadlocks != base.deadlocks:
        problems.append(
            f"deadlock count {result.stats.num_deadlocks} != {base.deadlocks}"
        )
    if frozenset(result.fault_messages()) != base.faults:
        problems.append("fault messages differ")
    if problems:
        raise DivergenceError(
            f"policy {combo!r} diverges from 'full' on {name!r}: "
            + "; ".join(problems)
        )


@contextmanager
def _watchdog(seconds: float | None):
    """Bound the enclosed block with a wall-clock alarm.

    No-op when *seconds* is None, off the main thread, or on a platform
    without ``SIGALRM`` — the sweep then runs unguarded, exactly as
    before the watchdog existed.
    """
    if (
        seconds is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _alarm(signum, frame):
        raise WatchdogAlarm(f"watchdog fired after {seconds}s")

    previous = signal.signal(signal.SIGALRM, _alarm)
    # Repeating interval, not one-shot: a single SIGALRM delivery can be
    # lost to signal races under load, and a lost one-shot alarm would
    # let the guarded block run unbounded.  A repeating timer re-fires
    # until the finally below disarms it.
    signal.setitimer(signal.ITIMER_REAL, seconds, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _timed_explore(program, opts, observers=(), profiler=None):
    """One wall-clocked exploration, optionally under an accumulating
    :mod:`cProfile` profiler (``repro bench --profile``).  The profiler
    is enabled only around engine work, so the dumped pstats artifact
    shows the exploration hot path, not JSON assembly."""
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        result = explore(program, options=opts, observers=observers)
    finally:
        if profiler is not None:
            profiler.disable()
    return result, time.perf_counter() - t0


def _interconnect(s) -> dict | None:
    """The ``interconnect`` sub-dict of a parallel run: what the
    backend's data plane cost.  ``None`` on serial runs — serial
    exploration sends no messages and merges nothing."""
    if s.backend != "parallel":
        return None
    return {
        "msgs": s.batches,
        "msg_bytes": s.msg_bytes,
        "cand_suppressed": s.cand_suppressed,
        "merge_overlap_s": round(s.merge_overlap_s, 6),
        "merge_tail_s": round(s.merge_tail_s, 6),
    }


def _make_entry(
    result: ExploreResult, wall: float, mo: MetricsObserver, full_entry
) -> dict:
    opts, s = result.options, result.stats
    return {
        "policy": opts.policy,
        "coarsen": opts.coarsen,
        "sleep": opts.sleep,
        "backend": s.backend,
        "jobs": s.jobs,
        "shard_balance": (
            round(s.shard_balance, 4) if s.shard_balance is not None else None
        ),
        "configs": s.num_configs,
        "edges": s.num_edges,
        "expansions": s.expansions,
        "actions": s.actions_executed,
        "terminated": s.num_terminated,
        "deadlocks": s.num_deadlocks,
        "faults": s.num_faults,
        "truncated": s.truncated,
        "truncation_reason": s.truncation_reason,
        "peak_rss_bytes": s.peak_rss_bytes,
        "escalations": list(s.escalations),
        "wall_time_s": round(wall, 6),
        "result_digest": result_digest(result),
        "interconnect": _interconnect(s),
        "reduction_vs_full": (
            _ratio(full_entry["configs"], s.num_configs)
            if full_entry is not None
            else 1.0
        ),
        "edge_reduction_vs_full": (
            _ratio(full_entry["edges"], s.num_edges)
            if full_entry is not None
            else 1.0
        ),
        "results_match_full": not s.truncated,
        "metrics": _scalar_metrics(mo),
    }


def _sweep_program(
    name: str,
    make_program,
    combos: list[tuple[str, bool, bool]],
    *,
    max_configs: int,
    time_limit_s: float | None,
    jobs: tuple[int, ...] = (),
    progress,
    profiler=None,
) -> tuple[dict, list[str]]:
    """One program through the serial grid, then the parallel grid for
    each requested ``jobs`` value; returns (entries, truncated).

    Pure with respect to the report accumulators so a watchdog retry can
    simply rerun it.
    """
    program = make_program()
    entries: dict[str, dict] = {}
    truncated: list[str] = []
    baseline: _Baseline | None = None

    for policy, coarsen, sleep in combos:
        combo = _combo_name(policy, coarsen, sleep)
        opts = ExploreOptions(
            policy=policy,
            coarsen=coarsen,
            sleep=sleep,
            max_configs=max_configs,
            time_limit_s=time_limit_s,
        )
        mo = MetricsObserver()
        result, wall = _timed_explore(program, opts, (mo,), profiler)
        s = result.stats

        if combo == "full":
            baseline = _Baseline(
                stores=result.final_stores(),
                deadlocks=s.num_deadlocks,
                faults=frozenset(result.fault_messages()),
            )
        assert baseline is not None
        if s.truncated:
            # a truncated space has no complete result set to compare
            truncated.append(f"{name}/{combo}")
        else:
            _check_equivalence(name, combo, result, baseline)

        entry = _make_entry(result, wall, mo, entries.get("full"))
        entries[combo] = entry
        if progress is not None:
            progress(name, combo, entry)

    # the parallel grid: every entry is held to a *stricter* bar than
    # the serial policies — its graph must match the same serial combo
    # exactly (configs/edges), on top of the result-store invariant
    for j in jobs:
        for policy, coarsen, sleep in parallel_combos():
            opts = ExploreOptions(
                policy=policy,
                coarsen=coarsen,
                sleep=sleep,
                backend="parallel",
                jobs=j,
                max_configs=max_configs,
                time_limit_s=time_limit_s,
            )
            combo = opts.describe()
            mo = MetricsObserver()
            result, wall = _timed_explore(program, opts, (mo,), profiler)
            s = result.stats

            serial_twin = entries[_combo_name(policy, coarsen, sleep)]
            if s.truncated:
                truncated.append(f"{name}/{combo}")
            else:
                assert baseline is not None
                _check_equivalence(name, combo, result, baseline)
                if (
                    not serial_twin["truncated"]
                    and (s.num_configs, s.num_edges)
                    != (serial_twin["configs"], serial_twin["edges"])
                ):
                    raise DivergenceError(
                        f"parallel combo {combo!r} explored a different "
                        f"graph than its serial twin on {name!r}: "
                        f"{s.num_configs}/{s.num_edges} configs/edges vs "
                        f"{serial_twin['configs']}/{serial_twin['edges']}"
                    )

            entry = _make_entry(result, wall, mo, entries.get("full"))
            entries[combo] = entry
            if progress is not None:
                progress(name, combo, entry)

    return entries, truncated


def _scaling_sweep(
    jobs: tuple[int, ...], *, max_configs: int, profiler=None
) -> dict:
    """The ``scaling`` section: the philosophers family (too big for the
    corpus grid under ``full``) under ``stubborn+coarsen``, serial vs
    parallel at j1 plus every requested jobs value.  Wall-clock here is
    the headline jobs-vs-time table in EXPERIMENTS.md; configs/edges are
    the determinism check.  ``cpus`` records the host core count —
    speedups are only meaningful relative to it (a one-core container
    can never beat serial, however good the backend)."""
    import os

    from repro.programs.philosophers import philosophers

    scaling_jobs = tuple(dict.fromkeys((1,) + tuple(jobs)))
    section: dict = {
        "cpus": os.cpu_count(),
        "policy": "stubborn",
        "coarsen": True,
        "programs": {},
    }
    for n in (6, 7):
        program = philosophers(n)
        opts = ExploreOptions(
            policy="stubborn", coarsen=True, max_configs=max_configs
        )
        ser, serial_wall = _timed_explore(program, opts, (), profiler)
        runs = {
            "serial": {
                "configs": ser.stats.num_configs,
                "edges": ser.stats.num_edges,
                "wall_time_s": round(serial_wall, 6),
                "result_digest": result_digest(ser),
            }
        }
        for j in scaling_jobs:
            opts = ExploreOptions(
                policy="stubborn",
                coarsen=True,
                backend="parallel",
                jobs=j,
                max_configs=max_configs,
            )
            par, wall = _timed_explore(program, opts, (), profiler)
            if (par.stats.num_configs, par.stats.num_edges) != (
                ser.stats.num_configs,
                ser.stats.num_edges,
            ) or result_digest(par) != runs["serial"]["result_digest"]:
                raise DivergenceError(
                    f"parallel scaling run philosophers({n}) @j{j} "
                    f"diverges from serial"
                )
            runs[f"j{j}"] = {
                "configs": par.stats.num_configs,
                "edges": par.stats.num_edges,
                "wall_time_s": round(wall, 6),
                "result_digest": result_digest(par),
                "shard_balance": (
                    round(par.stats.shard_balance, 4)
                    if par.stats.shard_balance is not None
                    else None
                ),
                "steals": par.stats.steals,
                "interconnect": _interconnect(par.stats),
                "speedup_vs_serial": (
                    round(serial_wall / wall, 3) if wall else None
                ),
            }
        section["programs"][f"philosophers_{n}"] = runs
    return section


def run_bench(
    *,
    programs: list[str] | None = None,
    smoke: bool = False,
    max_configs: int = 200_000,
    time_limit_s: float | None = None,
    watchdog_s: float | None = None,
    jobs: list[int] | tuple[int, ...] = (),
    scaling: bool | None = None,
    serve_load: bool = False,
    schedules_bench: bool = False,
    corpus: dict | None = None,
    progress=None,
    profiler=None,
) -> BenchReport:
    """Sweep the corpus and build the benchmark document.

    Raises :class:`DivergenceError` on the first policy whose results
    differ from full exploration (soundness failure beats telemetry).

    ``watchdog_s`` bounds each program's sweep: on timeout (or any
    engine crash) the program is retried once, then recorded under
    ``errors`` and skipped.  ``corpus`` overrides the bundled program
    table (tests inject pathological programs this way).

    ``jobs`` extends the grid with the parallel backend at each given
    worker count; every parallel run must reproduce its serial twin's
    graph exactly.  ``scaling`` (default: only on non-smoke sweeps that
    request ``jobs``) adds the philosophers(6..7) jobs-vs-wallclock
    section.

    ``profiler`` (a :class:`cProfile.Profile`) accumulates a profile of
    every exploration cell; the CLI's ``--profile`` flag dumps it as a
    pstats artifact next to the JSON (see EXPERIMENTS.md, "The hot
    path").  Worker-process time of parallel cells is not captured —
    profile serial sweeps for hot-path analysis.
    """
    if corpus is None:
        from repro.programs.corpus import CORPUS as corpus  # noqa: N811

    if programs is None:
        programs = list(SMOKE_PROGRAMS) if smoke else sorted(corpus)
    unknown = [n for n in programs if n not in corpus]
    if unknown:
        raise ReproError(
            f"unknown corpus programs: {', '.join(unknown)}; "
            f"see 'repro corpus'"
        )
    jobs = tuple(dict.fromkeys(jobs))  # dedup, keep order
    if any(j < 1 for j in jobs):
        raise ReproError(f"jobs values must be >= 1, got {list(jobs)}")
    if scaling is None:
        scaling = bool(jobs) and not smoke

    combos = policy_combos()
    grid = [_combo_name(*c) for c in combos] + [
        ExploreOptions(
            policy=p, coarsen=c, sleep=s, backend="parallel", jobs=j
        ).describe()
        for j in jobs
        for p, c, s in parallel_combos()
    ]
    per_program: dict[str, dict] = {}
    errors: dict[str, str] = {}
    totals: dict[str, dict] = {
        combo: {"configs": 0, "edges": 0, "wall_time_s": 0.0} for combo in grid
    }
    truncated_runs: list[str] = []

    for name in programs:
        entries = None
        truncated: list[str] = []
        failure = ""
        for attempt in (1, 2):
            t0 = time.perf_counter()
            try:
                with _watchdog(watchdog_s):
                    entries, truncated = _sweep_program(
                        name,
                        corpus[name],
                        combos,
                        max_configs=max_configs,
                        time_limit_s=time_limit_s,
                        jobs=jobs,
                        progress=progress,
                        profiler=profiler,
                    )
                break
            except DivergenceError:
                raise  # soundness failure: abort the sweep, loudly
            except (WatchdogAlarm, Exception) as exc:
                failure = f"{type(exc).__name__}: {exc}"
                LOG.warning(
                    "bench program %r failed on attempt %d after %.2fs (%s)",
                    name, attempt, time.perf_counter() - t0, failure,
                )
        if entries is None:
            errors[name] = failure
            per_program[name] = {"error": failure, "attempts": 2}
            continue

        truncated_runs.extend(truncated)
        for combo, entry in entries.items():
            tot = totals[combo]
            tot["configs"] += entry["configs"]
            tot["edges"] += entry["edges"]
            tot["wall_time_s"] = round(
                tot["wall_time_s"] + entry["wall_time_s"], 6
            )
        per_program[name] = {"baseline": "full", "policies": entries}

    scaling_section = (
        _scaling_sweep(jobs, max_configs=max_configs, profiler=profiler)
        if scaling
        else {}
    )

    if truncated_runs:
        soundness = "truncated runs skipped equivalence check"
    elif errors:
        soundness = "errored programs skipped equivalence check"
    else:
        soundness = "all policies matched 'full' result configurations"
    document = {
        "schema": SCHEMA_VERSION,
        "metrics_schema": METRICS_SCHEMA_VERSION,
        "smoke": smoke,
        "max_configs": max_configs,
        "time_limit_s": time_limit_s,
        "watchdog_s": watchdog_s,
        "jobs": list(jobs),
        "policy_grid": grid,
        "programs": per_program,
        "totals": totals,
        "scaling": scaling_section,
        "truncated_runs": truncated_runs,
        "errors": errors,
        "soundness": soundness,
        "serve": run_serve_load(smoke=smoke) if serve_load else None,
        "schedules": (
            run_schedules_bench(smoke=smoke) if schedules_bench else None
        ),
        "progress": run_progress_overhead(),
    }
    return BenchReport(document=document)


def run_progress_overhead(*, iters: int = 50_000) -> dict:
    """The ``progress`` bench section: what the telemetry plane costs.

    Two microbenchmarks (ns per :meth:`~repro.progress.ProgressEmitter.due`
    tick on the quiet path, ns per emitted frame) plus an end-to-end
    comparison: the same exploration bare vs with an attached emitter
    whose interval never fires — the bounded-overhead contract the
    tentpole promises.  Entirely wall-clock; :func:`diff_reports`
    ignores it like the ``serve`` section.
    """
    from repro.programs.philosophers import philosophers
    from repro.progress import ProgressEmitter

    emitter = ProgressEmitter(interval_s=3600.0)
    t0 = time.perf_counter()
    for _ in range(iters):
        emitter.due()
    due_ns = (time.perf_counter() - t0) / iters * 1e9

    emitter = ProgressEmitter(every=1, record_wall=False)
    frames = max(iters // 10, 1)
    t0 = time.perf_counter()
    for i in range(frames):
        emitter.emit("bench", configs=i)
    emit_ns = (time.perf_counter() - t0) / frames * 1e9

    program = philosophers(3)
    opts = ExploreOptions(policy="stubborn", coarsen=True)
    _, bare_s = _timed_explore(program, opts)
    attached = ProgressEmitter(interval_s=3600.0)
    _, attached_s = _timed_explore(program, opts, (attached,))
    return {
        "due_ns_per_tick": round(due_ns, 1),
        "emit_ns_per_frame": round(emit_ns, 1),
        "explore_bare_s": round(bare_s, 6),
        "explore_attached_s": round(attached_s, 6),
        "attached_overhead_pct": (
            round((attached_s - bare_s) / bare_s * 100.0, 2)
            if bare_s else None
        ),
        # interval never fires: only the unconditional done frame lands
        "frames_emitted": attached.seq,
    }


def run_schedules_bench(*, smoke: bool = False) -> dict:
    """The ``schedules`` bench section: canonical equivalence-class
    counts and coverage accounting (:mod:`repro.schedules`) on the
    philosophers family under ``stubborn+coarsen`` with and without
    sleep sets, plus seeded-sample coverage at a few sizes.

    Everything except ``wall_time_s`` is deterministic (the sampler is
    seeded), but the section is optional and program sizes may change
    run to run, so :func:`diff_reports` ignores it wholesale — the
    replay differential in CI is the correctness gate, this section is
    the trajectory record.
    """
    from repro.programs.philosophers import philosophers
    from repro.schedules import generate, verify_set

    sizes = (3,) if smoke else (6, 7)
    sample_sizes = (8, 32)
    section: dict = {"policy": "stubborn", "coarsen": True, "programs": {}}
    for n in sizes:
        program = philosophers(n)
        runs: dict = {}
        for sleep in (False, True):
            opts = ExploreOptions(
                policy="stubborn", coarsen=True, sleep=sleep
            )
            result, _ = _timed_explore(program, opts)
            t0 = time.perf_counter()
            sset = generate(result)
            wall = time.perf_counter() - t0
            verify_set(result, sset)
            run = {
                "configs": result.stats.num_configs,
                "edges": sset.num_edges,
                "classes": sset.num_classes,
                "paths": sset.num_paths,
                "edge_coverage": round(sset.edge_coverage, 4),
                "cycles_skipped": sset.cycles_skipped,
                "wall_time_s": round(wall, 6),
                "samples": {},
            }
            for k in sample_sizes:
                sampled = generate(result, sample=k, seed=0)
                run["samples"][f"n{k}"] = {
                    "classes": sampled.num_classes,
                    "edge_coverage": round(sampled.edge_coverage, 4),
                }
            runs["stubborn+sleep" if sleep else "stubborn"] = run
        section["programs"][f"philosophers_{n}"] = runs
    return section


def run_serve_load(
    *,
    programs: tuple[str, ...] = ("philosophers_3", "mutex_counter",
                                 "fig2_shasha_snir"),
    clients: int = 6,
    smoke: bool = False,
    max_configs: int = 50_000,
) -> dict:
    """Load-bench the analysis service (the ``serve`` bench section).

    Starts a throwaway server on a unix socket, fires *clients*
    concurrent submissions over *programs* (so identical in-flight
    requests coalesce), then replays the same batch against the now-warm
    store.  Reports cold vs warm wall-clock plus the server's own
    counters.  Everything here is wall-clock-dependent except
    ``digests_stable`` (warm results must be byte-identical to cold) —
    :func:`diff_reports` ignores the section wholesale.
    """
    import asyncio
    import concurrent.futures
    import os
    import tempfile

    from repro.serve import ReproServer, ResultStore, ServeOptions, request

    if smoke:
        programs = programs[:2]
        clients = 4

    def batch(address, pool):
        reqs = [
            {
                "op": "submit",
                "program": {"kind": "corpus", "name": programs[i % len(programs)]},
                "options": {"policy": "stubborn", "coarsen": True,
                            "max_configs": max_configs},
            }
            for i in range(clients)
        ]
        t0 = time.perf_counter()
        out = list(pool.map(lambda r: request(address, r), reqs))
        return time.perf_counter() - t0, out

    async def drive(root):
        store = ResultStore(os.path.join(root, "store"))
        address = os.path.join(root, "serve.sock")
        server = ReproServer(
            store, ServeOptions(max_pending=clients + 2, max_active=2)
        )
        serving = asyncio.ensure_future(server.serve(address))
        loop = asyncio.get_running_loop()
        with concurrent.futures.ThreadPoolExecutor(clients) as pool:
            for _ in range(200):  # wait for the socket to bind
                if os.path.exists(address):
                    break
                await asyncio.sleep(0.01)
            cold_s, cold = await loop.run_in_executor(
                None, batch, address, pool
            )
            warm_s, warm = await loop.run_in_executor(
                None, batch, address, pool
            )
            await loop.run_in_executor(
                None, request, address, {"op": "shutdown"}
            )
        await serving
        digests = lambda rs: [r.get("result_digest") for r in rs]  # noqa: E731
        return {
            "programs": list(programs),
            "clients": clients,
            "cold_wall_s": round(cold_s, 6),
            "warm_wall_s": round(warm_s, 6),
            "all_ok": all(r.get("ok") for r in cold + warm),
            "digests_stable": digests(cold) == digests(warm),
            "warm_store_hits": store.hits,
            "coalesced": server.counters["serve.coalesced"],
            "shed": server.counters["serve.shed"],
            "jobs_completed": server.counters["serve.jobs_completed"],
        }

    with tempfile.TemporaryDirectory() as root:
        return asyncio.run(drive(root))


def write_report(report: BenchReport, out_path: str) -> None:
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report.document, fh, indent=2, sort_keys=False)
        fh.write("\n")


def upgrade_document(doc: dict) -> dict:
    """Check that *doc* has a schema this reader speaks and return it;
    any other schema raises :class:`ReproError`."""
    schema = doc.get("schema")
    if schema not in COMPATIBLE_SCHEMAS:
        raise ReproError(
            f"unsupported bench schema {schema!r}; "
            f"this reader speaks {', '.join(COMPATIBLE_SCHEMAS)}"
        )
    return doc


def load_report(path: str) -> dict:
    """Read a ``BENCH_*.json`` document, accepting any compatible
    schema (see :func:`upgrade_document`)."""
    with open(path, "r", encoding="utf-8") as fh:
        return upgrade_document(json.load(fh))


#: Per-entry fields that must be bit-identical run to run — everything
#: except wall-clock, RSS, and the derived telemetry scalars.
DETERMINISTIC_FIELDS = (
    "policy",
    "coarsen",
    "sleep",
    "backend",
    "jobs",
    "shard_balance",
    "configs",
    "edges",
    "expansions",
    "actions",
    "terminated",
    "deadlocks",
    "faults",
    "truncated",
    "truncation_reason",
    "escalations",
    "result_digest",
    "reduction_vs_full",
    "edge_reduction_vs_full",
    "results_match_full",
)


def diff_reports(new: dict, baseline: dict) -> list[str]:
    """Compare two bench documents over the intersection of
    their ``(program, combo)`` entries; return human-readable drift
    lines, empty when the deterministic fields all agree.

    Exploration is deterministic by contract, so any drift in counts or
    result digests between a fresh run and the checked-in baseline is a
    real behavior change, not noise.  Wall-clock, RSS, the telemetry
    scalars, the optional ``serve``/``schedules`` sections, the ``/8``
    ``interconnect`` sub-dicts (message counts and merge-overlap
    timings follow worker scheduling, not program semantics), and
    entries present on only one side (corpus growth, new jobs values)
    are ignored — :data:`DETERMINISTIC_FIELDS` is a whitelist, so new
    wall-clock fields stay ignored by construction.
    ``max_configs``/``time_limit_s`` must match — truncation points
    depend on them.
    """
    drift: list[str] = []
    for knob in ("max_configs", "time_limit_s"):
        if new.get(knob) != baseline.get(knob):
            drift.append(
                f"{knob} differs (new={new.get(knob)!r} "
                f"baseline={baseline.get(knob)!r}); runs not comparable"
            )
    if drift:
        return drift

    shared_programs = sorted(
        set(new.get("programs", {})) & set(baseline.get("programs", {}))
    )
    compared = 0
    for name in shared_programs:
        new_prog = new["programs"][name]
        base_prog = baseline["programs"][name]
        if "error" in new_prog or "error" in base_prog:
            continue
        shared_combos = sorted(
            set(new_prog["policies"]) & set(base_prog["policies"])
        )
        for combo in shared_combos:
            ne, be = new_prog["policies"][combo], base_prog["policies"][combo]
            for fieldname in DETERMINISTIC_FIELDS:
                nv, bv = ne.get(fieldname), be.get(fieldname)
                if nv != bv:
                    drift.append(
                        f"{name}/{combo}: {fieldname} {bv!r} -> {nv!r}"
                    )
            compared += 1
    if compared == 0:
        drift.append(
            "no overlapping (program, combo) entries; nothing compared"
        )
    return drift


def format_summary(report: BenchReport) -> str:
    """Human-readable trajectory table (per-combo totals)."""
    doc = report.document
    lines = [
        f"bench schema={doc['schema']} programs={len(doc['programs'])} "
        f"grid={len(doc['policy_grid'])} combos"
    ]
    full_total = doc["totals"]["full"]["configs"]
    header = f"{'combo':<28} {'configs':>9} {'edges':>9} {'vs full':>8} {'wall s':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for combo in doc["policy_grid"]:
        tot = doc["totals"][combo]
        ratio = full_total / tot["configs"] if tot["configs"] else 0.0
        lines.append(
            f"{combo:<28} {tot['configs']:>9} {tot['edges']:>9} "
            f"{ratio:>7.2f}x {tot['wall_time_s']:>8.3f}"
        )
    if doc["truncated_runs"]:
        lines.append(f"truncated (equivalence skipped): {doc['truncated_runs']}")
    scaling = doc.get("scaling", {})
    if scaling:
        lines.append(
            f"scaling grid: {scaling.get('policy', 'stubborn')}"
            f"{'+coarsen' if scaling.get('coarsen') else ''} "
            f"on {scaling.get('cpus')} cpus"
        )
    for name, runs in scaling.get("programs", {}).items():
        parts = []
        for run_name, run in runs.items():
            extra = (
                f" ({run['speedup_vs_serial']}x)"
                if run.get("speedup_vs_serial") is not None
                else ""
            )
            parts.append(f"{run_name}={run['wall_time_s']:.3f}s{extra}")
        lines.append(
            f"scaling {name}: configs={runs['serial']['configs']} "
            + " ".join(parts)
        )
    for name, message in doc.get("errors", {}).items():
        lines.append(f"ERROR {name}: {message}")
    lines.append(doc["soundness"])
    return "\n".join(lines)
