"""Command-line interface.

::

    repro parse FILE              # check & disassemble
    repro run FILE [--scheduler S --seed N --trace]
    repro explore FILE [--policy P --coarsen --sleep]
    repro explore FILE --checkpoint PATH --checkpoint-every N
    repro explore FILE --resume PATH
    repro explore FILE --resilient [--time-limit S --max-rss-mb M]
    repro explore FILE --trace-out T.jsonl --metrics-out M.json
    repro explore FILE --progress-out P.ndjson    # live telemetry frames
    repro schedules FILE [--sample N --seed S --out SCHED.json]
    repro schedules FILE --replay SCHED.json
    repro report T.jsonl [--metrics M.json --out R.html --perfetto P.json]
    repro analyze FILE            # the full §5/§7 report
    repro fold FILE [--clans --domain D]
    repro corpus                  # list bundled programs
    repro demo NAME               # analyze a bundled program
    repro serve ADDRESS --store DIR      # crash-safe analysis service
    repro submit FILE ADDRESS [--policy P --deadline S --follow]
    repro submit ADDRESS --ping | --stats | --shutdown
    repro watch P.ndjson | repro watch ADDRESS    # live dashboard
    repro store gc --store DIR --max-bytes 256m --max-age 7d

``FILE`` may be a path or ``corpus:NAME`` for a bundled program.

Library errors (:class:`~repro.util.errors.ReproError`) exit with code
2 and a one-line message — front-end errors name their source location.
"""

from __future__ import annotations

import argparse
import sys

from repro.explore import ExploreOptions, explore
from repro.lang import parse_program
from repro.semantics import StepOptions, run_program
from repro.util.errors import ReproError, SourceError


def _load(spec: str):
    from repro.programs.corpus import CORPUS

    if spec.startswith("corpus:"):
        name = spec.split(":", 1)[1]
        if name not in CORPUS:
            raise SystemExit(
                f"unknown corpus program {name!r}; try: {', '.join(sorted(CORPUS))}"
            )
        return CORPUS[name]()
    with open(spec, "r", encoding="utf-8") as fh:
        return parse_program(fh.read())


def _explore_options(args, **budgets) -> ExploreOptions:
    """The exploration options behind :func:`_add_explore_options`'
    flags, plus any command-specific *budgets*."""
    if args.jobs < 1:
        raise ReproError(f"--jobs must be >= 1, got {args.jobs}")
    # --jobs N with N > 1 implies the parallel backend; --backend wins
    # when given explicitly
    backend = args.backend or ("parallel" if args.jobs > 1 else "serial")
    return ExploreOptions(
        policy=args.policy,
        coarsen=args.coarsen,
        sleep=args.sleep,
        backend=backend,
        jobs=args.jobs,
        max_configs=args.max_configs,
        **budgets,
    )


class _Telemetry:
    """The observers behind :func:`_add_telemetry_options`' flags:
    ``metrics`` (a MetricsObserver), ``tracer`` and ``progress`` are
    None when their flag is absent."""

    def __init__(self, args) -> None:
        observers: list = []
        self.metrics = None
        if args.metrics_out:
            from repro.metrics import MetricsObserver

            self.metrics = MetricsObserver()
            observers.append(self.metrics)
        self.tracer = None
        self._trace_sink = None
        if args.trace_out:
            from repro.trace import JsonlFileSink, TraceRecorder, Tracer

            try:
                self._trace_sink = JsonlFileSink(args.trace_out)
            except OSError as exc:
                raise ReproError(
                    f"cannot write trace {args.trace_out!r}: {exc}"
                )
            self.tracer = Tracer(self._trace_sink)
            observers.append(TraceRecorder(self.tracer))
        self.progress = None
        if args.progress_out:
            from repro.progress import NdjsonSink, ProgressEmitter

            try:
                sink = NdjsonSink(args.progress_out)
            except OSError as exc:
                raise ReproError(
                    f"cannot write progress frames {args.progress_out!r}: "
                    f"{exc}"
                )
            self.progress = ProgressEmitter(
                sink,
                interval_s=args.progress_interval,
                every=args.progress_every,
            )
            observers.append(self.progress)
        self.observers = tuple(observers)

    def close(self) -> None:
        if self._trace_sink is not None:
            self._trace_sink.close()
        if self.progress is not None:
            self.progress.close()

    def write_metrics(self, path: str) -> None:
        """Dump the metrics registry as JSON to *path* (if attached)."""
        if self.metrics is None:
            return
        import json

        from repro.metrics import SCHEMA_VERSION as METRICS_SCHEMA

        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "schema": METRICS_SCHEMA,
                        "metrics": self.metrics.registry.snapshot(),
                    },
                    fh,
                    indent=1,
                    sort_keys=True,
                )
                fh.write("\n")
        except OSError as exc:
            raise ReproError(f"cannot write metrics {path!r}: {exc}")


def _parse_bytes(text: str) -> int:
    """``500k`` / ``64m`` / ``2g`` → bytes (binary multiples)."""
    t = text.strip().lower()
    mult = 1
    if t and t[-1] in "kmg":
        mult = {"k": 2**10, "m": 2**20, "g": 2**30}[t[-1]]
        t = t[:-1]
    try:
        return int(float(t) * mult)
    except ValueError:
        raise ReproError(
            f"cannot parse size {text!r} (use e.g. 500k, 64m, 2g)"
        )


def _parse_age(text: str) -> float:
    """``90s`` / ``15m`` / ``6h`` / ``7d`` → seconds."""
    t = text.strip().lower()
    mult = 1.0
    if t and t[-1] in "smhd":
        mult = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}[t[-1]]
        t = t[:-1]
    try:
        return float(t) * mult
    except ValueError:
        raise ReproError(
            f"cannot parse age {text!r} (use e.g. 90s, 15m, 6h, 7d)"
        )


def _cmd_parse(args) -> int:
    prog = _load(args.file)
    print(prog.disassemble())
    return 0


def _cmd_run(args) -> int:
    prog = _load(args.file)
    result = run_program(
        prog,
        scheduler=args.scheduler,
        seed=args.seed,
        keep_trace=args.trace,
    )
    if args.trace:
        for a in result.trace:
            print(f"  pid={a.pid} {a.label} ({a.kind})")
    status = (
        "faulted: " + (result.config.fault or "")
        if result.faulted
        else ("deadlocked" if result.deadlocked else "terminated")
    )
    print(f"{status} after {result.steps} steps")
    print("globals:", dict(zip(prog.global_names, result.config.globals)))
    return 1 if result.faulted else 0


#: CLI policy name -> degradation-ladder rung to start at.
_POLICY_RUNG = {
    "full": "full",
    "stubborn": "stubborn",
    "stubborn-proc": "stubborn-proc+coarsen",
}


def _cmd_explore(args) -> int:
    prog = _load(args.file)
    max_rss = args.max_rss_mb * 2**20 if args.max_rss_mb else None
    opts = _explore_options(
        args,
        time_limit_s=args.time_limit,
        max_rss_bytes=max_rss,
        memo=not args.no_memo,
    )
    telemetry = _Telemetry(args)
    tracer = telemetry.tracer

    try:
        if args.resilient:
            from repro.resilience import Budgets, explore_resilient

            rr = explore_resilient(
                prog,
                budgets=Budgets(
                    max_configs=args.max_configs,
                    time_limit_s=args.time_limit,
                    max_rss_bytes=max_rss,
                ),
                start=_POLICY_RUNG[args.policy],
                backend=opts.backend,
                jobs=args.jobs,
                observers=telemetry.observers,
            )
            for line in rr.trail:
                print(f"escalated {line}")
            print(
                f"answered by rung {rr.rung}"
                + ("" if rr.exact else " (approximate)")
            )
            if rr.fold is not None:
                print(
                    f"abstract fold: states={rr.fold.stats.num_states} "
                    f"edges={rr.fold.stats.num_edges} "
                    f"widenings={rr.fold.stats.widenings}"
                )
            result = rr.result
        else:
            checkpointer = None
            if args.checkpoint:
                from repro.resilience import Checkpointer

                checkpointer = Checkpointer(
                    args.checkpoint, every=args.checkpoint_every
                )
            result = explore(
                prog,
                options=opts,
                checkpointer=checkpointer,
                resume_from=args.resume,
                observers=telemetry.observers,
            )
        s = result.stats
        truncated = (
            f" TRUNCATED({s.truncation_reason or 'budget'})"
            if s.truncated else ""
        )
        resumed = " resumed" if s.resumed else ""
        print(
            f"policy={result.options.describe()} configs={s.num_configs} "
            f"edges={s.num_edges} "
            f"terminated={s.num_terminated} deadlocks={s.num_deadlocks} "
            f"faults={s.num_faults}" + truncated + resumed
        )
        if s.stubborn is not None and s.stubborn.steps:
            print(
                f"stubborn: mean chosen/enabled = "
                f"{s.stubborn.mean_reduction:.3f}, "
                f"singleton steps = "
                f"{s.stubborn.singleton_steps}/{s.stubborn.steps}"
            )
        for name_vals in sorted(result.terminal_globals()):
            print("  outcome:", dict(zip(prog.global_names, name_vals)))
        if args.witness:
            from repro.analyses.witness import (
                deadlock_witness,
                fault_witness,
            )

            finder = (
                deadlock_witness
                if args.witness == "deadlock"
                else fault_witness
            )
            w = finder(result)
            if w is None:
                print(f"no {args.witness} reachable")
                if tracer is not None:
                    tracer.event("witness.absent", target=args.witness)
            else:
                # replay the witness as a canonical schedule and check
                # the predicate actually holds where it lands — the
                # trace event is a *checked* counterexample
                from repro.schedules import verified_witness_schedule

                schedule = verified_witness_schedule(result, w, args.witness)
                print(f"shortest execution reaching a {args.witness}:")
                print(w.describe())
                print(
                    "replay-verified: reaches configuration digest "
                    f"{schedule.final_digest:#018x}"
                )
                if tracer is not None:
                    tracer.event(
                        "witness.found",
                        target=args.witness,
                        length=len(w.steps),
                        steps=[
                            f"pid={pid} {label}" for pid, label in w.steps
                        ],
                        verified=True,
                        final_digest=f"{schedule.final_digest:#018x}",
                    )
    finally:
        telemetry.close()

    telemetry.write_metrics(args.metrics_out)
    return 0


def _cmd_schedules(args) -> int:
    import json

    prog = _load(args.file)

    from repro.schedules import (
        DEFAULT_MAX_PATHS,
        DEFAULT_MAX_SCHEDULES,
        dumps_document,
        generate,
        schedule_document,
        schedules_from_document,
        verify_schedule,
        verify_set,
        write_schedule_perfetto,
        write_schedules,
    )

    if args.replay:
        # replay mode: run a previously emitted scheduler script
        try:
            with open(args.replay, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except OSError as exc:
            raise ReproError(f"cannot read {args.replay!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"{args.replay}: not a schedule document ({exc.msg})"
            )
        schedules = schedules_from_document(document)
        for i, schedule in enumerate(schedules):
            verify_schedule(prog, schedule)
            print(
                f"schedule {i}: ok ({schedule.num_actions} actions, "
                f"{schedule.status}, digest "
                f"{schedule.final_digest:#018x})"
            )
        print(f"replayed {len(schedules)} schedules: all reached their "
              "recorded configuration digests")
        return 0

    opts = _explore_options(args)
    telemetry = _Telemetry(args)
    tracer, progress = telemetry.tracer, telemetry.progress

    try:
        result = explore(prog, options=opts, observers=telemetry.observers)
        registry = (
            telemetry.metrics.registry if telemetry.metrics is not None
            else None
        )
        sset = generate(
            result,
            sample=args.sample,
            seed=args.seed,
            max_paths=args.max_paths or DEFAULT_MAX_PATHS,
            max_schedules=args.max_schedules or DEFAULT_MAX_SCHEDULES,
            metrics=registry,
            progress=progress,
        )
        replayed = None
        if not args.no_verify:
            replayed = verify_set(result, sset, metrics=registry)
        mode = (
            f"sample={sset.sample} seed={sset.seed}"
            if sset.sample is not None else "exhaustive"
        )
        coverage = (
            f"edge_coverage={sset.edge_coverage:.3f}"
            + (
                f" class_coverage={sset.class_coverage:.3f}"
                if sset.class_coverage is not None
                else " class_coverage=unknown"
            )
        )
        print(
            f"policy={sset.policy} {mode} classes={sset.num_classes} "
            f"paths={sset.num_paths} {coverage}"
            + (" TRUNCATED" if sset.truncated else "")
        )
        if sset.cycles_skipped:
            print(f"  busy-wait cycles skipped: {sset.cycles_skipped}")
        if replayed is not None:
            print(
                f"replay-verified {replayed}/{sset.num_classes} schedules "
                "against the explorer's configuration digests"
            )
        if tracer is not None:
            tracer.event(
                "schedules.done",
                classes=sset.num_classes,
                paths=sset.num_paths,
                edges_covered=sset.edges_covered,
                edge_coverage=sset.edge_coverage,
                class_coverage=sset.class_coverage,
                cycles_skipped=sset.cycles_skipped,
                truncated=sset.truncated,
                sample=sset.sample,
                seed=sset.seed if sset.sample is not None else None,
                replays=replayed,
            )
    finally:
        telemetry.close()

    if args.out:
        try:
            write_schedules(args.out, sset)
        except OSError as exc:
            raise ReproError(f"cannot write {args.out!r}: {exc}")
        print(f"wrote {args.out} ({sset.num_classes} schedules)")
    if args.perfetto:
        try:
            write_schedule_perfetto(args.perfetto, sset)
        except OSError as exc:
            raise ReproError(
                f"cannot write Perfetto export {args.perfetto!r}: {exc}"
            )
        print(f"wrote {args.perfetto} (open at https://ui.perfetto.dev)")
    if args.print_schedules:
        document = schedule_document(sset)
        print(dumps_document(document), end="")
    telemetry.write_metrics(args.metrics_out)
    return 0


def _cmd_report(args) -> int:
    import json

    from repro.trace import read_trace, render_report, write_chrome_trace

    records = read_trace(args.trace)
    metrics = None
    if args.metrics:
        try:
            with open(args.metrics, "r", encoding="utf-8") as fh:
                dump = json.load(fh)
        except OSError as exc:
            raise ReproError(f"cannot read metrics {args.metrics!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"{args.metrics}: not a metrics dump ({exc.msg})"
            )
        metrics = dump.get("metrics") if isinstance(dump, dict) else None
        if metrics is None:
            raise ReproError(
                f"{args.metrics}: missing 'metrics' key (expected the JSON "
                "written by 'repro explore --metrics-out')"
            )
    progress_frames = None
    if args.progress:
        from repro.progress import read_frames

        progress_frames = read_frames(args.progress)
        if not progress_frames:
            raise ReproError(
                f"{args.progress}: no progress frames (expected the NDJSON "
                "written by 'repro explore --progress-out')"
            )
    title = args.title or f"repro run report: {args.trace}"
    html = render_report(
        trace_records=records, metrics=metrics,
        progress_frames=progress_frames, title=title,
    )
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(html)
    except OSError as exc:
        raise ReproError(f"cannot write report {args.out!r}: {exc}")
    print(f"wrote {args.out} ({len(records)} trace records)")
    if args.perfetto:
        try:
            write_chrome_trace(args.perfetto, records)
        except OSError as exc:
            raise ReproError(
                f"cannot write Perfetto export {args.perfetto!r}: {exc}"
            )
        print(f"wrote {args.perfetto} (open at https://ui.perfetto.dev)")
    return 0


def _cmd_analyze(args) -> int:
    from repro.analyses.report import full_report

    prog = _load(args.file)
    opts = ExploreOptions(
        policy="full",
        step=StepOptions(gc=False, track_procstrings=True),
        max_configs=args.max_configs,
    )
    result = explore(prog, options=opts)
    print(full_report(prog, result))
    return 0


def _cmd_fold(args) -> int:
    from repro.absdomain import (
        AbsValueDomain,
        FlatConstDomain,
        IntervalDomain,
        KSetDomain,
        ParityDomain,
        SignDomain,
    )
    from repro.abstraction import AbsOptions, fold_explore, taylor_key

    prog = _load(args.file)
    num = {
        "const": FlatConstDomain,
        "sign": SignDomain,
        "interval": IntervalDomain,
        "parity": ParityDomain,
        "kset": KSetDomain,
    }[args.domain]()
    res = fold_explore(
        prog, AbsOptions(dom=AbsValueDomain(num), clan_fold=args.clans),
        key_fn=taylor_key,
    )
    print(
        f"folded states={res.stats.num_states} edges={res.stats.num_edges} "
        f"widenings={res.stats.widenings} (domain={args.domain}, "
        f"clans={'on' if args.clans else 'off'})"
    )
    for w in res.warnings:
        print("  warning:", w)
    return 0


def _cmd_dot(args) -> int:
    prog = _load(args.file)
    opts = ExploreOptions(
        policy=args.policy, coarsen=args.coarsen, max_configs=args.max_nodes + 1
    )
    result = explore(prog, options=opts)
    print(result.graph.to_dot(max_nodes=args.max_nodes))
    return 0


def _cmd_optimize(args) -> int:
    from repro.analyses.optimize import optimize_program

    prog = _load(args.file)
    result = optimize_program(prog)
    print(result.describe())
    print()
    print(result.source)
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import format_summary, run_bench, write_report

    def progress(name, combo, entry):
        if args.verbose:
            print(
                f"  {name:<24} {combo:<24} configs={entry['configs']:<7} "
                f"wall={entry['wall_time_s']:.3f}s"
            )

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()

    report = run_bench(
        programs=args.programs or None,
        smoke=args.smoke,
        max_configs=args.max_configs,
        time_limit_s=args.time_limit,
        watchdog_s=args.watchdog,
        jobs=args.jobs or (),
        serve_load=args.serve_load,
        schedules_bench=args.schedules,
        progress=progress,
        profiler=profiler,
    )
    write_report(report, args.out)
    print(format_summary(report))
    print(f"wrote {args.out}")
    if profiler is not None:
        import os

        stem, _ = os.path.splitext(args.out)
        pstats_path = stem + ".pstats"
        try:
            profiler.dump_stats(pstats_path)
        except OSError as exc:
            raise ReproError(f"cannot write profile {pstats_path!r}: {exc}")
        print(
            f"wrote {pstats_path} (inspect with "
            f"'python -m pstats {pstats_path}')"
        )
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.metrics import MetricsRegistry
    from repro.serve import ReproServer, ResultStore, ServeOptions

    registry = MetricsRegistry()
    store = ResultStore(args.store, metrics=registry)
    server = ReproServer(
        store,
        ServeOptions(
            max_pending=args.max_pending,
            max_active=args.max_active,
            max_restarts=args.max_restarts,
            checkpoint_every=args.checkpoint_every,
            worker_watchdog_s=args.watchdog,
            heartbeat_s=args.heartbeat if args.heartbeat > 0 else None,
            progress_interval_s=args.progress_interval,
        ),
        metrics=registry,
    )
    if args.drill_worker_kill:
        # fault drill (CI's watch-smoke job): SIGKILL the first N
        # workers mid-run; shared=True spans the forked workers, so
        # each kill fires once and the restarted worker runs clean
        from repro.resilience import chaos

        inj = chaos.FaultInjector()
        inj.arm(
            "serve-worker-kill", times=args.drill_worker_kill, shared=True
        )
        chaos.install(inj)

    def ready() -> None:
        # parseable by scripts (and the CI smoke job) that must wait
        # for the socket before submitting
        print(f"serving on {args.address} (store: {args.store})", flush=True)

    asyncio.run(server.serve(args.address, ready=ready))
    print("server stopped")
    return 0


def _cmd_submit(args) -> int:
    import json

    from repro.serve import request

    ops = [op for op in ("ping", "stats", "shutdown") if getattr(args, op)]
    if len(ops) > 1:
        raise ReproError("pass at most one of --ping/--stats/--shutdown")
    if ops:
        # control ops take no program: `repro submit ADDR --ping` puts
        # the address in the FILE slot
        address = args.address or args.file
        if address is None:
            raise ReproError("missing server ADDRESS")
        response = request(address, {"op": ops[0]}, timeout=args.timeout)
        print(json.dumps(response, indent=1, sort_keys=True))
        return 0 if response.get("ok") else 2

    if args.file is None or args.address is None:
        raise ReproError("usage: repro submit FILE ADDRESS [options]")
    if args.file.startswith("corpus:"):
        program = {"kind": "corpus", "name": args.file.split(":", 1)[1]}
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                program = {"kind": "source", "text": fh.read()}
        except OSError as exc:
            raise ReproError(f"cannot read {args.file!r}: {exc}")
    options: dict = {
        "policy": args.policy,
        "coarsen": args.coarsen,
        "sleep": args.sleep,
        "max_configs": args.max_configs,
    }
    if args.no_memo:
        options["memo"] = False
    op = "schedules" if args.schedules else "submit"
    req: dict = {"op": op, "program": program, "options": options}
    if args.schedules:
        sched: dict = {}
        if args.sample is not None:
            sched["sample"] = args.sample
            sched["seed"] = args.seed
        req["schedules"] = sched
    if args.deadline is not None:
        req["deadline_s"] = args.deadline
    if args.follow:
        from repro.serve import request_stream
        from repro.progress import render_frame

        def on_frame(obj: dict) -> None:
            frame = obj.get("frame")
            if isinstance(frame, dict):
                print(f"progress {render_frame(frame)}", flush=True)

        response = request_stream(
            args.address, req, timeout=args.timeout, on_frame=on_frame
        )
    else:
        response = request(args.address, req, timeout=args.timeout)
    print(json.dumps(response, indent=1, sort_keys=True))
    if response.get("ok"):
        return 0
    # overload is transient back-off, not an error in the request
    return 3 if response.get("overloaded") else 2


def _cmd_watch(args) -> int:
    import os
    import time

    from repro.progress import (
        read_frames,
        render_file_dashboard,
        render_stats_dashboard,
    )

    file_mode = os.path.isfile(args.target)

    def render() -> str:
        if file_mode:
            return render_file_dashboard(
                read_frames(args.target), source=args.target
            )
        from repro.serve import request

        stats = request(
            args.target, {"op": "stats"}, timeout=args.timeout
        )
        if not stats.get("ok"):
            err = stats.get("error", {})
            raise ReproError(
                f"stats request failed: {err.get('message', stats)}"
            )
        return render_stats_dashboard(stats, source=args.target)

    if args.once:
        print(render())
        return 0
    clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
    try:
        while True:
            screen = render()
            print(f"{clear}{screen}", flush=True)
            if file_mode and "[complete]" in screen:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_store_gc(args) -> int:
    from repro.serve import ResultStore

    max_bytes = _parse_bytes(args.max_bytes) if args.max_bytes else None
    max_age = _parse_age(args.max_age) if args.max_age else None
    if max_bytes is None and max_age is None:
        raise ReproError("pass --max-bytes and/or --max-age")
    store = ResultStore(args.store)
    out = store.gc(max_bytes=max_bytes, max_age_s=max_age)
    print(
        f"evicted {out['evicted_entries']} entries + "
        f"{out['evicted_caches']} caches "
        f"({out['freed_bytes']} bytes freed); "
        f"kept {out['kept_items']} items ({out['kept_bytes']} bytes)"
    )
    return 0


def _cmd_bench_diff(args) -> int:
    from repro.bench import diff_reports, load_report

    new = load_report(args.new)
    baseline = load_report(args.baseline)
    drift = diff_reports(new, baseline)
    if drift:
        print(f"bench drift vs {args.baseline}:")
        for line in drift:
            print(f"  {line}")
        return 1
    shared = sorted(set(new["programs"]) & set(baseline["programs"]))
    print(
        f"no drift: {len(shared)} shared programs match {args.baseline} "
        "on all deterministic fields"
    )
    return 0


def _cmd_corpus(_args) -> int:
    from repro.programs.corpus import CORPUS

    for name in CORPUS:
        print(name)
    return 0


def _cmd_demo(args) -> int:
    args.file = f"corpus:{args.name}"
    args.max_configs = 200_000
    return _cmd_analyze(args)


def _add_explore_options(p) -> None:
    """The exploration flags ``explore`` and ``schedules`` share (read
    back by :func:`_explore_options`)."""
    p.add_argument("--policy", default="stubborn",
                   choices=["full", "stubborn", "stubborn-proc"])
    p.add_argument("--coarsen", action="store_true")
    p.add_argument("--sleep", action="store_true")
    p.add_argument("--backend", choices=["serial", "parallel"], default=None,
                   help="exploration driver (default: serial, or parallel "
                        "when --jobs > 1)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for the parallel backend")
    p.add_argument("--max-configs", type=int, default=1_000_000)


def _add_telemetry_options(p, *, trace_help: str, progress_help: str) -> None:
    """The telemetry flags ``explore`` and ``schedules`` share (read
    back by :class:`_Telemetry`)."""
    p.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="dump the run's metrics registry as JSON to PATH")
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help=trace_help)
    p.add_argument("--progress-out", metavar="PATH", default=None,
                   help=progress_help)
    p.add_argument("--progress-interval", type=float, default=1.0,
                   metavar="S", help="seconds between progress frames "
                        "(default: 1.0)")
    p.add_argument("--progress-every", type=int, default=None, metavar="N",
                   help="emit a frame every N driver steps instead of on "
                        "a wall-clock interval (deterministic cadence)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="Analyze shared-memory cobegin programs "
        "(Chow & Harrison, ICPP 1992 reproduction).",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("parse", help="check and disassemble a program")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("run", help="execute under a scheduler")
    p.add_argument("file")
    p.add_argument("--scheduler", default="roundrobin",
                   choices=["roundrobin", "random", "first"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("explore", help="build the configuration graph")
    p.add_argument("file")
    _add_explore_options(p)
    p.add_argument("--time-limit", type=float, default=None,
                   help="wall-clock budget in seconds (graceful truncation)")
    p.add_argument("--max-rss-mb", type=int, default=None,
                   help="peak-memory budget in MiB (graceful truncation)")
    p.add_argument("--checkpoint", metavar="PATH", default=None,
                   help="snapshot the search to PATH periodically")
    p.add_argument("--checkpoint-every", type=int, default=1000,
                   metavar="N", help="expansions between snapshots")
    p.add_argument("--resume", metavar="PATH", default=None,
                   help="continue from a checkpoint (same program & policy)")
    p.add_argument("--no-memo", action="store_true",
                   help="disable footprint memoization of per-process "
                        "expansions (the incremental engine; results are "
                        "identical either way — this is a perf ablation)")
    p.add_argument("--resilient", action="store_true",
                   help="degradation ladder: on budget exhaustion escalate "
                   "to cheaper sound policies, then abstract folding")
    p.add_argument("--witness", choices=["deadlock", "fault"], default=None,
                   help="print the shortest execution reaching the event")
    _add_telemetry_options(
        p,
        trace_help="stream a structured span/event trace (JSONL) to "
        "PATH; render it with 'repro report'",
        progress_help="stream live progress frames (NDJSON) to PATH; "
        "tail them with 'repro watch PATH'",
    )
    p.set_defaults(fn=_cmd_explore)

    p = sub.add_parser(
        "schedules",
        help="generate one replay-verified canonical schedule per "
        "equivalence class of the reduced graph (or a seeded sample), "
        "with coverage accounting",
    )
    p.add_argument("file")
    _add_explore_options(p)
    p.add_argument("--sample", type=int, default=None, metavar="N",
                   help="seeded sampling: stop after N distinct classes "
                        "(without-replacement walk; bit-deterministic "
                        "per --seed)")
    p.add_argument("--seed", type=int, default=0,
                   help="sampling seed (default: 0)")
    p.add_argument("--max-paths", type=int, default=None,
                   help="path-enumeration budget (explicit truncation "
                        "accounting beyond it)")
    p.add_argument("--max-schedules", type=int, default=None,
                   help="cap on emitted classes in exhaustive mode")
    p.add_argument("--no-verify", action="store_true",
                   help="skip replaying each schedule against the "
                        "explorer-recorded configuration digest")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the scheduler-script JSON document to PATH")
    p.add_argument("--perfetto", metavar="PATH", default=None,
                   help="export the schedules as Perfetto tracks")
    p.add_argument("--print", dest="print_schedules", action="store_true",
                   help="print the schedule document to stdout")
    p.add_argument("--replay", metavar="SCHED.json", default=None,
                   help="replay a previously emitted schedule document "
                        "against FILE instead of generating")
    _add_telemetry_options(
        p,
        trace_help="stream a structured trace (JSONL) to PATH; the "
        "schedules.done event feeds 'repro report'",
        progress_help="stream live progress frames (NDJSON) to PATH "
        "(exploration and enumeration both feed it)",
    )
    p.set_defaults(fn=_cmd_schedules)

    p = sub.add_parser(
        "report",
        help="render a self-contained HTML run report from a trace "
        "(and optional metrics dump) written by 'repro explore'",
    )
    p.add_argument("trace", help="JSONL trace from --trace-out")
    p.add_argument("--metrics", metavar="PATH", default=None,
                   help="metrics JSON from --metrics-out")
    p.add_argument("--progress", metavar="PATH", default=None,
                   help="progress frames NDJSON from --progress-out "
                        "(renders the progress-timeline section)")
    p.add_argument("--out", default="report.html",
                   help="output HTML path (default: report.html)")
    p.add_argument("--perfetto", metavar="PATH", default=None,
                   help="also export a Chrome trace-event JSON for "
                        "ui.perfetto.dev")
    p.add_argument("--title", default=None, help="report title")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("analyze", help="full side-effect/dependence/"
                       "lifetime/race report")
    p.add_argument("file")
    p.add_argument("--max-configs", type=int, default=200_000)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("fold", help="abstract exploration with folding")
    p.add_argument("file")
    p.add_argument("--domain", default="const",
                   choices=["const", "sign", "interval", "parity", "kset"])
    p.add_argument("--clans", action="store_true")
    p.set_defaults(fn=_cmd_fold)

    p = sub.add_parser("dot", help="emit the configuration graph as Graphviz DOT")
    p.add_argument("file")
    p.add_argument("--policy", default="full",
                   choices=["full", "stubborn", "stubborn-proc"])
    p.add_argument("--coarsen", action="store_true")
    p.add_argument("--max-nodes", type=int, default=500)
    p.set_defaults(fn=_cmd_dot)

    p = sub.add_parser(
        "optimize", help="interference-aware constant folding (source out)"
    )
    p.add_argument("file")
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser(
        "bench",
        help="sweep the corpus across all policy combinations, check "
        "reduction soundness, emit a BENCH_*.json telemetry baseline",
    )
    p.add_argument("--out", default="BENCH_explore.json",
                   help="output JSON path (default: BENCH_explore.json)")
    p.add_argument("--smoke", action="store_true",
                   help="fast representative subset (CI)")
    p.add_argument("--programs", nargs="*", default=None,
                   help="explicit corpus program names (default: all)")
    p.add_argument("--max-configs", type=int, default=200_000)
    p.add_argument("--time-limit", type=float, default=None,
                   help="per-exploration wall-clock budget in seconds")
    p.add_argument("--jobs", type=int, nargs="*", default=None, metavar="N",
                   help="extend the grid with the parallel backend at "
                        "these worker counts (e.g. --jobs 2 4)")
    p.add_argument("--watchdog", type=float, default=None, metavar="S",
                   help="per-program wall-clock watchdog: a hung program is "
                   "retried once, then skipped with an error entry")
    p.add_argument("--profile", action="store_true",
                   help="accumulate a cProfile of every exploration cell "
                        "and write <out stem>.pstats next to the JSON")
    p.add_argument("--serve-load", action="store_true",
                   help="also load-bench the analysis service (N "
                        "concurrent submissions, cold vs warm store) into "
                        "the document's 'serve' section")
    p.add_argument("--schedules", action="store_true",
                   help="also bench canonical schedule generation "
                        "(class counts + coverage on the philosophers "
                        "family) into the document's 'schedules' section")
    p.add_argument("--verbose", action="store_true",
                   help="print one line per program × combo")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser(
        "bench-diff",
        help="compare a bench run against a baseline; exit 1 on drift "
        "in any deterministic field",
    )
    p.add_argument("new", help="freshly generated BENCH_*.json")
    p.add_argument("baseline", help="checked-in baseline BENCH_*.json")
    p.set_defaults(fn=_cmd_bench_diff)

    p = sub.add_parser(
        "serve",
        help="run the crash-safe analysis service (durable result "
        "store, request coalescing, bounded admission, checkpointed "
        "jobs with crash recovery)",
    )
    p.add_argument("address",
                   help="unix-socket path, or host:port for TCP")
    p.add_argument("--store", required=True, metavar="DIR",
                   help="durable store directory (created if missing)")
    p.add_argument("--max-pending", type=int, default=16,
                   help="distinct in-flight jobs before shedding load")
    p.add_argument("--max-active", type=int, default=2,
                   help="jobs exploring concurrently")
    p.add_argument("--max-restarts", type=int, default=2,
                   help="worker relaunches per job after a crash")
    p.add_argument("--checkpoint-every", type=int, default=200, metavar="N",
                   help="expansions between a job's snapshots")
    p.add_argument("--watchdog", type=float, default=300.0, metavar="S",
                   help="kill a worker running longer than S seconds")
    p.add_argument("--heartbeat", type=float, default=2.0, metavar="S",
                   help="surface a worker silent longer than S seconds as "
                        "a 'progress.stalled' frame (0 disables)")
    p.add_argument("--progress-interval", type=float, default=0.5,
                   metavar="S",
                   help="seconds between the live frames each worker "
                        "ships (default: 0.5)")
    p.add_argument("--drill-worker-kill", type=int, default=0, metavar="N",
                   help="fault drill: SIGKILL the first N workers mid-run "
                        "to exercise stall detection and checkpoint "
                        "resume (CI)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a program to a running 'repro serve' instance "
        "(or --ping/--stats/--shutdown it)",
    )
    p.add_argument("file", nargs="?", default=None,
                   help="program path or corpus:NAME (ADDRESS for "
                        "control ops)")
    p.add_argument("address", nargs="?", default=None,
                   help="server unix-socket path or host:port")
    p.add_argument("--policy", default="stubborn",
                   choices=["full", "stubborn", "stubborn-proc"])
    p.add_argument("--coarsen", action="store_true")
    p.add_argument("--sleep", action="store_true")
    p.add_argument("--no-memo", action="store_true")
    p.add_argument("--max-configs", type=int, default=1_000_000)
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="server-side wall-clock budget for this request")
    p.add_argument("--timeout", type=float, default=600.0, metavar="S",
                   help="client-side wait for the response")
    p.add_argument("--schedules", action="store_true",
                   help="request a canonical schedule set instead of a "
                        "plain analysis (cached by program+options+"
                        "generation key)")
    p.add_argument("--sample", type=int, default=None, metavar="N",
                   help="with --schedules: seeded random sample of N "
                        "classes instead of exhaustive enumeration")
    p.add_argument("--seed", type=int, default=0,
                   help="with --schedules --sample: sampling seed")
    p.add_argument("--follow", action="store_true",
                   help="stream the job's live progress frames (one "
                        "'progress ...' line each) before the final "
                        "response; the result is identical either way")
    p.add_argument("--ping", action="store_true")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--shutdown", action="store_true")
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser(
        "watch",
        help="live dashboard: tail a --progress-out frames file, or "
        "poll a server's per-job live state",
    )
    p.add_argument("target",
                   help="frames NDJSON path, or a server address "
                        "(unix-socket path / host:port)")
    p.add_argument("--interval", type=float, default=1.0, metavar="S",
                   help="seconds between refreshes (default: 1.0)")
    p.add_argument("--once", action="store_true",
                   help="render one screen and exit (scripts, tests)")
    p.add_argument("--timeout", type=float, default=10.0, metavar="S",
                   help="per-poll stats timeout in server mode")
    p.set_defaults(fn=_cmd_watch)

    p = sub.add_parser(
        "store",
        help="maintain a serve result store",
    )
    store_sub = p.add_subparsers(dest="store_cmd", required=True)
    p = store_sub.add_parser(
        "gc",
        help="evict finished results and warm caches, least recently "
        "hit first (quarantined artifacts and pending jobs are never "
        "touched)",
    )
    p.add_argument("--store", required=True, metavar="DIR",
                   help="store directory (as given to 'repro serve')")
    p.add_argument("--max-bytes", default=None, metavar="N",
                   help="evict oldest items until the store fits "
                        "(suffixes: k, m, g)")
    p.add_argument("--max-age", default=None, metavar="AGE",
                   help="evict items idle longer than AGE "
                        "(suffixes: s, m, h, d)")
    p.set_defaults(fn=_cmd_store_gc)

    p = sub.add_parser("corpus", help="list bundled programs")
    p.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser("demo", help="analyze a bundled program")
    p.add_argument("name")
    p.set_defaults(fn=_cmd_demo)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        # One line, exit code 2 — never a Python traceback.  Front-end
        # errors lead with their source location.
        if isinstance(exc, SourceError) and exc.line is not None:
            loc = f"line {exc.line}"
            if exc.col is not None:
                loc += f", col {exc.col}"
            print(f"error: {loc}: {exc.message}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
