"""The HTML run report: one self-contained file per run.

``repro report`` renders a trace (JSONL) plus an optional metrics dump
into a single HTML document with no external references — CSS inline,
no scripts, no fetches — so it can be attached to a CI run, mailed, or
diffed.  Sections:

- **outcome** — the ``explore.done`` event's graph statistics, the
  truncation events, and the witness events the CLI records;
- **escalation trail** — every ``resilience.escalation`` event, in
  order;
- **schedule generation** — class counts and coverage from ``repro
  schedules`` runs (the ``schedules.done`` event / ``schedules.*``
  metric series);
- **progress timeline** — sampled in-run telemetry frames (``repro
  explore --progress-out`` / the serve progress stream), showing how
  the frontier and the cache hit rate evolved over the run;
- **span timings** — per-name aggregates (count, total/mean/max
  wall-clock when recorded, total sequence extent otherwise);
- **events** — per-name counts with the most recent attributes of the
  noteworthy ones (evictions, truncations);
- **metrics** — the registry snapshot as one table per instrument
  type.
"""

from __future__ import annotations

import html

from repro.trace.tracer import SCHEMA_VERSION

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 60rem;
       color: #1a1a1a; background: #ffffff; line-height: 1.45; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #1a1a1a; padding-bottom: .3rem; }
h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: .5rem 0 1rem; width: 100%; }
th, td { border: 1px solid #c8c8c8; padding: .25rem .6rem; text-align: left;
         font-variant-numeric: tabular-nums; }
th { background: #f0f0f0; }
td.num { text-align: right; }
code { background: #f4f4f4; padding: 0 .25rem; }
p.meta { color: #555555; font-size: .85rem; }
"""


def _esc(value) -> str:
    return html.escape(str(value), quote=True)


def _row(cells, *, header=False, numeric=()) -> str:
    tag = "th" if header else "td"
    out = []
    for i, cell in enumerate(cells):
        cls = ' class="num"' if (not header and i in numeric) else ""
        out.append(f"<{tag}{cls}>{_esc(cell)}</{tag}>")
    return "<tr>" + "".join(out) + "</tr>"


def _table(headers, rows, numeric=()) -> str:
    body = [_row(headers, header=True)]
    body.extend(_row(r, numeric=numeric) for r in rows)
    return "<table>" + "".join(body) + "</table>"


def _fmt_us(us) -> str:
    return f"{us / 1000:.3f} ms"


def _span_aggregates(records) -> list[tuple]:
    agg: dict[str, dict] = {}
    for r in records:
        if r.get("kind") != "span":
            continue
        a = agg.setdefault(
            r["name"], {"count": 0, "wall": 0, "wall_max": 0, "seqext": 0,
                        "has_wall": False},
        )
        a["count"] += 1
        a["seqext"] += max(r.get("end_seq", r.get("seq", 0)) - r.get("seq", 0), 0)
        dur = r.get("wall_dur_us")
        if dur is not None:
            a["has_wall"] = True
            a["wall"] += dur
            a["wall_max"] = max(a["wall_max"], dur)
    rows = []
    for name in sorted(agg):
        a = agg[name]
        if a["has_wall"]:
            mean = a["wall"] / a["count"]
            rows.append(
                (name, a["count"], _fmt_us(a["wall"]), _fmt_us(mean),
                 _fmt_us(a["wall_max"]))
            )
        else:
            rows.append((name, a["count"], "-", "-", "-"))
    return rows


def _events_of(records, name: str) -> list[dict]:
    return [r for r in records if r.get("kind") == "event" and r.get("name") == name]


def _outcome_section(records) -> str:
    done = _events_of(records, "explore.done")
    parts = ["<h2>Outcome</h2>"]
    if done:
        args = done[-1].get("args", {})
        order = ("configs", "edges", "terminated", "deadlocks", "faults",
                 "truncated", "reason")
        rows = [(k, args.get(k)) for k in order if k in args]
        rows += sorted((k, v) for k, v in args.items() if k not in order)
        parts.append(_table(("statistic", "value"), rows, numeric=(1,)))
    else:
        parts.append("<p>No <code>explore.done</code> event in the trace "
                     "(truncated ring buffer, or the run never finished).</p>")
    for ev in _events_of(records, "explore.truncated"):
        parts.append(
            f"<p>Truncated: <code>{_esc(ev.get('args', {}).get('reason'))}"
            f"</code> at seq {_esc(ev.get('seq'))}.</p>"
        )
    return "".join(parts)


def _witness_section(records) -> str:
    found = _events_of(records, "witness.found")
    absent = _events_of(records, "witness.absent")
    if not found and not absent:
        return ""
    parts = ["<h2>Witness summary</h2>"]
    for ev in absent:
        parts.append(
            f"<p>No <code>{_esc(ev.get('args', {}).get('target'))}</code> "
            "is reachable.</p>"
        )
    for ev in found:
        args = ev.get("args", {})
        verified = ""
        if args.get("verified"):
            verified = (
                " Replay-verified: the canonical schedule reaches "
                f"configuration digest <code>{_esc(args.get('final_digest'))}"
                "</code> and the predicate holds there."
            )
        parts.append(
            f"<p>Shortest execution reaching a "
            f"<code>{_esc(args.get('target'))}</code>: "
            f"{_esc(args.get('length'))} steps.{verified}</p>"
        )
        steps = args.get("steps") or []
        if steps:
            parts.append(_table(
                ("#", "step"),
                [(i + 1, s) for i, s in enumerate(steps)],
            ))
    return "".join(parts)


def _schedules_section(records, metrics: dict | None) -> str:
    """Schedule generation: class counts and coverage accounting, from
    the ``schedules.done`` event (``repro schedules --trace-out``) or
    the ``schedules.*`` metric series — whichever the run recorded."""
    done = _events_of(records, "schedules.done")
    args: dict = dict(done[-1].get("args", {})) if done else {}
    if not args and metrics:
        for name in sorted(metrics):
            if name.startswith("schedules."):
                args[name.split(".", 1)[1]] = metrics[name].get("value")
    if not args:
        return ""
    order = (
        ("classes", "equivalence classes"),
        ("paths", "complete paths enumerated"),
        ("sample", "requested sample size"),
        ("seed", "sampling seed"),
        ("edges_covered", "graph edges covered"),
        ("edge_coverage", "edge coverage"),
        ("class_coverage", "class coverage"),
        ("cycles_skipped", "busy-wait cycles skipped"),
        ("replays", "schedules replay-verified"),
        ("replay_failures", "replay divergences"),
        ("truncated", "enumeration truncated"),
    )
    rows = []
    for key, label in order:
        if key not in args or args[key] is None:
            continue
        value = args[key]
        if isinstance(value, float):
            value = round(value, 4)
        rows.append((label, value))
    rows += sorted(
        (k, v) for k, v in args.items()
        if k not in {key for key, _ in order}
    )
    return "<h2>Schedule generation</h2>" + _table(
        ("statistic", "value"), rows, numeric=(1,)
    )


def _sample_rows(rows, limit: int = 40) -> list:
    """Evenly sample *rows* down to *limit*, always keeping the first
    and last entries so the timeline endpoints survive."""
    if len(rows) <= limit:
        return list(rows)
    step = (len(rows) - 1) / (limit - 1)
    picked = [rows[round(i * step)] for i in range(limit)]
    picked[-1] = rows[-1]
    return picked


def _progress_section(frames) -> str:
    """The live-telemetry timeline: one row per sampled progress frame
    (:mod:`repro.progress`), so a finished report still shows how the
    run *got* there — frontier growth, cache warm-up, ladder rungs."""
    frames = [f for f in frames if isinstance(f, dict)]
    if not frames:
        return ""
    rows = []
    for f in frames:
        hits = f.get("cache_hits")
        misses = f.get("cache_misses")
        rate = ""
        if hits is not None and misses is not None and hits + misses:
            rate = f"{hits / (hits + misses):.3f}"
        wall = f.get("wall_ms")
        rows.append((
            f.get("seq", ""),
            f.get("phase", ""),
            f.get("rung", ""),
            f.get("configs", ""),
            f.get("edges", ""),
            f.get("frontier", ""),
            rate,
            f"{wall / 1000:.2f} s" if isinstance(wall, (int, float)) else "",
        ))
    sampled = _sample_rows(rows)
    note = ""
    if len(sampled) < len(rows):
        note = (f"<p class=\"meta\">{len(rows)} frames recorded; "
                f"{len(sampled)} shown (evenly sampled).</p>")
    return (
        "<h2>Progress timeline</h2>" + note + _table(
            ("seq", "phase", "rung", "configs", "edges", "frontier",
             "hit rate", "elapsed"),
            sampled,
            numeric=(0, 3, 4, 5, 6, 7),
        )
    )


def _dropped_spans_warning(metrics: dict | None) -> str:
    if not metrics:
        return ""
    data = metrics.get("trace.dropped_spans")
    if not data:
        return ""
    dropped = data.get("value") or 0
    if not dropped:
        return ""
    return (
        f"<p><strong>Warning:</strong> the trace ring buffer overflowed — "
        f"{_esc(dropped)} records were dropped "
        f"(<code>trace.dropped_spans</code>).  Span counts and the event "
        "table below undercount the run; raise the ring capacity or use "
        "an NDJSON sink for a complete trace.</p>"
    )


def _escalation_section(records) -> str:
    escalations = _events_of(records, "resilience.escalation")
    answered = _events_of(records, "resilience.answered")
    if not escalations and not answered:
        return ""
    parts = ["<h2>Escalation trail</h2>"]
    if escalations:
        parts.append(_table(
            ("from rung", "to rung", "reason"),
            [
                (e["args"].get("src"), e["args"].get("dst"),
                 e["args"].get("reason"))
                for e in escalations
            ],
        ))
    for ev in answered:
        args = ev.get("args", {})
        exact = "exact" if args.get("exact") else "approximate"
        parts.append(
            f"<p>Answered by rung <code>{_esc(args.get('rung'))}</code> "
            f"({exact}).</p>"
        )
    return "".join(parts)


def _event_section(records) -> str:
    counts: dict[str, int] = {}
    for r in records:
        if r.get("kind") == "event":
            counts[r["name"]] = counts.get(r["name"], 0) + 1
    if not counts:
        return ""
    return "<h2>Events</h2>" + _table(
        ("event", "count"),
        sorted(counts.items()),
        numeric=(1,),
    )


def _cache_section(metrics: dict | None) -> str:
    """Incremental-engine health, pulled out of the raw metric tables:
    the memo-cache hit split and the digest reuse rate are the first
    things to look at when expansion throughput regresses."""
    if not metrics:
        return ""
    rows = []
    for name, label in (
        ("expand.cache_hit_rate", "expansion cache hit rate"),
        ("expand.cache_hits", "expansions answered from cache"),
        ("expand.replays", "cached successors replayed"),
        ("expand.cache_misses", "expansions computed fresh"),
        ("expand.invalidations", "footprint invalidations"),
        ("expand.cache_evictions", "cache evictions"),
        ("expand.cache_uncacheable", "uncacheable outcomes"),
        ("digest.incremental_rate", "digest component reuse rate"),
        ("digest.incremental", "component digests reused"),
        ("digest.component_new", "component digests computed"),
    ):
        data = metrics.get(name)
        if data is None:
            continue
        value = data.get("value")
        if isinstance(value, float):
            value = round(value, 4)
        rows.append((label, value))
    if not rows:
        return ""
    return "<h2>Incremental engine</h2>" + _table(
        ("series", "value"), rows, numeric=(1,)
    )


def _interconnect_section(metrics: dict | None) -> str:
    """The parallel backend's data plane: the bytes over the worker
    pipes, the batches the master sent, the configurations shipped in
    full, and how evenly the workers were loaded.  Absent on serial
    runs — the section keys on ``parallel.*`` series."""
    if not metrics or "parallel.msg_bytes" not in metrics:
        return ""
    rows = []
    for name, label in (
        ("parallel.msg_bytes", "interconnect bytes shipped"),
        ("parallel.batches", "batches sent to workers"),
        ("parallel.handoffs", "configurations shipped in full"),
        ("parallel.shard_balance", "worker load balance (max/mean)"),
    ):
        data = metrics.get(name)
        if data is None:
            continue
        value = data.get("value")
        if isinstance(value, float):
            value = round(value, 4)
        rows.append((label, value))
    return "<h2>Interconnect</h2>" + _table(
        ("series", "value"), rows, numeric=(1,)
    )


def _metrics_section(metrics: dict | None) -> str:
    if not metrics:
        return ("<h2>Metrics</h2><p>No metrics dump supplied "
                "(<code>repro explore --metrics-out</code>).</p>")
    by_type: dict[str, list] = {}
    for name in sorted(metrics):
        data = metrics[name]
        by_type.setdefault(data.get("type", "?"), []).append((name, data))
    parts = ["<h2>Metrics</h2>"]
    if "counter" in by_type:
        parts.append("<h3>Counters</h3>")
        parts.append(_table(
            ("name", "value"),
            [(n, d["value"]) for n, d in by_type["counter"]],
            numeric=(1,),
        ))
    if "gauge" in by_type:
        parts.append("<h3>Gauges</h3>")
        parts.append(_table(
            ("name", "value"),
            [(n, d["value"]) for n, d in by_type["gauge"]],
            numeric=(1,),
        ))
    if "histogram" in by_type:
        parts.append("<h3>Histograms</h3>")
        parts.append(_table(
            ("name", "count", "mean", "min", "max"),
            [
                (n, d["count"], round(d.get("mean", 0.0), 3),
                 d.get("min"), d.get("max"))
                for n, d in by_type["histogram"]
            ],
            numeric=(1, 2, 3, 4),
        ))
    if "timer" in by_type:
        parts.append("<h3>Timers</h3>")
        parts.append(_table(
            ("name", "count", "total s", "max s"),
            [
                (n, d["count"], round(d.get("total_s", 0.0), 6),
                 round(d.get("max_s", 0.0), 6))
                for n, d in by_type["timer"]
            ],
            numeric=(1, 2, 3),
        ))
    return "".join(parts)


def render_report(
    *,
    trace_records=None,
    metrics: dict | None = None,
    progress_frames=None,
    title: str = "repro run report",
) -> str:
    """Render the self-contained HTML run report.

    ``trace_records`` is a record sequence (e.g. from
    :func:`~repro.trace.sinks.read_trace`); ``metrics`` is a registry
    snapshot dict (``MetricsRegistry.snapshot()``);
    ``progress_frames`` is a frame sequence (e.g. from
    :func:`repro.progress.read_frames`).  Any may be omitted; the
    corresponding sections degrade to a note or disappear.
    """
    records = list(trace_records) if trace_records is not None else []
    spans = _span_aggregates(records)
    body = [
        f"<h1>{_esc(title)}</h1>",
        f'<p class="meta">trace schema <code>{_esc(SCHEMA_VERSION)}</code>'
        f" &middot; {len(records)} records &middot; "
        f"{sum(r[1] for r in spans)} spans</p>",
        _dropped_spans_warning(metrics),
        _outcome_section(records),
        _escalation_section(records),
        _witness_section(records),
        _schedules_section(records, metrics),
        _progress_section(progress_frames or []),
    ]
    if spans:
        body.append("<h2>Span timings</h2>")
        body.append(_table(
            ("span", "count", "total", "mean", "max"),
            spans,
            numeric=(1, 2, 3, 4),
        ))
    body.append(_event_section(records))
    body.append(_cache_section(metrics))
    body.append(_interconnect_section(metrics))
    body.append(_metrics_section(metrics))
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_STYLE}</style></head>\n"
        "<body>\n" + "\n".join(p for p in body if p) + "\n</body></html>\n"
    )
