"""The degradation ladder: always terminate with *an* answer.

The paper's reductions exist because exhaustive interleaving blows up;
this module turns that insight into an availability policy.
:func:`explore_resilient` runs the requested policy under explicit
budgets and, when a budget is exhausted, escalates to the next-cheaper
sound analysis instead of returning a truncated answer:

    ``full`` → ``stubborn`` → ``stubborn-proc + coarsen`` →
    abstract folding (Taylor concurrency-state collapse)

Every rung preserves the paper's result-configuration invariant, so a
later rung is *coarser in cost model, not in soundness* — except the
final abstract rung, which over-approximates (it always terminates:
finitely many control skeletons + widening).  This mirrors the
Astrée-lineage contract (Miné: an industrial analyzer must always
terminate with a sound, possibly-coarser answer) and the budget-pressure
degradation in partial-order BMC (Alglave et al.).

The escalation trail is recorded three ways: in the returned
:class:`ResilientResult`, in ``ExploreStats.escalations`` of the final
result, and in the metrics registry (counter
``resilience.escalations``, gauge ``resilience.final_rung``) of every
attached :class:`~repro.metrics.MetricsObserver` — results always say
*which* rung produced them and why.  The rungs share the observers, so
each registry accumulates every rung's counts, while each rung's
``ExploreStats`` covers that rung only.

``explore_resilient`` never raises: even an engine bug mid-rung (see
:mod:`repro.resilience.chaos`) is recorded as an escalation reason and
the ladder moves on.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from repro.explore.explorer import (
    ExploreOptions,
    ExploreResult,
    ExploreStats,
    _publish,
    explore,
)
from repro.explore.graph import ConfigGraph
from repro.explore.observers import attached, attached_all
from repro.lang.program import Program
from repro.metrics.registry import MetricsRegistry
from repro.semantics.step import StepOptions

LOG = logging.getLogger("repro.resilience")


@dataclass(frozen=True)
class Budgets:
    """Explicit per-rung resource budgets."""

    max_configs: int = 1_000_000
    time_limit_s: float | None = None
    max_rss_bytes: int | None = None


@dataclass(frozen=True)
class LadderRung:
    """One rung: a named exploration policy (or the abstract fold)."""

    name: str
    policy: str  # an explore() policy, or "fold" for abstract folding
    coarsen: bool = False


#: The default escalation order, cheapest-last.
DEFAULT_LADDER: tuple[LadderRung, ...] = (
    LadderRung("full", "full"),
    LadderRung("stubborn", "stubborn"),
    LadderRung("stubborn-proc+coarsen", "stubborn-proc", coarsen=True),
    LadderRung("abstract-fold", "fold"),
)


@dataclass(frozen=True)
class Escalation:
    """One recorded rung-to-rung escalation."""

    from_rung: str
    to_rung: str
    reason: str

    def describe(self) -> str:
        return f"{self.from_rung}->{self.to_rung}: {self.reason}"


@dataclass
class ResilientResult:
    """What the ladder produced.

    ``result`` is always a concrete :class:`ExploreResult` — the rung
    that completed, or the deepest truncated attempt when every concrete
    rung blew its budget.  ``exact`` tells which: when False, ``fold``
    (if set) holds the abstract rung's sound over-approximation.
    """

    result: ExploreResult
    rung: str
    exact: bool
    escalations: list[Escalation] = field(default_factory=list)
    fold: object | None = None  # FoldResult of the abstract rung

    @property
    def trail(self) -> tuple[str, ...]:
        return tuple(e.describe() for e in self.escalations)

    def describe(self) -> str:
        if not self.escalations:
            return f"rung={self.rung} (no escalation)"
        return f"rung={self.rung} after " + "; ".join(self.trail)


def _empty_result(program: Program, opts: ExploreOptions) -> ExploreResult:
    """A truthful zero-result for the pathological case where every rung
    crashed before producing anything."""
    stats = ExploreStats(
        truncated=True, truncation_reason="internal-error", engine_faults=1
    )
    try:
        from repro.analyses.accesses import access_analysis

        access = access_analysis(program)
    except Exception:  # even static analysis failed — return bare
        access = None
    return ExploreResult(
        program=program,
        graph=ConfigGraph(),
        stats=stats,
        options=opts,
        access=access,
    )


def _run_fold(program: Program, metrics=None, tracer=None):
    """The final rung: abstract exploration folded by control skeleton
    (Taylor's concurrency states).  Returns (FoldResult | None, error)."""
    from repro.absdomain import AbsValueDomain, FlatConstDomain
    from repro.abstraction import AbsOptions, fold_explore, taylor_key

    opts = AbsOptions(dom=AbsValueDomain(FlatConstDomain()))
    return fold_explore(
        program, opts, key_fn=taylor_key, metrics=metrics, tracer=tracer
    )


def explore_resilient(
    program: Program,
    *,
    budgets: Budgets | None = None,
    ladder: tuple[LadderRung, ...] = DEFAULT_LADDER,
    start: str | None = None,
    observers: tuple = (),
    step: StepOptions | None = None,
    backend: str = "serial",
    jobs: int = 1,
) -> ResilientResult:
    """Explore under budgets, escalating down the ladder on exhaustion.

    ``start`` names a rung to begin at (skip the more expensive ones
    when the caller already knows ``full`` is hopeless).  Each rung gets
    the full budgets — total wall-clock is bounded by
    ``len(ladder) * time_limit_s``.

    ``backend="parallel"`` runs every concrete rung on the sharded
    multiprocessing driver with ``jobs`` workers — budgets compose (the
    parallel master enforces them at frontier-round granularity); the
    abstract fold rung is unaffected.

    Never raises; always returns a :class:`ResilientResult` whose stats
    truthfully record truncation and the escalation trail.
    """
    budgets = budgets if budgets is not None else Budgets()
    rungs = list(ladder)
    if start is not None:
        names = [r.name for r in rungs]
        if start not in names:
            raise ValueError(
                f"unknown ladder rung {start!r}; known: {', '.join(names)}"
            )
        rungs = rungs[names.index(start):]
    # the ladder's own series (``resilience.*``, and ``fold.*`` from the
    # abstract rung) count into one registry, published into every
    # attached one on return, as each rung's exploration publishes its
    registries = attached_all(observers, "registry")
    metrics = MetricsRegistry() if registries else None
    # escalations become trace events; the current rung rides every
    # progress frame, and rung transitions become ``ladder`` frames
    tracer = attached(observers, "tracer")
    progress = attached(observers, "progress")

    escalations: list[Escalation] = []
    last: ExploreResult | None = None
    last_opts: ExploreOptions | None = None
    final_rung = rungs[-1].name if rungs else "?"

    for i, rung in enumerate(rungs):
        if rung.policy == "fold":
            break
        opts = ExploreOptions(
            policy=rung.policy,
            coarsen=rung.coarsen,
            backend=backend,
            jobs=jobs,
            step=step if step is not None else StepOptions(),
            max_configs=budgets.max_configs,
            time_limit_s=budgets.time_limit_s,
            max_rss_bytes=budgets.max_rss_bytes,
        )
        last_opts = opts
        if progress is not None:
            progress.set_context(rung=rung.name)
            progress.emit("ladder", event="rung-start", rung=rung.name)
        try:
            result = explore(program, options=opts, observers=observers)
        except Exception as exc:  # engine bug: escalate, never propagate
            LOG.error("rung %r crashed (%s); escalating", rung.name, exc)
            result = None
            reason = f"internal-error: {exc}"
        else:
            if not result.stats.truncated:
                result.stats.escalations = tuple(
                    e.describe() for e in escalations
                )
                if metrics is not None:
                    metrics.set_gauge("resilience.final_rung", i)
                    _publish(metrics, registries)
                if tracer is not None:
                    tracer.event(
                        "resilience.answered", rung=rung.name, exact=True
                    )
                return ResilientResult(
                    result=result,
                    rung=rung.name,
                    exact=True,
                    escalations=escalations,
                )
            reason = result.stats.truncation_reason or "budget"
            last = result
        if i + 1 >= len(rungs):
            break
        esc = Escalation(rung.name, rungs[i + 1].name, reason)
        escalations.append(esc)
        if metrics is not None:
            metrics.inc("resilience.escalations")
        if tracer is not None:
            tracer.event(
                "resilience.escalation",
                src=esc.from_rung,
                dst=esc.to_rung,
                reason=esc.reason,
            )
        if progress is not None:
            progress.emit(
                "ladder",
                event="escalation",
                src=esc.from_rung,
                dst=esc.to_rung,
                reason=esc.reason,
            )
        # INFO, not WARNING: escalation is the ladder doing its job, and
        # the trail is already surfaced in stats/metrics/CLI output.
        LOG.info("escalating %s", esc.describe())

    # Every concrete rung exhausted its budget (or crashed): fall back to
    # the abstract fold if the ladder ends there.
    fold = None
    if rungs and rungs[-1].policy == "fold":
        if progress is not None:
            progress.set_context(rung=rungs[-1].name)
            progress.emit("ladder", event="rung-start", rung=rungs[-1].name)
        try:
            fold = _run_fold(program, metrics, tracer)
        except Exception as exc:  # even the fold failed — stay truthful
            LOG.error("abstract fold rung failed (%s)", exc)
            fold = None
        if fold is None and escalations:
            # the answer falls back to the deepest concrete attempt
            final_rung = escalations[-1].from_rung
    if last is None:
        last = _empty_result(
            program,
            last_opts
            if last_opts is not None
            else ExploreOptions(max_configs=budgets.max_configs),
        )
    last.stats.escalations = tuple(e.describe() for e in escalations)
    if metrics is not None:
        metrics.set_gauge("resilience.final_rung", len(rungs) - 1)
        _publish(metrics, registries)
    if tracer is not None:
        tracer.event("resilience.answered", rung=final_rung, exact=False)
    return ResilientResult(
        result=last,
        rung=final_rung,
        exact=False,
        escalations=escalations,
        fold=fold,
    )
