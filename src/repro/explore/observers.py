"""Observer hooks: analyses subscribe to exploration events.

The paper's client analyses (§5) are *derived from the explored state
space*; observers let them consume transitions while the space is built,
without a second pass and without growing configuration identity.
"""

from __future__ import annotations

from repro.explore.graph import ConfigGraph
from repro.semantics.config import Config
from repro.semantics.step import ActionInfo


def attached(observers, attr: str):
    """The *attr* attribute of the first observer exposing a non-None
    one, or None.

    Duck-typed so the engine need not import the telemetry packages:
    ``"registry"`` finds a :class:`repro.metrics.MetricsObserver`'s
    registry, ``"tracer"`` a :class:`repro.trace.TraceRecorder`'s
    tracer, ``"progress"`` a :class:`repro.progress.ProgressEmitter`.
    None means every instrumentation site is a single ``is not None``
    test.
    """
    for ob in observers:
        value = getattr(ob, attr, None)
        if value is not None:
            return value
    return None


def attached_all(observers, attr: str) -> list:
    """Every non-None *attr* among *observers*, in order: a run
    publishes its registry into each attached
    :class:`repro.metrics.MetricsObserver`, while deep instrumentation
    keys off the first (:func:`attached`)."""
    return [
        value for value in (getattr(ob, attr, None) for ob in observers)
        if value is not None
    ]


class Observer:
    """Base observer; all callbacks default to no-ops.

    Callbacks
    ---------
    ``on_config``: a configuration was interned (``fresh`` tells whether
    it is new); ``status`` is its terminal status or None.

    ``on_edge``: a transition ``src -> dst`` with its action block was
    recorded.

    ``on_done``: exploration finished; the complete graph is available.
    """

    def on_config(
        self, graph: ConfigGraph, cid: int, config: Config, fresh: bool, status: str | None
    ) -> None:
        pass

    def on_edge(
        self,
        graph: ConfigGraph,
        src: int,
        dst: int,
        actions: tuple[ActionInfo, ...],
    ) -> None:
        pass

    def on_done(self, graph: ConfigGraph) -> None:
        pass


class TransitionLogObserver(Observer):
    """Collects every edge's labels — handy in tests and demos.

    Not to be confused with the structured tracing subsystem
    (:class:`repro.trace.TraceRecorder`, which records spans and events
    with sequence ids): this observer just keeps a flat list of
    ``(src, dst, labels)`` transition triples.
    """

    def __init__(self) -> None:
        self.edges: list[tuple[int, int, tuple[str, ...]]] = []

    def on_edge(self, graph, src, dst, actions) -> None:
        self.edges.append((src, dst, tuple(a.label for a in actions)))
