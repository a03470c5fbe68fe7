"""The configuration graph produced by exploration.

Nodes are configurations (deduplicated structurally); edges carry the
sequence of atomic actions that produced them — length 1 normally, >1
under virtual coarsening.  Client analyses are graph algorithms over
this structure (DESIGN.md S6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.semantics.config import Config, restore_slots, slot_setters
from repro.semantics.step import ActionInfo

# Terminal statuses
TERMINATED = "terminated"
DEADLOCK = "deadlock"
FAULT = "fault"


def _dot_escape(text: str) -> str:
    """Escape a string for use inside a double-quoted DOT attribute."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


@dataclass(frozen=True, slots=True, init=False)
class Edge:
    """A transition: ``src -> dst`` via one atomic action (or a fused
    block of actions of one process, under coarsening)."""

    src: int
    dst: int
    actions: tuple[ActionInfo, ...]

    def __init__(self, src, dst, actions):
        _EDGE_SRC(self, src)
        _EDGE_DST(self, dst)
        _EDGE_ACTIONS(self, actions)

    def __reduce__(self):
        return (Edge, (self.src, self.dst, self.actions))

    __setstate__ = restore_slots

    @property
    def pid(self):
        return self.actions[0].pid

    @property
    def reads(self) -> tuple:
        out: list = []
        for a in self.actions:
            out.extend(a.reads)
        return tuple(out)

    @property
    def writes(self) -> tuple:
        out: list = []
        for a in self.actions:
            out.extend(a.writes)
        return tuple(out)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(a.label for a in self.actions)


_EDGE_SRC, _EDGE_DST, _EDGE_ACTIONS = slot_setters(Edge, "src", "dst", "actions")


@dataclass
class ConfigGraph:
    """The explored state space."""

    configs: list[Config] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    out_edges: dict[int, list[int]] = field(default_factory=dict)
    in_edges: dict[int, list[int]] = field(default_factory=dict)
    terminal: dict[int, str] = field(default_factory=dict)
    initial: int = 0
    _ids: dict[Config, int] = field(default_factory=dict)
    #: optional :class:`repro.metrics.MetricsRegistry`; when set,
    #: ``add_config`` reports intern hits/misses (the dedup hit-rate is
    #: a direct measure of how diamond-shaped the state space is)
    metrics: object | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # pickling (checkpoint/resume)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Snapshots exclude the attached metrics registry (the resumed
        run brings its own) and the intern table (rebuilt from
        ``configs`` — halves the snapshot size)."""
        state = self.__dict__.copy()
        state["metrics"] = None
        del state["_ids"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._ids = {c: i for i, c in enumerate(self.configs)}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_config(self, config: Config) -> tuple[int, bool]:
        """Intern *config*; returns ``(id, is_new)``."""
        cid = self._ids.get(config)
        if cid is not None:
            if self.metrics is not None:
                self.metrics.inc("explore.intern.hits")
            return cid, False
        cid = len(self.configs)
        self.configs.append(config)
        self._ids[config] = cid
        self.out_edges[cid] = []
        self.in_edges[cid] = []
        if self.metrics is not None:
            self.metrics.inc("explore.intern.misses")
        return cid, True

    def add_edge(self, src: int, dst: int, actions: tuple[ActionInfo, ...]) -> Edge:
        edge = Edge(src, dst, actions)
        eid = len(self.edges)
        self.edges.append(edge)
        self.out_edges[src].append(eid)
        self.in_edges[dst].append(eid)
        return edge

    def mark_terminal(self, cid: int, status: str) -> None:
        self.terminal[cid] = status

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def num_configs(self) -> int:
        return len(self.configs)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def successors(self, cid: int) -> list[tuple[Edge, int]]:
        return [(self.edges[e], self.edges[e].dst) for e in self.out_edges[cid]]

    def config_id(self, config: Config) -> int:
        return self._ids[config]

    def terminals(self, status: str | None = None) -> list[int]:
        """Config ids of terminal configurations, optionally filtered."""
        return [
            cid
            for cid, st in sorted(self.terminal.items())
            if status is None or st == status
        ]

    def result_stores(self) -> set[tuple]:
        """Observable outcomes of all terminal configurations — what
        stubborn-set reduction and coarsening must preserve."""
        return {self.configs[cid].result_store() for cid in self.terminal}

    def result_summary(self) -> dict[str, int]:
        out = {TERMINATED: 0, DEADLOCK: 0, FAULT: 0}
        for st in self.terminal.values():
            out[st] += 1
        return out

    def iter_edges(self):
        return iter(self.edges)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def to_dot(self, *, max_nodes: int = 500) -> str:
        """Render the graph in Graphviz DOT (for papers/debugging).

        Terminal configurations are colored by status; edges are
        labeled ``pid: labels``.  Graphs beyond *max_nodes* raise —
        nobody can read those anyway.
        """
        if self.num_configs > max_nodes:
            raise ValueError(
                f"graph has {self.num_configs} nodes (> {max_nodes}); "
                "reduce the program or raise max_nodes"
            )
        colors = {TERMINATED: "palegreen", DEADLOCK: "orange", FAULT: "tomato"}
        lines = ["digraph configs {", "  rankdir=TB;", "  node [shape=circle];"]
        for cid in range(self.num_configs):
            attrs = [f'label="{cid}"']
            status = self.terminal.get(cid)
            if status is not None:
                attrs.append("style=filled")
                attrs.append(f'fillcolor="{colors[status]}"')
            if cid == self.initial:
                attrs.append("shape=doublecircle")
            lines.append(f"  n{cid} [{', '.join(attrs)}];")
        for edge in self.edges:
            label = _dot_escape(",".join(edge.labels))
            pid = ".".join(map(str, edge.pid))
            lines.append(
                f'  n{edge.src} -> n{edge.dst} [label="{pid}: {label}"];'
            )
        lines.append("}")
        return "\n".join(lines)
