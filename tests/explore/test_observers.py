"""Observer-protocol tests."""

from repro.explore import Observer, explore
from repro.lang import parse_program


class Recorder(Observer):
    def __init__(self):
        self.configs = []
        self.edges = []
        self.done = 0

    def on_config(self, graph, cid, config, fresh, status):
        self.configs.append((cid, fresh, status))

    def on_edge(self, graph, src, dst, actions):
        self.edges.append((src, dst, tuple(a.label for a in actions)))

    def on_done(self, graph):
        self.done += 1


def test_observer_lifecycle(fig2):
    rec = Recorder()
    r = explore(fig2, "full", observers=(rec,))
    assert rec.done == 1
    assert len(rec.edges) == r.stats.num_edges
    # every config announced fresh exactly once, the initial one included
    fresh_ids = [cid for cid, fresh, _ in rec.configs if fresh]
    assert len(fresh_ids) == len(set(fresh_ids)) == r.stats.num_configs
    assert rec.configs[0][0] == r.graph.initial


def test_observer_terminal_notifications():
    prog = parse_program("var g = 0; func main() { g = 1; }")
    rec = Recorder()
    explore(prog, "full", observers=(rec,))
    statuses = [st for _, _, st in rec.configs if st is not None]
    assert statuses == ["terminated"]


def test_observer_with_sleep_policy(fig2):
    rec = Recorder()
    r = explore(fig2, "stubborn", sleep=True, observers=(rec,))
    assert rec.done == 1
    assert len(rec.edges) == r.stats.num_edges


def test_multiple_observers(fig2):
    a, b = Recorder(), Recorder()
    explore(fig2, "full", observers=(a, b))
    assert a.edges == b.edges


def test_transition_log_observer_rename(fig2):
    from repro.explore import TransitionLogObserver

    ob = TransitionLogObserver()
    r = explore(fig2, "full", observers=(ob,))
    assert len(ob.edges) == r.stats.num_edges
