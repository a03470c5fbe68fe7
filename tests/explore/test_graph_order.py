"""Graph-order pins for both serial frontier disciplines.

``bench.result_digest`` hashes only the final stores, so a change that
renumbered configurations or reordered edges would go unnoticed there.
These pins hash the whole graph in order: the stable digest of every
configuration by id, the ``(src, dst, labels)`` edge list, and the
sorted terminal map.  ``full`` and ``stubborn+coarsen`` run the FIFO
(breadth-first) frontier; ``stubborn+coarsen+sleep`` runs the sleep-set
stack.

The pinned values were computed with the engine as it stood before its
two serial drivers were merged into one loop, so passing here means the
merged loop builds bit-identical graphs.  Every pin is checked with the
expansion memo on (the default) and off.  They are independent of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.explore import ExploreOptions, explore
from repro.programs.corpus import CORPUS
from repro.semantics.config import stable_digest

COMBOS = {
    "full": ExploreOptions(policy="full"),
    "stubborn+coarsen": ExploreOptions(policy="stubborn", coarsen=True),
    "stubborn+coarsen+sleep": ExploreOptions(
        policy="stubborn", coarsen=True, sleep=True
    ),
}

PINS = {
    ("philosophers_3", "full"): "1502117455953ef59c9b090dac13f9f9",
    ("philosophers_3", "stubborn+coarsen"): "c34eed475e16b7d3af88c5b16d9e021c",
    ("philosophers_3", "stubborn+coarsen+sleep"):
        "5fdef22fe89be8cbc267376a3f72783b",
    ("fig2_shasha_snir", "full"): "c77fde1a8ad892cf333787b3b9440943",
    ("fig2_shasha_snir", "stubborn+coarsen"):
        "32435a94313894b087f9fab6e3d70505",
    ("fig2_shasha_snir", "stubborn+coarsen+sleep"):
        "89f5d8f43e31f81f35be99606e595cb9",
    ("peterson", "full"): "0229ec6c23e1583e80a8bac4f163f16d",
    ("peterson", "stubborn+coarsen"): "87cfc07977e654f9357c57bac68481c8",
    ("peterson", "stubborn+coarsen+sleep"): "3123f447db48a305c698ca082299add2",
    ("deadlock_pair", "full"): "ef871d463f11f098ab676b070e3d843d",
    ("deadlock_pair", "stubborn+coarsen"): "a70b961e8657eafbdd68ec9f4d5460c4",
    ("deadlock_pair", "stubborn+coarsen+sleep"):
        "e5b16e870656ff78620a8650345ce2bb",
}


def graph_order_digest(graph) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(repr([stable_digest(c) for c in graph.configs]).encode())
    h.update(repr([(e.src, e.dst, e.labels) for e in graph.edges]).encode())
    h.update(repr(sorted(graph.terminal.items())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,combo", sorted(PINS))
def test_graph_order_pinned(name, combo):
    result = explore(CORPUS[name](), options=COMBOS[combo])
    assert not result.stats.truncated
    assert graph_order_digest(result.graph) == PINS[(name, combo)]


@pytest.mark.parametrize("name,combo", sorted(PINS))
def test_graph_order_pinned_without_memo(name, combo):
    """The same pins with the expansion memo off: the expansion loop's
    uncached path builds the same graphs in the same order."""
    options = dataclasses.replace(COMBOS[combo], memo=False)
    result = explore(CORPUS[name](), options=options)
    assert not result.stats.truncated
    assert graph_order_digest(result.graph) == PINS[(name, combo)]
