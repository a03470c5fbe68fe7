"""Regenerate ``expected.json``: the pinned verdict of every program the
benchmark can explore.

Run from the repository root::

    python3 perfbench/pin.py

For every program it records, per policy, the number of configurations,
whether a deadlock is reachable, the number of distinct final stores and
the result digest.  While pinning it asserts the reduction invariant
(stubborn+coarsen reaches the same final stores as full exploration)
wherever full exploration is affordable, and that philosophers with one
meal always reach the circular-wait deadlock.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402
from repro.explore.explorer import explore  # noqa: E402
from repro.programs.corpus import CORPUS  # noqa: E402
from repro.programs.philosophers import philosophers  # noqa: E402
from repro.programs.synthetic import random_program_source  # noqa: E402
from repro.lang import parse_program  # noqa: E402


def pin(programs: dict, name: str, source: str, policies) -> dict:
    program = parse_program(source)
    entry = {"name": name}
    for policy in policies:
        result = explore(program, options=W._options(policy))
        assert not result.stats.truncated, (name, policy)
        entry[policy] = W.summarize(result)
    if len(policies) == 2:
        full, reduced = entry[W.FULL], entry[W.REDUCED]
        for field in ("deadlock", "final_stores", "result_digest"):
            assert full[field] == reduced[field], (name, field)
    programs[W.source_key(source)] = entry
    return entry


def main() -> None:
    programs: dict = {}
    both = (W.FULL, W.REDUCED)
    # philosophers(3..5): full exploration is affordable, so the reduced
    # digest is cross-checked against it; the larger philosophers of
    # phil-reduce is pinned from the reduced run alone (full exploration
    # does not finish in time)
    for n in (3, 4, 5):
        entry = pin(programs, f"philosophers({n})", philosophers(n).source, both)
        assert entry[W.FULL]["deadlock"], n
    n = W.PHIL_REDUCED_N
    entry = pin(programs, f"philosophers({n})", philosophers(n).source, (W.REDUCED,))
    assert entry[W.REDUCED]["deadlock"]
    for name, make in CORPUS.items():
        pin(programs, f"corpus:{name}", make().source, both)
    sizes = {}
    for seed in range(W.RANDOM_POOL):
        entry = pin(programs, f"random:{seed}", random_program_source(seed), both)
        sizes[seed] = sum(entry[p]["num_configs"] for p in both)
    about = (
        "pinned verdicts, keyed by a digest of the program source; "
        "regenerate with python3 perfbench/pin.py"
    )
    # the random pool ordered by exploration size: seeded-corpus draws
    # one program from each stratum of this list
    by_size = sorted(sizes, key=lambda s: (sizes[s], s))
    # one line per program keeps the file diffable
    entries = ",\n".join(
        f"{json.dumps(key)}: {json.dumps(programs[key], sort_keys=True)}"
        for key in sorted(programs)
    )
    with open(W.EXPECTED_PATH, "w") as fh:
        fh.write(f'{{"about": {json.dumps(about)},\n')
        fh.write(f'"random_by_size": {json.dumps(by_size)},\n')
        fh.write(f'"programs": {{\n{entries}\n}}}}\n')
    print(f"pinned {len(programs)} programs to {W.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
