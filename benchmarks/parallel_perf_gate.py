"""CI perf gate for the parallel backend.

Times philosophers(6) under ``stubborn+coarsen`` serially and at
``--jobs 2`` (best of five, wall-clock).  The pool has a fixed startup
cost — fork, shared-memory segments, pipes — that dominates a
sub-second workload, so the gate first measures that floor on a trivial
program (mutex_counter at jobs=2 finishes in a handful of expansions)
and judges the *marginal* cost of the real workload:

    net = parallel_wall - spawn_floor

* multi-core host (the interesting case): two workers must beat — or at
  worst match — the serial driver, ``net <= serial * 1.15`` (the pad
  absorbs shared-runner noise);
* single core: a speedup is physically impossible, so the gate bounds
  overhead instead, ``net <= serial * 2.0``.  The master runs the
  serial loop and the workers only expand, so on one core the backend
  adds the workers' cold caches, the transport and one round trip per
  BFS level; this catches a gross regression (a change that doubles
  per-configuration messaging) while tolerating noisy containers.

The gate also bounds the interconnect itself: the parallel run's
``msg_bytes / configs`` must stay under ``MSG_BYTES_PER_CONFIG``.
Byte volume is hardware-independent — unlike wall-clock it cannot be
excused by a slow runner — and it is the first thing to bloat when a
transport change stops deduplicating components or stops encoding
successors against their parents.  The 122 bound is half the 244
B/config the whole-config encoding cost before the component ledger.

Both runs must also explore the identical graph — a perf gate that
passes by exploring less is lying.

Exit status 0 = pass, 1 = fail; prints the measurements either way.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.explore import ExploreOptions, explore  # noqa: E402
from repro.programs.corpus import CORPUS  # noqa: E402
from repro.programs.philosophers import philosophers  # noqa: E402

REPS = 5
MULTI_CORE_BOUND = 1.15
SINGLE_CORE_BOUND = 2.0
MSG_BYTES_PER_CONFIG = 122


def _best(program, opts) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(REPS):
        t0 = time.perf_counter()
        result = explore(program, options=opts)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main() -> int:
    cpus = os.cpu_count() or 1
    spawn_floor, _ = _best(
        CORPUS["mutex_counter"](),
        ExploreOptions(policy="stubborn", backend="parallel", jobs=2),
    )
    program = philosophers(6)
    serial_wall, ser = _best(
        program, ExploreOptions(policy="stubborn", coarsen=True)
    )
    parallel_wall, par = _best(
        program,
        ExploreOptions(
            policy="stubborn", coarsen=True, backend="parallel", jobs=2
        ),
    )
    net = max(parallel_wall - spawn_floor, 0.0)
    ratio = net / serial_wall if serial_wall else float("inf")
    bound = MULTI_CORE_BOUND if cpus >= 2 else SINGLE_CORE_BOUND
    print(
        f"philosophers(6) stubborn+coarsen on {cpus} cpu(s): "
        f"serial={serial_wall:.3f}s jobs=2={parallel_wall:.3f}s "
        f"(spawn floor {spawn_floor:.3f}s) net={net:.3f}s "
        f"net_ratio={ratio:.3f} bound={bound:.2f}"
    )

    if (par.stats.num_configs, par.stats.num_edges) != (
        ser.stats.num_configs,
        ser.stats.num_edges,
    ):
        print(
            f"FAIL: graphs differ "
            f"({par.stats.num_configs}/{par.stats.num_edges} vs "
            f"{ser.stats.num_configs}/{ser.stats.num_edges})"
        )
        return 1
    if ratio > bound:
        kind = "slower than serial" if cpus >= 2 else "overhead bound blown"
        print(f"FAIL: {kind} (net ratio {ratio:.3f} > {bound:.2f})")
        return 1
    per_config = par.stats.msg_bytes / par.stats.num_configs
    print(
        f"interconnect: {par.stats.msg_bytes} B over "
        f"{par.stats.num_configs} configs = {per_config:.1f} B/config "
        f"(bound {MSG_BYTES_PER_CONFIG}), "
        f"suppressed={par.stats.cand_suppressed}"
    )
    if per_config > MSG_BYTES_PER_CONFIG:
        print(
            f"FAIL: interconnect regression "
            f"({per_config:.1f} B/config > {MSG_BYTES_PER_CONFIG})"
        )
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
