"""The measured process: set up one workload, run verdicts in a closed
loop for a fixed time, check every verdict, print one JSON line.

Started by ``run.py`` in a session of its own; not meant to be run by
hand.  ``--setup-only`` measures set-up and exits; ``--trace 1`` runs an
untraced phase, then a traced phase with the layer wrappers installed,
and reports per-layer metrics plus the tracing overhead.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, imports included

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hygiene  # noqa: E402
import workloads as W  # noqa: E402

#: share of ``--seconds`` the traced run spends untraced (the baseline
#: for the tracing overhead); the rest is traced
UNTRACED_SHARE = 1 / 3

#: failure messages printed per run (all of them are counted)
MAX_REPORTED_FAILURES = 5


def cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    kb = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kb / 1024


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, and
    its rank.  Below 21 samples no percentile above the median has ten
    samples beyond it, so the median is reported (rank 50)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50
    idx = n - 11
    return ordered[idx], (100 * (idx + 1)) // n


class Loop:
    """Closed-loop verdicts: the next one starts when the previous one
    has returned and been checked."""

    def __init__(self, workload, expected) -> None:
        self.workload = workload
        self.expected = expected
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.configs = 0
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float, observers=lambda: (), after=None) -> None:
        stop = time.perf_counter() + seconds
        first = self.attempted
        while self.attempted == first or time.perf_counter() < stop:
            self.one(self.attempted, observers(), after)

    def one(self, i: int, observers, after=None) -> None:
        self.attempted += 1
        c0 = cpu_s()
        t0 = time.perf_counter()
        try:
            results = self.workload.run(i, observers)
        except Exception as exc:  # a raising verdict is a failed verdict
            self.wall.append(time.perf_counter() - t0)
            self.cpu.append(cpu_s() - c0)
            self._fail([f"verdict {i} raised {type(exc).__name__}: {exc}"])
            return
        self.wall.append(time.perf_counter() - t0)
        self.cpu.append(cpu_s() - c0)
        self.configs += sum(r.stats.num_configs for r in results)
        self._fail(self.workload.check(results, self.expected))
        if after is not None:
            after(results)
        # each verdict starts from a collected heap, as in a fresh run
        del results
        gc.collect()

    def _fail(self, failures: list[str]) -> None:
        if not failures:
            return
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            for line in failures:
                print(f"perfbench: FAILED {line}", file=sys.stderr)

    def end_to_end(self) -> dict:
        value, _rank = tail(self.wall)
        return {
            "verdict_s_p50": statistics.median(self.wall),
            "verdict_s_tail": value,
            "configs_per_s": self.configs / sum(self.wall),
            "cpu_s_per_verdict": statistics.median(self.cpu),
            "peak_rss_mb": peak_rss_mb(),
        }


def confine_to_one_cpu() -> None:
    """Run this process, and every child it forks from now on, on the
    lowest-numbered CPU it is allowed."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def set_up(name: str, seed: int, tiny: bool):
    """Imports, program construction and warm-up; returns the workload,
    the pinned expectations and the set-up seconds since start."""
    expected = W.load_expected()
    workload = W.make(name)
    if workload.one_cpu:
        confine_to_one_cpu()
    workload.prepare(seed, expected, tiny)
    workload.warm_up()
    gc.collect()
    return workload, expected, time.perf_counter() - T_START


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda signum, _f: sys.exit(128 + signum))
    hygiene.guard_forks()
    try:
        workload, expected, setup_s = set_up(args.workload, args.seed, args.tiny)
        out = {"setup_s": setup_s}
        if not args.setup_only:
            loop = Loop(workload, expected)
            if args.trace:
                import tracing

                loop.run(args.seconds * UNTRACED_SHARE)
                out["metrics"], traced = tracing.measure(
                    args.workload, args.seed, args.tiny, expected, loop,
                    args.seconds * (1 - UNTRACED_SHARE), ROOT / ".perfbench",
                )
                out["attempted"] = loop.attempted + traced.attempted
                out["failed"] = loop.failed + traced.failed
            else:
                loop.run(args.seconds)
                out["metrics"] = loop.end_to_end()
                out["tail_rank"] = tail(loop.wall)[1]
                out["verdicts"] = len(loop.wall)
                out["attempted"] = loop.attempted
                out["failed"] = loop.failed
    finally:
        hygiene.stop_resource_tracker()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
