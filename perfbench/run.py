"""The repository benchmark: time to a sound verdict, end to end and by
layer.  See ``perfbench/README.md`` for workloads and metrics.

Run from the repository root::

    python3 perfbench/run.py --workload phil-reduce --seed 0 --seconds 28 --trace 0

This process is only the supervisor.  It measures set-up in fresh
processes, then runs the measured process (``measure.py``), each in a
session of its own that is stopped on every exit path and checked for
leftover processes (see ``hygiene.py``).  It prints every metric by
name with its unit, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any leftover
process, timeout or signal ends it with a non-zero status and no
result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hygiene  # noqa: E402
import workloads as W  # noqa: E402

#: fresh processes that measure set-up on top of the measured process's
#: own set-up; ``setup_s`` is the median of all of them
SETUP_PROBES = 4

#: the whole run, the measured process included, ends within this
DEADLINE_S = 170.0


def _units() -> dict[str, dict[str, str]]:
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]},
    }


def _last_json(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the measured process printed no result")
    return json.loads(lines[-1])


def _measure_cmd(args, *extra: str) -> list[str]:
    return [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]


def supervise(args) -> dict:
    """Set-up probes, then the measured process; returns the result."""
    start = time.monotonic()
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = hygiene.run_isolated(
                _measure_cmd(args, "--setup-only"), min(60.0, left()),
                workdir=str(workdir),
            )
            setup.append(_last_json(probe)["setup_s"])
    out = _last_json(
        hygiene.run_isolated(
            _measure_cmd(args, "--trace", str(args.trace)), left(),
            workdir=str(workdir),
        )
    )
    setup.append(out["setup_s"])
    units = _units()["per_layer" if args.trace else "end_to_end"]
    metrics = dict(out["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    missing = set(units) - set(metrics)
    if missing:
        raise ValueError(f"metrics not measured: {sorted(missing)}")
    _print_summary(args, out, metrics, units, setup)
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def _print_summary(args, out, metrics, units, setup) -> None:
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for name, unit in units.items():
        note = ""
        if name == "verdict_s_tail":
            note = f"  (p{out['tail_rank']} of {out['verdicts']} verdicts)"
        elif name == "setup_s":
            note = f"  (median of {len(setup)} set-ups)"
        print(f"  {name:<32} {metrics[name]:.6g} {unit}{note}")
    print(f"  {'fail_rate':<32} {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']} of {out['attempted']} verdicts failed)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    hygiene.install_signal_handlers()
    hygiene.become_subreaper()
    try:
        result = supervise(args)
    except hygiene.Interrupted as exc:
        print(f"perfbench: {exc}; measured session stopped", file=sys.stderr)
        return 128 + exc.signum
    except (hygiene.LeakError, subprocess.SubprocessError, ValueError,
            KeyError, OSError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
