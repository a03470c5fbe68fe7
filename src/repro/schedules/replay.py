"""Replay: the correctness anchor of schedule generation.

A canonical schedule is only worth emitting if it is a *genuine*
execution: driving the interpreter with its pid sequence must execute
exactly the recorded action labels and land on exactly the terminal
configuration the explorer recorded (checked by ``stable_digest``).
Divergence raises :class:`ScheduleError` — never a silently wrong
schedule.

Two things make this non-trivial, and therefore worth checking:

- the canonical linearization *reorders* independent steps of the path
  the explorer actually walked, so replay exercises the claim that the
  dependence relation (shared with sleep sets) really captures
  commutability;
- coarsened edges replay action by action, so replay also re-checks
  block fusion against the small-step semantics.
"""

from __future__ import annotations

from repro.schedules.canonical import Schedule, ScheduleSet
from repro.semantics.config import Config, stable_digest
from repro.util.errors import ScheduleError


def replay_steps(program, steps, *, opts=None) -> Config:
    """Drive the interpreter from the initial configuration with *steps*,
    ``(pid, label)`` pairs in execution order; return the final
    configuration.  :class:`ScheduleError` if a scheduled process is not
    live, not enabled, or executes a different statement than recorded.
    Schedules and witnesses (:mod:`repro.analyses.witness`) both replay
    through here."""
    from repro.semantics.config import initial_config
    from repro.semantics.step import StepOptions, enabledness, execute

    options = opts if opts is not None else StepOptions()
    config = initial_config(
        program, track_procstrings=options.track_procstrings
    )
    for pid, label in steps:
        try:
            proc = config.proc(pid)
        except (KeyError, IndexError, StopIteration):
            raise ScheduleError(
                f"replay divergence: no live process {pid} "
                f"for step {label!r}"
            )
        enabled, _, _ = enabledness(program, config, proc)
        if not enabled:
            raise ScheduleError(
                f"replay divergence: process {pid} not enabled "
                f"at scheduled step {label!r}"
            )
        config, action = execute(program, config, proc, options)
        if action.label != label:
            raise ScheduleError(
                f"replay divergence: scheduled {label!r}, "
                f"executed {action.label!r}"
            )
    return config


def replay_schedule(program, schedule: Schedule, *, opts=None) -> Config:
    """Drive the interpreter with *schedule*'s steps; return the final
    configuration (see :func:`replay_steps`)."""
    return replay_steps(
        program,
        ((step.pid, label) for step in schedule.steps for label in step.labels),
        opts=opts,
    )


def verify_schedule(program, schedule: Schedule, *, opts=None) -> Config:
    """Replay *schedule* and check it reaches the recorded terminal
    configuration digest.  Returns the final configuration."""
    final = replay_schedule(program, schedule, opts=opts)
    digest = stable_digest(final)
    if digest != schedule.final_digest:
        raise ScheduleError(
            "replay divergence: schedule reached configuration digest "
            f"{digest:#018x}, explorer recorded "
            f"{schedule.final_digest:#018x}"
        )
    return final


def verify_set(result, sset: ScheduleSet, *, metrics=None) -> int:
    """Verify every schedule of *sset* against *result*'s program and
    step semantics.  Returns the number of schedules replayed; raises
    :class:`ScheduleError` on the first divergence."""
    replayed = 0
    try:
        for schedule in sset.schedules:
            verify_schedule(
                result.program, schedule, opts=result.options.step
            )
            replayed += 1
    finally:
        if metrics is not None:
            metrics.set_gauge("schedules.replays", replayed)
            metrics.set_gauge(
                "schedules.replay_failures", len(sset.schedules) - replayed
            )
    return replayed
