"""The benchmark's workloads: what one verdict is, and how it is checked.

A *verdict* is one ``explore()`` call, or for ``seeded-corpus`` one
program's whole pipeline (parse, access analysis, full exploration,
stubborn+coarsen exploration).  Every verdict is checked against the
pinned expectations in ``expected.json`` (regenerate with ``pin.py``).

Calls into the program go through module attributes
(``explorer.explore``, ``lang.parse_program``, ...) looked up at call
time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

FULL = "full"
REDUCED = "stubborn+coarsen"

#: seeded-corpus draws its random programs from
#: ``random_program_source(s)`` for ``s`` in ``range(RANDOM_POOL)``;
#: every program of the pool is pinned in ``expected.json``.
RANDOM_POOL = 1024
#: random programs drawn per run (on top of the 26 corpus programs):
#: one from each of this many equal strata of the pool ordered by
#: exploration size, so every seed gets the same spread of sizes
RANDOM_DRAW = 256

#: philosophers of ``phil-reduce`` and ``phil-parallel-j2``: the same
#: program on both, so their difference is the parallel backend's cost
PHIL_REDUCED_N = 7

#: ``--seed`` when none is given: the first seed, with no special
#: property — every seed draws from the same pinned pool
DEFAULT_SEED = 0


def source_key(source: str) -> str:
    """The key of a program in ``expected.json``: a digest of its text."""
    return hashlib.blake2b(source.encode(), digest_size=8).hexdigest()


def result_digest(result) -> str:
    """Fingerprint of the result-configuration set.  Computed here, not
    imported, so the check does not depend on the code it checks."""
    payload = repr(sorted(repr(s) for s in result.final_stores()))
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


def summarize(result) -> dict:
    """The pinned fields of one exploration."""
    return {
        "num_configs": result.stats.num_configs,
        "deadlock": result.stats.num_deadlocks > 0,
        "final_stores": len(result.final_stores()),
        "result_digest": result_digest(result),
    }


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    """The pinned document: ``programs`` (source key -> verdicts) and
    ``random_by_size`` (the random pool's seeds, smallest first)."""
    with open(path) as fh:
        return json.load(fh)


def _options(policy: str, **extra):
    from repro.explore.explorer import ExploreOptions

    if policy == FULL:
        return ExploreOptions(policy="full", **extra)
    return ExploreOptions(policy="stubborn", coarsen=True, **extra)


def check_exploration(result, source: str, policy: str, expected: dict) -> list[str]:
    """Failures of one exploration against its pinned expectation."""
    entry = expected["programs"].get(source_key(source))
    if entry is None or policy not in entry:
        return [f"no pinned verdict for {source_key(source)} under {policy}"]
    name = entry["name"]
    failures = []
    if result.stats.truncated:
        failures.append(
            f"{name} {policy}: truncated ({result.stats.truncation_reason})"
        )
    got = summarize(result)
    for field, want in entry[policy].items():
        if got[field] != want:
            failures.append(
                f"{name} {policy}: {field} {got[field]!r} != pinned {want!r}"
            )
    return failures


class Workload:
    """One benchmark workload.  ``prepare`` builds the inputs,
    ``run`` is one verdict (the only timed part) and returns its
    explorations, ``check`` validates them against the pinned
    expectations."""

    #: run the measured process and every child it forks on one CPU
    one_cpu = False

    def prepare(self, seed: int, expected: dict, tiny: bool = False) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, i: int, observers=()) -> list:
        raise NotImplementedError

    def check(self, results: list, expected: dict) -> list[str]:
        raise NotImplementedError


class Philosophers(Workload):
    """One fixed philosophers program under one option set; every
    verdict explores it again.  The seed is unused: the input is fixed."""

    def __init__(self, n, policy, *, memo=True, backend="serial", jobs=1,
                 one_cpu=False):
        self.n = n
        self.policy = policy
        self.extra = {"memo": memo, "backend": backend, "jobs": jobs}
        self.one_cpu = one_cpu

    def _build(self, n: int):
        from repro.programs.philosophers import philosophers

        return philosophers(n)

    def prepare(self, seed: int, expected: dict, tiny: bool = False) -> None:
        self.options = _options(self.policy, **self.extra)
        self.program = self._build(3 if tiny else self.n)

    def warm_up(self) -> None:
        from repro.explore import explorer

        explorer.explore(self._build(3), options=self.options)

    def run(self, i: int, observers=()) -> list:
        from repro.explore import explorer

        return [
            explorer.explore(
                self.program, options=self.options, observers=observers
            )
        ]

    def check(self, results: list, expected: dict) -> list[str]:
        (result,) = results
        # the pin is the serial run's, so a parallel graph that differs
        # from serial fails here
        failures = check_exploration(
            result, self.program.source, self.policy, expected
        )
        if self.extra["backend"] == "parallel":
            left = multiprocessing.active_children()
            if left:
                failures.append(f"worker processes still alive: {left}")
        return failures


class SeededCorpus(Workload):
    """The bundled corpus plus a seeded draw of random programs, cycled
    in a fixed order; each verdict runs one program's whole pipeline."""

    def prepare(self, seed: int, expected: dict, tiny: bool = False) -> None:
        from repro.programs.corpus import CORPUS
        from repro.programs.synthetic import random_program_source

        self.full_opts = _options(FULL)
        self.reduced_opts = _options(REDUCED)
        rng = random.Random(seed)
        corpus = list(CORPUS.items())[: 2 if tiny else None]
        pool = expected["random_by_size"]
        strata = 2 if tiny else RANDOM_DRAW
        per = len(pool) // strata
        draw = [rng.choice(pool[k * per:(k + 1) * per]) for k in range(strata)]
        # the program receives only source text; corpus constructors
        # run once here, and each verdict parses the text again
        self.sources = [make().source for _, make in corpus] + [
            random_program_source(s) for s in draw
        ]
        # a run stops mid-cycle: shuffled, the cut-off part is a random
        # subset rather than always the largest programs
        rng.shuffle(self.sources)

    def warm_up(self) -> None:
        self._pipeline(self.sources[0], ())

    def _pipeline(self, source: str, observers):
        from repro import lang
        from repro.analyses import accesses
        from repro.explore import explorer

        program = lang.parse_program(source)
        accesses.access_analysis(program)
        full = explorer.explore(
            program, options=self.full_opts, observers=observers
        )
        reduced = explorer.explore(
            program, options=self.reduced_opts, observers=observers
        )
        return [full, reduced]

    def run(self, i: int, observers=()) -> list:
        return self._pipeline(self.sources[i % len(self.sources)], observers)

    def check(self, results: list, expected: dict) -> list[str]:
        full, reduced = results
        source = full.program.source
        failures = check_exploration(full, source, FULL, expected)
        failures += check_exploration(reduced, source, REDUCED, expected)
        if reduced.final_stores() != full.final_stores():
            failures.append(
                f"{source_key(source)}: stubborn+coarsen final stores "
                "differ from full exploration"
            )
        return failures


def make(name: str) -> Workload:
    """A fresh instance of the workload called *name*."""
    if name == "phil-reduce":
        return Philosophers(PHIL_REDUCED_N, REDUCED)
    if name == "phil-full-nomemo":
        return Philosophers(5, FULL, memo=False)
    if name == "phil-parallel-j2":
        # master and workers share one CPU: with both CPUs of a shared
        # host busy, the host's steal time swamps the backend's own cost
        return Philosophers(
            PHIL_REDUCED_N, REDUCED, backend="parallel", jobs=2, one_cpu=True
        )
    if name == "seeded-corpus":
        return SeededCorpus()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("phil-reduce", "phil-full-nomemo", "phil-parallel-j2", "seeded-corpus")
