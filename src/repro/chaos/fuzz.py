"""Randomized scenario fuzzing: seeded grammar, parallel runs, shrinking.

The fuzzer closes the loop: *generate* adversarial scenarios from a seed,
*run* them in parallel worker processes (the orchestrator's pool), *check*
the paper's invariants on every one, and — when a run fails — *shrink*
the script to a minimal step list and hand the user a one-line replay
command that reproduces the failure bit-identically.

The seed-replay contract
------------------------

A fuzz *case* is fully determined by ``(case_seed, FuzzProfile)``:

* the script comes from :func:`generate_script` — one private
  ``numpy`` generator seeded with the case seed, drawn in a fixed order;
* the system seed (links, stagger, chaos RNG streams) derives from the
  case seed via :meth:`RngRegistry.derive_seed`;
* the simulator itself draws no randomness.

So ``python -m repro chaos replay --seed <case_seed>`` (same code
version, same profile flags) re-runs the exact simulation and must
produce the same :func:`~repro.metrics.trace.trace_digest` — that
equality is asserted by tests and is the artifact CI uploads on failure.
Master seeds only *enumerate* cases: case ``i`` of master seed ``m`` has
seed ``derive_seed(m, "chaos.fuzz.case.i")``, so replaying never needs
the whole batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.chaos.run import ChaosRunConfig, ChaosRunResult, run_scripted
from repro.chaos.script import (
    ChaosScript,
    ChaosStep,
    asym_link,
    churn_burst,
    clock_drift,
    drop,
    duplicate,
    group_fault,
    heal,
    partition,
    reorder,
)
from repro.experiments.orchestrator import map_in_pool
from repro.experiments.scenario import ExperimentConfig
from repro.flags import SIMULATOR_FLAGS, flag_argv
from repro.sim.rng import RngRegistry

__all__ = [
    "FUZZ_SYSTEM",
    "FuzzProfile",
    "FuzzFailure",
    "FuzzResult",
    "case_seed",
    "generate_script",
    "config_for_case",
    "run_fuzz",
    "shrink_failure",
    "replay_command",
]

#: The deployment a fuzz case attacks unless its profile says otherwise.
#: Two groups per daemon, so every batch exercises the shared FD plane's
#: isolation (group-scoped faults, the cross-group invariant) alongside the
#: classic single-group adversaries; three lease clients, so every case
#: checks the lease tier's ``no-double-grant`` safety, a quarter of whose
#: cycles end in a transfer (handoff token monotonicity).  The FD plane is
#: a system setting, deliberately NOT a grammar draw: the grammar's draw
#: order is API (a new draw would shift every pinned replay seed), so the
#: swim plane is fuzzed by re-running the same seed battery on it.
FUZZ_SYSTEM = ExperimentConfig(
    name="chaos/fuzz",
    n_nodes=6,
    n_groups=2,
    n_lease_clients=3,
    lease_transfer_ratio=0.25,
)


@dataclass(frozen=True)
class FuzzProfile:
    """The grammar's knobs and the system it attacks.  Replay must use the
    profile of the original run.

    Chaos starts only after ``chaos_start`` (the group needs a few seconds
    to form), every generated script heals at the end of its chaos window,
    and the settle window after the heal is sized generously against the
    QoS-derived stabilization bound so a healthy service always passes.
    """

    min_steps: int = 1
    max_steps: int = 5
    chaos_start: float = 20.0
    chaos_window: float = 60.0
    settle: float = 90.0
    hold: float = 15.0
    max_skew: float = 0.01
    max_drop: float = 0.6
    max_jitter: float = 1.0
    max_burst_downtime: float = 5.0
    system: ExperimentConfig = FUZZ_SYSTEM

    def __post_init__(self) -> None:
        if not 1 <= self.min_steps <= self.max_steps:
            raise ValueError("need 1 <= min_steps <= max_steps")
        if self.settle <= self.hold:
            raise ValueError("settle window must exceed the hold requirement")


#: Step kinds the grammar draws from, with weights.  Transport-level steps
#: dominate (they are the live-cluster-portable subset); bursts and drift
#: stay rarer because each one is a full crash/skew episode.
_STEP_KINDS = (
    ("partition", 0.16),
    ("asym_link", 0.14),
    ("drop", 0.14),
    ("duplicate", 0.11),
    ("reorder", 0.11),
    ("group_fault", 0.10),
    ("clock_drift", 0.09),
    ("churn_burst", 0.15),
)


def case_seed(master_seed: int, index: int) -> int:
    """The seed of fuzz case ``index`` under ``master_seed``."""
    return RngRegistry.derive_seed(master_seed, f"chaos.fuzz.case.{index}")


def generate_script(seed: int, profile: Optional[FuzzProfile] = None) -> ChaosScript:
    """Generate one scenario from the seeded grammar (pure in its inputs)."""
    profile = profile if profile is not None else FuzzProfile()
    n_nodes = profile.system.n_nodes
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    n_steps = int(rng.integers(profile.min_steps, profile.max_steps + 1))
    heal_at = profile.chaos_start + profile.chaos_window
    times = sorted(
        float(t)
        for t in rng.uniform(profile.chaos_start, heal_at - 2.0, size=n_steps)
    )
    kinds = [kind for kind, _ in _STEP_KINDS]
    weights = np.array([weight for _, weight in _STEP_KINDS])
    weights = weights / weights.sum()

    steps: List[ChaosStep] = []
    for at in times:
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        if kind == "partition":
            nodes = list(rng.permutation(n_nodes))
            split = int(rng.integers(1, n_nodes))
            steps.append(
                partition(at, [sorted(int(n) for n in nodes[:split])])
            )
        elif kind == "asym_link":
            src, dst = (
                int(n) for n in rng.choice(n_nodes, size=2, replace=False)
            )
            steps.append(asym_link(at, src, dst))
        elif kind == "drop":
            steps.append(drop(at, float(rng.uniform(0.05, profile.max_drop))))
        elif kind == "duplicate":
            steps.append(duplicate(at, float(rng.uniform(0.1, 0.9))))
        elif kind == "reorder":
            steps.append(reorder(at, float(rng.uniform(0.05, profile.max_jitter))))
        elif kind == "group_fault":
            # Target any hosted group; a rate high enough to bite.
            target = 1 + int(rng.integers(profile.system.n_groups))
            steps.append(group_fault(at, target, float(rng.uniform(0.3, 1.0))))
        elif kind == "clock_drift":
            node = int(rng.integers(n_nodes))
            skew = float(rng.uniform(-profile.max_skew, profile.max_skew))
            steps.append(clock_drift(at, node, skew))
        else:  # churn_burst
            k = int(rng.integers(1, n_nodes))
            if rng.random() < 0.5:
                # Fast reboot: the node comes back on its own mid-chaos.
                downtime = float(rng.uniform(2.0, profile.max_burst_downtime))
            else:
                # Sustained outage: down until the heal revives it — the
                # case that exercises re-election and leader-validity
                # (a crashed leader must be demoted long before it
                # returns).
                downtime = heal_at - at + 10.0
            steps.append(churn_burst(at, k, downtime))
    steps.sort(key=lambda step: step.at)
    steps.append(heal(heal_at))
    return ChaosScript(
        steps=tuple(steps),
        duration=heal_at + profile.settle,
        comment=f"fuzz seed={seed}",
    )


def config_for_case(
    seed: int, profile: Optional[FuzzProfile] = None
) -> ChaosRunConfig:
    """The full run config of one fuzz case (script + system seed)."""
    profile = profile if profile is not None else FuzzProfile()
    return ChaosRunConfig(
        script=generate_script(seed, profile),
        system=profile.system.with_(
            name=f"chaos/fuzz/{seed}",
            seed=RngRegistry.derive_seed(seed, "chaos.system"),
        ),
        hold=profile.hold,
    )


def _case_record(
    case: Tuple[int, FuzzProfile],
    runner: Callable[[ChaosRunConfig], ChaosRunResult] = run_scripted,
) -> Dict[str, Any]:
    """Run one ``(case_seed, profile)`` case: the whole of what a worker gets."""
    seed, profile = case
    return dict(runner(config_for_case(seed, profile)).to_dict(), case_seed=seed)


@dataclass
class FuzzFailure:
    """One failing case, shrunk to its minimal reproduction."""

    case_seed: int
    violations: List[Dict[str, Any]]
    trace_digest: str
    original_steps: int
    minimal_script: Dict[str, Any]
    minimal_steps: int
    shrink_runs: int
    replay: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "case_seed": self.case_seed,
            "violations": self.violations,
            "trace_digest": self.trace_digest,
            "original_steps": self.original_steps,
            "minimal_script": self.minimal_script,
            "minimal_steps": self.minimal_steps,
            "shrink_runs": self.shrink_runs,
            "replay": self.replay,
        }


@dataclass
class FuzzResult:
    """The whole fuzz batch: per-case records plus shrunken failures."""

    master_seed: int
    runs: int
    profile: FuzzProfile
    records: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[FuzzFailure] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def cases_passed(self) -> int:
        return sum(1 for record in self.records if record.get("ok"))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "chaos-fuzz",
            "master_seed": self.master_seed,
            "runs": self.runs,
            "ok": self.ok,
            "cases_passed": self.cases_passed,
            "wall_seconds": round(self.wall_seconds, 3),
            "failures": [failure.to_dict() for failure in self.failures],
            "cases": self.records,
        }


def replay_command(seed: int, profile: Optional[FuzzProfile] = None) -> str:
    """The one-liner that reproduces a case bit-identically.

    Every chaos flag whose value differs from the default profile's is
    appended — a replay under a different system is a different case, so
    the command must carry everything the CLI can vary.
    """
    system = (profile if profile is not None else FuzzProfile()).system
    argv = flag_argv(system, SIMULATOR_FLAGS, base=FuzzProfile().system)
    return " ".join(["python -m repro chaos replay --seed", str(seed), *argv])


def run_fuzz(
    runs: int,
    master_seed: int,
    *,
    profile: Optional[FuzzProfile] = None,
    workers: int = 1,
    shrink: bool = True,
    progress: Optional[Callable[[int, int, Dict[str, Any]], None]] = None,
    runner: Callable[[ChaosRunConfig], ChaosRunResult] = run_scripted,
) -> FuzzResult:
    """Fuzz ``runs`` seeded scenarios; shrink every failure.

    Each case goes to a worker process as ``(case_seed, profile)`` and is
    regenerated there (``workers=1`` stays fully in-process, which tests
    use to monkeypatch regressions).  ``runner`` executes every case and
    every shrink candidate; with ``workers > 1`` it must pickle.
    ``progress(done, runs, record)`` is called in completion order.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1 (got {runs})")
    profile = profile if profile is not None else FuzzProfile()
    cases = [(case_seed(master_seed, index), profile) for index in range(runs)]
    records: List[Dict[str, Any]] = [{} for _ in cases]
    started = time.perf_counter()
    completed = map_in_pool(partial(_case_record, runner=runner), cases, workers)
    for done, (index, record) in enumerate(completed, 1):
        records[index] = record
        if progress is not None:
            progress(done, runs, record)

    result = FuzzResult(
        master_seed=master_seed,
        runs=runs,
        profile=profile,
        records=records,
        wall_seconds=time.perf_counter() - started,
    )
    for record in records:
        if record.get("ok"):
            continue
        seed = int(record["case_seed"])
        config = config_for_case(seed, profile)
        if shrink:
            minimal, shrink_runs = shrink_failure(config, runner=runner)
        else:
            minimal, shrink_runs = config.script, 0
        result.failures.append(
            FuzzFailure(
                case_seed=seed,
                violations=list(record.get("report", {}).get("violations", ())),
                trace_digest=str(record.get("trace_digest", "")),
                original_steps=len(config.script.steps),
                minimal_script=minimal.to_dict(),
                minimal_steps=len(minimal.steps),
                shrink_runs=shrink_runs,
                replay=replay_command(seed, profile),
            )
        )
    return result


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def shrink_failure(
    config: ChaosRunConfig,
    runner: Callable[[ChaosRunConfig], ChaosRunResult] = run_scripted,
    max_runs: int = 64,
) -> tuple:
    """Greedily remove steps while the run still fails.

    Classic ddmin-style 1-minimality: repeatedly try dropping each
    non-heal step; keep any removal that preserves the failure; stop when
    no single removal does (or the run budget is exhausted).  Every
    candidate is a deterministic fresh run, so the minimal script is a
    true reproduction, not a guess.  Returns ``(minimal_script, runs_used)``.
    """
    current = config.script
    runs_used = 0
    improved = True
    while improved and runs_used < max_runs:
        improved = False
        for index, step in enumerate(current.steps):
            if step.name == "heal":
                continue
            candidate = current.without_step(index)
            runs_used += 1
            if not runner(config.with_script(candidate)).ok:
                current = candidate
                improved = True
                break
            if runs_used >= max_runs:
                break
    return current, runs_used
