"""Randomized scenario fuzzing: seeded grammar, parallel runs, shrinking.

The fuzzer closes the loop the ISSUE demands: *generate* adversarial
scenarios from a seed, *run* them through the experiment orchestrator in
parallel, *check* the paper's invariants on every one, and — when a run
fails — *shrink* the script to a minimal step list and hand the user a
one-line replay command that reproduces the failure bit-identically.

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
from typing import Any, Callable, Dict, List, Optional

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
from repro.core.service import FD_PLANES
from repro.experiments.orchestrator import run_sweep
from repro.experiments.scenario import ExperimentConfig
from repro.fd.qos import FDQoS
from repro.sim.rng import RngRegistry

__all__ = [
    "FuzzProfile",
    "FuzzFailure",
    "FuzzResult",
    "case_seed",
    "generate_script",
    "config_for_case",
    "fuzz_cell_runner",
    "run_fuzz",
    "shrink_failure",
    "replay_command",
]

#: Dotted reference the orchestrator workers resolve (must stay importable).
FUZZ_RUNNER_REF = "repro.chaos.fuzz:fuzz_cell_runner"


@dataclass(frozen=True)
class FuzzProfile:
    """The grammar's knobs.  Replay must use the profile of the original run.

    Chaos starts only after ``chaos_start`` (the group needs a few seconds
    to form), every generated script heals at the end of its chaos window,
    and the settle window after the heal is sized generously against the
    QoS-derived stabilization bound so a healthy service always passes.
    """

    n_nodes: int = 6
    #: Hosted groups per daemon: 2 by default since the multi-group
    #: scale-out, so every batch exercises the shared FD plane's isolation
    #: (group-scoped faults, cross-group invariant) alongside the classic
    #: single-group adversaries.
    n_groups: int = 2
    algorithm: str = "omega_lc"
    detection_time: float = 1.0
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
    #: Lease clients contending on the primary group — every fuzz case
    #: exercises the lease tier's ``no-double-grant`` safety invariant
    #: under the generated adversary by default.
    n_lease_clients: int = 3
    #: Probability a lease cycle ends in a transfer instead of a release,
    #: so every batch also fuzzes handoff token monotonicity.
    transfer_ratio: float = 0.25
    #: Node-level FD plane the generated cases run under.  A profile knob,
    #: deliberately NOT a grammar draw: the grammar's draw order is API (a
    #: new draw would shift every pinned replay seed), so the swim plane is
    #: fuzzed by re-running the same seed battery with this set to "swim".
    fd_plane: str = "all_pairs"

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError(f"need at least 2 nodes (got {self.n_nodes})")
        if self.n_groups < 1:
            raise ValueError(f"need at least 1 group (got {self.n_groups})")
        if not 1 <= self.min_steps <= self.max_steps:
            raise ValueError("need 1 <= min_steps <= max_steps")
        if self.settle <= self.hold:
            raise ValueError("settle window must exceed the hold requirement")
        if self.n_lease_clients < 0:
            raise ValueError(
                f"n_lease_clients must be >= 0 (got {self.n_lease_clients})"
            )
        if not 0.0 <= self.transfer_ratio <= 1.0:
            raise ValueError(
                f"transfer_ratio must be in [0, 1] (got {self.transfer_ratio})"
            )
        if self.fd_plane not in FD_PLANES:
            raise ValueError(
                f"unknown fd_plane {self.fd_plane!r} "
                f"(expected one of {', '.join(FD_PLANES)})"
            )


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
            nodes = list(rng.permutation(profile.n_nodes))
            split = int(rng.integers(1, profile.n_nodes))
            steps.append(
                partition(at, [sorted(int(n) for n in nodes[:split])])
            )
        elif kind == "asym_link":
            src, dst = (
                int(n) for n in rng.choice(profile.n_nodes, size=2, replace=False)
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
            target = 1 + int(rng.integers(profile.n_groups))
            steps.append(group_fault(at, target, float(rng.uniform(0.3, 1.0))))
        elif kind == "clock_drift":
            node = int(rng.integers(profile.n_nodes))
            skew = float(rng.uniform(-profile.max_skew, profile.max_skew))
            steps.append(clock_drift(at, node, skew))
        else:  # churn_burst
            k = int(rng.integers(1, profile.n_nodes))
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
        name=f"chaos/fuzz/{seed}",
        script=generate_script(seed, profile),
        n_nodes=profile.n_nodes,
        n_groups=profile.n_groups,
        algorithm=profile.algorithm,
        seed=RngRegistry.derive_seed(seed, "chaos.system"),
        detection_time=profile.detection_time,
        hold=profile.hold,
        n_lease_clients=profile.n_lease_clients,
        lease_transfer_ratio=profile.transfer_ratio,
        fd_plane=profile.fd_plane,
    )


# ----------------------------------------------------------------------
# Orchestrator integration
# ----------------------------------------------------------------------
def _experiment_cell(seed: int, profile: FuzzProfile) -> ExperimentConfig:
    """The orchestrator-visible cell for one case.

    The cell's ``seed`` is the *case seed* — the worker regenerates the
    script and the system seed from it, so the payload the pool pickles is
    just this small config.  The profile's grammar knobs ride on the
    fields ExperimentConfig shares (nodes, algorithm, QoS); the rest are
    :class:`FuzzProfile` defaults, which the replay contract pins.
    """
    script = generate_script(seed, profile)
    return ExperimentConfig(
        name=f"chaos/fuzz/{seed}",
        algorithm=profile.algorithm,
        n_nodes=profile.n_nodes,
        n_groups=profile.n_groups,
        duration=script.duration,
        warmup=0.0,
        seed=seed,
        node_churn=False,
        qos=FDQoS(detection_time=profile.detection_time),
        fd_plane=profile.fd_plane,
        n_lease_clients=profile.n_lease_clients,
        lease_transfer_ratio=profile.transfer_ratio,
    )


def fuzz_cell_runner(config: ExperimentConfig) -> Dict[str, Any]:
    """Orchestrator worker entry: run the fuzz case encoded in ``config``."""
    profile = FuzzProfile(
        n_nodes=config.n_nodes,
        n_groups=config.n_groups,
        algorithm=config.algorithm,
        detection_time=config.qos.detection_time,
        n_lease_clients=config.n_lease_clients,
        transfer_ratio=config.lease_transfer_ratio,
        fd_plane=config.fd_plane,
    )
    result = run_scripted(config_for_case(config.seed, profile))
    record = result.to_dict()
    record["case_seed"] = config.seed
    return record


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

    The CLI-expressible profile knobs (nodes, algorithm, detection time)
    are appended whenever they differ from the defaults — a replay under
    a different profile is a different case, so the command must carry
    everything the CLI can vary.
    """
    command = f"python -m repro chaos replay --seed {seed}"
    if profile is not None:
        defaults = FuzzProfile()
        if profile.n_nodes != defaults.n_nodes:
            command += f" --nodes {profile.n_nodes}"
        if profile.n_groups != defaults.n_groups:
            command += f" --groups {profile.n_groups}"
        if profile.algorithm != defaults.algorithm:
            command += f" --algorithm {profile.algorithm}"
        if profile.detection_time != defaults.detection_time:
            command += f" --detection-time {profile.detection_time}"
        if profile.n_lease_clients != defaults.n_lease_clients:
            command += f" --lease-clients {profile.n_lease_clients}"
        if profile.transfer_ratio != defaults.transfer_ratio:
            command += f" --transfer-ratio {profile.transfer_ratio}"
        if profile.fd_plane != defaults.fd_plane:
            command += f" --fd-plane {profile.fd_plane}"
    return command


def run_fuzz(
    runs: int,
    master_seed: int,
    *,
    profile: Optional[FuzzProfile] = None,
    workers: int = 1,
    shrink: bool = True,
    progress: Optional[Callable[[int, int, Any], None]] = None,
    runner: Callable[[ChaosRunConfig], ChaosRunResult] = run_scripted,
) -> FuzzResult:
    """Fuzz ``runs`` seeded scenarios; shrink every failure.

    Cases run through :func:`repro.experiments.orchestrator.run_sweep`
    (sharded across ``workers`` processes; ``workers=1`` stays fully
    in-process, which tests use to monkeypatch regressions).  ``runner``
    is the single-case executor used for in-process shrinking.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1 (got {runs})")
    profile = profile if profile is not None else FuzzProfile()
    if workers > 1 and profile != FuzzProfile(
        n_nodes=profile.n_nodes,
        n_groups=profile.n_groups,
        algorithm=profile.algorithm,
        detection_time=profile.detection_time,
        n_lease_clients=profile.n_lease_clients,
        transfer_ratio=profile.transfer_ratio,
        fd_plane=profile.fd_plane,
    ):
        # Workers rebuild the profile from the fields that ride on
        # ExperimentConfig; any other customized knob (grammar sizes,
        # windows, hold) would silently generate *different* scenarios in
        # the workers than the parent shrinks and replays.
        raise ValueError(
            "workers > 1 supports only the CLI-expressible profile knobs "
            "(n_nodes, n_groups, algorithm, detection_time, "
            "n_lease_clients, transfer_ratio, fd_plane); run custom-grammar "
            "profiles with workers=1"
        )
    seeds = [case_seed(master_seed, index) for index in range(runs)]
    cells = [_experiment_cell(seed, profile) for seed in seeds]
    # The sweep orchestrator shards the cases across worker processes; the
    # custom runner reference makes each worker execute the *chaos* case
    # (regenerated from the cell's seed), not the default experiment.
    # workers=1 keeps everything in the calling process, so tests can
    # monkeypatch regressions into the election and see them caught.
    if workers == 1:
        started = time.perf_counter()
        records = []
        for index, seed in enumerate(seeds):
            record = dict(
                runner(config_for_case(seed, profile)).to_dict(), case_seed=seed
            )
            records.append(record)
            if progress is not None:
                progress(index + 1, runs, record)
        wall = time.perf_counter() - started
    else:
        sweep = run_sweep(
            cells,
            name=f"chaos-fuzz/{master_seed}",
            workers=workers,
            runner=FUZZ_RUNNER_REF,
            progress=progress,
        )
        records = [outcome.record for outcome in sweep.outcomes]
        wall = sweep.wall_seconds

    result = FuzzResult(
        master_seed=master_seed,
        runs=runs,
        profile=profile,
        records=records,
        wall_seconds=wall,
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
