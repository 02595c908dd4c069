"""Command-line front-end of the chaos harness.

::

    python -m repro chaos fuzz --runs 50 --seed 0 [--workers 4]
    python -m repro chaos replay --seed 6448168020722565232 [--digest SHA]
    python -m repro chaos run --script failing.chaos.json [--seed N]

``fuzz`` generates and runs N seeded scenarios, checks every invariant,
shrinks each failure to a minimal step list and prints (and optionally
writes, with ``--artifact``) the replay command.  ``replay`` re-runs one
case from its seed and — because the whole pipeline is deterministic —
reproduces the original event trace bit-identically (``--digest`` turns
that into an assertion).  ``run`` executes a hand-written or shrunken
script file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.chaos.fuzz import (
    FuzzProfile,
    config_for_case,
    replay_command,
    run_fuzz,
    shrink_failure,
)
from repro.chaos.run import ChaosRunConfig, ChaosRunResult, run_scripted
from repro.chaos.script import ChaosScript
from repro.flags import SIMULATOR_FLAGS, add_flags, apply_flags

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="Deterministic chaos harness: scripted adversaries, "
        "invariant checks, seed-replayable fuzzing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser(
        "fuzz", help="run N seeded random scenarios and check all invariants"
    )
    fuzz.add_argument("--runs", type=int, default=50, help="scenarios to generate")
    fuzz.add_argument("--seed", type=int, default=0, help="master seed")
    fuzz.add_argument(
        "--workers", type=int, default=1, help="orchestrator worker processes"
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true", help="skip shrinking failing scripts"
    )
    fuzz.add_argument(
        "--artifact", type=Path, default=None, help="write the batch JSON here"
    )
    add_flags(fuzz, SIMULATOR_FLAGS)

    replay = sub.add_parser(
        "replay", help="re-run one fuzz case bit-identically from its seed"
    )
    replay.add_argument("--seed", type=int, required=True, help="the case seed")
    replay.add_argument(
        "--digest",
        default=None,
        help="expected trace digest; mismatch fails the replay",
    )
    replay.add_argument(
        "--show-script", action="store_true", help="print the generated script"
    )
    add_flags(replay, SIMULATOR_FLAGS)

    run = sub.add_parser("run", help="run one scenario from a script file")
    run.add_argument("--script", type=Path, required=True, help="ChaosScript JSON")
    run.add_argument("--seed", type=int, default=1, help="system seed")
    run.add_argument(
        "--shrink",
        action="store_true",
        help="if the run fails, shrink the script to a minimal reproduction",
    )
    add_flags(run, SIMULATOR_FLAGS)
    return parser


def _profile_from_args(args: argparse.Namespace) -> FuzzProfile:
    profile = FuzzProfile()
    return replace(profile, system=apply_flags(args, profile.system))


def _print_report(result: ChaosRunResult) -> None:
    report = result.report
    print(f"fd plane             : {result.config.system.fd_plane}")
    print(f"script steps applied : {result.chaos_steps_applied}")
    print(f"trace digest         : {result.trace_digest}")
    if report.stabilized_at is not None:
        print(
            f"stabilized           : t={report.stabilized_at:.2f} "
            f"({report.stabilized_at - report.heal_time:.2f}s after heal)"
        )
    if report.final_leader is not None:
        print(f"final leader         : {report.final_leader}")
    if report.ok:
        print("invariants           : all OK")
    else:
        print(f"invariants           : {len(report.violations)} VIOLATED")
        for violation in report.violations:
            print(f"  [{violation.invariant}] t={violation.time:.2f} {violation.detail}")


def _run_fuzz(args: argparse.Namespace, profile: FuzzProfile) -> int:
    if args.runs < 1:
        print(f"--runs must be >= 1 (got {args.runs})", file=sys.stderr)
        return 2
    if args.workers < 1:
        print(f"--workers must be >= 1 (got {args.workers})", file=sys.stderr)
        return 2

    def progress(done: int, total: int, record: Dict[str, Any]) -> None:
        verdict = "ok" if record.get("ok") else "FAIL"
        print(
            f"[{done}/{total}] seed={record.get('case_seed')} {verdict}",
            file=sys.stderr,
        )

    result = run_fuzz(
        args.runs,
        args.seed,
        profile=profile,
        workers=args.workers,
        shrink=not args.no_shrink,
        progress=progress,
    )
    print(
        f"fuzzed {result.runs} scenarios (master seed {result.master_seed}) in "
        f"{result.wall_seconds:.1f}s — {result.cases_passed} passed, "
        f"{len(result.failures)} failed"
    )
    for failure in result.failures:
        print(
            f"FAILURE seed={failure.case_seed}: shrunk "
            f"{failure.original_steps} → {failure.minimal_steps} steps "
            f"({failure.shrink_runs} shrink runs)"
        )
        for violation in failure.violations:
            print(
                f"  [{violation['invariant']}] t={violation['time']:.2f} "
                f"{violation['detail']}"
            )
        print(f"  minimal script: {json.dumps(failure.minimal_script)}")
        print(f"  replay: {failure.replay}")
    if args.artifact is not None:
        args.artifact.parent.mkdir(parents=True, exist_ok=True)
        args.artifact.write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"artifact written to {args.artifact}")
    return 0 if result.ok else 1


def _run_replay(args: argparse.Namespace, profile: FuzzProfile) -> int:
    config = config_for_case(args.seed, profile)
    print(
        f"replaying case seed {args.seed}: {len(config.script.steps)} steps, "
        f"{config.script.duration:.0f} virtual s, {config.system.n_nodes} nodes "
        f"({replay_command(args.seed, profile)})"
    )
    if args.show_script:
        print(json.dumps(config.script.to_dict(), indent=2))
    result = run_scripted(config)
    _print_report(result)
    if args.digest is not None and args.digest != result.trace_digest:
        print(
            f"DIGEST MISMATCH: expected {args.digest}, got {result.trace_digest}",
            file=sys.stderr,
        )
        return 1
    return 0 if result.ok else 1


def _run_script(args: argparse.Namespace, profile: FuzzProfile) -> int:
    try:
        record = json.loads(args.script.read_text())
    except OSError as exc:
        print(f"cannot read {args.script}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"{args.script} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        script = ChaosScript.from_dict(record)
        config = ChaosRunConfig(
            script=script,
            system=profile.system.with_(
                name=f"chaos/script/{args.script.stem}", seed=args.seed
            ),
        )
    except (ValueError, TypeError) as exc:
        print(f"invalid chaos script: {exc}", file=sys.stderr)
        return 2
    result = run_scripted(config)
    _print_report(result)
    if not result.ok and args.shrink:
        minimal, runs_used = shrink_failure(config)
        print(
            f"shrunk {len(script.steps)} → {len(minimal.steps)} steps "
            f"({runs_used} runs)"
        )
        print(f"minimal script: {json.dumps(minimal.to_dict())}")
    return 0 if result.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        profile = _profile_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    if args.command == "fuzz":
        return _run_fuzz(args, profile)
    if args.command == "replay":
        return _run_replay(args, profile)
    return _run_script(args, profile)


if __name__ == "__main__":
    raise SystemExit(main())
