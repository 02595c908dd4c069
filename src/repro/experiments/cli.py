"""Command-line entry point: run one experiment cell or a figure sweep.

Single cell (the paper's CLI of old)::

    python -m repro.experiments.cli --algorithm omega_lc --nodes 12 \
        --duration 1800 --delay 0.1 --loss 0.1 --seed 7

Whole-figure sweeps shard their cells across worker processes::

    python -m repro.experiments.cli --figure fig7 --workers 4 --duration 1800

    python -m repro.experiments.cli --figure all --workers 8

Single-cell mode prints the paper's QoS metrics (Tr with 95% CI, λu,
Pleader) and the per-workstation cost, in the same units as the paper's
figures; sweep mode prints per-cell progress, the paper-vs-measured table,
and the sweep totals.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.experiments.figures import cells_for, figure_names
from repro.experiments.orchestrator import run_cells
from repro.experiments.report import format_figure_results
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.scenario import ExperimentConfig
from repro.flags import SIMULATOR_FLAGS, add_flags, apply_flags
from repro.metrics.stats import rate_confidence_interval

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Run one leader-election experiment cell, or a whole "
        "figure sweep through the parallel orchestrator (paper §6).",
    )
    add_flags(parser, SIMULATOR_FLAGS, ExperimentConfig)
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="virtual s (default: 1800, or each figure's own in sweep mode)",
    )
    parser.add_argument(
        "--warmup",
        type=float,
        default=None,
        help="excluded prefix, virtual s (default: 300, or the figure's own)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--delay", type=float, default=0.025e-3, help="mean link delay s")
    parser.add_argument("--loss", type=float, default=0.0, help="link loss probability")
    parser.add_argument("--link-mttf", type=float, default=None, help="link crash MTTF s")
    parser.add_argument("--link-mttr", type=float, default=3.0, help="link downtime s")
    parser.add_argument("--no-churn", action="store_true", help="disable workstation churn")
    parser.add_argument("--node-mttf", type=float, default=600.0)
    parser.add_argument("--node-mttr", type=float, default=5.0)

    sweep = parser.add_argument_group("sweep orchestration")
    sweep.add_argument(
        "--figure",
        choices=[*figure_names(), "all"],
        default=None,
        help="sweep a whole paper figure grid instead of one cell",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes to shard the sweep across",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cell = ExperimentConfig(
        name=f"cli/{args.algorithm}",
        duration=args.duration if args.duration is not None else 1800.0,
        warmup=args.warmup if args.warmup is not None else 300.0,
        seed=args.seed,
        link_delay_mean=args.delay,
        link_loss_prob=args.loss,
        link_mttf=args.link_mttf,
        link_mttr=args.link_mttr,
        node_churn=not args.no_churn,
        node_mttf=args.node_mttf,
        node_mttr=args.node_mttr,
    )
    return apply_flags(args, cell)


def _run_single_cell(config: ExperimentConfig) -> int:
    print(
        f"running {config.algorithm} on {config.n_nodes} workstations for "
        f"{config.duration:.0f} virtual seconds (warmup {config.warmup:.0f} s, "
        f"seed {config.seed}) ..."
    )
    result = run_experiment(config)
    _print_cell_metrics(result)
    return 0


def _print_cell_metrics(result: ExperimentResult) -> None:
    leadership = result.leadership
    summary = leadership.recovery_summary()
    rate, rate_half = rate_confidence_interval(
        leadership.unjustified_demotions, leadership.duration_hours
    )
    print(f"leader availability  Pleader : {leadership.availability:.5f}")
    print(f"mistake rate         λu      : {rate:.2f} ± {rate_half:.2f} /hour")
    print(f"leader recovery time Tr      : {summary}")
    print(f"leader crashes               : {leadership.leader_crashes}")
    print(f"disruptions (flickers)       : {leadership.disruptions}")
    print(
        f"cost per workstation         : {result.usage.cpu_percent:.4f}% CPU, "
        f"{result.usage.kb_per_second:.2f} KB/s"
    )
    print(
        f"fault injection              : {result.node_crashes} workstation crashes, "
        f"{result.link_crashes} link crashes"
    )
    if result.config.n_lease_clients > 0:
        print(
            f"lease workload               : {result.config.n_lease_clients} clients, "
            f"{result.lease_grants} grants, {result.lease_releases} releases, "
            f"{result.lease_losses} losses, {result.lease_transfers} transfers"
        )


def _figure_grids(args: argparse.Namespace) -> dict:
    figures = figure_names() if args.figure == "all" else [args.figure]
    return {
        figure: cells_for(
            figure, duration=args.duration, warmup=args.warmup, seed=args.seed
        )
        for figure in figures
    }


def _run_figure_sweep(args: argparse.Namespace, cells_by_figure: dict) -> int:
    figures = list(cells_by_figure)
    cells = [cell for grid in cells_by_figure.values() for cell in grid]
    horizon = (
        f"{args.duration:.0f} virtual s per cell"
        if args.duration is not None
        else "figure-default horizons"
    )
    print(
        f"sweeping {len(cells)} cells ({', '.join(figures)}) with "
        f"{args.workers} worker(s), {horizon} ...",
        file=sys.stderr,
    )
    started = time.perf_counter()

    def progress(done: int, total: int, result: ExperimentResult) -> None:
        print(
            f"[{done}/{total}] {result.config.name:<30} "
            f"{time.perf_counter() - started:7.1f}s  "
            f"{result.events_executed:>10,} events",
            file=sys.stderr,
        )

    results = run_cells([cell.config for cell in cells], args.workers, progress)
    wall = time.perf_counter() - started
    events = sum(result.events_executed for result in results)
    pairs = iter(zip(cells, results))
    for figure in figures:
        figure_pairs = [next(pairs) for _ in cells_by_figure[figure]]
        print(format_figure_results(f"Sweep — {figure}", figure_pairs))
    print(
        f"swept {len(results)} cells in {wall:.1f} s wall — "
        f"{events:,} events, {events / wall:,.0f} ev/s"
    )
    return 0


#: Flags that configure the single cell and are meaningless against a
#: figure's predefined grid (duration/warmup/seed apply to both modes).
_SINGLE_CELL_ONLY = (
    *SIMULATOR_FLAGS, "delay", "loss", "link_mttf", "link_mttr", "no_churn",
    "node_mttf", "node_mttr",
)


def _reject_inapplicable_flags(parser: argparse.ArgumentParser, args) -> None:
    """Fail loudly instead of silently ignoring flags the mode won't use."""
    if args.figure is not None:
        wrong = [
            name
            for name in _SINGLE_CELL_ONLY
            if getattr(args, name) != parser.get_default(name)
        ]
        if wrong:
            flags = ", ".join("--" + name.replace("_", "-") for name in wrong)
            parser.error(
                f"{flags}: single-cell flags do not apply to --figure sweeps "
                "(the figure's grid fixes these parameters)"
            )
    elif args.workers != parser.get_default("workers"):
        parser.error("--workers requires --figure")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1 (got {args.workers})")
    _reject_inapplicable_flags(parser, args)
    sweep = args.figure is not None
    try:
        work = _figure_grids(args) if sweep else config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    return _run_figure_sweep(args, work) if sweep else _run_single_cell(work)


if __name__ == "__main__":
    raise SystemExit(main())
