"""Declarative experiment configuration (the knobs of the paper's §6.1)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.service import ServiceConfig
from repro.fd.qos import FDQoS
from repro.net.links import LinkConfig

__all__ = ["LossyNetwork", "ExperimentConfig"]


@dataclass(frozen=True)
class LossyNetwork:
    """A (D, pL) pair as the paper labels its lossy-link settings."""

    label: str
    delay_mean: float
    loss_prob: float


#: The five network settings the paper's Figures 3-5 report (its "worst 4"
#: simulated pairs plus the real LAN).
PAPER_LOSSY_NETWORKS = (
    LossyNetwork("(0.025ms, 0)", 0.025e-3, 0.0),
    LossyNetwork("(10ms, 0.01)", 0.010, 0.01),
    LossyNetwork("(100ms, 0.01)", 0.100, 0.01),
    LossyNetwork("(10ms, 0.1)", 0.010, 0.10),
    LossyNetwork("(100ms, 0.1)", 0.100, 0.10),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experimental cell.

    Defaults are the paper's §6.1 settings: 12 workstations, one group,
    workstation MTTF 600 s / MTTR 5 s, FD QoS (1 s, 100 days, 0.99999988),
    LAN links.  ``duration``/``warmup`` are virtual seconds; the paper ran
    1-5 days per cell, we default to one virtual hour per cell and the
    benchmarks scale this down further (the CIs in the output make the
    sampling precision explicit either way).
    """

    name: str
    algorithm: str = "omega_lc"
    n_nodes: int = 12
    group: int = 1
    #: Hosted groups per daemon: every application joins groups
    #: ``group .. group + n_groups - 1``.  Leadership metrics are reported
    #: for the primary ``group``; the shared FD plane serves all of them
    #: from one heartbeat stream per node pair (the multi-group scale-out).
    n_groups: int = 1
    duration: float = 3600.0
    warmup: float = 300.0
    seed: int = 1

    # Lossy-link behaviour (paper §6.1 "communication links behavior").
    link_delay_mean: float = 0.025e-3
    link_loss_prob: float = 0.0
    # Crash-prone links (None = links never crash).
    link_mttf: Optional[float] = None
    link_mttr: float = 3.0

    # Workstation churn (paper: exponential, 600 s up / 5 s down).
    node_churn: bool = True
    node_mttf: float = 600.0
    node_mttr: float = 5.0

    # FD QoS for the group.
    qos: FDQoS = field(default_factory=FDQoS)

    #: Node-level FD plane: "all_pairs" (the paper's O(n²) mesh) or "swim"
    #: (randomized k-probing, O(k·n) — see :mod:`repro.fd.swim`).
    fd_plane: str = "all_pairs"

    #: Lease clients contending for locks on the primary group's leader
    #: (0 = no lease workload; see :mod:`repro.lease.workload`).
    n_lease_clients: int = 0
    #: Probability a lease-workload cycle ends in a ``transfer`` to another
    #: client instead of a release (0 keeps legacy runs event-identical).
    lease_transfer_ratio: float = 0.0

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError(f"need at least 2 nodes (got {self.n_nodes})")
        if self.n_groups < 1:
            raise ValueError(f"need at least 1 group (got {self.n_groups})")
        # The daemon's and the links' own checks, now rather than at build.
        self.service_config()
        self.link_config()
        if self.n_lease_clients < 0:
            raise ValueError(
                f"n_lease_clients must be >= 0 (got {self.n_lease_clients})"
            )
        if not 0.0 <= self.lease_transfer_ratio <= 1.0:
            raise ValueError(
                "lease_transfer_ratio must be in [0, 1] "
                f"(got {self.lease_transfer_ratio})"
            )
        if self.duration <= self.warmup:
            raise ValueError(
                f"duration {self.duration} must exceed warmup {self.warmup}"
            )

    @property
    def groups(self) -> "tuple[int, ...]":
        """The hosted group ids (primary first)."""
        return tuple(range(self.group, self.group + self.n_groups))

    def service_config(self) -> ServiceConfig:
        """The daemon settings every simulated node runs."""
        return ServiceConfig(
            algorithm=self.algorithm, default_qos=self.qos, fd_plane=self.fd_plane
        )

    def link_config(self) -> LinkConfig:
        """The behaviour of every directed link."""
        return LinkConfig(
            delay_mean=self.link_delay_mean,
            loss_prob=self.link_loss_prob,
            mttf=self.link_mttf,
            mttr=self.link_mttr if self.link_mttf is not None else None,
        )

    def with_(self, **changes) -> "ExperimentConfig":
        """A modified copy (convenience for sweeps)."""
        return replace(self, **changes)

    @property
    def measured_duration(self) -> float:
        return self.duration - self.warmup
