"""The leader election service (paper §4).

The architecture follows the paper's Figure 2:

* :mod:`repro.core.api` — the *shared library* linked into application
  processes: register/unregister, join/leave groups, query the leader or
  receive leader-change interrupts.
* :mod:`repro.core.commands` — the *command handler* between applications
  and the daemon.
* :mod:`repro.core.group` + :mod:`repro.core.membership` — *group
  maintenance*: the dynamic membership of each group (a
  :mod:`repro.core.table` of last-writer-wins records) and the HELLO
  gossip that maintains it.
* :mod:`repro.core.cells` — each group's share of the batched ALIVE frames.
* :mod:`repro.core.election` — the pluggable *leader election algorithm*
  module: Ω_id (service S1), Ω_lc (service S2) and Ω_l (service S3).
* :mod:`repro.core.service` — the per-workstation daemon tying the above to
  the failure-detector package.
"""

from repro.core.api import Application, ServiceHost
from repro.core.commands import CommandError
from repro.core.group import MembershipView
from repro.core.service import LeaderElectionService, ServiceConfig

__all__ = [
    "Application",
    "CommandError",
    "LeaderElectionService",
    "MembershipView",
    "ServiceConfig",
    "ServiceHost",
]
