"""The lease/lock service tier built on the stable leader.

The paper elects a *stable* leader but leaves "what is the leader for" to
the application.  This package supplies the canonical answer — a lease
(lock) service in the style of Chubby — anchored on each group's elected
leader and made safe under churn by **fencing tokens**:

* :mod:`repro.lease.ledger` — the replicated lease table (the membership
  view's :mod:`repro.core.table` with its own record order);
* :mod:`repro.lease.manager` — the leader-side grant logic: TTLs,
  monotonically increasing fencing tokens, takeover grace, majority
  guard and per-client throttling;
* :mod:`repro.lease.server` — what the daemon hosts per group: request
  routing, watcher registry, ledger replication on the leader's frames;
* :mod:`repro.lease.client` — the client library: retry/backoff,
  leader-redirect following, watch;
* :mod:`repro.lease.workload` — deterministic simulated client
  populations for experiments, chaos fuzzing and the bench cell.
"""

from repro.lease.client import LeaseClient, LeaseGrant
from repro.lease.ledger import LeaseLedger, lease_id
from repro.lease.manager import LeaseManager
from repro.lease.workload import LeaseWorkload

__all__ = [
    "LeaseClient",
    "LeaseGrant",
    "LeaseLedger",
    "LeaseManager",
    "LeaseWorkload",
    "lease_id",
]
