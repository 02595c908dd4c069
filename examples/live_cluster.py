#!/usr/bin/env python
"""Live cluster: the same daemon, but real processes and real UDP.

Every other example runs inside the deterministic simulator.  This one
boots the *identical* service code — same election algorithm, same failure
detector, same group maintenance — as N separate operating-system
processes exchanging real UDP datagrams on localhost (the
:mod:`repro.runtime.realtime` engine instead of the simulator):

1. start N daemon processes, each serving one application process;
2. wait until every process reports the same leader;
3. ``kill -9`` the leader's process — a genuine workstation crash, no
   goodbye messages;
4. watch the survivors detect the crash (Chen et al.'s NFD-S on real
   timers) and agree on exactly one new leader;
5. report the measured re-election time — the live counterpart of the
   paper's Tr metric.

Run:  python examples/live_cluster.py [n_nodes]

Equivalent CLI:  python -m repro.cli live --nodes 3
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.service import ServiceConfig  # noqa: E402
from repro.fd.qos import FDQoS  # noqa: E402
from repro.runtime.cluster import run_cluster  # noqa: E402

N_NODES = int(sys.argv[1]) if len(sys.argv) > 1 else 3
DETECTION_TIME = 1.0  # the FD QoS bound T_D^U handed to every daemon


def main() -> int:
    print(
        f"Booting {N_NODES} leader-election daemons (Ω_lc, NFD-S with "
        f"T_D^U = {DETECTION_TIME}s) as real processes on localhost UDP...\n"
    )
    report = run_cluster(
        N_NODES,
        service=ServiceConfig(default_qos=FDQoS(detection_time=DETECTION_TIME)),
        kill_leader=True,
        log_dir=Path("live-cluster-logs"),
    )
    print()
    print(report.summary())
    if report.ok:
        print(
            f"\nre-election took {report.reelection_seconds:.2f}s against a "
            f"detection bound of {DETECTION_TIME}s (plus the stability hold) "
            f"— per-node logs in {report.log_dir}/"
        )
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
