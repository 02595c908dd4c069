"""The Chen et al. stochastic failure detector with QoS (paper §3).

This package implements the three modules of the paper's Figure 1:

* :mod:`repro.fd.estimator` — the **Link Quality Estimator**: from the stream
  of received ALIVEs it continuously estimates the link's message-loss
  probability ``pL`` and the mean ``Ed`` and standard deviation ``Sd`` of the
  message delay.
* :mod:`repro.fd.configurator` — the **Failure Detector Configurator**: from
  the application's QoS requirement (T_D^U, T_MR^L, P_A^L) and the current
  link estimate it computes the heartbeat period ``η`` and the timeout shift
  ``δ`` of Chen et al.'s NFD-S algorithm.
* :mod:`repro.fd.monitor` + :mod:`repro.fd.scheduler` — the **Scheduler**:
  the sender side emits one batched frame per destination node every ``η``;
  the receiver side applies the NFD-S freshness-point rule and raises
  trust/suspect notifications.  A monitor is its stream's estimator: one
  received heartbeat is one deadline update and one folded sample.
* :mod:`repro.fd.plane` — the **shared node-level FD plane**: one monitor
  per node pair, shared by every hosted group, with a trust/suspect fan-out
  bus toward the groups' elections (:mod:`repro.fd.swim` is the probing
  alternative on the same base, whose probe LRU keeps standalone
  estimators).

:mod:`repro.fd.qos` holds the QoS types and the closed-form NFD-S analysis
used by the configurator; :mod:`repro.fd.nfde` adds Chen et al.'s NFD-E
variant (expected-arrival estimation) for systems without synchronized
clocks, as an extension beyond the paper's service.
"""

from repro.fd.configurator import ConfiguratorCache, configure
from repro.fd.estimator import LinkQualityEstimator
from repro.fd.monitor import NfdsMonitor
from repro.fd.nfde import NfdeMonitor
from repro.fd.qos import (
    FDParams,
    FDQoS,
    LinkEstimate,
    expected_detection_time,
    expected_mistake_duration,
    expected_mistake_recurrence,
    mistake_probability,
    query_accuracy,
    worst_case_detection_time,
)
from repro.fd.plane import NodeFdPlane, StreamMonitor
from repro.fd.scheduler import AliveBatcher

__all__ = [
    "ConfiguratorCache",
    "FDParams",
    "FDQoS",
    "AliveBatcher",
    "LinkEstimate",
    "LinkQualityEstimator",
    "NodeFdPlane",
    "NfdeMonitor",
    "NfdsMonitor",
    "StreamMonitor",
    "configure",
    "expected_detection_time",
    "expected_mistake_duration",
    "expected_mistake_recurrence",
    "mistake_probability",
    "query_accuracy",
    "worst_case_detection_time",
]
