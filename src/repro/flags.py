"""The command-line flags the front-ends share, declared once.

Every setting a shared flag reaches is a field of one of two dataclasses:
:class:`~repro.experiments.scenario.ExperimentConfig` (the simulated
deployment) or :class:`~repro.core.service.ServiceConfig` (the daemon).
:data:`FLAGS` gives each one its spellings (the first is canonical, the
rest are aliases), type, help and choices; its default is read from the
dataclass, never restated here.  The experiment, chaos, live and node
front-ends add their flags with :func:`add_flags` and fold what was given
into a config with :func:`apply_flags`; :func:`flag_argv` goes the other
way, from a config to the argv that reproduces it (the chaos replay line,
the command line of every daemon ``repro live`` spawns).
"""

from __future__ import annotations

import argparse
from dataclasses import MISSING, dataclass, fields, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.election.registry import available_algorithms
from repro.core.service import FD_MONITORS, FD_PLANES
from repro.experiments.scenario import ExperimentConfig
from repro.fd.qos import FDQoS

__all__ = [
    "FLAGS",
    "SIMULATOR_FLAGS",
    "LIVE_FLAGS",
    "NODE_FLAGS",
    "add_flags",
    "apply_flags",
    "flag_argv",
]


@dataclass(frozen=True)
class Flag:
    """One shared setting on the command line."""

    spellings: Tuple[str, ...]
    #: The field it sets, under each name a config class gives it.  A field
    #: holding an :class:`FDQoS` takes the flag as its T_D^U.
    fields: Tuple[str, ...]
    type: Callable[[str], Any]
    help: str
    choices: Optional[Callable[[], Sequence[str]]] = None

    def field(self, config: Any) -> Optional[str]:
        """The field ``config`` (a config or its class) keeps this in, if any."""
        names = {spec.name for spec in fields(config)}
        return next((name for name in self.fields if name in names), None)

    def value(self, config: Any) -> Any:
        """The flag's value in ``config``; its default when given the class."""
        name = self.field(config)
        if isinstance(config, type):
            (spec,) = [spec for spec in fields(config) if spec.name == name]
            value = spec.default_factory() if spec.default is MISSING else spec.default
        else:
            value = getattr(config, name)
        return value.detection_time if isinstance(value, FDQoS) else value


FLAGS: Dict[str, Flag] = {
    "nodes": Flag(("--nodes",), ("n_nodes",), int, "cluster size (workstations, live daemons)"),
    "groups": Flag(
        ("--groups",), ("n_groups",), int,
        "groups hosted per daemon, all over one shared FD plane (metrics and the leader "
        "kill follow the first)",
    ),
    "algorithm": Flag(
        ("--algorithm",), ("algorithm",), str,
        "election algorithm (S1=omega_id, S2=omega_lc, S3=omega_l)", available_algorithms,
    ),
    "detection_time": Flag(
        ("--qos", "--detection-time"), ("qos", "default_qos"), float,
        "FD QoS bound T_D^U, s (--detection-time is an alias)",
    ),
    "fd_plane": Flag(
        ("--fd-plane",), ("fd_plane",), str,
        "node-level FD plane: all_pairs (paper, O(n^2)) or swim (O(k*n))", lambda: FD_PLANES,
    ),
    "lease_clients": Flag(
        ("--lease-clients",), ("n_lease_clients",), int,
        "simulated lease clients contending on the primary group's locks",
    ),
    "lease_transfer_ratio": Flag(
        ("--lease-transfer-ratio", "--transfer-ratio"), ("lease_transfer_ratio",), float,
        "probability a lease cycle ends in a transfer to another client instead of a "
        "release (--transfer-ratio is an alias)",
    ),
    "fd_variant": Flag(
        ("--fd-variant",), ("fd_variant",), str,
        "failure-detector variant (nfds: the paper's, synchronized clocks)",
        lambda: tuple(FD_MONITORS),
    ),
}

#: The shared flags each front-end carries.  Both simulator CLIs
#: (experiment and chaos) take every flag that sets an ExperimentConfig
#: field, so a new row there is a new fuzz-profile knob too.
SIMULATOR_FLAGS = tuple(name for name, flag in FLAGS.items() if flag.field(ExperimentConfig))
LIVE_FLAGS = ("nodes", "groups", "algorithm", "detection_time", "fd_variant")
NODE_FLAGS = ("groups", "algorithm", "detection_time", "fd_variant")


def add_flags(
    parser: argparse.ArgumentParser, names: Sequence[str], defaults: Any = None
) -> None:
    """Add the shared flags ``names``, defaulting to the config class
    ``defaults``' values; a flag it has no field for (or every flag, when
    it is None) defaults to None, meaning "keep the config's value"."""
    for name in names:
        flag = FLAGS[name]
        has_field = defaults is not None and flag.field(defaults) is not None
        parser.add_argument(
            *flag.spellings,
            dest=name,
            type=flag.type,
            default=flag.value(defaults) if has_field else None,
            choices=flag.choices() if flag.choices is not None else None,
            help=flag.help,
        )


def apply_flags(args: argparse.Namespace, config: Any) -> Any:
    """``config`` with every shared flag ``args`` gives a value for (and
    ``config`` has a field for) written into it; validated as it is built."""
    changes: Dict[str, Any] = {}
    for name, flag in FLAGS.items():
        value, field = getattr(args, name, None), flag.field(config)
        if value is None or field is None:
            continue
        current = getattr(config, field)
        if isinstance(current, FDQoS):
            value = replace(current, detection_time=value)
        changes[field] = value
    return replace(config, **changes)


def flag_argv(config: Any, names: Sequence[str], base: Any = None) -> List[str]:
    """The argv that sets the flags ``names`` to their values in ``config``
    — only those differing from ``base`` when one is given, and none that
    ``config`` has no field for."""
    argv: List[str] = []
    for name in names:
        flag = FLAGS[name]
        if flag.field(config) is None:
            continue
        value = flag.value(config)
        if base is None or value != flag.value(base):
            argv += [flag.spellings[0], str(value)]
    return argv
