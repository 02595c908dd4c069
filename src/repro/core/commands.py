"""The command handler: the boundary between applications and the daemon.

In the paper's architecture (Figure 2) application processes are linked with
a shared library whose API calls are shipped to the daemon's *Command
Handler* over local IPC.  In the simulation the transport is a direct call
(same-host IPC has no interesting failure modes for the paper's questions);
the handler's methods are the paper's five calls (§4): register/unregister,
join/leave, query the leader.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.fd.qos import FDQoS

__all__ = ["CommandError", "CommandHandler"]


class CommandError(Exception):
    """An application request the daemon rejected (with the reason)."""


class CommandHandler:
    """Runs the paper's calls against one daemon; a rejection raises
    :class:`CommandError`."""

    def __init__(self, service) -> None:
        self._service = service

    def _call(self, method, *args, **kwargs):
        try:
            return method(*args, **kwargs)
        except ValueError as exc:
            raise CommandError(str(exc)) from exc

    def register(self, pid: int, name: str = "") -> None:
        self._call(self._service.register, pid, name)

    def unregister(self, pid: int) -> None:
        self._call(self._service.unregister, pid)

    def join(
        self,
        pid: int,
        group: int,
        candidate: bool = True,
        qos: Optional[FDQoS] = None,
        on_leader_change: Optional[Callable[[int, Optional[int]], None]] = None,
        algorithm: Optional[str] = None,
    ):
        """The paper's four join parameters (§4): group id, candidacy, how
        the process learns of leader changes (callback = interrupt, None =
        it will query), and the FD QoS for this group.  Returns the
        daemon's group runtime."""
        return self._call(
            self._service.join,
            pid=pid,
            group=group,
            candidate=candidate,
            qos=qos,
            algorithm=algorithm,
            on_leader_change=on_leader_change,
        )

    def leave(self, pid: int, group: int) -> None:
        self._call(self._service.leave, pid, group)

    def leader(self, group: int) -> Optional[int]:
        """Query-mode readout of the group's current leader."""
        return self._service.leader_of(group)
