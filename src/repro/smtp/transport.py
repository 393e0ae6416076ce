"""The in-memory network connecting SMTP clients to servers.

:class:`Network` maps server IP addresses to :class:`SmtpServer`
instances and hands out live sessions.  Connection refusal happens here
(before any SMTP dialogue), matching the paper's "Connection Refused"
bucket in Table 3.

The network can be backed by a *server provider* — the lazy fleet's
first-touch materialization hook.  With a provider, servers are created
the first time an address is looked up and **synced** on every touch, so
time-dependent state (address moves, patch plans) is a pure function of
the clock rather than of scheduled callbacks.  Without a provider, the
network is the plain dict registry it always was (tests and tools keep
registering hand-built servers).
"""

from __future__ import annotations

import datetime as _dt
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional

from ..errors import SmtpError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .server import SmtpServer, SmtpSession


class ConnectionRefused(SmtpError):
    """The target host did not accept the TCP connection."""


class Network:
    """An IP-address-indexed registry of simulated mail servers.

    ``provider``, when given, must expose::

        create(ip) -> Optional[SmtpServer]   # first-touch materialization
        sync(server, now, patch_model)       # fold time into cached state
        has(ip) -> bool                      # membership without creating
        addressable_ips() -> Iterator[str]   # the full addressable space

    ``self._servers`` then holds only the *touched* servers — the set the
    checkpoint store persists — while membership and totals answer from
    the provider without materializing anything.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], _dt.datetime]] = None,
        provider=None,
    ) -> None:
        self._servers: Dict[str, "SmtpServer"] = {}
        self._clock = clock or (lambda: _dt.datetime.now(tz=_dt.timezone.utc))
        self._provider = provider
        self._patch_model = None
        self._addressable_count: Optional[int] = None
        self.connection_attempts = 0
        self.connections_established = 0

    def register(self, server: "SmtpServer") -> None:
        if server.ip in self._servers:
            raise SmtpError(f"duplicate server registration for {server.ip}")
        self._servers[server.ip] = server

    def bind_patch_model(self, patch_model) -> None:
        """Make server syncs apply this model's patch plans."""
        self._patch_model = patch_model

    def server_at(self, ip: str) -> Optional["SmtpServer"]:
        server = self._servers.get(ip)
        if self._provider is None:
            return server
        if server is None:
            server = self._provider.create(ip)
            if server is None:
                return None
            self._servers[ip] = server
        self._provider.sync(server, self._clock(), self._patch_model)
        return server

    def __contains__(self, ip: str) -> bool:
        if ip in self._servers:
            return True
        return self._provider is not None and self._provider.has(ip)

    def __len__(self) -> int:
        if self._provider is None:
            return len(self._servers)
        if self._addressable_count is None:
            self._addressable_count = sum(
                1 for _ in self._provider.addressable_ips()
            )
        return self._addressable_count

    @property
    def materialized_count(self) -> int:
        """How many servers have actually been touched into existence."""
        return len(self._servers)

    def perf_counters(self) -> Dict[str, int]:
        """Read-only telemetry (repro.obs.perf counter surface)."""
        return {
            "network.servers_materialized": len(self._servers),
            "network.connection_attempts": self.connection_attempts,
            "network.connections_established": self.connections_established,
        }

    def materialize_all(self) -> None:
        """Eagerly build every addressable server (the pre-lazy behavior).

        The lazy-world tests build their eager reference through this:
        the same per-unit RNG forks produce the same servers, just all up
        front, so traces are byte-identical to the lazy path while memory
        is O(world) again.
        """
        if self._provider is None:
            return
        for ip in self._provider.addressable_ips():
            self.server_at(ip)

    def connect(self, client_ip: str, server_ip: str) -> "SmtpSession":
        """Open a TCP connection; raises :class:`ConnectionRefused` if the
        host is absent or refusing."""
        self.connection_attempts += 1
        server = self.server_at(server_ip)
        if server is None:
            raise ConnectionRefused(f"no host at {server_ip}")
        if server.policy.refuse_connections:
            raise ConnectionRefused(f"{server_ip} refused the connection")
        self.connections_established += 1
        return server.accept(client_ip, self._clock())
