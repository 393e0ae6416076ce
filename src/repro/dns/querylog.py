"""The measurement-side DNS query log.

The SPFail detection technique observes nothing but the DNS queries that
arrive at the researchers' authoritative server.  :class:`QueryLog` records
each query with its timestamp and source, and knows how to slice the log by
the unique ``<id>`` / ``<suite>`` labels that the prober embeds in MAIL FROM
domains (Section 5.1 of the paper).
"""

from __future__ import annotations

import datetime as _dt
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..obs import context as _obs
from .name import Name
from .rdata import RRType


@dataclass(frozen=True)
class QueryLogEntry:
    """One query received by the measurement DNS server."""

    timestamp: _dt.datetime
    qname: Name
    rrtype: RRType
    source: str  # the querying resolver/MTA identity, e.g. "198.51.100.7"


class QueryLog:
    """An append-only log of queries, indexed by embedded test labels.

    The prober advertises MAIL FROM domains of the form::

        <id>.<suite>.spf-test.dns-lab.org

    so any query whose name contains both labels belongs to exactly one
    (test-suite, tested-server) pair.  ``base`` is the registered suffix
    under the measurement team's control.
    """

    def __init__(self, base: Name) -> None:
        self.base = base
        self._base_key = base.key
        self._entries: List[QueryLogEntry] = []
        self._by_labels: Dict[Tuple[str, str], List[QueryLogEntry]] = {}
        # Appends are guarded; per-label slices stay consistent because
        # every (suite, id) pair belongs to one task.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[QueryLogEntry]:
        return iter(self._entries)

    def record(
        self,
        timestamp: _dt.datetime,
        qname: Name,
        rrtype: RRType,
        source: str = "",
    ) -> QueryLogEntry:
        """Append one query to the log."""
        entry = QueryLogEntry(timestamp=timestamp, qname=qname, rrtype=rrtype, source=source)
        labels = self.extract_labels(qname)
        with self._lock:
            self._entries.append(entry)
            if labels is not None:
                self._by_labels.setdefault(labels, []).append(entry)
        obs = _obs.ACTIVE
        if obs is not None and obs.tracer.enabled:
            # The query-observed event: the paper's sole observable,
            # linked to the originating probe by its embedded labels.
            obs.tracer.event(
                "dns.query",
                qname=str(qname),
                rrtype=rrtype.name,
                source=source,
                suite=labels[0] if labels is not None else None,
                test_id=labels[1] if labels is not None else None,
            )
        return entry

    def entries_since(self, start: int) -> List[QueryLogEntry]:
        """Entries recorded at positions ``start..`` (arrival order)."""
        with self._lock:
            return self._entries[start:]

    def ingest(self, entries: Iterable[QueryLogEntry]) -> None:
        """Adopt entries recorded by an earlier process's log.

        Used when a resume restores a checkpoint's query-log segments:
        the entries were already traced (``dns.query``) in the recording
        process, so ingestion only appends and re-indexes — it never
        re-emits trace events.
        """
        with self._lock:
            for entry in entries:
                self._entries.append(entry)
                labels = self.extract_labels(entry.qname)
                if labels is not None:
                    self._by_labels.setdefault(labels, []).append(entry)

    def extract_labels(self, qname: Name) -> Optional[Tuple[str, str]]:
        """Extract ``(suite, id)`` from a query name under our base.

        The id and suite are the two labels immediately left of the base;
        anything further left is macro-expansion output.  Returns ``None``
        for names outside the base or too shallow to carry both labels.
        """
        base_key = self._base_key
        blen = len(base_key)
        qkey = qname.key
        n = len(qkey) - blen
        if n < 2:
            return None
        if blen and qkey[-blen:] != base_key:
            return None
        return (qkey[n - 1], qkey[n - 2])

    def entries_for(self, suite: str, test_id: str) -> List[QueryLogEntry]:
        """All queries carrying the given suite and test id labels."""
        return list(self._by_labels.get((suite.lower(), test_id.lower()), []))

    def expansion_prefixes(self, suite: str, test_id: str) -> List[Name]:
        """The macro-expansion outputs observed for one test.

        For each logged A/AAAA query ``X.<id>.<suite>.<base>``, returns the
        ``X`` portion (possibly multiple labels).  TXT queries (the policy
        fetch itself, with empty prefix) are excluded.
        """
        blen = len(self._base_key)
        prefixes = []
        for entry in self.entries_for(suite, test_id):
            if entry.rrtype not in (RRType.A, RRType.AAAA):
                continue
            qname = entry.qname
            n = len(qname.labels) - blen - 2
            if n > 0:
                prefixes.append(Name._make(qname.labels[:n], qname.key[:n]))
        return prefixes

    def saw_policy_fetch(self, suite: str, test_id: str) -> bool:
        """True if the TXT policy for this test was ever queried."""
        return any(
            e.rrtype == RRType.TXT for e in self.entries_for(suite, test_id)
        )

