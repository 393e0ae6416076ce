"""Checkpoint capture and restore for longitudinal campaigns.

A checkpoint must let a *fresh* process reproduce the exact state of a
campaign that has completed ``k`` rounds, down to every RNG stream,
greylist timestamp, and DNS cache entry — because the acceptance bar for
resume is byte-identical traces and CSVs, not "close enough".

The split of labor is deliberate:

- **Rebuilt, not snapshotted** — everything :meth:`Simulation.build`
  derives deterministically from the :class:`~repro.api.RunConfig`:
  population, fleet, geography, patch plans, notification RNG.  Under
  the lazy world, patch and move *effects* are not scheduled events at
  all — each server folds them in as pure functions of the clock on
  first touch (see "Lazy world construction" in ``DESIGN.md``) — so
  re-running the build and fast-forwarding the clock to the checkpoint
  instant (replaying the notification at the recorded clock reading)
  reproduces all of it without crossing the pickle boundary.

- **Snapshotted** — the mutable state those events and ``k`` rounds of
  probing left behind: per-server session counters, greylist/blacklist
  memory and banner-noise RNG, network/ethics counters, label
  allocations, the resolver cache (cache warmth changes observed query
  counts), and preferred probe methods.

The chain on disk is a *base plus deltas*: the first checkpoint holds
the initial measurement and the whole world state, and every later one
only what changed since the checkpoint before it
(:meth:`Checkpoint.delta_since`) — the rounds completed since, the
servers whose session count moved, the added, changed and removed
entries of each keyed map, the appended stage metrics, and every scalar
in full.  Loading folds the files into one running state in order
(:meth:`Checkpoint.fold`), so write cost stays proportional to one round
and load memory to one state.  Evidence
(trace events, query-log entries) is likewise stored as per-checkpoint
segments that concatenate back into the uninterrupted evidence stream.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:
    from ..core.campaign import InitialMeasurement, MeasurementRound
    from ..simulation import Simulation

#: bump when the checkpoint payload shape changes incompatibly (4: trace
#: segments hold tuple :class:`~repro.obs.trace.TraceEvent` records).
CHECKPOINT_VERSION = 4

#: the keyed maps of a world snapshot; a delta stores, per map, the
#: added or changed entries and the removed keys.  Every other world
#: value is a scalar and is stored in full.
WORLD_MAPS = (
    "servers",
    "resolver_cache",
    "last_contact",
    "label_next_id",
    "ip_for_label",
    "preferred",
    "ip_domain",
)

#: the fields a delta replaces outright when folded.
_REPLACED = (
    "kind",
    "clock_now",
    "notified",
    "notified_clock",
    "metrics_snapshot",
    "trace_segment",
    "querylog_segment",
    "stages_begun",
)

_ABSENT = object()


@dataclass
class Checkpoint:
    """One file of a run's checkpoint chain (picklable).

    The chain's first file (kind ``"initial"``) is the *base*: every
    field in full.  Each later file is a *delta* against the state the
    chain folds to before it (:meth:`delta_since`): ``initial`` is None,
    the list fields hold only what was appended since, and ``world``
    holds only changed map entries (:func:`diff_world_state`).
    :meth:`fold` applies a delta in place, so a loaded chain is again a
    single full ``Checkpoint``.
    """

    kind: str  # "initial" | "round"
    clock_now: _dt.datetime
    notified: bool
    notified_clock: Optional[_dt.datetime]
    #: the initial sweep's results (None in a delta).
    initial: Optional["InitialMeasurement"]
    rounds: List["MeasurementRound"]
    #: mutable world snapshot (see :func:`capture_world_state`).
    world: dict
    #: per-stage executor metrics accumulated so far (provenance only).
    executor_stage_metrics: List[object]
    #: cumulative :meth:`MetricsRegistry.snapshot` (None when unobserved).
    metrics_snapshot: Optional[dict]
    #: trace events emitted since the previous checkpoint.
    trace_segment: List[object]
    #: query-log entries recorded since the previous checkpoint.
    querylog_segment: List[object]
    #: stage ordinals consumed so far (re-seeds the resumed tracer).
    stages_begun: int
    version: int = CHECKPOINT_VERSION

    def delta_since(self, previous: "Checkpoint") -> "Checkpoint":
        """This full checkpoint as a delta against ``previous``, the
        full state the chain folds to before it."""
        return replace(
            self,
            initial=None,
            rounds=self.rounds[len(previous.rounds):],
            world=diff_world_state(previous.world, self.world),
            executor_stage_metrics=self.executor_stage_metrics[
                len(previous.executor_stage_metrics):
            ],
        )

    def fold(self, delta: "Checkpoint") -> None:
        """Apply the chain's next file (a delta) to this full state.

        Afterwards this checkpoint equals the full capture the delta was
        taken from; its evidence segments are the delta's own, since
        segments are per file (the loader keeps each one).
        """
        self.rounds.extend(delta.rounds)
        self.executor_stage_metrics.extend(delta.executor_stage_metrics)
        fold_world_state(self.world, delta.world)
        for name in _REPLACED:
            setattr(self, name, getattr(delta, name))


@dataclass
class RunProvenance:
    """Where a resumed simulation came from.

    Reports print it; a store writer attached to the resumed simulation
    continues its chain: it keeps the valid manifest prefix
    (``entries``) and takes its first delta against the folded state
    (``checkpoint``).
    """

    run_id: str
    config_hash: str
    #: the chain's valid prefix folded into one full state.
    checkpoint: Checkpoint
    #: manifest entries of that prefix.
    entries: List[dict]

    @property
    def checkpoint_kind(self) -> str:
        return self.checkpoint.kind

    @property
    def rounds_completed(self) -> int:
        return len(self.checkpoint.rounds)

    @property
    def clock_now(self) -> _dt.datetime:
        return self.checkpoint.clock_now


# -- capture ------------------------------------------------------------------


def capture_world_state(sim: "Simulation", previous: Optional[dict] = None) -> dict:
    """Snapshot every mutable value the rebuild cannot reproduce.

    The snapshot is flat: the keyed maps named in :data:`WORLD_MAPS`,
    plus scalars.  Servers are included only when they accepted at
    least one session: every server-side mutation (inbox, greylist,
    blacklist, crash count, banner-noise draws, stub query ids) happens
    inside a session, so an untouched server is already in its rebuilt
    state.  For the same reason a server whose session count has not
    moved since ``previous`` (the snapshot the previous checkpoint
    took) keeps that snapshot's entry, the same object, which is how
    :func:`diff_world_state` leaves it out of the next delta.
    """
    campaign = sim.campaign
    earlier = previous["servers"] if previous is not None else {}
    servers: Dict[str, dict] = {}
    for ip, server in campaign.network._servers.items():
        if server.sessions_accepted == 0:
            continue
        snap = earlier.get(ip)
        if snap is None or snap["sessions_accepted"] != server.sessions_accepted:
            snap = {
                "sessions_accepted": server.sessions_accepted,
                "crash_count": server.crash_count,
                "blacklisted": server._blacklisted,
                "greylist": dict(server._greylist_first_seen),
                "inbox": list(server.inbox),
                "noise_state": server._noise.getstate(),
                "stub_next_id": (
                    server.resolver._next_id
                    if server.resolver is not None
                    else None
                ),
            }
        servers[ip] = snap
    resolver = campaign.resolver
    labels = campaign.labels
    ethics = campaign.ethics
    network = campaign.network
    return {
        "servers": servers,
        "resolver_cache": dict(resolver._cache),
        "last_contact": dict(ethics._last_contact),
        "label_next_id": dict(labels._next_id),
        "ip_for_label": dict(labels._ip_for_label),
        "preferred": dict(campaign._preferred),
        "ip_domain": dict(campaign._ip_domain),
        "connection_attempts": network.connection_attempts,
        "connections_established": network.connections_established,
        "ethics_active": ethics._active,
        "peak_concurrency": ethics.peak_concurrency,
        "connections_opened": ethics.connections_opened,
        "next_suite": labels._next_suite,
        "resolver_query_count": resolver.query_count,
        "resolver_cache_hits": resolver.cache_hits,
        "stub_next_id": campaign._stub._next_id,
    }


def diff_world_state(previous: dict, current: dict) -> dict:
    """What changed from ``previous`` to ``current`` (both snapshots).

    Each map becomes ``(changed, removed)``: the entries whose value is
    not the very object ``previous`` held, and the keys that are gone.
    Identity is exact here because no map value is mutated in place —
    each change stores a new object (a new server snapshot, cache
    entry, timestamp or counter).  Scalars are kept in full.
    """
    delta = {}
    for name, value in current.items():
        if name in WORLD_MAPS:
            before = previous[name]
            delta[name] = (
                {k: v for k, v in value.items() if before.get(k, _ABSENT) is not v},
                [k for k in before if k not in value],
            )
        else:
            delta[name] = value
    return delta


def fold_world_state(state: dict, delta: dict) -> None:
    """Apply a :func:`diff_world_state` delta to ``state`` in place."""
    for name, value in delta.items():
        if name in WORLD_MAPS:
            changed, removed = value
            entries = state[name]
            for key in removed:
                del entries[key]
            entries.update(changed)
        else:
            state[name] = value


def capture_checkpoint(
    sim: "Simulation",
    *,
    kind: str,
    trace_mark: int,
    qlog_mark: int,
    previous: Optional[Checkpoint] = None,
) -> Checkpoint:
    """Capture the campaign's current state as a full checkpoint.

    ``trace_mark``/``qlog_mark`` are the positions up to which previous
    checkpoints already persisted evidence; only the delta is stored.
    ``previous`` is the full state of the previous checkpoint, if any;
    servers it already holds are reused (see :func:`capture_world_state`).
    """
    campaign = sim.campaign
    obs = sim.observation
    tracing = obs is not None and obs.tracer.enabled
    return Checkpoint(
        kind=kind,
        clock_now=campaign.clock.now,
        notified=campaign.notified,
        notified_clock=campaign._notified_clock,
        initial=campaign._require_initial(),
        rounds=list(campaign.rounds),
        world=capture_world_state(
            sim, previous.world if previous is not None else None
        ),
        executor_stage_metrics=list(campaign.executor.metrics.stages),
        metrics_snapshot=obs.metrics.snapshot() if obs is not None else None,
        trace_segment=obs.tracer.events_since(trace_mark) if tracing else [],
        querylog_segment=campaign.responder.log.entries_since(qlog_mark),
        stages_begun=obs.tracer.open_stage_ordinal() if obs is not None else 0,
    )


# -- restore ------------------------------------------------------------------


def install_world_state(sim: "Simulation", state: dict) -> None:
    """Overwrite the rebuilt world's mutable state with a snapshot.

    Every map is copied, so the live world never mutates ``state`` (a
    resumed writer takes its next delta against it).
    """
    campaign = sim.campaign
    for ip, snap in state["servers"].items():
        server = campaign.network.server_at(ip)
        server.sessions_accepted = snap["sessions_accepted"]
        server.crash_count = snap["crash_count"]
        server._blacklisted = snap["blacklisted"]
        server._greylist_first_seen = dict(snap["greylist"])
        server.inbox = list(snap["inbox"])
        server._noise.setstate(snap["noise_state"])
        if snap["stub_next_id"] is not None and server.resolver is not None:
            server.resolver._next_id = snap["stub_next_id"]
    network = campaign.network
    network.connection_attempts = state["connection_attempts"]
    network.connections_established = state["connections_established"]
    ethics = campaign.ethics
    ethics._last_contact = dict(state["last_contact"])
    ethics._active = state["ethics_active"]
    ethics.peak_concurrency = state["peak_concurrency"]
    ethics.connections_opened = state["connections_opened"]
    labels = campaign.labels
    labels._next_suite = state["next_suite"]
    labels._next_id = dict(state["label_next_id"])
    labels._ip_for_label = dict(state["ip_for_label"])
    resolver = campaign.resolver
    resolver._cache = dict(state["resolver_cache"])
    resolver.query_count = state["resolver_query_count"]
    resolver.cache_hits = state["resolver_cache_hits"]
    campaign._stub._next_id = state["stub_next_id"]
    campaign._preferred = dict(state["preferred"])
    campaign._ip_domain = dict(state["ip_domain"])


def restore_simulation(sim: "Simulation", state) -> None:
    """Bring a freshly built simulation to a checkpoint's exact state.

    ``state`` is a :class:`repro.store.RunState`, whose ``checkpoint``
    is the chain folded into one full state.  The order matters:

    1. **Replay the notification** (if the checkpoint is past it) at the
       recorded clock reading — this consumes the same notification-RNG
       draws and schedules the same email-open callbacks the original
       run scheduled.
    2. **Fast-forward the clock** to the checkpoint instant, looping
       until quiescent: callbacks scheduled *during* an advance (an
       open that triggers a patch-plan override) land after the
       due-list was computed, so a single ``advance_to`` can leave
       strictly-due work pending.  Every RNG-consuming callback fires
       in chronological order in both runs; patch and move *effects*
       need no replay — they are pure functions of the clock, folded
       into each server on touch.
    3. **Install the mutable snapshot** over the rebuilt world, the
       campaign's progress (initial sweep, completed rounds,
       notification) and the executor's per-stage metrics.
    4. **Stitch the evidence**: merge the cumulative metrics snapshot,
       ingest the trace and query-log delta segments in checkpoint
       order, and re-seed stage numbering.

    The campaign then continues from its own progress; ``sim.provenance``
    records where it came from.
    """
    checkpoint = state.checkpoint
    campaign = sim.campaign
    clock = campaign.clock

    if checkpoint.notified:
        clock.advance_to(max(clock.now, checkpoint.notified_clock))
        campaign.notification_report = sim.notification.send_notifications(
            checkpoint.initial.vulnerable_domains(),
            campaign.config.notification_date,
        )

    clock.advance_to(max(clock.now, checkpoint.clock_now))
    while clock.next_scheduled(until=clock.now) is not None:
        clock.advance_to(clock.now)

    install_world_state(sim, checkpoint.world)
    campaign.initial = checkpoint.initial
    campaign.rounds = list(checkpoint.rounds)
    campaign._notified_clock = checkpoint.notified_clock

    campaign.executor.metrics.stages = list(checkpoint.executor_stage_metrics)

    obs = sim.observation
    if obs is not None:
        if checkpoint.metrics_snapshot is not None:
            obs.metrics.merge(checkpoint.metrics_snapshot)
        if obs.tracer.enabled:
            obs.tracer.stitch(
                state.trace_segments, stages_begun=checkpoint.stages_begun
            )
    campaign.responder.log.ingest(
        entry for segment in state.querylog_segments for entry in segment
    )

    sim.provenance = RunProvenance(
        run_id=state.run_id,
        config_hash=state.config.content_hash(),
        checkpoint=checkpoint,
        entries=list(state.entries),
    )
