"""The public API: run descriptions, run handles, and probe schemas.

This module is the single public entrypoint of the reproduction.  The
CLI, the ``repro serve`` daemon, and library embedders all consume the
same small surface:

- :class:`RunConfig` — the one frozen, serializable run description;
- :func:`open_run` / :class:`RunHandle` — build a world and keep it
  resident: batch campaigns (:meth:`RunHandle.run`), incremental rounds
  (:meth:`RunHandle.advance_rounds`), and single probes
  (:meth:`RunHandle.probe_domain` / :meth:`RunHandle.check_mta`) all
  dispatch through the same probe executor, so a probe answered via the
  API emits byte-identical task trace events to the same probe inside a
  batch run;
- :func:`run` / :func:`resume` — one-call wrappers over
  :class:`repro.simulation.Simulation` for the common cases;
- :class:`ProbeRequest` / :class:`ProbeResult` — the stable, versioned
  JSON wire schemas (:data:`SCHEMA_VERSION`) shared by the daemon and
  its clients.

The run-description value
-------------------------

Checkpointable runs need their description to be a *value*: something
that can be serialized into a store manifest and hashed so a resume can
prove it is continuing the same experiment.

:class:`RunConfig` is that value, and it holds only what varies between
runs.  The paper ran one fixed method — a 2021-10-11 sweep from one
prober, rounds every two days in two windows around the 2021-11-15
notification, a 2022-02-14 snapshot, no retries — so the method is
named constants beside the code that reads them (the timeline in
:mod:`repro.clock`, the prober in :mod:`repro.core.campaign`,
:mod:`repro.exec.engine` and :mod:`repro.smtp.client`), not fields.
The config is frozen, picklable and JSON-round-trippable, and splits in
two:

- **semantic fields** (``scale``, ``seed``) determine every campaign
  artifact byte-for-byte; they are covered by
  :meth:`RunConfig.content_hash`;
- the **runtime field** ``trace`` says whether hosts rebuilding the
  run should attach a tracer; results are byte-identical either way,
  so it is excluded from the hash — a traced run hashes the same as a
  plain one, and a checkpoint taken by either may be resumed by the
  other.  Profiling (``--perf``) is chosen per process on the
  :class:`repro.obs.Observation` and is not part of the description.
"""

from __future__ import annotations

import contextlib as _contextlib
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .collector import collector_paused
from .core.campaign import DomainStatus
from .core.detector import DetectionOutcome, DetectionResult
from .errors import SimulationError
from .internet.population import DomainSet

#: Version stamped into every :class:`ProbeRequest` / :class:`ProbeResult`
#: wire payload; bumped only on incompatible schema changes.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """A complete, serializable description of one campaign run."""

    #: population scale relative to the paper's domain counts.
    scale: float = 0.05
    #: the simulation seed (population, fleet, geography, patching,
    #: notification).
    seed: int = 20211011
    # -- runtime field (excluded from the content hash) -----------------------
    #: whether runs built from this config attach a virtual-time tracer.
    trace: bool = False

    def __post_init__(self) -> None:
        # An int scale describes the same experiment as the equal float:
        # store the float so both hash, and name their run, alike.
        object.__setattr__(self, "scale", float(self.scale))

    # -- identity -------------------------------------------------------------

    def content_hash(self) -> str:
        """A stable hex digest of the semantic fields, scale and seed.

        Two configs hash identically exactly when their campaigns produce
        byte-identical artifacts; the runtime ``trace`` field never
        perturbs the digest.
        """
        blob = json.dumps(
            {"scale": self.scale, "seed": self.seed},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {"scale": self.scale, "seed": self.seed, "trace": self.trace}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        # Keys older versions wrote (``population``, ``campaign``,
        # ``retry``, ``perf``, ``executor``, ``workers``, ``world``) are
        # ignored, so their config files still decode.
        return cls(
            scale=data["scale"],
            seed=data["seed"],
            trace=data.get("trace", False),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))


# -- wire schemas (daemon <-> client) -----------------------------------------

_PROBE_KINDS = ("probe_domain", "check_mta")


def _require_version(data: dict, what: str) -> None:
    version = data.get("v", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SimulationError(
            f"unsupported {what} schema version {version!r} "
            f"(this build speaks v{SCHEMA_VERSION})"
        )


@dataclass(frozen=True)
class ProbeRequest:
    """One client probe question, as a stable wire value.

    ``kind`` selects the measurement (``probe_domain`` resolves MX→A and
    probes every address; ``check_mta`` probes a single address);
    ``target`` is the domain name or IP; ``tenant`` identifies the
    requesting party for per-tenant rate limiting (see
    :mod:`repro.serve`).
    """

    kind: str
    target: str
    tenant: str = "public"

    def __post_init__(self) -> None:
        if self.kind not in _PROBE_KINDS:
            raise SimulationError(
                f"unknown probe kind {self.kind!r} "
                f"({' | '.join(_PROBE_KINDS)})"
            )
        if not self.target or not isinstance(self.target, str):
            raise SimulationError("probe request needs a non-empty target")

    def to_dict(self) -> dict:
        return {
            "v": SCHEMA_VERSION,
            "kind": self.kind,
            "target": self.target,
            "tenant": self.tenant,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProbeRequest":
        _require_version(data, "ProbeRequest")
        return cls(
            kind=data.get("kind", ""),
            target=data.get("target", ""),
            tenant=data.get("tenant", "public"),
        )


@dataclass(frozen=True)
class IpProbeOutcome:
    """One address's detection outcome, as a stable wire value."""

    ip: str
    outcome: str
    vulnerable: bool
    behaviors: Tuple[str, ...] = ()
    method: Optional[str] = None
    queries_observed: int = 0
    suite: str = ""

    @classmethod
    def from_detection(cls, result: DetectionResult) -> "IpProbeOutcome":
        return cls(
            ip=result.ip,
            outcome=result.outcome.value,
            vulnerable=result.is_vulnerable,
            behaviors=tuple(sorted(b.value for b in result.behaviors)),
            method=(
                result.successful_method.value
                if result.successful_method is not None
                else None
            ),
            queries_observed=result.queries_observed,
            suite=result.suite,
        )

    def to_dict(self) -> dict:
        return {
            "ip": self.ip,
            "outcome": self.outcome,
            "vulnerable": self.vulnerable,
            "behaviors": list(self.behaviors),
            "method": self.method,
            "queries_observed": self.queries_observed,
            "suite": self.suite,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IpProbeOutcome":
        return cls(
            ip=data["ip"],
            outcome=data["outcome"],
            vulnerable=bool(data.get("vulnerable", False)),
            behaviors=tuple(data.get("behaviors", ())),
            method=data.get("method"),
            queries_observed=int(data.get("queries_observed", 0)),
            suite=data.get("suite", ""),
        )


@dataclass(frozen=True)
class ProbeResult:
    """The answer to one :class:`ProbeRequest`, as a stable wire value.

    ``status`` is the domain-level classification for ``probe_domain``
    (a :class:`repro.core.campaign.DomainStatus` value) and the single
    address's :class:`repro.core.detector.DetectionOutcome` value for
    ``check_mta``; ``ips`` carries the per-address detail either way.
    """

    kind: str
    target: str
    status: str
    vulnerable: bool
    ips: Tuple[IpProbeOutcome, ...] = ()

    def to_dict(self) -> dict:
        return {
            "v": SCHEMA_VERSION,
            "kind": self.kind,
            "target": self.target,
            "status": self.status,
            "vulnerable": self.vulnerable,
            "ips": [ip.to_dict() for ip in self.ips],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProbeResult":
        _require_version(data, "ProbeResult")
        return cls(
            kind=data["kind"],
            target=data["target"],
            status=data["status"],
            vulnerable=bool(data.get("vulnerable", False)),
            ips=tuple(
                IpProbeOutcome.from_dict(entry) for entry in data.get("ips", ())
            ),
        )


# -- the resident run handle --------------------------------------------------


class RunHandle:
    """A built world held resident, answering probes and running rounds.

    Everything dispatches through the campaign's probe executor — the
    same code path as a batch ``repro run`` — so a probe answered here
    produces byte-identical task trace events to the same probe inside a
    batch campaign of the same config.  The handle serializes nothing
    itself; it is the in-process object the serve daemon, the CLI, and
    embedders share.

    Handles are *not* thread-safe: the serve layer funnels every
    world-touching request through one dispatcher thread precisely so
    the virtual clock and label allocator advance deterministically.
    """

    def __init__(self, sim) -> None:
        self._sim = sim

    # -- introspection --------------------------------------------------------

    @property
    def simulation(self):
        """The underlying :class:`repro.simulation.Simulation`."""
        return self._sim

    @property
    def config(self) -> RunConfig:
        return self._sim.config

    @property
    def campaign(self):
        return self._sim.campaign

    def status(self) -> dict:
        """A compact run-status snapshot (the daemon's ``run_status``)."""
        campaign = self._sim.campaign
        return {
            "v": SCHEMA_VERSION,
            "config_hash": self.config.content_hash(),
            "scale": self.config.scale,
            "seed": self.config.seed,
            "domains": len(self._sim.population),
            "addresses": self._sim.fleet.total_ip_count(),
            "initial_complete": campaign.initial is not None,
            "rounds_completed": len(campaign.rounds),
            "rounds_total": len(campaign.round_dates()),
            "clock": campaign.clock.now.isoformat(),
        }

    def _observed(self):
        """The simulation's observation, activated (no-op when absent).

        Batch runs activate their observation inside ``Simulation.run``;
        the handle must do the same around every probe dispatch, or an
        API-served probe would silently skip tracing — and the
        byte-identity contract with batch traces could never hold.
        """
        from .obs import observing

        if self._sim.observation is not None:
            return observing(self._sim.observation)
        return _contextlib.nullcontext()

    # -- probes ---------------------------------------------------------------

    def probe_ips(
        self,
        stage: str,
        ips: Sequence[str],
        *,
        recipient_domains: Optional[Dict[str, str]] = None,
    ) -> Dict[str, DetectionResult]:
        """Raw probe dispatch through the probe executor (library use)."""
        with self._observed():
            return self._sim.campaign.probe_ips(
                stage, ips, recipient_domains=recipient_domains
            )

    def probe(self, request: ProbeRequest) -> ProbeResult:
        """Answer one :class:`ProbeRequest` (the daemon's dispatch point)."""
        if request.kind == "probe_domain":
            return self.probe_domain(request.target)
        return self.check_mta(request.target)

    def probe_domain(self, domain: str) -> ProbeResult:
        """Resolve a domain (MX→A) and probe every address, live."""
        campaign = self._sim.campaign
        with self._observed():
            ips = campaign.resolve_ips(domain)
            recipients = {
                ip: campaign.recipient_domain(ip, default=domain) for ip in ips
            }
            results = campaign.probe_ips(
                f"probe {domain}", ips, recipient_domains=recipients
            )
        from .core.campaign import IpInitialRecord

        records = {
            ip: IpInitialRecord(ip=ip, result=result)
            for ip, result in results.items()
        }
        status = campaign._domain_status_from_ips(list(ips), records)
        return ProbeResult(
            kind="probe_domain",
            target=domain,
            status=status.value,
            vulnerable=status is DomainStatus.VULNERABLE,
            ips=tuple(
                IpProbeOutcome.from_detection(results[ip]) for ip in ips
            ),
        )

    def check_mta(self, ip: str) -> ProbeResult:
        """Probe one mail-server address directly."""
        campaign = self._sim.campaign
        with self._observed():
            recipients = {ip: campaign.recipient_domain(ip)}
            results = campaign.probe_ips(
                f"probe {ip}", [ip], recipient_domains=recipients
            )
        result = results[ip]
        return ProbeResult(
            kind="check_mta",
            target=ip,
            status=result.outcome.value,
            vulnerable=result.is_vulnerable,
            ips=(IpProbeOutcome.from_detection(result),),
        )

    # -- census + longitudinal queries ---------------------------------------

    def census_row(self, domain: str) -> dict:
        """The population/census view of one domain (no probing)."""
        entry = self._sim.population.get(domain)
        if entry is None:
            raise SimulationError(f"unknown domain {domain!r}")
        campaign = self._sim.campaign
        row = {
            "v": SCHEMA_VERSION,
            "domain": entry.name,
            "tld": entry.tld,
            "sets": [s.name for s in DomainSet if entry.in_set(s)],
            "alexa_rank": entry.alexa_rank,
            "mx_query_count": entry.mx_query_count,
            "provider_name": entry.provider_name,
        }
        initial = campaign.initial
        if initial is not None:
            row["initial_status"] = initial.domain_status.get(
                entry.name, DomainStatus.UNKNOWN
            ).value
            row["ips"] = list(initial.domain_ips.get(entry.name, []))
        return row

    def patch_status_since(self, domain: str, since: int = 0) -> dict:
        """A domain's per-round remediation history from round ``since``.

        Requires the initial sweep (and any rounds of interest) to have
        run — see :meth:`advance_rounds`.  The answer mirrors the
        paper's domain rules: a round counts as *patched* when the
        domain measured vulnerable initially and no tracked address
        still measures vulnerable in that round.
        """
        campaign = self._sim.campaign
        initial = campaign._require_initial()
        if domain not in initial.domain_status:
            raise SimulationError(f"unknown domain {domain!r}")
        initially = initial.domain_status[domain]
        ips = initial.domain_ips.get(domain, [])
        rounds = []
        for index, rnd in enumerate(campaign.rounds):
            if index < since:
                continue
            outcomes = {
                ip: rnd.results[ip].value for ip in ips if ip in rnd.results
            }
            vulnerable = any(
                rnd.results[ip] is DetectionOutcome.VULNERABLE
                for ip in ips
                if ip in rnd.results
            )
            measured = any(
                rnd.results[ip].spf_measured for ip in ips if ip in rnd.results
            )
            if vulnerable:
                status = DomainStatus.VULNERABLE
            elif initially is DomainStatus.VULNERABLE and measured:
                status = DomainStatus.PATCHED
            else:
                status = DomainStatus.UNKNOWN
            rounds.append(
                {
                    "round": index,
                    "date": rnd.date.isoformat(),
                    "status": status.value,
                    "outcomes": outcomes,
                }
            )
        latest = rounds[-1]["status"] if rounds else None
        return {
            "v": SCHEMA_VERSION,
            "domain": domain,
            "since": since,
            "initial_status": initially.value,
            "rounds": rounds,
            "patched": latest == DomainStatus.PATCHED.value,
        }

    # -- campaign progression -------------------------------------------------

    def ensure_initial(self):
        """Run the initial sweep if it has not happened yet.

        Like :meth:`advance_rounds` and :meth:`run`, this is batch work
        and pauses automatic garbage collection while it runs
        (:func:`repro.collector.collector_paused`); probe dispatch does
        not.
        """
        campaign = self._sim.campaign
        if campaign.initial is None:
            with collector_paused(), self._observed():
                campaign.run_initial()
        return campaign.initial

    def advance_rounds(self, count: int = 1) -> List[object]:
        """Run the next ``count`` scheduled longitudinal rounds.

        Runs the initial sweep first if it has not happened.  Returns
        the newly completed :class:`MeasurementRound` objects (fewer
        than ``count`` when the schedule runs out).  This is the batch
        run's own round loop (:meth:`MeasurementCampaign.advance_rounds`),
        so crossing the notification date sends the private
        notification exactly as a batch run does.  A negative ``count``
        raises :class:`SimulationError` before any work is done.
        """
        if count < 0:
            raise SimulationError(
                f"cannot advance {count} rounds: count must be >= 0"
            )
        with collector_paused():
            self.ensure_initial()
            with self._observed():
                return self._sim.campaign.advance_rounds(count)

    def run(self, *, store=None):
        """Run the rest of the campaign timeline; returns the result.

        A handle whose campaign is already under way (initial sweep,
        :meth:`advance_rounds`, or a resume) finishes it: the remaining
        rounds, then the final snapshot — the same bytes a fresh batch
        run produces.  ``store`` checkpoints the rounds this call runs;
        attached to a campaign already under way, its first checkpoint
        carries everything so far.  The result is cached.
        """
        return self._sim.run(store=store)

    # A handle holds no resources beyond memory; the context-manager
    # form is kept only so ``with open_run(...) as handle:`` still reads.
    def __enter__(self) -> "RunHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


# -- module-level entry points ------------------------------------------------


def open_run(
    config: Optional[RunConfig] = None, *, observation=None
) -> RunHandle:
    """Build a world from ``config`` and return it as a resident handle."""
    from .simulation import Simulation

    sim = Simulation.build(config=config or RunConfig(), observation=observation)
    return RunHandle(sim)


def run(
    config: Optional[RunConfig] = None, *, observation=None, store=None
):
    """Run one full campaign; returns the :class:`CampaignResult`.

    ``store`` optionally checkpoints the run into a
    :class:`repro.store.RunStore` after the initial sweep and after
    every completed round.
    """
    return open_run(config, observation=observation).run(store=store)


def resume(
    store,
    config_hash: Optional[str] = None,
    *,
    observation=None,
) -> RunHandle:
    """Reconstruct a checkpointed campaign from a store, as a handle.

    ``store`` is a :class:`repro.store.RunStore`, a store directory
    path, or an already-loaded :class:`repro.store.RunState`;
    ``config_hash`` pins the run to resume (a mismatch is an error
    listing what the store holds).  Continue with
    ``handle.run(store=...)`` or serve probes straight off the handle.
    """
    from .simulation import Simulation
    from .store import RunState, RunStore

    if isinstance(store, str):
        store = RunStore(store)
    if isinstance(store, RunStore):
        source = store.load_latest(config_hash=config_hash)
    elif isinstance(store, RunState):
        source = store
    else:
        raise SimulationError(
            f"cannot resume from {type(store).__name__}; pass a store "
            "directory path, a repro.store.RunStore, or a RunState"
        )
    return RunHandle(Simulation.resume(source, observation=observation))
