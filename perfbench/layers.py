"""Per-layer metrics of a traced run, and which end-to-end metric each
layer should move.  Later changes cite these names; their units are in
the ``per_layer`` list of BENCHMARK.json, which a traced run prints in
full.

| layer | metrics (call timed) | should move | workload; predicted no change on |
|---|---|---|---|
| `core` | `core.resolve_s` (`MeasurementCampaign.resolve_domain_ips`, `resolve_ips`); `core.detects`, `core.detect_s` (`VulnerabilityDetector.detect`); `core.conclusive_ratio` (SPF-measured outcomes ÷ probes) | `probes_per_s`, `run_s`; latency | campaign; serve_mixed through probe_domain; no change on census and status reads |
| `exec` | `exec.stages`, `exec.stage_self_s` (`ProbeExecutor.run_stage` minus its detect children); `exec.probes`, `exec.retried`, `exec.refused` | `latency_p50_ms`, `latency_p99_ms`; `probes_per_s` | serve_mixed (one stage per request); campaign (36 stages) |
| `smtp` | `smtp.transactions`, `smtp.client_s` (`SmtpClient.probe`); `smtp.connect_ratio` (established ÷ attempted, `Network.perf_counters`) | `probes_per_s`; latency | campaign; serve_mixed probes |
| `spf` | `spf.check_hosts`, `spf.check_host_s` (`SpfEvaluator.check_host`) | `probes_per_s`; latency | campaign; serve_mixed probes |
| `libspf2` | `libspf2.expands`, `libspf2.expand_s` (`MacroExpansionBehavior.expand`) | `probes_per_s` | campaign |
| `dns` | `dns.queries`, `dns.resolver_s`, `dns.cache_hit_ratio` (`CachingResolver.query`; campaign has 6,806 hits / 37,491 queries); `dns.responder_queries`, `dns.responder_s` (`SpfTestResponder.query`); `dns.fleet_answers`, `dns.fleet_s` (`FleetDnsBackend.query`) | `probes_per_s`, `run_s`; latency | campaign; serve_mixed probes |
| `internet` | `internet.servers_materialized`, `internet.server_at_s` (`Network.server_at`); `internet.unit_materializations`, `internet.layout_hit_ratio` (`MtaFleet.perf_counters`) | `peak_rss_mb`; `probes_per_s` | all workloads; campaign (first touch lands in the initial stage) |
| `obs` | `obs.trace_events`; `obs.trace_write_s` (`Tracer.write_jsonl`); `obs.analyze_s` (`TraceAnalysis.from_tracer`); `obs.stage_overhead_ratio` (campaign_traced's executor stage wall ÷ campaign's) | `probes_per_s`, `run_s`, `peak_rss_mb` | campaign_traced; no change on campaign, serve_mixed |
| `store` | `store.checkpoints`, `store.checkpoint_s`, `store.bytes_written` (`CheckpointWriter.after_initial`/`after_round`, manifest sizes); `store.load_s`, `store.checkpoints_loaded` (`RunStore.load_latest`, `len(RunState.entries)`); `store.restore_s` (`api.resume` minus the load) | `resume_s`, `run_s`, `probes_per_s`, `peak_rss_mb` | checkpoint_resume; no change elsewhere |
| `analysis` | `analysis.report_s` (`generate_report`), `analysis.csv_s` (`export_all`) | `run_s` | batch workloads; never `probes_per_s` |
| `serve` | `serve.server_p50_ms`, `serve.server_p99_ms` (`ScanService.submit`, on the daemon side); `serve.dispatch_ms.<method>` (`RunHandle.probe`/`census_row`/`patch_status_since`/`status`); `serve.queue_wait_ms` (submit − dispatch); `serve.transport_ms` (client − submit); `serve.probe_time_share` | `requests_per_s`, latency | serve_mixed; no change on batch workloads |

Also reported: `<layer>.self_s`, each layer's self time (span duration
minus the part its child spans cover); client latency per method and
for the first and last tenth of the serve run (`run_status` slows as
requests accumulate, because ``ScanService.stats`` re-sorts every
retained sample); and the benchmark's own figures: `bench.spans`,
`bench.run_self_share` (self time of the top-level run span, work no
layer span claims, ÷ the traced `run_s`) and `bench.wrapper_overhead`
(traced `run_s` ÷ the untraced median, minus 1).

A metric a workload does not exercise reads 0 there.
"""

from __future__ import annotations

LAYERS = (
    "core", "exec", "smtp", "spf", "libspf2", "dns", "internet", "obs",
    "store", "analysis", "serve",
)
METHODS = ("spf_census_row", "run_status", "patch_status_since", "probe_domain", "check_mta")


def _ratio(num, den):
    return num / den if den else 0.0


def from_sums(sums: dict) -> dict:
    """Per-layer metrics from additive span sums and program counters."""
    g = lambda key: sums.get(key, 0.0)  # noqa: E731
    counter = lambda key: g(f"counter.{key}")  # noqa: E731
    out = {
        "core.resolve_s": g("time_s.core.resolve"),
        "core.detects": g("calls.core.detect"),
        "core.detect_s": g("time_s.core.detect"),
        "core.conclusive_ratio": _ratio(g("count.conclusive"), g("count.probes")),
        "exec.stages": g("calls.exec.run_stage"),
        "exec.stage_self_s": g("self_s.exec"),
        "exec.probes": g("count.exec_probes"),
        "exec.retried": g("count.exec_retried"),
        "exec.refused": g("count.exec_refused"),
        "smtp.transactions": g("calls.smtp.probe"),
        "smtp.client_s": g("time_s.smtp.probe"),
        "smtp.connect_ratio": _ratio(
            counter("network.connections_established"),
            counter("network.connection_attempts"),
        ),
        "spf.check_hosts": g("calls.spf.check_host"),
        "spf.check_host_s": g("time_s.spf.check_host"),
        "libspf2.expands": g("calls.libspf2.expand"),
        "libspf2.expand_s": g("time_s.libspf2.expand"),
        "dns.queries": g("calls.dns.resolver"),
        "dns.resolver_s": g("time_s.dns.resolver"),
        "dns.cache_hit_ratio": _ratio(
            counter("dns.resolver.cache_hits"), counter("dns.resolver.queries")
        ),
        "dns.responder_queries": g("calls.dns.responder"),
        "dns.responder_s": g("time_s.dns.responder"),
        "dns.fleet_answers": g("calls.dns.fleet"),
        "dns.fleet_s": g("time_s.dns.fleet"),
        "internet.servers_materialized": counter("network.servers_materialized"),
        "internet.server_at_s": g("time_s.internet.server_at"),
        "internet.unit_materializations": counter("fleet.unit_materializations"),
        "internet.layout_hit_ratio": _ratio(
            counter("fleet.layout_hits"),
            counter("fleet.layout_hits") + counter("fleet.layout_misses"),
        ),
        "obs.trace_events": g("count.trace_events"),
        "obs.trace_write_s": g("time_s.obs.trace_write"),
        "obs.analyze_s": g("time_s.obs.analyze"),
        "store.checkpoints": g("calls.store.checkpoint"),
        "store.checkpoint_s": g("time_s.store.checkpoint"),
        "store.load_s": g("time_s.store.load"),
        "store.checkpoints_loaded": g("count.checkpoints_loaded"),
        "store.restore_s": max(0.0, g("time_s.store.resume") - g("time_s.store.load")),
        "analysis.report_s": g("time_s.analysis.report"),
        "analysis.csv_s": g("time_s.analysis.csv"),
        "bench.spans": g("spans"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = g(f"self_s.{layer}")
    return out
