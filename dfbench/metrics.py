"""End-to-end and per-layer metrics, with their units.

End-to-end metrics come from untraced repetitions; wall figures are the
median over the repetitions of one run. Per-layer metrics come from the
traced repetitions (self times: median over them) plus the untraced ones
for the figures tracing would distort (wall per op, µs per event).
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.metrics import percentile

from ledger import LAYERS, TRACE, UNATTRIBUTED, Ledger
from pipeline import Rep

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "CLOSURE_MIN_PCT",
    "end_to_end",
    "outcomes",
    "per_layer",
    "tail",
    "layer_counts",
]

# Per-layer self times must cover at least this share of the traced
# event-loop wall.
CLOSURE_MIN_PCT = 95.0

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_per_sim_s": "s/sim-s",
    "msgs_per_node_per_sim_s": "msgs/sim-s",
    "peak_rss_mb": "MB",
}

_SELF = {f"{layer}.self_s": "s" for layer in LAYERS if layer not in ("network", "node")}

PER_LAYER: Dict[str, str] = {
    "scheduler.events": "count",
    "scheduler.events_per_sim_s": "1/sim-s",
    "scheduler.us_per_event": "us",
    "scheduler.pending_peak": "count",
    "network.sends": "count",
    "network.deliveries": "count",
    "network.drops_dead": "count",
    "network.drops_fault": "count",
    "network.send_self_s": "s",
    "node.dispatch_self_s": "s",
    "node.dead_letters": "count",
    "pss.deliveries": "count",
    "slicing.deliveries": "count",
    "slicing.migrations": "count",
    "sliceview.deliveries": "count",
    "handler.put_deliveries_client": "count",
    "handler.put_deliveries_rehome": "count",
    "handler.get_deliveries": "count",
    "handler.first_seen_ratio": "ratio",
    "handler.replies_per_read": "msgs",
    "handler.ttl_expired": "count",
    "replication.rehome_floods": "count",
    "replication.rehome_per_client_put": "ratio",
    "replication.sync_deliveries": "count",
    "replication.repaired": "count",
    "replication.lost_writes": "count",
    "store.put_calls": "count",
    "store.get_calls": "count",
    "store.digest_calls": "count",
    "store.replicas_per_object": "count",
    "client.ops_issued": "count",
    "client.retries": "count",
    "client.timeouts": "count",
    "workload.shed": "count",
    "workload.in_flight_peak": "count",
    "workload.wall_ms_per_op": "ms",
    "workload.op_fail_ratio": "ratio",
    "workload.deliveries_per_op": "msgs",
    "workload.read_p50_sim_ms": "sim-ms",
    "workload.read_tail_sim_ms": "sim-ms",
    "workload.write_p50_sim_ms": "sim-ms",
    "workload.write_tail_sim_ms": "sim-ms",
    "workload.stale_read_ratio": "ratio",
    "faults.injected": "count",
    "faults.nodes_crashed": "count",
    **_SELF,
    "trace.hook_s": "s",
    "trace.unattributed_s": "s",
    "trace.loop_s": "s",
    "trace.closure_pct": "%",
    "trace.overhead_pct": "%",
}

TAILS = ((99.9, "p99.9"), (99.0, "p99"), (90.0, "p90"))


def tail(values: Sequence[float]) -> Tuple[Optional[str], float]:
    """``(label, value)`` of the highest of p90 / p99 / p99.9 with at
    least ten samples beyond it; ``(None, 0)`` when even p90 has fewer."""
    for pct, label in TAILS:
        value = percentile(values, pct)
        if sum(1 for v in values if v > value) >= 10:
            return label, value
    return None, 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(by_seed: List[List[Rep]], peak_rss_mb: float) -> Dict[str, float]:
    """``by_seed[i]`` holds the untraced repetitions of sub-seed ``i``."""
    sim_s = sum(reps[0].sim_s for reps in by_seed)
    return {
        "setup_s": median(r.setup_s for reps in by_seed for r in reps),
        "wall_per_sim_s": sum(median(r.wall_s for r in reps) for reps in by_seed) / sim_s,
        "msgs_per_node_per_sim_s": sum(
            reps[0].handled / max(1, reps[0].alive_servers) for reps in by_seed
        ) / sim_s,
        "peak_rss_mb": peak_rss_mb,
    }


def outcomes(reps: List[Rep]) -> Dict[str, float]:
    """Client-visible outcomes: deterministic except the wall per op."""
    r = reps[0]
    _, read_tail = tail(r.read_latencies)
    _, write_tail = tail(r.write_latencies)
    return {
        "workload.wall_ms_per_op": (
            median(1000.0 * x.client_wall_s / x.completed for x in reps) if r.completed else 0.0
        ),
        "workload.op_fail_ratio": _ratio(r.failed, r.attempted),
        "workload.deliveries_per_op": _ratio(r.client_deliveries, r.completed),
        "workload.read_p50_sim_ms": 1000.0 * percentile(r.read_latencies, 50),
        "workload.read_tail_sim_ms": 1000.0 * read_tail,
        "workload.write_p50_sim_ms": 1000.0 * percentile(r.write_latencies, 50),
        "workload.write_tail_sim_ms": 1000.0 * write_tail,
        "workload.stale_read_ratio": _ratio(r.stale_reads, r.reads),
        "replication.lost_writes": r.lost_writes,
    }


def layer_counts(rep: Rep, ledger: Ledger) -> Dict[str, float]:
    """Every deterministic per-layer count of one traced repetition."""
    c = rep.counters.get
    puts = ledger.put_client + ledger.put_rehome
    gets = ledger.count("handler", "GetRequest")
    reads_issued = ledger.count("client", "get")
    return {
        "scheduler.events": rep.events,
        "scheduler.events_per_sim_s": rep.events / rep.sim_s,
        "scheduler.pending_peak": ledger.pending_peak,
        "network.sends": c("msg.sent", 0.0),
        "network.deliveries": c("msg.received", 0.0),
        "network.drops_dead": c("msg.dropped.dead", 0.0),
        "network.drops_fault": c("msg.dropped.partition", 0.0) + c("msg.dropped.loss", 0.0),
        "node.dead_letters": sum(
            v for k, v in rep.counters.items() if k.startswith("msg.unhandled.")
        ),
        "pss.deliveries": ledger.deliveries("pss"),
        "slicing.deliveries": ledger.deliveries("slicing"),
        "slicing.migrations": ledger.migrations,
        "sliceview.deliveries": ledger.deliveries("sliceview"),
        "handler.put_deliveries_client": ledger.put_client,
        "handler.put_deliveries_rehome": ledger.put_rehome,
        "handler.get_deliveries": gets,
        "handler.first_seen_ratio": _ratio(puts + gets - c("df.dedup.dropped", 0.0), puts + gets),
        "handler.replies_per_read": _ratio(c("msg.received.GetReply", 0.0), reads_issued),
        "handler.ttl_expired": c("df.ttl.expired", 0.0),
        "replication.rehome_floods": c("df.ae.rehomed", 0.0),
        "replication.rehome_per_client_put": _ratio(
            c("df.ae.rehomed", 0.0), rep.writes_completed
        ),
        "replication.sync_deliveries": ledger.count(
            "replication", "SyncDigest", "SyncResponse", "SyncItems"
        ),
        "replication.repaired": c("df.ae.repaired", 0.0),
        "store.put_calls": ledger.count("store", "put"),
        "store.get_calls": ledger.count("store", "get"),
        "store.digest_calls": ledger.count("store", "digest"),
        "store.replicas_per_object": rep.replicas_per_object,
        "client.ops_issued": ledger.count("client", "put", "get"),
        "client.retries": c("client.put.retry", 0.0) + c("client.get.retry", 0.0),
        "client.timeouts": c("client.put.timeout", 0.0) + c("client.get.timeout", 0.0),
        "workload.shed": rep.shed,
        "workload.in_flight_peak": rep.in_flight_peak,
        "faults.injected": rep.faults_injected,
        "faults.nodes_crashed": rep.nodes_crashed,
    }


def per_layer(
    untraced: List[Rep], traced: List[Tuple[Rep, Ledger]]
) -> Dict[str, float]:
    rep, ledger = traced[0]
    values: Dict[str, float] = layer_counts(rep, ledger)
    values.update(outcomes(untraced))
    values["scheduler.us_per_event"] = median(1e6 * r.wall_s / r.events for r in untraced)
    selfs = [l.layer_self_s() for _, l in traced]
    for layer in LAYERS:
        seconds = median(s[layer] for s in selfs)
        if layer == "network":
            values["network.send_self_s"] = seconds
        elif layer == "node":
            values["node.dispatch_self_s"] = seconds
        else:
            values[f"{layer}.self_s"] = seconds
    loop = median(l.loop_s for _, l in traced)
    values["trace.loop_s"] = loop
    values["trace.hook_s"] = median(s[TRACE] for s in selfs)
    values["trace.unattributed_s"] = median(s[UNATTRIBUTED] for s in selfs)
    values["trace.closure_pct"] = median(
        _ratio(100.0 * sum(s[layer] for layer in LAYERS + (TRACE,)), l.loop_s)
        for s, (_, l) in zip(selfs, traced)
    )
    values["trace.overhead_pct"] = 100.0 * (
        median(r.wall_s for r, _ in traced) / median(r.wall_s for r in untraced) - 1.0
    )
    return values
