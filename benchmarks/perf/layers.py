"""Per-layer metrics of one traced pass, derived from spans and counters.

"op" is one traced operation, "write" one traced publish/renew/remove.
``us_per_op`` metrics are a layer's *total* span time (children included)
unless the name says ``self``; the layer table written next to the trace
is self time throughout, so its rows add up to the traced wall time.
"""

from __future__ import annotations

from spans import ROOT_SPAN, SpanRecorder, layer_self_ns

_ZERO = {"count": 0, "total_ns": 0.0, "self_ns": 0.0}

_ROLE_SPANS = ("Node.receive[{0}]", "Node.after[{0}]", "Node.every[{0}]")


def derive(
    rec: SpanRecorder,
    *,
    ops: int,
    writes: int,
    delta: dict[str, int],
) -> tuple[dict[str, float], dict[str, float]]:
    """``(metrics, layer self-time shares of the traced wall time)``."""
    agg = rec.aggregate()

    def pick(field: str, names: tuple[str, ...]) -> float:
        return sum(agg.get(name, _ZERO)[field] for name in names)

    def total(*names: str) -> float:
        return pick("total_ns", names)

    def own(*names: str) -> float:
        return pick("self_ns", names)

    def count(*names: str) -> float:
        return pick("count", names)

    def us_per_op(ns: float) -> float:
        return ns / 1e3 / ops

    def us_per_write(ns: float) -> float:
        return ns / 1e3 / writes if writes else 0.0

    def role(name: str, *extra: str) -> float:
        return us_per_op(own(*(s.format(name) for s in _ROLE_SPANS), *extra))

    appends = ("DurabilityManager.log_store", "DurabilityManager.log_renew",
               "DurabilityManager.log_remove", "DurabilityManager.log_expire")
    snapshots = count("DurabilityManager.snapshot")
    evaluations = count("SemanticModel.evaluate")
    wall = total(ROOT_SPAN)
    layers = layer_self_ns(agg)
    shares = {layer: ns / wall for layer, ns in sorted(layers.items())}
    program = sum(ns for layer, ns in layers.items() if layer != "bench")
    store_path = sum(ns for layer, ns in layers.items()
                     if layer.startswith(("registry.", "semantics.")))

    metrics = {
        "netsim.sim.events_per_op": delta["events"] / ops,
        "netsim.sim.self_us_per_op": us_per_op(
            own("Simulator.step", "Simulator.run", "Simulator.schedule_at")),
        "netsim.net.sends_per_op": delta["sends"] / ops,
        "netsim.net.deliveries_per_op": delta["deliveries"] / ops,
        "netsim.net.bytes_per_op": delta["bytes"] / ops,
        "netsim.net.self_us_per_op": us_per_op(
            own("Network.unicast", "Network.multicast", "Network._deliver")),
        "netsim.size_model.us_per_op": us_per_op(total("SizeModel.message_size")),
        "core.client.self_us_per_op": role("client", "ClientNode.discover"),
        "core.registry.self_us_per_op": role("registry"),
        "core.service.self_us_per_op": role("service"),
        "core.admission.us_per_op": us_per_op(total("AdmissionController.intercept")),
        "core.durability.append_us_per_write": us_per_write(own(*appends)),
        "core.durability.wal_appends_per_write":
            delta["wal_appends"] / writes if writes else 0.0,
        "core.durability.wal_bytes_per_write": rec.wal_bytes / writes if writes else 0.0,
        "core.durability.snapshots": snapshots,
        "core.durability.snapshot_ms_each":
            total("DurabilityManager.snapshot") / 1e6 / snapshots if snapshots else 0.0,
        "registry.evaluate.calls_per_op": count("QueryEvaluator.evaluate") / ops,
        "registry.evaluate.us_per_op": us_per_op(total("QueryEvaluator.evaluate")),
        "registry.evaluate.self_us_per_op": us_per_op(own("QueryEvaluator.evaluate")),
        "registry.index.lookup_us_per_op": us_per_op(
            total("SemanticConceptIndex.candidate_buckets",
                  "SemanticConceptIndex.candidate_ids")),
        "registry.index.update_us_per_write": us_per_write(
            total("SemanticConceptIndex.add", "SemanticConceptIndex.discard")),
        "registry.store.resolve_us_per_op": us_per_op(
            own("AdvertisementStore.ranked_candidates", "AdvertisementStore.candidates")),
        "registry.store.update_us_per_write": us_per_write(
            own("AdvertisementStore.put", "AdvertisementStore.discard")),
        "registry.leases.us_per_op": us_per_op(
            total("LeaseManager.grant", "LeaseManager.renew",
                  "LeaseManager.cancel_for_ad", "LeaseManager.expired_ads")),
        "registry.merge.us_per_op": us_per_op(total("QueryEvaluator.merge")),
        "registry.scored_per_op": delta["scored"] / ops,
        "registry.prefiltered_per_op": delta["prefiltered"] / ops,
        "registry.early_terminations_per_op": delta["early_terminations"] / ops,
        "semantics.match.calls_per_op": evaluations / ops,
        "semantics.match.us_per_op": us_per_op(
            total("SemanticModel.evaluate", "SemanticModel.prefilter")),
        "semantics.match.us_each":
            total("SemanticModel.evaluate") / 1e3 / evaluations if evaluations else 0.0,
        "obs.trace.records_per_op": delta["trace_records"] / ops,
        "obs.trace.us_per_op": us_per_op(
            total("TraceRecorder.start_span", "TraceRecorder.end_span",
                  "TraceRecorder.event")),
        "obs.metrics.us_per_op": us_per_op(
            total("MetricsRegistry.histogram", "MetricsRegistry.counter",
                  "MetricsRegistry.gauge", "Histogram.observe")),
        "bench.layer_coverage_frac": program / wall,
        "bench.store_path_share": store_path / wall,
    }
    return metrics, shares
