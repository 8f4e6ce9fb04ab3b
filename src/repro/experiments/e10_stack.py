"""E10 — Figure 5/§4.2: one generic stack, several description models.

"It should also be possible to use different query evaluation or
matchmaking strategies … This is different from for example UDDI, where
the registry information model is closely tied to the message formats."
And: "semantic service advertisements can become quite large, compared to
the use of for example URI strings" — with the compression/binary-XML
"hook" the MILCOM paper suggests for exactly that problem.

The same capability is published and queried under each model through the
same registry, and we measure the wire: advertisement payload size, query
payload size, publish and response message bytes, and the share of every
message that is generic-envelope overhead. A compressed-semantic variant
models the binary-XML hook (payload compression ratio 0.25).
"""

from __future__ import annotations

from repro.core.config import DiscoveryConfig
from repro.experiments.common import ExperimentResult
from repro.netsim.messages import SizeModel, estimate_payload_size
from repro.semantics.generator import emergency_ontology
from repro.workloads.queries import play
from repro.workloads.scenarios import ScenarioSpec, build_scenario, lans

MODELS = ("uri", "template", "semantic")


def run(
    *,
    n_services: int = 6,
    n_queries: int = 6,
    compressed_ratio: float = 0.25,
    seed: int = 0,
) -> ExperimentResult:
    """Measure wire costs per description model on the shared stack."""
    result = ExperimentResult(
        experiment="E10",
        description="description models on one generic stack: wire sizes (Fig. 5)",
    )
    for model_id in MODELS:
        result.add(**_run_one(model_id, n_services, n_queries, seed,
                              size_model=SizeModel()))
    result.add(**_run_one(
        "semantic", n_services, n_queries, seed,
        size_model=SizeModel(compression_ratio=compressed_ratio),
        label="semantic+zip",
    ))
    result.note(
        "all models flow through identical publish/renew/query messages — "
        "only the payload differs; semantic payloads are an order of "
        "magnitude larger than URIs, which compression (the paper's "
        "binary-XML hook) substantially recovers."
    )
    return result


def _run_one(model_id: str, n_services: int, n_queries: int, seed: int,
             *, size_model: SizeModel, label: str | None = None) -> dict:
    spec = ScenarioSpec(
        lan_names=lans(1),
        ontology_factory=emergency_ontology,
        services_per_lan=n_services,
        federation="none",
        model_ids=(model_id,),
        seed=seed,
    )
    built = build_scenario(spec, config=DiscoveryConfig(lease_duration=20.0))
    system = built.system
    system.network.size_model = size_model
    system.run(until=2.0)

    played = play(built, n_queries, drain=30.0, model_id=model_id)
    completed = played.completed

    stats = system.network.stats
    model = system.clients[0].models.get(model_id)
    sample_profile = built.profiles[0]
    ad_payload = model.describe(sample_profile, "svc://sample")
    query_payload = model.query_from(played.issued[0].call.request)

    def per_message(msg_type: str) -> float:
        count = stats.by_type_count.get(msg_type, 0)
        return stats.by_type_bytes.get(msg_type, 0) / count if count else 0.0

    publish_bytes = per_message("publish")
    overhead = size_model.envelope_overhead
    return {
        "model": label or model_id,
        "ad_payload_bytes": _payload_size(ad_payload, size_model),
        "query_payload_bytes": _payload_size(query_payload, size_model),
        "publish_msg_bytes": publish_bytes,
        "renew_msg_bytes": per_message("renew"),
        "response_msg_bytes": per_message("query-response"),
        "envelope_share": overhead / publish_bytes if publish_bytes else None,
        "recall_proxy": sum(
            1 for q in completed if q.call.hits
        ) / max(len(completed), 1),
    }


def _payload_size(payload, size_model: SizeModel) -> int:
    return int(estimate_payload_size(payload) * size_model.compression_ratio)
