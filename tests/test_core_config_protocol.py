"""Unit tests for configuration validation and protocol payloads."""

from __future__ import annotations

import pytest

from repro.core import protocol
from repro.core.config import DiscoveryConfig
from repro.core.sharding import ShardingConfig
from repro.descriptions.uri import UriDescription, UriQuery
from repro.errors import ReproError
from repro.registry.advertisements import Advertisement
from repro.registry.matching import QueryHit
from repro.registry.rim import RegistryDescription
from repro.semantics.generator import battlefield_ontology
from repro.semantics.profiles import ServiceProfile


def test_defaults_are_valid():
    config = DiscoveryConfig()
    assert config.renew_interval == pytest.approx(24.0)


def test_unknown_strategy_rejected():
    with pytest.raises(ReproError):
        DiscoveryConfig(strategy="telepathy")


def test_unknown_cooperation_rejected():
    with pytest.raises(ReproError):
        DiscoveryConfig(cooperation="osmosis")


def test_sharding_requires_replication():
    """Sharding partitions what replicate-ads replicates: under
    forward-queries there is nothing to place, so the pair is rejected
    instead of being silently ignored."""
    sharding = ShardingConfig(enabled=True)
    with pytest.raises(ReproError, match="replicate-ads"):
        DiscoveryConfig(sharding=sharding)
    DiscoveryConfig(cooperation="replicate-ads", sharding=sharding)
    DiscoveryConfig(sharding=ShardingConfig(enabled=False, replication_factor=5))


def test_sharding_requires_antientropy_rounds():
    """A sharded ring repairs a replica that missed writes only through
    anti-entropy, and no configuration can go without rounds: ``None`` is
    rejected, sharded or not."""
    for sharding in (ShardingConfig(enabled=True), ShardingConfig(enabled=False)):
        with pytest.raises(ReproError, match="antientropy_interval must be positive, got None"):
            DiscoveryConfig(cooperation="replicate-ads", sharding=sharding,
                            antientropy_interval=None)


def test_renew_fraction_bounds():
    with pytest.raises(ReproError):
        DiscoveryConfig(renew_fraction=0.0)
    with pytest.raises(ReproError):
        DiscoveryConfig(renew_fraction=1.0)


def test_lease_duration_positive():
    with pytest.raises(ReproError):
        DiscoveryConfig(lease_duration=0.0)


def test_negative_ttl_rejected():
    with pytest.raises(ReproError):
        DiscoveryConfig(default_ttl=-1)


def test_config_is_frozen():
    config = DiscoveryConfig()
    with pytest.raises(AttributeError):
        config.default_ttl = 7  # type: ignore[misc]


# -- payloads -------------------------------------------------------------------

def _ad():
    return Advertisement(
        ad_id="ad-1", service_node="n", service_name="s", endpoint="e",
        model_id="uri", description=UriDescription("desc", "e"),
    )


def test_query_payload_with_ttl_copy():
    payload = protocol.QueryPayload(query_id="q1", model_id="uri",
                                    query=UriQuery("x"), max_results=3, ttl=4)
    lowered = payload.with_ttl(2)
    assert lowered.ttl == 2
    assert payload.ttl == 4
    assert lowered.query_id == "q1"
    assert lowered.max_results == 3


def test_response_payload_size_scales_with_hits():
    empty = protocol.ResponsePayload(query_id="q", hits=())
    one = protocol.ResponsePayload(
        query_id="q", hits=(QueryHit(_ad(), 1, 0.5),)
    )
    assert one.size_bytes() > empty.size_bytes()


def test_publish_payload_size_includes_description():
    small = protocol.PublishPayload(
        service_node="n", service_name="s", endpoint="e",
        model_id="uri", description=UriDescription("tiny", "e"),
    )
    large = protocol.PublishPayload(
        service_node="n", service_name="s", endpoint="e",
        model_id="semantic", description=ServiceProfile.build("s", "x", text="x" * 4000),
    )
    assert large.size_bytes() > small.size_bytes()


def test_ad_forward_dedup_key():
    payload = protocol.AdForwardPayload(advertisement=_ad(),
                                        lease_duration=10.0, epoch=3)
    assert payload.dedup_key() == ("ad-1", 1, 3)


def test_walk_payload_size_counts_visited():
    short = protocol.WalkPayload(query_id="q", model_id="uri", query=UriQuery("x"),
                                 coordinator="r0", remaining=3)
    long = protocol.WalkPayload(query_id="q", model_id="uri", query=UriQuery("x"),
                                coordinator="r0", remaining=3,
                                visited=("r1", "r2", "r3"))
    assert long.size_bytes() > short.size_bytes()


def test_registry_list_payload_size():
    desc = RegistryDescription(
        registry_id="r0", lan_name="lan", supported_models=("uri",),
        advertisement_count=0, neighbor_count=0,
    )
    payload = protocol.RegistryListPayload(registries=(desc, desc))
    assert payload.size_bytes() > desc.size_bytes()


def test_artifact_payloads():
    request = protocol.ArtifactRequestPayload(artifact_name="battlefield")
    assert request.size_bytes() > 0
    found = protocol.ArtifactReplyPayload(artifact_name="x", artifact=battlefield_ontology())
    missing = protocol.ArtifactReplyPayload(artifact_name="x")
    assert found.size_bytes() > missing.size_bytes()
