"""Tests for the UDDI, WS-Discovery, and cluster baselines: rows of the
architecture table in :mod:`repro.workloads.scenarios`, built onto the one
:class:`~repro.core.system.DiscoverySystem`."""

from __future__ import annotations

import pytest

from repro.core import protocol
from repro.core.config import DiscoveryConfig
from repro.core.durability import DurabilityConfig
from repro.experiments import e3_robustness, e4_staleness
from repro.semantics.generator import emergency_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest
from repro.workloads.scenarios import ARCHITECTURES, PER_LAN, ScenarioSpec, build_scenario

REQUEST = ServiceRequest.build("ems:MedicalService", outputs=["ems:Location"])

#: The manually configured endpoint every UDDI node is given.
UDDI = (ARCHITECTURES["uddi"].registry,)


def _ambulance(name="ambu"):
    return ServiceProfile.build(name, "ems:AmbulanceDispatchService",
                                outputs=["ems:UnitLocation"])


def _spec(architecture, lans=("lan-0",), *, seed, federation="ring", **populated):
    return ScenarioSpec(
        name=architecture, lan_names=lans, ontology_factory=emergency_ontology,
        federation=federation, seed=seed, architecture=architecture,
        **{"services_per_lan": 0, "clients_per_lan": 0, **populated},
    )


def _deploy(architecture, lans=("lan-0",), *, seed, config=None, federation="ring"):
    """The row's registries on ``lans``, no service or client yet."""
    spec = _spec(architecture, lans, seed=seed, federation=federation)
    return build_scenario(spec, config=config).system


# -- the table ------------------------------------------------------------------

@pytest.mark.parametrize("architecture", sorted(ARCHITECTURES))
def test_every_row_builds_through_build_scenario(architecture):
    row = ARCHITECTURES[architecture]
    built = build_scenario(_spec(architecture, ("lan-0", "lan-1"), seed=5,
                                 services_per_lan=2, clients_per_lan=1))
    system = built.system
    assert system.config == row.config()
    assert len(system.services) == 4 and len(system.clients) == 2
    roles = {node.role for node in [*system.registries, *system.services, *system.clients]}
    assert roles <= {"registry", "service", "client"}
    if row.registry is None:
        assert system.registries == []
    elif row.registry == PER_LAN:
        assert [r.lan_name for r in system.registries] == ["lan-0", "lan-1"]
    else:
        assert [(r.node_id, r.lan_name) for r in system.registries] == \
            [(row.registry, "lan-0")]
    assert all(len(r.repository) == row.hosts_ontology for r in system.registries)
    seeds = (row.registry,) if row.seeded else ()
    assert all(node.tracker.seeds == seeds for node in [*system.services, *system.clients])
    system.run(until=3.0)
    anchor = built.profiles[0]
    request = ServiceRequest.build(anchor.category, outputs=list(anchor.outputs))
    assert system.discover(system.clients[0], request).completed


def test_every_compared_architecture_is_a_row():
    """E3 and E4 look their architectures up; E4 adds two leasing ablations
    of the federated one."""
    assert set(e3_robustness.ARCHITECTURES) <= set(ARCHITECTURES)
    assert set(e4_staleness.ARCHITECTURES) - set(ARCHITECTURES) == set(e4_staleness.ABLATIONS)
    assert set(ARCHITECTURES) == set(e3_robustness.ARCHITECTURES) | {"wsd-proxy"}


def test_a_seeded_client_reaches_a_registry_its_probe_cannot():
    """Why UDDI nodes are seeded: a probe is LAN-scoped, the manually
    configured endpoint is not. The same client left to probe finds
    nothing and, with no fallback, fails."""
    system = _deploy("uddi", ("lan-0", "lan-1"), seed=6)
    system.add_service("lan-0", _ambulance(), seeds=UDDI)
    seeded = system.add_client("lan-1", seeds=UDDI)
    probing = system.add_client("lan-1")
    system.run(until=2.0)
    assert system.discover(seeded, REQUEST).service_names() == ["ambu"]
    assert probing.tracker.current is None
    assert system.discover(probing, REQUEST).via == "failed"


def test_a_seeded_node_keeps_its_endpoint_across_restart_and_roam():
    """A manually configured endpoint does not depend on the LAN or on
    volatile state: a restart or a move attaches to it again, no probe."""
    system = _deploy("uddi", ("lan-0", "lan-1"), seed=8)
    service = system.add_service("lan-0", _ambulance(), seeds=UDDI)
    client = system.add_client("lan-0", seeds=UDDI)
    system.run(until=2.0)
    service.crash()
    service.restart()
    system.move(client, "lan-1")
    system.run_for(1.0)
    assert service.tracker.current == client.tracker.current == UDDI[0]
    assert system.network.stats.by_type_count[protocol.REGISTRY_PROBE] == 1  # the registry's
    assert system.discover(client, REQUEST).service_names() == ["ambu"]


def test_the_uddi_registry_is_a_plain_registry():
    """Deliberate drift from the deleted subclass: it reports the role
    ``registry``, arms the ping round every registry arms (which sends
    nothing without a neighbour) and multicasts one start-up probe."""
    system = _deploy("uddi", seed=7)
    registry = system.registries[0]
    system.run(until=30.0)
    assert registry.role == "registry"
    counts = system.network.stats.by_type_count
    assert counts[protocol.REGISTRY_PROBE] == 1
    assert counts[protocol.REGISTRY_PING] == 0


# -- UDDI ---------------------------------------------------------------------

def test_uddi_config_shape():
    config = ARCHITECTURES["uddi"].config()
    assert not config.leasing_enabled
    assert config.beacon_interval is None
    assert not config.fallback_enabled


def test_uddi_basic_discovery():
    system = _deploy("uddi", ("lan-0", "lan-1"), seed=1)
    system.add_service("lan-1", _ambulance(), seeds=UDDI)
    client = system.add_client("lan-0", seeds=UDDI)
    system.run(until=2.0)
    call = system.discover(client, REQUEST)
    assert call.service_names() == ["ambu"]


def test_uddi_single_registry_enforced():
    """However many registries the spec asks for, the row places one."""
    built = build_scenario(_spec("uddi", ("lan-0", "lan-1"), seed=1, registries_per_lan=2))
    assert [(r.node_id, r.lan_name) for r in built.registries] == [(UDDI[0], "lan-0")]


def test_uddi_requires_registry_before_clients():
    """The registry is placed before every client and service, each given
    its endpoint; without it nobody is given one to a registry that is not
    there."""
    spec = _spec("uddi", seed=1, services_per_lan=1, clients_per_lan=1)
    built = build_scenario(spec)
    nodes = [*built.services, *built.clients]
    assert [r.node_id for r in built.registries] == list(UDDI)
    assert all(node.tracker.seeds == UDDI for node in nodes)
    built = build_scenario(spec, with_registries=False)
    assert built.registries == []
    assert all(node.tracker.seeds == () for node in [*built.services, *built.clients])


def test_uddi_ignores_probes():
    """No dynamic registry discovery: seeded nodes send no probe, so no
    probe is answered."""
    system = _deploy("uddi", seed=1)
    system.add_service("lan-0", _ambulance(), seeds=UDDI)
    system.add_client("lan-0", seeds=UDDI)
    system.run(until=2.0)

    assert system.traffic()["messages_sent"] == 0 or \
        system.network.stats.by_type_count[protocol.REGISTRY_PROBE_REPLY] == 0


def test_uddi_stale_ads_after_service_crash():
    """The paper's core criticism: no aliveness information."""
    system = _deploy("uddi", seed=1)
    service = system.add_service("lan-0", _ambulance(), seeds=UDDI)
    client = system.add_client("lan-0", seeds=UDDI)
    system.run(until=2.0)
    service.crash()
    system.run_for(300.0)
    call = system.discover(client, REQUEST)
    assert call.service_names() == ["ambu"]  # stale hit for a dead service


def test_uddi_explicit_deregistration_works():
    system = _deploy("uddi", seed=1)
    service = system.add_service("lan-0", _ambulance(), seeds=UDDI)
    client = system.add_client("lan-0", seeds=UDDI)
    system.run(until=2.0)
    service.deregister()
    system.run_for(1.0)
    call = system.discover(client, REQUEST)
    assert call.hits == []


def test_uddi_registry_crash_kills_discovery():
    system = _deploy("uddi", seed=1)
    system.add_service("lan-0", _ambulance(), seeds=UDDI)
    client = system.add_client("lan-0", seeds=UDDI)
    system.run(until=2.0)
    system.registries[0].crash()
    call = system.discover(client, REQUEST, timeout=60.0)
    assert call.completed
    assert call.hits == []  # no fallback in UDDI deployments


def test_durable_uddi_registry_starts_its_components():
    """The baseline shares the kernel's start-up: a durable UDDI registry
    arms its snapshot timer like any other (it used to log every write
    and never snapshot)."""
    system = _deploy("uddi", seed=1, config=DiscoveryConfig(
        durability=DurabilityConfig(enabled=True, snapshot_interval=5.0)))
    registry = system.registries[0]
    for i in range(3):
        system.add_service("lan-0", _ambulance(f"ambu-{i}"), seeds=UDDI)
    system.run(until=30.0)
    assert registry.durability.wal_appends == 9  # 3 services x 3 models
    assert registry.durability.snapshots > 0
    # The snapshot timer and the ping round: no beacon, no purge timer.
    assert len(registry._periodics) == 2
    assert system.network.stats.by_type_count[protocol.REGISTRY_BEACON] == 0


# -- WS-Discovery ----------------------------------------------------------------

def test_wsd_adhoc_discovery_no_registries():
    system = _deploy("wsd-adhoc", seed=2)
    system.add_service("lan-0", _ambulance())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    call = system.discover(client, REQUEST)
    assert call.via == "fallback"
    assert call.service_names() == ["ambu"]
    assert system.registries == []


def test_wsd_adhoc_always_fresh():
    system = _deploy("wsd-adhoc", seed=2)
    service = system.add_service("lan-0", _ambulance())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    service.crash()
    call = system.discover(client, REQUEST)
    assert call.hits == []  # dead services simply do not answer


def test_wsd_managed_uses_proxy():
    system = _deploy("wsd-proxy", seed=2)
    system.add_service("lan-0", _ambulance())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    call = system.discover(client, REQUEST)
    assert call.via.startswith("registry:wsd-proxy")
    assert call.service_names() == ["ambu"]


def test_wsd_proxy_has_no_leasing_so_goes_stale():
    system = _deploy("wsd-proxy", seed=2)
    service = system.add_service("lan-0", _ambulance())
    client = system.add_client("lan-0")
    system.run(until=2.0)
    service.crash()
    system.run_for(300.0)
    call = system.discover(client, REQUEST)
    assert call.service_names() == ["ambu"]  # the documented shortcoming


def test_wsd_response_implosion_grows_with_providers():
    system = _deploy("wsd-adhoc", seed=2)
    for i in range(8):
        system.add_service("lan-0", _ambulance(f"ambu-{i}"))
    client = system.add_client("lan-0")
    system.run(until=2.0)
    call = system.discover(client, REQUEST)
    assert call.responses == 8  # one response message per provider


# -- cluster ------------------------------------------------------------------------

def test_cluster_replicates_to_all_members():
    system = _deploy("cluster", ("lan-0", "lan-1", "lan-2"), seed=3, federation="mesh")
    system.add_service("lan-0", _ambulance())
    system.run(until=3.0)
    sizes = [len(r.store) for r in system.registries]
    assert len(set(sizes)) == 1
    assert sizes[0] > 0


def test_cluster_answers_locally_with_ttl_zero():
    system = _deploy("cluster", ("lan-0", "lan-1"), seed=3, federation="mesh")
    system.add_service("lan-1", _ambulance())
    client = system.add_client("lan-0")
    system.run(until=3.0)
    before = system.network.stats.by_type_count.get("query-forward", 0)
    call = system.discover(client, REQUEST)
    after = system.network.stats.by_type_count.get("query-forward", 0)
    assert call.service_names() == ["ambu"]
    assert after == before  # no forwarding: the local replica answered


def test_cluster_survives_member_failure():
    system = _deploy("cluster", ("lan-0", "lan-1"), seed=3, federation="mesh")
    system.add_service("lan-1", _ambulance())
    client = system.add_client("lan-0")
    system.run(until=3.0)
    # Kill the member the service published to; the replica answers.
    victim = [r for r in system.registries if r.lan_name == "lan-1"][0]
    victim.crash()
    system.run_for(1.0)
    call = system.discover(client, REQUEST, timeout=30.0)
    assert call.service_names() == ["ambu"]


def test_cluster_replicas_expire_when_home_dies():
    """Replica leases stop being refreshed once the home registry is gone."""
    system = _deploy("cluster", ("lan-0", "lan-1"), seed=3, federation="mesh",
                     config=DiscoveryConfig(lease_duration=5.0, purge_interval=1.0))
    home, replica = system.registries
    service = system.add_service("lan-0", _ambulance())
    system.run(until=3.0)
    assert len(replica.store) > 0
    home.crash()
    service.crash()  # and the service, so nothing republishes
    system.run_for(15.0)
    assert len(replica.store) == 0
