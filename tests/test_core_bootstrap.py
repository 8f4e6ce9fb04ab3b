"""Tests for registry discovery: probes, beacons, seeding, failover cache."""

from __future__ import annotations

import pytest

from repro.core import protocol
from repro.core.bootstrap import RegistryTracker
from repro.core.config import DiscoveryConfig
from repro.netsim.network import Network
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.registry.rim import RegistryDescription


def _desc(registry_id, lan="lan-a"):
    return RegistryDescription(
        registry_id=registry_id, lan_name=lan, supported_models=("uri",),
        advertisement_count=0, neighbor_count=0,
    )


class Host(Node):
    """Minimal node owning a tracker."""

    def __init__(self, node_id, config):
        super().__init__(node_id)
        self.attached_to: list[str] = []
        self.detached = 0
        self.tracker = RegistryTracker(
            self, config,
            on_attached=self.attached_to.append,
            on_detached=lambda: setattr(self, "detached", self.detached + 1),
        )


@pytest.fixture
def env():
    sim = Simulator(seed=1)
    net = Network(sim)
    net.add_lan("lan-a")
    net.add_lan("lan-b")
    config = DiscoveryConfig(signalling_interval=None)  # PROBE_TIMEOUT is 0.5
    host = net.add_node(Host("host", config), "lan-a")
    return sim, net, host


def test_seed_attaches_immediately(env):
    _sim, _net, host = env
    host.tracker.seed("registry-9", _desc("registry-9"))
    assert host.tracker.current == "registry-9"
    assert host.attached_to == ["registry-9"]


def test_probe_sends_multicast_and_times_out_empty(env):
    sim, net, host = env
    host.tracker.probe()
    sim.run(until=1.0)
    assert host.tracker.current is None
    assert net.stats.by_type_count[protocol.REGISTRY_PROBE] == 1
    assert host.tracker.probes_sent == 1


def test_probe_collects_replies_then_attaches(env):
    sim, _net, host = env
    host.tracker.probe()
    host.tracker.observe_registry(_desc("registry-1", lan="lan-a"))
    assert host.tracker.current is None  # window still open
    sim.run(until=1.0)
    assert host.tracker.current == "registry-1"


def test_probe_waits_for_window_on_remote_only_replies(env):
    sim, _net, host = env
    host.tracker.probe()
    host.tracker.observe_registry(_desc("remote-reg", lan="lan-b"))
    assert host.tracker.current is None  # not local: wait out the window
    sim.run(until=1.0)
    assert host.tracker.current == "remote-reg"


def test_passive_beacon_attaches_when_unattached(env):
    _sim, _net, host = env
    host.tracker.observe_registry(_desc("registry-2"))
    assert host.tracker.current == "registry-2"


def test_observe_does_not_switch_when_attached(env):
    _sim, _net, host = env
    host.tracker.seed("registry-1", _desc("registry-1"))
    host.tracker.observe_registry(_desc("registry-0"))
    assert host.tracker.current == "registry-1"
    assert "registry-0" in host.tracker.known


def test_local_preferred_over_remote(env):
    sim, _net, host = env
    host.tracker.probe()
    host.tracker.known["remote"] = _desc("remote", lan="lan-b")
    sim.run(until=1.0)
    host.tracker.current = None
    host.tracker.observe_registry(_desc("local", lan="lan-a"))
    assert host.tracker.current == "local"


def test_failover_prefers_cached_alternative(env):
    _sim, _net, host = env
    host.tracker.seed("registry-1", _desc("registry-1"))
    host.tracker.known["registry-2"] = _desc("registry-2")
    replacement = host.tracker.registry_failed()
    assert replacement == "registry-2"
    assert host.tracker.current == "registry-2"
    assert "registry-1" not in host.tracker.known
    assert host.tracker.failovers == 1


def test_failover_without_alternatives_probes(env):
    sim, net, host = env
    host.tracker.seed("registry-1", _desc("registry-1"))
    assert host.tracker.registry_failed() is None
    assert host.detached == 1
    sim.run(until=1.0)
    assert net.stats.by_type_count[protocol.REGISTRY_PROBE] == 1


def test_alternatives_order_local_first(env):
    _sim, _net, host = env
    host.tracker.seed("current", _desc("current"))
    host.tracker.known["z-local"] = _desc("z-local", lan="lan-a")
    host.tracker.known["a-remote"] = _desc("a-remote", lan="lan-b")
    assert host.tracker.alternatives() == ["z-local", "a-remote"]


def test_registry_list_reply_merges_without_overwrite(env):
    _sim, _net, host = env
    original = _desc("registry-1", lan="lan-a")
    host.tracker.seed("registry-1", original)
    payload = protocol.RegistryListPayload(
        registries=(_desc("registry-1", lan="lan-b"), _desc("registry-3")),
    )
    from repro.netsim.messages import Envelope

    host.tracker.handle_registry_list_reply(
        Envelope(msg_type=protocol.REGISTRY_LIST_REPLY, src="registry-1",
                 dst="host", payload=payload)
    )
    assert host.tracker.known["registry-1"] is original  # setdefault semantics
    assert "registry-3" in host.tracker.known


def test_load_balancing_spreads_clients_over_local_registries():
    sim = Simulator(seed=1)
    net = Network(sim)
    net.add_lan("lan-a")
    config = DiscoveryConfig(signalling_interval=None)
    hosts = [net.add_node(Host(f"client-{i:03d}", config), "lan-a")
             for i in range(20)]
    chosen = set()
    for host in hosts:
        for rid in ("registry-0", "registry-1", "registry-2"):
            host.tracker.known[rid] = _desc(rid, lan="lan-a")
        host.tracker.observe_registry(_desc("registry-0", lan="lan-a"))
        chosen.add(host.tracker.current)
    assert len(chosen) > 1  # hashed spread, not everyone on registry-0
