"""Fault injection, retry policy, and invariant checking.

Covers the robustness subsystem end to end: :class:`RetryPolicy` math,
timed loss windows and latency spikes, declarative :class:`FaultPlan`
schedules (including the deterministic churn builder), the post-scenario
invariant sweep, and lossy-network discovery behaviour (retry exhaustion
falling back to LAN multicast, lease expiry and republish across fault
windows, seeded determinism of whole fault scenarios).
"""

from __future__ import annotations

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.invariants import assert_invariants, check_invariants
from repro.core.retry import JITTER, RetryPolicy
from repro.core.system import DiscoverySystem
from repro.errors import InvariantError, LeaseError, NetworkError, SimulationError
from repro.netsim.faults import FaultPlan
from repro.netsim.messages import Envelope
from repro.netsim.network import LatencySpike, LossWindow, Network
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.semantics.generator import emergency_ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest


# -- RetryPolicy ----------------------------------------------------------


class TestRetryPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(base=1.0, cap=5.0)
        # Doubling per retry until the cap, each within the jitter spread.
        for attempt, unjittered in ((1, 1.0), (2, 2.0), (3, 4.0), (4, 5.0), (10, 5.0)):
            assert policy.delay(attempt) == pytest.approx(unjittered, rel=JITTER)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base=1.0, cap=16.0)
        first = policy.delay(2, seed=7, key="q-1")
        again = policy.delay(2, seed=7, key="q-1")
        assert first == again
        assert 2.0 * (1 - JITTER) <= first <= 2.0 * (1 + JITTER)
        # Different keys/seeds/attempts de-synchronize.
        assert policy.delay(2, seed=7, key="q-2") != first
        assert policy.delay(2, seed=8, key="q-1") != first

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base": 0.0},
            {"base": -1.0},
            {"cap": 0.0},
            {"max_attempts": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(Exception):
            RetryPolicy(**kwargs)


# -- loss windows and latency spikes --------------------------------------


class Recorder(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received: list[Envelope] = []

    def handle_message(self, envelope):
        self.received.append(envelope)


@pytest.fixture
def net():
    sim = Simulator(seed=3)
    network = Network(sim)
    network.add_lan("lan-a")
    network.add_lan("lan-b")
    return network


def _add(net, node_id, lan):
    return net.add_node(Recorder(node_id), lan)


class TestLossWindows:
    def test_blackout_window_drops_then_expires(self, net):
        a = _add(net, "a", "lan-a")
        b = _add(net, "b", "lan-a")
        net.add_loss_window(LossWindow(start=0.0, end=5.0, rate=1.0))
        a.send("b", "m1")
        net.sim.run(until=1.0)
        assert b.received == []
        assert net.metrics.tallies("drop")["fault-loss"] == 1
        net.sim.run(until=6.0)
        a.send("b", "m2")
        net.sim.run(until=7.0)
        assert len(b.received) == 1
        assert b.received[0].msg_type == "m2"

    def test_lan_scoped_window_spares_other_traffic(self, net):
        a = _add(net, "a", "lan-a")
        b = _add(net, "b", "lan-b")
        c = _add(net, "c", "lan-b")
        net.add_loss_window(
            LossWindow(start=0.0, end=10.0, rate=1.0, lan="lan-a")
        )
        a.send("b", "doomed")
        c.send("b", "fine")
        net.sim.run(until=1.0)
        assert len(b.received) == 1
        assert b.received[0].src == "c"

    def test_link_scoped_window(self, net):
        a = _add(net, "a", "lan-a")
        b = _add(net, "b", "lan-b")
        net.add_loss_window(
            LossWindow(start=0.0, end=10.0, rate=1.0,
                       link=frozenset(("lan-a", "lan-b")))
        )
        a.send("b", "doomed")
        net.sim.run(until=1.0)
        assert b.received == []
        assert net.metrics.tallies("drop")["fault-loss"] == 1

    def test_multicast_respects_fault_loss(self, net):
        a = _add(net, "a", "lan-a")
        _add(net, "b", "lan-a")
        _add(net, "c", "lan-a")
        net.add_loss_window(LossWindow(start=0.0, end=5.0, rate=1.0))
        a.multicast("hello")
        net.sim.run(until=1.0)
        assert net.metrics.tallies("drop")["fault-loss"] == 2

    def test_unknown_lan_rejected(self, net):
        with pytest.raises(NetworkError):
            net.add_loss_window(
                LossWindow(start=0.0, end=1.0, rate=0.5, lan="lan-zzz")
            )

    def test_invalid_window_rejected(self):
        with pytest.raises(NetworkError):
            LossWindow(start=0.0, end=1.0, rate=1.5)
        with pytest.raises(NetworkError):
            LossWindow(start=2.0, end=1.0, rate=0.5)

    def test_windows_compose_as_independent_probabilities(self, net):
        net.add_loss_window(LossWindow(start=0.0, end=10.0, rate=0.5))
        net.add_loss_window(LossWindow(start=0.0, end=10.0, rate=0.5))
        assert net._fault_loss("lan-a", "lan-a") == pytest.approx(0.75)
        # Outside the window: no loss.
        net.sim.schedule_at(20.0, lambda: None)
        net.sim.run(until=20.0)
        assert net._fault_loss("lan-a", "lan-a") == 0.0


class TestLatencySpikes:
    def test_spike_delays_delivery(self, net):
        a = _add(net, "a", "lan-a")
        b = _add(net, "b", "lan-a")
        net.add_latency_spike(LatencySpike(start=0.0, end=5.0, extra=1.0))
        arrival = {}
        b.handle_message = lambda env: arrival.setdefault("t", net.sim.now)
        a.send("b", "slow")
        net.sim.run(until=3.0)
        assert arrival["t"] == pytest.approx(net.lan_latency + 1.0)

    def test_spike_expires(self, net):
        a = _add(net, "a", "lan-a")
        b = _add(net, "b", "lan-a")
        net.add_latency_spike(LatencySpike(start=0.0, end=5.0, extra=1.0))
        arrival = {}
        b.handle_message = lambda env: arrival.setdefault("t", net.sim.now)
        net.sim.schedule_at(6.0, lambda: a.send("b", "fast"))
        net.sim.run(until=10.0)
        assert arrival["t"] == pytest.approx(6.0 + net.lan_latency)


# -- FaultPlan ------------------------------------------------------------


class TestFaultPlan:
    def test_actions_are_time_sorted(self):
        plan = FaultPlan().restart(30.0, "n1").crash(10.0, "n1").heal(20.0)
        times = [a.time for a in plan.actions()]
        assert times == [10.0, 20.0, 30.0]
        assert len(plan) == 3

    def test_describe_mentions_every_action(self):
        plan = (
            FaultPlan()
            .crash(1.0, "n1")
            .partition(2.0, [["lan-a"], ["lan-b"]])
            .loss_burst(3.0, 4.0, 0.5, lan="lan-a")
            .latency_spike(3.0, 4.0, 0.2)
            .heal(9.0)
        )
        text = "\n".join(plan.describe())
        assert "crash n1" in text
        assert "partition" in text
        assert "loss 0.5" in text
        assert "latency" in text

    def test_apply_executes_crash_and_restart(self, net):
        node = _add(net, "n1", "lan-a")
        plan = FaultPlan().crash(5.0, "n1").restart(10.0, "n1")
        applied = plan.apply(net)
        net.sim.run(until=7.0)
        assert not node.alive
        net.sim.run(until=12.0)
        assert node.alive
        assert applied.counts() == {"crash": 1, "restart": 1}
        assert net.metrics.tallies("fault")["crash"] == 1
        assert net.metrics.tallies("fault")["restart"] == 1

    def test_crash_on_dead_node_is_a_noop(self, net):
        node = _add(net, "n1", "lan-a")
        node.crash()
        applied = FaultPlan().crash(1.0, "n1").apply(net)
        net.sim.run(until=2.0)
        assert applied.counts() == {}

    def test_partition_and_heal_via_plan(self, net):
        _add(net, "a", "lan-a")
        _add(net, "b", "lan-b")
        plan = FaultPlan().partition(1.0, [["lan-a"], ["lan-b"]]).heal(5.0)
        plan.apply(net)
        net.sim.run(until=2.0)
        assert not net.reachable("a", "b")
        net.sim.run(until=6.0)
        assert net.reachable("a", "b")

    def test_apply_in_the_past_raises(self, net):
        net.sim.schedule_at(10.0, lambda: None)
        net.sim.run(until=10.0)
        with pytest.raises(SimulationError):
            FaultPlan().crash(5.0, "n1").apply(net)

    def test_churn_is_deterministic(self):
        kwargs = dict(rate=0.2, window=60.0, seed=5, mean_downtime=10.0)
        first = FaultPlan.churn(["n1", "n2", "n3"], **kwargs)
        again = FaultPlan.churn(["n1", "n2", "n3"], **kwargs)
        assert first.describe() == again.describe()
        other = FaultPlan.churn(["n1", "n2", "n3"], rate=0.2, window=60.0,
                                seed=6, mean_downtime=10.0)
        assert first.describe() != other.describe()

    def test_churn_respects_window_and_pool(self):
        plan = FaultPlan.churn(["n1", "n2"], rate=1.0, window=30.0, seed=1)
        assert plan.actions(), "expected some churn at rate 1.0 over 30 s"
        for action in plan.actions():
            assert 0.0 <= action.time < 30.0
            assert action.node_id in ("n1", "n2")
        # Permanent crashes: each node crashes at most once.
        crashed = [a.node_id for a in plan.actions() if a.kind == "crash"]
        assert len(crashed) == len(set(crashed))

    def test_churn_validates_inputs(self):
        with pytest.raises(SimulationError):
            FaultPlan.churn([], rate=1.0, window=10.0)
        with pytest.raises(SimulationError):
            FaultPlan.churn(["n1"], rate=0.0, window=10.0)

    def test_churn_rejects_negative_mean_downtime(self):
        with pytest.raises(SimulationError):
            FaultPlan.churn(["a", "b"], rate=1.0, window=5.0, mean_downtime=-1.0)

    def test_churn_zero_downtime_restarts_at_the_crash_instant(self, net):
        _add(net, "a", "lan-a")
        _add(net, "b", "lan-a")
        plan = FaultPlan.churn(["a", "b"], rate=1.0, window=5.0, mean_downtime=0.0)
        actions = plan.actions()
        assert actions and len(actions) % 2 == 0
        for crash, restart in zip(actions[::2], actions[1::2]):
            assert (crash.kind, restart.kind) == ("crash", "restart")
            assert (crash.time, crash.node_id) == (restart.time, restart.node_id)
        applied = plan.apply(net)
        net.sim.run(until=5.0)
        half = len(actions) // 2
        assert applied.counts() == {"crash": half, "restart": half}
        assert net.node("a").alive and net.node("b").alive


class TestMoveAction:
    @staticmethod
    def _two_lans():
        system = DiscoverySystem(seed=9, ontology=emergency_ontology())
        system.add_lan("lan-a")
        system.add_lan("lan-b")
        system.add_registry("lan-a")
        local_b = system.add_registry("lan-b")
        client = system.add_client("lan-a")
        service = system.add_service("lan-a", ServiceProfile.build(
            "medic", "ems:MedicalService", outputs=["ems:CasualtyReport"]))
        system.run(until=2.0)
        return system, local_b, client, service

    def test_describe_names_node_and_lan(self):
        assert FaultPlan().move(4.0, "client-000", "lan-b").describe() == [
            "t=4 move client-000 to lan-b"]

    def test_a_planned_move_roams_clients_and_services(self):
        system, local_b, client, service = self._two_lans()
        plan = FaultPlan().move(3.0, client.node_id, "lan-b") \
                          .move(3.0, service.node_id, "lan-b")
        applied = plan.apply(system)
        system.run(until=6.0)
        assert client.lan_name == service.lan_name == "lan-b"
        assert client.tracker.current == service.tracker.current == local_b.node_id
        assert len(local_b.store.by_service(service.node_id)) == 3
        assert applied.counts() == {"move": 2}
        assert system.network.metrics.tallies("fault")["move"] == 2

    def test_a_down_node_or_one_already_there_is_not_moved(self):
        system, _local_b, client, service = self._two_lans()
        client.crash()
        plan = FaultPlan().move(3.0, client.node_id, "lan-b") \
                          .move(3.0, service.node_id, "lan-a")
        applied = plan.apply(system)
        system.run(until=4.0)
        assert client.lan_name == service.lan_name == "lan-a"
        assert applied.counts() == {}

    def test_a_registry_or_an_unknown_lan_is_refused_at_apply(self):
        system, local_b, client, _service = self._two_lans()
        with pytest.raises(SimulationError, match="registry does not roam"):
            FaultPlan().move(3.0, local_b.node_id, "lan-a").apply(system)
        with pytest.raises(SimulationError, match="unknown LAN"):
            FaultPlan().move(3.0, client.node_id, "lan-z").apply(system)


class TestDiskFaultActions:
    def test_describe_mentions_node_and_file(self):
        plan = (FaultPlan()
                .disk_torn_write(1.0, "n1")
                .disk_corrupt(2.0, "n1", file="snap"))
        text = "\n".join(plan.describe())
        assert "disk-torn-write n1:wal" in text
        assert "disk-corruption n1:snap" in text

    def test_no_disk_attached_is_a_noop(self, net):
        _add(net, "n1", "lan-a")
        applied = (FaultPlan()
                   .disk_torn_write(1.0, "n1")
                   .disk_corrupt(1.5, "n1")
                   .apply(net))
        net.sim.run(until=2.0)
        assert applied.counts() == {}

    def test_tear_and_corrupt_hit_the_attached_disk(self, net):
        _add(net, "n1", "lan-a")
        disk = net.disk("n1")
        disk.append("wal", b"A" * 16)
        applied = (FaultPlan()
                   .disk_torn_write(1.0, "n1")
                   .disk_corrupt(2.0, "n1")
                   .apply(net))
        net.sim.run(until=3.0)
        assert applied.counts() == {"disk-torn-write": 1,
                                    "disk-corruption": 1}
        assert disk.torn_writes == 1 and disk.corruptions == 1
        assert net.metrics.tallies("fault")["disk-torn-write"] == 1
        assert net.metrics.tallies("fault")["disk-corruption"] == 1


class TestFaultComposition:
    """Overlapping and interleaved fault actions from one plan."""

    def test_overlapping_loss_burst_and_latency_spike_same_scope(self, net):
        a = _add(net, "a", "lan-a")
        a2 = _add(net, "a2", "lan-a")
        b = _add(net, "b", "lan-b")
        plan = (FaultPlan()
                .loss_burst(1.0, 2.0, 1.0, link=("lan-a", "lan-b"))
                .latency_spike(1.0, 2.0, 0.5, lan="lan-a"))
        plan.apply(net)
        arrival = {}
        a2.handle_message = lambda env: arrival.setdefault("t", net.sim.now)
        net.sim.schedule_at(1.2, lambda: a.send("b", "doomed"))
        net.sim.schedule_at(1.2, lambda: a.send("a2", "delayed"))
        net.sim.run(until=4.0)
        # Cross-link traffic died in the loss window; intra-LAN traffic
        # rode the concurrent latency spike — both faults applied.
        assert b.received == []
        assert net.metrics.tallies("drop")["fault-loss"] == 1
        assert arrival["t"] == pytest.approx(1.2 + net.lan_latency + 0.5)

    def test_crash_while_partitioned_heal_before_restart(self, net):
        a = _add(net, "a", "lan-a")
        b = _add(net, "b", "lan-b")
        plan = (FaultPlan()
                .partition(1.0, [["lan-a"], ["lan-b"]])
                .crash(2.0, "a")
                .heal(3.0)
                .restart(4.0, "a"))
        applied = plan.apply(net)
        net.sim.run(until=2.5)
        assert not a.alive and not net.reachable("a", "b")
        # Healed but still crashed: the partition is gone, the node isn't.
        net.sim.run(until=3.5)
        assert net.reachable("a", "b") and not a.alive
        b.send("a", "into-the-void")
        net.sim.run(until=3.9)
        assert net.metrics.tallies("drop")["dead-dst"] == 1
        net.sim.run(until=4.5)
        assert a.alive
        b.send("a", "welcome-back")
        net.sim.run(until=5.0)
        assert [env.msg_type for env in a.received] == ["welcome-back"]
        assert applied.counts() == {"partition": 1, "crash": 1,
                                    "heal": 1, "restart": 1}

    def test_restart_on_still_partitioned_lan(self, net):
        a = _add(net, "a", "lan-a")
        a2 = _add(net, "a2", "lan-a")
        b = _add(net, "b", "lan-b")
        plan = (FaultPlan()
                .partition(1.0, [["lan-a"], ["lan-b"]])
                .crash(2.0, "a")
                .restart(3.0, "a")
                .heal(6.0))
        plan.apply(net)
        net.sim.run(until=4.0)
        # Back up behind the partition: LAN traffic flows, WAN doesn't.
        assert a.alive and not net.reachable("a", "b")
        a.send("a2", "local")
        a.send("b", "blocked")
        net.sim.run(until=5.0)
        assert [env.msg_type for env in a2.received] == ["local"]
        assert b.received == []
        assert net.metrics.tallies("drop")["unreachable"] >= 1
        net.sim.run(until=7.0)
        a.send("b", "after-heal")
        net.sim.run(until=8.0)
        assert [env.msg_type for env in b.received] == ["after-heal"]


# -- invariant checker ----------------------------------------------------


def _quiesced_system(ontology):
    system = DiscoverySystem(seed=11, ontology=ontology)
    system.add_lan("lan-0")
    system.add_registry("lan-0")
    system.add_service("lan-0", ServiceProfile.build(
        "aid-1", "ems:AmbulanceDispatchService", outputs=["ems:UnitLocation"]))
    client = system.add_client("lan-0")
    system.run(until=3.0)
    call = system.discover(client, ServiceRequest.build(
        "ems:MedicalService", outputs=["ems:Location"]))
    system.run_for(2.0)
    return system, client, call


class TestInvariants:
    def test_clean_system_passes(self, emergency):
        system, client, call = _quiesced_system(emergency)
        assert call.completed
        assert client._by_wire_id == {}
        assert check_invariants(system) == []
        assert_invariants(system)  # does not raise

    def test_stale_wire_id_detected(self, emergency):
        system, client, call = _quiesced_system(emergency)
        client._by_wire_id["stale/1"] = call
        violations = check_invariants(system)
        assert any("stale wire-id" in v for v in violations)
        with pytest.raises(InvariantError):
            assert_invariants(system)

    def test_double_completion_detected(self, emergency):
        system, client, call = _quiesced_system(emergency)
        client._complete(call, [], via="again")
        assert any("completed 2 times" in v for v in check_invariants(system))

    def test_a_call_is_completed_only_through_complete(self, emergency):
        """``completed`` is read off the count ``_complete`` keeps, so a
        call marked completed without passing through it cannot exist."""
        _system, _client, call = _quiesced_system(emergency)
        assert call.completed and call.completions == 1
        with pytest.raises(AttributeError):
            call.completed = False
        call.completions = 0
        assert not call.completed and call.latency == 0.0

    def test_lease_leaves_with_its_advertisement(self, emergency):
        """A lease lives in its advertisement's store slot, so removing the
        ad behind the lease manager's back leaves no lease to outlive it."""
        system, _, _ = _quiesced_system(emergency)
        for service in system.services:
            service.crash()  # nobody republishes
        registry = system.registries[0]
        leases = {ad.ad_id: registry.leases.lease_for_ad(ad.ad_id)
                  for ad in registry.store.all()}
        assert leases and all(leases.values())
        for ad_id in leases:
            registry.store.discard(ad_id)
        expired = registry.leases.expired_total
        for ad_id, lease in leases.items():
            assert registry.leases.lease_for_ad(ad_id) is None
            with pytest.raises(LeaseError):
                registry.leases.renew(ad_id, lease.lease_id)
        system.run_for(2 * system.config.lease_duration)
        assert registry.leases.expired_total == expired
        assert len(registry.leases) == 0
        assert check_invariants(system) == []


# -- lossy-network discovery end to end -----------------------------------


def _fast_system(ontology, *, seed=21, loss_rate=0.0):
    config = DiscoveryConfig(
        beacon_interval=1.0,
        lease_duration=5.0,
        purge_interval=1.0,
        ping_interval=1.0,
        signalling_interval=2.0,
        query_timeout=1.0,
        aggregation_timeout=0.2,
    )
    return DiscoverySystem(seed=seed, config=config, ontology=ontology,
                           loss_rate=loss_rate)


def test_retry_exhaustion_falls_back_to_lan_multicast(emergency):
    """All registries dead: the client retries across the failover cache,
    exhausts the budget, and still finds the service via LAN multicast."""
    system = _fast_system(emergency)
    system.add_lan("lan-0")
    system.add_registry("lan-0")
    system.add_registry("lan-0")
    system.add_service("lan-0", ServiceProfile.build(
        "aid-1", "ems:AmbulanceDispatchService", outputs=["ems:UnitLocation"]))
    client = system.add_client("lan-0")
    system.run(until=5.0)
    for registry in system.registries:
        registry.crash()
    call = system.discover(client, ServiceRequest.build(
        "ems:MedicalService", outputs=["ems:Location"]), timeout=30.0)
    assert call.completed
    assert call.via == "fallback"
    assert call.service_names() == ["aid-1"]
    assert client.query_retries >= 1
    assert system.network.metrics.tallies("retry")["query"] == client.query_retries
    assert client._by_wire_id == {}
    assert_invariants(system)


def test_discovery_survives_ambient_loss_deterministically(emergency):
    """Same seed + loss rate → bit-identical runs, drained bookkeeping."""

    def one_run():
        system = _fast_system(emergency, seed=33, loss_rate=0.25)
        system.add_lan("lan-0")
        system.add_registry("lan-0")
        system.add_service("lan-0", ServiceProfile.build(
            "aid-1", "ems:AmbulanceDispatchService", outputs=["ems:UnitLocation"]))
        client = system.add_client("lan-0")
        system.run(until=5.0)
        calls = [
            system.discover(client, ServiceRequest.build(
                "ems:MedicalService", outputs=["ems:Location"]), timeout=20.0)
            for _ in range(3)
        ]
        system.run_for(10.0)
        assert client._by_wire_id == {}
        assert_invariants(system)
        return (
            system.traffic(),
            [(c.completed, c.via, tuple(c.service_names())) for c in calls],
        )

    assert one_run() == one_run()


def test_lease_expires_and_ad_purged_during_partition(emergency):
    """A WAN partition separates a service from its registry: the lease
    lapses and the advertisement is purged (soft state); after heal and
    re-attachment the service republishes under a fresh lease."""
    system = _fast_system(emergency)
    system.add_lan("lan-0")
    system.add_lan("lan-1")
    registry = system.add_registry("lan-0")
    service = system.add_service("lan-1", ServiceProfile.build(
        "aid-1", "ems:AmbulanceDispatchService", outputs=["ems:UnitLocation"]))
    system.sim.schedule(0.5, lambda: service.tracker.seed(registry.node_id))
    system.run(until=3.0)
    assert len(registry.store) == 3  # one ad per description model
    old_leases = {r.lease_id for r in service._published.values()}

    plan = (FaultPlan()
            .partition(3.0, [["lan-0"], ["lan-1"]])
            .heal(20.0))
    applied = plan.apply(system)
    system.run(until=19.0)
    # Inside the window, past the lease duration: everything purged.
    assert len(registry.store) == 0
    assert len(registry.leases) == 0
    assert registry.leases.expired_total >= 3

    system.run(until=21.0)
    system.sim.schedule(0.0, lambda: service.tracker.seed(registry.node_id))
    system.run_for(10.0)
    assert len(registry.store) == 3
    new_leases = {r.lease_id for r in service._published.values()}
    assert new_leases.isdisjoint(old_leases)
    assert applied.counts() == {"partition": 1, "heal": 1}
    assert_invariants(system)


def test_lease_republish_after_lan_blackout(emergency):
    """A total LAN loss burst outlasting the lease: the registry purges the
    ad mid-window, and the service re-probes and republishes on its own
    once the burst ends — no manual intervention."""
    system = _fast_system(emergency)
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    service = system.add_service("lan-0", ServiceProfile.build(
        "aid-1", "ems:AmbulanceDispatchService", outputs=["ems:UnitLocation"]))
    system.run(until=3.0)
    assert len(registry.store) == 3

    FaultPlan().loss_burst(3.0, 12.0, 1.0, lan="lan-0").apply(system)
    system.run(until=14.0)
    assert len(registry.store) == 0  # lease lapsed inside the blackout

    system.run(until=40.0)
    assert len(registry.store) == 3  # autonomous re-probe + republish
    assert all(r.acked for r in service._published.values())
    assert system.network.metrics.tallies("drop")["fault-loss"] > 0
    assert_invariants(system)


def test_publish_retry_recovers_from_single_lost_publish(emergency):
    """One lost PUBLISH no longer waits for the failover heuristic: the
    retransmission timer resends it within a couple of seconds, keeping
    the healthy attachment."""
    system = DiscoverySystem(seed=9, ontology=emergency)  # default timers
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    service = system.add_service("lan-0", ServiceProfile.build(
        "aid-1", "ems:AmbulanceDispatchService", outputs=["ems:UnitLocation"]))
    system.run(until=3.0)
    assert all(r.acked for r in service._published.values())
    # A short blackout swallows the republish (and nothing else).
    FaultPlan().loss_burst(3.0, 0.8, 1.0, lan="lan-0").apply(system)
    system.sim.schedule_at(3.1, lambda: service.update_profile(service.profile))
    system.run(until=10.0)
    assert service.publish_retries >= 1
    assert system.network.metrics.tallies("retry")["publish"] >= 1
    assert all(r.acked for r in service._published.values())
    assert service.tracker.failovers == 0
    assert len(registry.store) == 3


def test_renew_retry_survives_transient_loss(emergency):
    """A loss burst swallowing one renewal round no longer looks like a
    dead registry: the retransmission resolves it before the next tick's
    failover heuristic fires."""
    system = DiscoverySystem(seed=9, ontology=emergency)  # renew tick at 24 s
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    service = system.add_service("lan-0", ServiceProfile.build(
        "aid-1", "ems:AmbulanceDispatchService", outputs=["ems:UnitLocation"]))
    system.run(until=3.0)
    FaultPlan().loss_burst(23.9, 0.5, 1.0, lan="lan-0").apply(system)
    system.run(until=40.0)
    assert service.renew_retries >= 1
    assert system.network.metrics.tallies("retry")["renew"] >= 1
    assert service.tracker.failovers == 0
    assert service.tracker.current == registry.node_id
    assert all(not r.renew_outstanding for r in service._published.values())
    assert_invariants(system)


# -- canonical fault scenarios (E3 / E11) ---------------------------------


@pytest.mark.slow
def test_e3_fault_scenario_is_deterministic():
    from repro.experiments.e3_robustness import run_fault_scenario

    first = run_fault_scenario(seed=2)
    again = run_fault_scenario(seed=2)
    assert first == again
    assert first["faults"]["crash"] == 1
    assert first["faults"]["partition"] == 1
    assert first["faults"]["loss-window"] == 1
    assert first["completed"] == first["queries"]


@pytest.mark.slow
def test_e11_fault_scenario_is_deterministic():
    from repro.experiments.e11_survivability import run_fault_scenario

    first = run_fault_scenario(seed=2)
    again = run_fault_scenario(seed=2)
    assert first == again
    # The partition bites while it is open and heals afterwards.
    assert first["connected_during"] <= first["connected_before"]
    assert first["connected_after"] >= first["connected_during"]
