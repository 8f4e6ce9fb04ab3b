"""Unit tests for churn and attack plans."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.netsim.failures import AttackSchedule, ChurnProcess
from repro.netsim.network import Network
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator


@pytest.fixture
def net():
    network = Network(Simulator(seed=5))
    network.add_lan("lan")
    for i in range(6):
        network.add_node(Node(f"n{i}"), "lan")
    return network


def test_churn_crashes_pool_members(net):
    churn = ChurnProcess(net.sim, net, [f"n{i}" for i in range(6)],
                         rate=1.0, mean_downtime=100.0).start()
    net.sim.run(until=10.0)
    assert churn.crashes() > 0
    assert any(not net.node(f"n{i}").alive for i in range(6))


def test_churn_restarts_after_downtime(net):
    churn = ChurnProcess(net.sim, net, ["n0"], rate=5.0, mean_downtime=0.5).start()
    net.sim.run(until=30.0)
    restarts = sum(1 for e in churn.history if e.kind == "restart")
    assert restarts > 0


def test_permanent_churn_never_restarts(net):
    churn = ChurnProcess(net.sim, net, [f"n{i}" for i in range(6)],
                         rate=2.0, permanent=True).start()
    net.sim.run(until=30.0)
    assert all(e.kind == "crash" for e in churn.history)
    assert churn.crashes() == 6  # pool exhausted, no one comes back


def test_churn_stop(net):
    churn = ChurnProcess(net.sim, net, ["n0", "n1"], rate=10.0,
                         permanent=True).start()
    net.sim.run(until=0.01)
    churn.stop()
    before = churn.crashes()
    net.sim.run(until=20.0)
    assert churn.crashes() == before


def test_churn_rejects_bad_rate(net):
    with pytest.raises(SimulationError):
        ChurnProcess(net.sim, net, ["n0"], rate=0.0)


def test_churn_determinism():
    def run(seed):
        network = Network(Simulator(seed=seed))
        network.add_lan("lan")
        for i in range(6):
            network.add_node(Node(f"n{i}"), "lan")
        churn = ChurnProcess(network.sim, network,
                             [f"n{i}" for i in range(6)], rate=1.0).start()
        network.sim.run(until=20.0)
        return [(e.time, e.kind, e.node_id) for e in churn.history]

    assert run(9) == run(9)
    assert run(9) != run(10)


def test_attack_random_plan_is_permutation(net):
    attack = AttackSchedule(sim=net.sim, network=net,
                            targets=[f"n{i}" for i in range(6)],
                            strategy="random")
    plan = attack.plan()
    assert sorted(plan) == [f"n{i}" for i in range(6)]


def test_attack_targeted_orders_by_value(net):
    value = {"n0": 1.0, "n1": 5.0, "n2": 3.0}
    attack = AttackSchedule(sim=net.sim, network=net,
                            targets=["n0", "n1", "n2"],
                            strategy="targeted",
                            value=lambda nid: value[nid])
    assert attack.plan() == ["n1", "n2", "n0"]


def test_attack_targeted_ties_break_by_id(net):
    attack = AttackSchedule(sim=net.sim, network=net,
                            targets=["n2", "n0", "n1"], strategy="targeted")
    assert attack.plan() == ["n0", "n1", "n2"]


def test_attack_launch_crashes_in_order(net):
    attack = AttackSchedule(sim=net.sim, network=net,
                            targets=["n0", "n1"], strategy="targeted",
                            interval=1.0, start_time=1.0)
    order = attack.launch()
    net.sim.run(until=1.5)
    assert not net.node(order[0]).alive
    assert net.node(order[1]).alive
    net.sim.run(until=3.0)
    assert not net.node(order[1]).alive


def test_attack_unknown_strategy(net):
    attack = AttackSchedule(sim=net.sim, network=net,
                            targets=["n0"], strategy="nuke")
    with pytest.raises(SimulationError):
        attack.plan()
