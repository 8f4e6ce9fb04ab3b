"""Run the same workload on all four architectures and compare.

This is the paper's argument in one table: under churn, the technologies
without aliveness information (UDDI, proxy-mode WS-Discovery) serve stale
services; ad hoc WS-Discovery stays fresh but cannot leave its LAN; the
paper's federated architecture is both fresh and WAN-wide.

Run:  python examples/baseline_comparison.py
"""

from dataclasses import replace

from repro.core.config import DiscoveryConfig
from repro.metrics.retrieval import score_queries
from repro.metrics.staleness import registry_staleness
from repro.netsim.faults import FaultPlan
from repro.workloads.queries import QueryDriver, QueryWorkload
from repro.workloads.scenarios import build_scenario, crisis_scenario

#: Short leases for the paper's architecture, so expiry shows within the run.
SHORT_LEASES = {"federated": DiscoveryConfig(lease_duration=10.0, purge_interval=2.0)}


def main() -> None:
    rows = []
    spec = crisis_scenario(agencies=2, services_per_lan=4, seed=11)
    for arch in ("federated", "uddi", "wsd-proxy", "wsd-adhoc"):
        built = build_scenario(replace(spec, architecture=arch),
                               config=SHORT_LEASES.get(arch))
        system = built.system
        system.run(until=3.0)

        FaultPlan.churn(
            [s.node_id for s in system.services], rate=0.05, window=60.0,
            seed=11, mean_downtime=None, start=system.sim.now,
        ).apply(system)
        system.run_for(80.0)

        workload = QueryWorkload.anchored(built.generator, built.profiles,
                                          8, generalize=1)
        driver = QueryDriver(system, workload, interval=0.5, seed=3)
        issued = driver.play(settle=1.0, drain=15.0)

        alive = frozenset(s.profile.service_name for s in system.services
                          if s.alive)
        dead = frozenset(p.service_name for p in built.profiles) - alive
        scores = score_queries(issued, alive_only=alive)
        stale_hits = sum(
            1 for q in issued if q.call.completed
            for name in q.call.service_names() if name in dead
        )
        rows.append({
            "arch": arch,
            "dead": len(dead),
            "recall(alive)": round(scores.recall, 3),
            "stale_hits": stale_hits,
            "registry_staleness": round(registry_staleness(system), 3),
            "bytes": system.traffic()["bytes_sent"],
        })

    columns = list(rows[0])
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    print("  ".join("-" * widths[c] for c in columns))
    for row in rows:
        print("  ".join(str(row[c]).ljust(widths[c]) for c in columns))
    print()
    print("federated: fresh AND cross-LAN; uddi/wsd-proxy: stale under churn;")
    print("wsd-adhoc: fresh but LAN-local (lower recall on remote services).")


if __name__ == "__main__":
    main()
