"""How long a durable registry holding many advertisements takes to come back.

    python3 tools/recover_at_scale.py [--ads 33334] [--seed 42] [--repeats 3] [--tree DIR]

One registry with durability on (``SimDisk``, the default port) is loaded
through its write path — ``WriteCoordinator.store_ad``, so every ad is in
the WAL or a snapshot — then crashed and restarted ``--repeats`` times.
Each time it prints, in host seconds, ``restart()`` (replaying the snapshot
and the WAL into the store and the leases) and the first discover after it,
which pays the concept index's rebuild, then a second discover for
comparison, and what the restart replayed: the entries of the snapshot on
disk and the records of the WAL beside it (the WAL is compacted once it
holds as many records as the snapshot holds entries, never fewer than
``MAX_WAL_RECORDS``, so the second is at most the larger of the two).
The profiles and requests come from ``OntologyGenerator(42)``, the
ontology of ``wan_100k``, whose three registries hold ~33k ads each.
``--tree`` points it at another checkout (``git archive <rev> | tar -x -C
DIR``), which is how a parent/change pair of numbers is made.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ads", type=int, default=33_334)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--tree", type=pathlib.Path, default=ROOT)
    args = parser.parse_args()
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    from repro.core.config import DiscoveryConfig
    from repro.core.durability import SNAPSHOT_FILE, WAL_FILE, DurabilityConfig, scan_records
    from repro.core.system import DiscoverySystem
    from repro.registry.advertisements import Advertisement
    from repro.semantics.generator import OntologyGenerator, ProfileGenerator

    ontology = OntologyGenerator(42).random_ontology()
    generator = ProfileGenerator(ontology, seed=args.seed)
    profiles = generator.profiles(args.ads)
    system = DiscoverySystem(seed=args.seed, ontology=ontology, config=DiscoveryConfig(
        durability=DurabilityConfig(enabled=True, snapshot_interval=None)))
    system.add_lan("lan-0")
    registry = system.add_registry("lan-0")
    client = system.add_client("lan-0")
    system.run(until=2.0)
    started = time.perf_counter()
    for i, profile in enumerate(profiles):
        registry.writes.store_ad(
            Advertisement(ad_id=f"bulk-{i:06d}", service_node=f"bulk-node-{i}",
                          service_name=profile.service_name,
                          endpoint=f"svc://{profile.service_name}",
                          model_id="semantic", description=profile),
            lease_duration=1e9, epoch=0, notify=False)
    print(f"{args.ads} ads stored through the WAL in {time.perf_counter() - started:.2f} s "
          f"({registry.durability.snapshots} snapshots)")
    requests = [generator.request_for(profiles[i * 37 % args.ads], generalize=1, max_results=5)
                for i in range(2)]
    print(f"{'restart s':>10} {'first discover s':>17} {'second discover s':>18} "
          f"{'stored':>7} {'rebuilds':>9} {'snap entries':>13} {'wal records':>12}")
    disk = system.network.disk(registry.node_id)
    for _ in range(args.repeats):
        registry.crash()
        system.run_for(1.0)
        snapshot, _corrupt, _torn = scan_records(disk.read(SNAPSHOT_FILE))
        wal, _corrupt, _torn = scan_records(disk.read(WAL_FILE))
        entries = sum(len(record[1]) for record in snapshot)
        started = time.perf_counter()
        registry.restart()
        restart_s = time.perf_counter() - started
        timings = []
        for request in requests:
            started = time.perf_counter()
            call = system.discover(client, request, timeout=3.0)
            timings.append(time.perf_counter() - started)
            assert call.hits, "a discover after the restart found nothing"
        print(f"{restart_s:>10.3f} {timings[0]:>17.3f} {timings[1]:>18.3f} "
              f"{len(registry.store):>7} {registry.store.index_for('semantic').rebuilds:>9} "
              f"{entries:>13} {len(wal):>12}")


if __name__ == "__main__":
    main()
