"""Sharded, replicated federation: consistent hashing + quorum writes.

Unsharded, a replicate-ads registry holds the full advertisement set (the
flood of :mod:`repro.core.writes`), so store size and anti-entropy
digests grow with the deployment. Sharding partitions the advertisement
space instead: a deterministic consistent-hash ring (seeded virtual
nodes, ads keyed by ``ad_id``) assigns each advertisement to
``replication_factor`` replica registries.

* **Writes are quorum writes** — :meth:`ShardManager.plan_write` names
  the replica set: the registry a service talks to holds a copy only when
  it is in that set (else it hands out a ``shard:`` proxy lease), sends
  the write to the other replicas, and the write coordinator acks the
  service once ``write_quorum`` of them confirmed.
* **Queries route to replicas, not everyone** — the entry registry picks
  the healthiest member of each replica group (passive health + circuit
  breakers mask faults) and runs a bounded scatter-gather over that
  cover set, ~S/R registries instead of all S; a silent pick is retried
  once on a sibling replica.
* **Rebalancing is bounded** — ring membership changes move only the
  ~K/S advertisements whose replica set actually changed.
* **Repair is anti-entropy** — a replica that missed writes (down, or
  partitioned away) catches up through shard-scoped digest rounds, and at
  once through the digest a registry sends each neighbor it (re)links
  with. Every replicating registry runs these rounds, so a sharded one
  always has its repair path.

Everything here is **off by default**: a registry whose configuration
does not enable sharding registers none of it — no handler, no federation
observer, no ring membership, no write or read plan.
"""

from __future__ import annotations

from _blake2 import blake2b
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core import protocol
from repro.core.forwarding import ScatterPlan
from repro.core.writes import REMOVE, RENEW, WritePlan
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.registry_node import RegistryNode
    from repro.netsim.messages import Envelope


@dataclass(frozen=True)
class ShardingConfig:
    """Knobs for the sharded federation. The default is **off** — the
    deployment keeps replicate-everywhere semantics and byte-identical
    traces; enabling sharding switches publish/remove to quorum writes
    and queries to replica-set routing.
    """

    #: Master switch (``replicate-ads`` cooperation only). Off ⇒ every
    #: field below is ignored.
    enabled: bool = False
    #: R: registries holding a copy of each advertisement.
    replication_factor: int = 3
    #: W: replica acks required before the coordinator acks the service.
    write_quorum: int = 2

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ReproError("replication_factor must be >= 1")
        if not 1 <= self.write_quorum <= self.replication_factor:
            raise ReproError(
                "write_quorum must be in 1..replication_factor, got "
                f"{self.write_quorum} (R={self.replication_factor})"
            )


def _hash64(data: str) -> int:
    """Stable 64-bit ring point (Python's ``hash`` is salted per run).

    ``_blake2.blake2b`` is the very class ``hashlib.blake2b`` names;
    importing it directly does not load ``_hashlib`` (OpenSSL's libcrypto,
    about 3 MiB of resident memory in a process that never shards)."""
    return int.from_bytes(blake2b(data.encode(), digest_size=8).digest(), "big")


class ConsistentHashRing:
    """A deterministic consistent-hash ring over registry members.

    Members are registered under a *ring identity* — normally their node
    id, but a promoted warm standby registers under the identity of the
    registry it replaced, reproducing its virtual-node positions exactly
    so promotion moves no keys.  Two members may transiently share a
    ring identity (failback overlap); position collisions keep both, in
    sorted member order, and replica walks simply skip duplicates.
    """

    def __init__(self, *, virtual_nodes: int = 64, seed: int = 0) -> None:
        self.virtual_nodes = virtual_nodes
        self.seed = seed
        self._ring_ids: dict[str, str] = {}
        #: Sorted (point, member) pairs — the walk order of the ring.
        self._points: list[tuple[int, str]] = []
        #: Bumped on every membership change; caches key off it.
        self.version = 0

    # -- membership ---------------------------------------------------------

    def add(self, member: str, ring_id: str | None = None) -> bool:
        """Register ``member``; returns True when the ring changed."""
        ring_id = ring_id or member
        if self._ring_ids.get(member) == ring_id:
            return False
        self._ring_ids[member] = ring_id
        self._rebuild()
        return True

    def remove(self, member: str) -> bool:
        if member not in self._ring_ids:
            return False
        del self._ring_ids[member]
        self._rebuild()
        return True

    def _rebuild(self) -> None:
        points: list[tuple[int, str]] = []
        for member, ring_id in self._ring_ids.items():
            for vnode in range(self.virtual_nodes):
                points.append((_hash64(f"{ring_id}#{vnode}#{self.seed}"), member))
        points.sort()
        self._points = points
        self.version += 1

    def members(self) -> tuple[str, ...]:
        return tuple(sorted(self._ring_ids))

    def ring_id_of(self, member: str) -> str | None:
        return self._ring_ids.get(member)

    def clone(self) -> "ConsistentHashRing":
        other = ConsistentHashRing(virtual_nodes=self.virtual_nodes, seed=self.seed)
        other._ring_ids = dict(self._ring_ids)
        other._points = list(self._points)
        return other

    def __len__(self) -> int:
        return len(self._ring_ids)

    def __contains__(self, member: str) -> bool:
        return member in self._ring_ids

    # -- placement ----------------------------------------------------------

    def replicas_for(self, key: str, r: int) -> tuple[str, ...]:
        """The ``r`` distinct members owning ``key``, in ring-walk order.

        Fewer than ``r`` members ⇒ every member replicates every key —
        sharding degrades gracefully to full replication on tiny rings.
        """
        if not self._points:
            return ()
        return self._walk(bisect_right(self._points, (_hash64(key), "￿")), r)

    def _walk(self, start: int, r: int) -> tuple[str, ...]:
        """The first ``r`` distinct members clockwise from point ``start``."""
        points = self._points
        n = len(points)
        replicas: list[str] = []
        for offset in range(n):
            member = points[(start + offset) % n][1]
            if member not in replicas:
                replicas.append(member)
                if len(replicas) >= r:
                    break
        return tuple(replicas)

    def owns(self, member: str, key: str, r: int) -> bool:
        return member in self.replicas_for(key, r)

    def replica_groups(self, r: int) -> tuple[tuple[str, ...], ...]:
        """Every distinct replica set across the ring's arcs, sorted.

        Any key's replica set is one of these (the set starting at the
        arc the key hashes into) — the query planner covers *groups*, so
        one healthy contact per group answers for every key in it.
        """
        return tuple(sorted({self._walk(start, r) for start in range(len(self._points))}))

    def partners(self, member: str, r: int) -> tuple[str, ...]:
        """Members sharing at least one replica group with ``member``."""
        shared: set[str] = set()
        for group in self.replica_groups(r):
            if member in group:
                shared.update(group)
        shared.discard(member)
        return tuple(sorted(shared))


class ShardManager:
    """Per-registry sharding state: ring view, write and read plans.

    Constructed by every :class:`RegistryNode` (its counters are read
    where it is off), but registered — as the write coordinator's mode,
    its ``handle_shard_*`` handlers, its federation observers and the
    query coordinator's read plan — only where ``config.sharding.enabled``.
    It never touches the store, leases or WAL itself: the replica-side
    handlers go through the write coordinator's ``store_ad`` / ``renew_ad``
    / ``remove_ad`` / ``drop_ad``.
    Ring membership follows the federation's gossip: every observed
    registry description adds a member, a graceful FEDERATION_LEAVE
    removes one.  *Crashes do not shrink the ring* — transient failures
    are masked by health-aware replica selection and repaired by
    anti-entropy, so flapping nodes cannot thrash K/S keys back and forth.
    """

    #: Per-registry event counts, each an attribute of that name
    #: (surfaced via :meth:`counters` and the experiment tables; the
    #: quorum counts are the write coordinator's).
    COUNTERS = ("read_retries", "rebalances", "ads_moved_out", "ads_moved_in")
    #: The federation events it is told of.
    FEDERATION_EVENTS = ("registry_observed", "neighbor_added", "drop_member")

    def __init__(self, registry: "RegistryNode", config) -> None:
        self.registry = registry
        self.cfg: ShardingConfig = config.sharding
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self.rebuild()

    @property
    def r(self) -> int:
        return self.cfg.replication_factor

    # -- ring membership ----------------------------------------------------

    def start(self) -> None:
        """Seed the ring with ourselves; gossip adds the rest. Our own
        claim is stamped *now* so it beats any stale gossiped snapshot of
        a previous identity holder."""
        registry = self.registry
        self.note_member(registry.node_id, registry.ring_identity,
                         at=registry.sim.now)

    def rebuild(self) -> None:
        """Build the placement state: an empty ring view, no identity
        claim — all of it dies with the incarnation."""
        #: This registry's view of the consistent-hash ring.
        self.ring = ConsistentHashRing()
        #: Ring-identity claims: ring_id → (claim time, member). The
        #: freshest claimant holds the identity's virtual-node positions;
        #: an older claimant is evicted (a promoted heir supersedes the
        #: dead original, and a failed-back original — whose beacons
        #: carry a newer ``issued_at`` — reclaims it from the heir).
        #: Stale gossip replaying a pre-crash snapshot loses the
        #: comparison, so membership cannot ping-pong.
        self._identity_claims: dict[str, tuple[float, str]] = {}
        self._rebalance_armed = False

    def note_member(self, member: str, ring_id: str | None = None,
                    at: float = 0.0) -> None:
        """A registry exists (gossip/join/beacon): place it on the ring.

        ``at`` is the announcement's freshness (the description's
        ``issued_at``); the freshest claimant of a ring identity wins
        its positions and the superseded claimant leaves the ring.
        """
        rid = ring_id or member
        holder = self._identity_claims.get(rid)
        if holder is not None and holder[1] != member and at <= holder[0]:
            return  # identity held by a fresher claimant
        if holder is not None and holder[1] == member:
            at = max(at, holder[0])  # a stale self-echo never ages a claim
        prev = self.ring.clone() if len(self.ring) else None
        changed = False
        if holder is not None and holder[1] != member \
                and self.ring.ring_id_of(holder[1]) == rid:
            changed |= self.ring.remove(holder[1])
        self._identity_claims[rid] = (at, member)
        changed |= self.ring.add(member, rid)
        if changed:
            self._schedule_rebalance(prev)

    def registry_observed(self, description, *, first_sighting: bool = False) -> None:
        """Place a registry the federation heard of on the ring.

        Key placement is only correct once every member sees the same
        ring, so a first sighting is rumored to the neighbors at once, not
        one hop per signalling round (O(diameter × interval) to converge).
        Each registry forwards a given member at most once, so the flood
        is bounded at N² messages federation-wide.
        """
        self.note_member(description.registry_id, description.ring_id,
                         at=description.issued_at)
        if first_sighting:
            rumor = protocol.RegistryListPayload(registries=(description,))
            for neighbor in sorted(self.registry.federation.neighbors):
                if neighbor != description.registry_id:
                    self.registry.send(neighbor, protocol.REGISTRY_LIST_REPLY, rumor)

    def neighbor_added(self, neighbor: str) -> None:
        """Reconcile the shards shared with the new neighbor — this is how
        a restarted replica catches up on the writes it missed, without
        waiting for a round — and hand it our membership view at once."""
        registry = self.registry
        registry.antientropy.sync_with(neighbor)
        registry.send(neighbor, protocol.REGISTRY_LIST_REPLY,
                      registry.federation.registry_list())

    def drop_member(self, member: str) -> None:
        """A registry *gracefully left*: its ranges move to successors."""
        prev = self.ring.clone() if len(self.ring) else None
        if self.ring.remove(member):
            for rid, (_, claimant) in list(self._identity_claims.items()):
                if claimant == member:
                    del self._identity_claims[rid]
            self._schedule_rebalance(prev)

    def replicas_for(self, ad_id: str) -> tuple[str, ...]:
        return self.ring.replicas_for(ad_id, self.r)

    def owns_local(self, ad_id: str) -> bool:
        return self.ring.owns(self.registry.node_id, ad_id, self.r)

    holds = owns_local

    def co_owned(self, ad_id: str, peer: str) -> bool:
        """Both this registry and ``peer`` replicate ``ad_id``."""
        replicas = self.replicas_for(ad_id)
        return self.registry.node_id in replicas and peer in replicas

    def shard_peers(self) -> tuple[str, ...]:
        """Registries sharing at least one replica range with us —
        the per-shard anti-entropy gossip set."""
        return self.ring.partners(self.registry.node_id, self.r)

    def gossip_peers(self) -> list[str]:
        """Whom a reconciliation round sends a (shard-scoped) digest to —
        after the stray sweep, so digests reflect the post-placement store."""
        self.sweep_strays()
        return sorted(self.shard_peers())

    def purge(self) -> None:
        self.registry.antientropy.prune_tombstones()

    # -- the write plan -------------------------------------------------------

    def plan_write(self, kind: str, ad_id: str, *, ad=None,
                   lease_duration: float | None = None, lease_id: str = "") -> WritePlan:
        """A quorum over ``replicas_for(ad_id)``: a publish is held here
        only by a replica (else the service gets a ``shard:`` proxy lease)
        and acked at W of R, our own copy counting; a remove is acked at
        once. A renew refreshes the other replicas fire-and-forget, or — of
        a ``shard:`` lease — is acked by the first replica still holding
        the ad. A replica that stays silent is repaired by anti-entropy."""
        registry = self.registry
        me = registry.node_id
        replicas = self.replicas_for(ad_id)
        others = tuple(r for r in replicas if r != me)
        if kind == RENEW:
            def renew(request_id: str) -> protocol.ShardRenewPayload:
                return protocol.ShardRenewPayload(
                    request_id=request_id, ad_id=ad_id,
                    epoch=registry.writes.lease_epoch(),
                    duration=registry.config.lease_duration,
                )

            if lease_id.startswith("shard:"):
                return WritePlan(holds=False, targets=others, message=protocol.SHARD_RENEW,
                                 body=renew, quorum=1, at_quorum=True)
            return WritePlan(targets=others if ad_id in registry.store else (),
                             message=protocol.SHARD_RENEW, body=renew)
        quorum = min(self.cfg.write_quorum, max(len(replicas), 1)) - (me in replicas)
        if kind == REMOVE:
            return WritePlan(
                targets=others, message=protocol.SHARD_REMOVE, quorum=quorum,
                body=lambda rid: protocol.ShardRemovePayload(request_id=rid, ad_id=ad_id),
            )
        duration = lease_duration or registry.config.lease_duration
        entry = protocol.AdForwardPayload(
            advertisement=ad, lease_duration=duration, epoch=registry.writes.lease_epoch(),
        )
        return WritePlan(
            holds=me in replicas, targets=others, message=protocol.SHARD_STORE,
            body=lambda rid: protocol.ShardStorePayload(request_id=rid, entry=entry),
            quorum=quorum, at_quorum=True,
            proxy_lease=(f"shard:{ad_id}", duration),
        )

    # -- replica-side message handlers --------------------------------------

    def _ack(self, envelope: "Envelope", msg_type: str, ad_id: str, *, found: bool = True) -> None:
        """Answer a write that asked for an ack (fire-and-forget refreshes
        carry no request id)."""
        request_id = envelope.payload.request_id
        if request_id:
            self.registry.send(envelope.src, msg_type, protocol.ShardAckPayload(
                request_id=request_id, ad_id=ad_id, found=found))

    def handle_shard_store(self, envelope: "Envelope") -> None:
        payload = envelope.payload
        absorbed = self.registry.writes.absorb_replica(payload.entry)
        ad_id = payload.entry.advertisement.ad_id
        # Holding an equal-or-newer copy satisfies the write even when
        # the incoming version was stale.
        self._ack(envelope, protocol.SHARD_STORE_ACK, ad_id,
                  found=absorbed or ad_id in self.registry.store)
        self.publish_gauges()

    def handle_shard_renew(self, envelope: "Envelope") -> None:
        payload = envelope.payload
        found = self.registry.writes.renew_ad(
            payload.ad_id, epoch=payload.epoch, duration=payload.duration,
        )
        self._ack(envelope, protocol.SHARD_RENEW_ACK, payload.ad_id, found=found)

    def handle_shard_remove(self, envelope: "Envelope") -> None:
        payload = envelope.payload
        self.registry.writes.remove_ad(payload.ad_id)
        self._ack(envelope, protocol.SHARD_REMOVE_ACK, payload.ad_id)

    def handle_shard_transfer(self, envelope: "Envelope") -> None:
        """Bulk key movement from a rebalancing peer: absorb, don't flood."""
        for entry in envelope.payload.ads:
            if self.registry.writes.absorb_replica(entry):
                self.ads_moved_in += 1
        self.publish_gauges()

    def handle_shard_store_ack(self, envelope: "Envelope") -> None:
        payload = envelope.payload
        self.registry.writes.confirm(payload.request_id, envelope.src, found=payload.found)

    handle_shard_renew_ack = handle_shard_remove_ack = handle_shard_store_ack

    # -- query planning -----------------------------------------------------

    def plan_read(self, requester: str, payload, local) -> ScatterPlan:
        """Scatter plan for a client query: a replica-group cover set.

        Advertisements are sharded by ``ad_id``, which a query does not
        know — so full coverage needs one live replica of *every* shard.
        The cover is ~S/R registries (vs all S under flooding), chosen
        health-first so fail-stopped replicas are masked; a chosen
        replica that stays silent is retried once on a sibling replica
        before the aggregation gives up on its groups.
        """
        return ScatterPlan(self.read_cover(), retarget=self._retarget)

    def _retarget(self, failed: list[str], contacted: set[str]) -> list[str]:
        """Alternate replicas for fan-out targets that stayed silent."""
        replacements: list[str] = []
        used = set(contacted)
        for target in failed:
            alternate = self.alternate_for(target, used)
            if alternate is not None:
                replacements.append(alternate)
                used.add(alternate)
                self.read_retries += 1
                self.registry.count("shard.read_retries")
        return replacements

    def read_cover(self) -> list[str]:
        """A health-aware minimal contact set covering every replica group.

        Greedy set cover: repeatedly pick the usable registry covering
        the most still-uncovered groups (deterministic tie-break by id;
        this registry's own groups are pre-covered — we answer locally).
        Members with open circuit breakers are avoided unless a group has
        no other member, masking fail-stopped replicas; the ping round
        closes a replica's breaker once it answers again.
        """
        me = self.registry.node_id
        uncovered = [
            frozenset(g) for g in self.ring.replica_groups(self.r)
            if me not in g
        ]
        registry = self.registry
        healthy = {
            m for m in self.ring.members()
            if m != me and registry.federation.breaker_allows(m)
            and not registry.router.cooling(m)
        }
        cover: list[str] = []
        while uncovered:
            counts: dict[str, int] = {}
            for group in uncovered:
                candidates = (group & healthy) or set(group)
                for member in candidates:
                    if member != me:
                        counts[member] = counts.get(member, 0) + 1
            if not counts:
                break
            pick = max(sorted(counts), key=lambda m: (counts[m], m in healthy))
            cover.append(pick)
            uncovered = [g for g in uncovered if pick not in g]
        return cover

    def alternate_for(self, target: str, contacted: set[str]) -> str | None:
        """A fresh replica able to stand in for a silent ``target``."""
        me = self.registry.node_id
        candidates: set[str] = set()
        for group in self.ring.replica_groups(self.r):
            if target in group and me not in group:
                candidates.update(group)
        candidates -= contacted
        candidates.discard(target)
        candidates.discard(me)
        federation = self.registry.federation
        ordered = self.registry.router.order(
            [m for m in sorted(candidates) if federation.breaker_allows(m)])
        return ordered[0] if ordered else None

    # -- rebalancing --------------------------------------------------------

    def _schedule_rebalance(self, prev: ConsistentHashRing | None) -> None:
        """Coalesce a burst of membership changes into one rebalance pass.

        The *first* pre-change ring of the burst is kept as the baseline
        so one pass sees the net movement, not every intermediate step.
        """
        if self._rebalance_armed or self.registry.network is None:
            return
        self._rebalance_armed = True
        baseline = prev
        self.registry.after(0.0, lambda: self._rebalance(baseline))

    def _rebalance(self, prev: ConsistentHashRing | None) -> None:
        self._rebalance_armed = False
        registry = self.registry
        if not registry.alive:
            return
        me = registry.node_id
        epoch = registry.writes.lease_epoch()
        outgoing: dict[str, list] = {}
        dropped = 0
        for ad in list(registry.store.all()):
            new_set = self.replicas_for(ad.ad_id)
            if not new_set:
                continue
            old_set = prev.replicas_for(ad.ad_id, self.r) if prev is not None else ()
            if me not in new_set:
                # No longer ours: hand the copy to the new owners, drop it.
                targets = new_set
            else:
                # Still ours: the lowest surviving co-owner seeds members
                # that just joined the set (exactly one pusher per ad).
                survivors = sorted(set(old_set) & set(new_set)) or [me]
                targets = [t for t in new_set if t not in old_set and t != me] \
                    if survivors[0] == me else ()
            entry = self._transfer_entry(ad, epoch) if targets else None
            if entry is not None:
                for target in targets:
                    outgoing.setdefault(target, []).append(entry)
            if me not in new_set:
                registry.writes.drop_ad(ad.ad_id)
                dropped += 1
        moved = 0
        for target in sorted(outgoing):
            entries = outgoing[target]
            moved += len(entries)
            registry.send(
                target, protocol.SHARD_TRANSFER,
                protocol.SyncAdsPayload(ads=tuple(entries)),
            )
        if moved or dropped:
            self.rebalances += 1
            self.ads_moved_out += moved
            registry.count("shard.rebalances")
            registry.count("shard.ads_moved", moved)
            registry.end(registry.span(
                "shard.rebalance",
                {"moved": moved, "dropped": dropped, "members": len(self.ring)},
                ctx=None))
        self.publish_gauges()

    def sweep_strays(self) -> None:
        """Hand off advertisements this registry no longer owns.

        Ring-change rebalancing runs only on nodes whose *own* ring view
        changed; a transfer or write that landed here while the sender's
        ring was still converging leaves a stray copy nobody reclaims
        (renewals never reach it, so it would linger until lease expiry).
        The periodic sweep — piggybacked on anti-entropy rounds — moves
        such ads to their current owners and drops the local copy.
        Diffing against the *current* ring makes it a pure stray sweep:
        owned ads see no gained members and are untouched.
        """
        if not self._rebalance_armed:
            self._rebalance(self.ring.clone())

    def _transfer_entry(self, ad, epoch: int):
        """``ad`` with its *remaining* lease, or ``None`` for one whose
        lease lapsed and only awaits the purge sweep: it is not moved."""
        registry = self.registry
        duration = registry.config.lease_duration
        lease = registry.leases.lease_for_ad(ad.ad_id)
        if lease is not None:
            duration = lease.expires_at - registry.sim.now
            if duration <= 0:
                return None
        return protocol.AdForwardPayload(
            advertisement=ad, lease_duration=duration, epoch=epoch,
        )

    # -- observability ------------------------------------------------------

    def publish_gauges(self) -> None:
        self.registry.gauge(f"shard.store_size.{self.registry.node_id}",
                            len(self.registry.store))
        self.registry.gauge("shard.ring_members", len(self.ring))

    def counters(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.COUNTERS}
