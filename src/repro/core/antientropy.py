"""Anti-entropy reconciliation for replicated registry stores.

The paper's registries are soft-state super-peers that "dynamically
connect and disconnect to the system" (§4.9). Under replication
cooperation that dynamism leaves replicas divergent after every partition
heal, registry restart, or standby promotion: an advertisement published
on one side of a partition reaches the other side only when its lease
happens to be renewed. This module closes that gap with classic
anti-entropy:

* each registry can render a **store digest** — ``(ad_id, version,
  epoch)`` per live advertisement plus ``(ad_id, version)`` tombstones for
  recent explicit removals — a few dozen bytes per entry;
* neighbors exchange digests on a periodic round and on every federation
  (re)join, then **delta-pull** only the missing or stale advertisements
  (and push the ones the peer lacks), so two replicas reconverge within
  one digest round-trip and a whole federation within its diameter in
  rounds;
* **tombstones** keep a removed advertisement from being resurrected by a
  stale replica: the digest carries the removal, the peer deletes its
  copy, and neither side will pull or absorb the advertisement at or
  below the tombstoned version again.

Anti-entropy is *pairwise and pull-based*: synced advertisements are not
re-flooded (unlike ``AD_FORWARD`` pushes), so a round costs O(digest)
per link plus exactly the missing deltas. The periodic round spreads
updates epidemically — K rounds cover a federation of diameter K, the
bound the convergence invariant in :mod:`repro.core.invariants` asserts.

Only meaningful under ``COOPERATION_REPLICATE_ADS``; forwarding registries
hold disjoint stores by design and never reconcile: there the registry
registers none of this — no bookkeeping, no handler, no round.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core import protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.registry_node import RegistryNode
    from repro.core.config import DiscoveryConfig
    from repro.netsim.messages import Envelope

#: Upper bound on retained tombstones. Under remove-heavy churn the map
#: would otherwise grow without limit; past the cap, tombstones older than
#: the resurrection-safe floor (see :meth:`AntiEntropy.prune_tombstones`)
#: are evicted oldest-first.
TOMBSTONE_CAP = 4096


class AntiEntropy:
    """Digest bookkeeping and reconciliation rounds for one registry."""

    def __init__(self, registry: "RegistryNode", config: "DiscoveryConfig") -> None:
        self.registry = registry
        self.config = config
        self.rounds_run = 0
        self.pulls_sent = 0
        self.ads_sent = 0
        self.ads_applied = 0
        self.removals_applied = 0
        self.resurrections_blocked = 0
        self.tombstones_pruned = 0
        self.rebuild()

    # -- lifecycle ---------------------------------------------------------

    def rebuild(self) -> None:
        """Build the reconciliation state: no epoch, no tombstone (what a
        durable registry logged comes back through WAL replay)."""
        #: Last known origin epoch per stored advertisement. Epochs come
        #: from the home registry's lease clock (see
        #: ``WriteCoordinator.lease_epoch``) so every replica converges on
        #: the same ``(version, epoch)`` coordinates per advertisement.
        self.epochs: dict[str, int] = {}
        #: Explicitly removed advertisements: ad_id -> (version, noted_at).
        #: Pruned after ``2 * lease_duration`` — by then every replica's
        #: lease has lapsed on its own.
        self.tombstones: dict[str, tuple[int, float]] = {}

    def start(self) -> None:
        """Arm the periodic digest round."""
        self.registry.every(self.config.antientropy_interval, self.run_round)

    # -- store bookkeeping: a write observer, in DurabilityManager.log_*'s shape

    def log_store(self, ad, *, origin_epoch: int, **_lease) -> None:
        """An advertisement was stored/refreshed with ``origin_epoch``."""
        self.log_renew(ad.ad_id, origin_epoch=origin_epoch)

    def log_renew(self, ad_id: str, *, origin_epoch: int, **_lease) -> None:
        """A held advertisement's lease was extended in ``origin_epoch``."""
        if origin_epoch > self.epochs.get(ad_id, -1):
            self.epochs[ad_id] = origin_epoch
        self.tombstones.pop(ad_id, None)

    def log_expire(self, ad_id: str) -> None:
        """An advertisement left the store without an explicit removal
        (lease expiry, shard hand-off): no tombstone — expiry is
        already convergent, every replica's lease lapses on its own."""
        self.epochs.pop(ad_id, None)

    def log_remove(self, ad_id: str, version: int) -> None:
        """An advertisement was explicitly removed: tombstone it so a
        stale replica cannot resurrect it through reconciliation."""
        self.epochs.pop(ad_id, None)
        self.tombstones[ad_id] = (version, self._now())

    def blocked(self, ad_id: str, version: int) -> bool:
        """Whether absorbing ``(ad_id, version)`` would resurrect a
        removed advertisement (version at or below the tombstone)."""
        tomb = self.tombstones.get(ad_id)
        return tomb is not None and version <= tomb[0]

    def _now(self) -> float:
        return self.registry.sim.now if self.registry.network is not None else 0.0

    def prune_tombstones(self) -> None:
        """Bound tombstone growth: age horizon plus a hard size cap. Runs
        before every digest and, on a flooding registry, on the purge
        sweep too.

        The age prune drops tombstones older than ``2 * lease_duration`` —
        by then every replica's lease lapsed on its own. Under
        remove-heavy churn that horizon alone still admits unbounded
        growth, so :data:`TOMBSTONE_CAP` evicts oldest-first past
        the cap — but never a tombstone younger than the
        *resurrection-safe floor* ``lease_duration + 2 * purge_interval``:
        after an explicit removal the origin service stops renewing, so
        every replica's lease lapses within one ``lease_duration``, and
        two purge sweeps clear the ad everywhere. A tombstone older than
        the floor guards nothing a lease hasn't already killed, so
        evicting it cannot resurrect the ad; the map may transiently
        exceed the cap rather than evict a still-needed tombstone.
        """
        now = self._now()
        horizon = now - 2 * self.config.lease_duration
        stale = [ad_id for ad_id, (_v, at) in self.tombstones.items() if at < horizon]
        for ad_id in stale:
            del self.tombstones[ad_id]
        self.tombstones_pruned += len(stale)
        if len(self.tombstones) <= TOMBSTONE_CAP:
            return
        floor = now - (self.config.lease_duration + 2 * self.config.purge_interval)
        evictable = sorted(
            (at, ad_id)
            for ad_id, (_v, at) in self.tombstones.items()
            if at < floor
        )
        excess = len(self.tombstones) - TOMBSTONE_CAP
        for _at, ad_id in evictable[:excess]:
            del self.tombstones[ad_id]
            self.tombstones_pruned += 1

    # -- digests -----------------------------------------------------------

    def digest(self, peer: str | None = None) -> protocol.DigestPayload:
        """This registry's current store digest.

        Under sharded federation a digest addressed to ``peer`` covers
        only the co-owned replica ranges — the per-round digest cost
        scales with the shared shards (~K·R/S ads), not the whole store.
        """
        self.prune_tombstones()

        def covered(ad_id: str) -> bool:
            return peer is None or self.registry.writes.mode.co_owned(ad_id, peer)

        entries = tuple(
            (ad.ad_id, ad.version, self.epochs.get(ad.ad_id, 0))
            for ad in self.registry.store.all()
            if covered(ad.ad_id)
        )
        tombstones = tuple(
            (ad_id, version)
            for ad_id, (version, _at) in sorted(self.tombstones.items())
            if covered(ad_id)
        )
        return protocol.DigestPayload(entries=entries, tombstones=tombstones)

    def run_round(self) -> None:
        """One periodic round: send each gossip peer the digest of what we
        share with it (under sharding: the co-owned replica ranges)."""
        neighbors = self.registry.writes.mode.gossip_peers()
        if not neighbors:
            return
        self.rounds_run += 1
        # Also the heartbeat the health layer's ``antientropy-stale`` row hears.
        self.registry.recovered("antientropy-round", attrs={"n": 1})
        for neighbor in neighbors:
            self.registry.send(neighbor, protocol.ANTIENTROPY_DIGEST,
                               self.digest(neighbor))

    def sync_with(self, peer: str) -> None:
        """Kick off a digest exchange with one peer (join, promotion)."""
        self.registry.send(peer, protocol.ANTIENTROPY_DIGEST, self.digest(peer))

    # -- message handling --------------------------------------------------

    def handle_antientropy_digest(self, envelope: "Envelope") -> None:
        """Compare a peer's digest against our store; pull and push deltas.

        One received digest drives both directions: we pull what the peer
        has and we lack (or hold stale), and push what we have and the
        peer lacks (or holds stale) — so a single digest send reconciles
        the pair without waiting for the peer's next round.
        """
        src, payload = envelope.src, envelope.payload
        placement = self.registry.writes.mode
        store = self.registry.store
        # Adopt the peer's tombstones: delete our replica of anything the
        # peer saw removed, and remember the removal ourselves.
        for ad_id, version in payload.tombstones:
            if self.blocked(ad_id, version):
                continue
            existing = store.get(ad_id) if ad_id in store else None
            if existing is None and ad_id not in self.tombstones:
                # Nothing to delete and no staler tombstone to bump:
                # adopting here would re-stamp a tombstone a peer may
                # just have pruned, and the mutual re-seeding keeps the
                # pair perpetually young — unbounded growth under churn.
                # Skipping is lease-safe: should a stale third replica
                # push the corpse later, its shipped *remaining* lease
                # (the origin stopped renewing at removal) expires it
                # within one lease_duration anyway.
                continue
            if existing is not None and existing.version <= version:
                self.registry.writes.remove_ad(ad_id, version=version)
                self.removals_applied += 1
                self.registry.recovered("antientropy-removal", attrs={"n": 1})
            else:
                self.tombstones[ad_id] = (version, self._now())

        theirs = {ad_id: (version, epoch) for ad_id, version, epoch in payload.entries}
        their_tombs = dict(payload.tombstones)

        wants = sorted(
            ad_id
            for ad_id, (version, epoch) in theirs.items()
            if not self.blocked(ad_id, version)
            and placement.holds(ad_id)
            and (
                ad_id not in store
                or (version, epoch)
                > (store.get(ad_id).version, self.epochs.get(ad_id, 0))
            )
        )
        if wants:
            self.pulls_sent += 1
            self.registry.recovered("antientropy-pull", attrs={"n": 1})
            self.registry.send(
                src, protocol.ANTIENTROPY_PULL,
                protocol.DigestPullPayload(ad_ids=tuple(wants)),
            )

        push = [
            ad for ad in store.all()
            if ad.version > their_tombs.get(ad.ad_id, -1)
            and placement.co_owned(ad.ad_id, src)
            and (
                ad.ad_id not in theirs
                or (ad.version, self.epochs.get(ad.ad_id, 0)) > theirs[ad.ad_id]
            )
        ]
        if push:
            self._send_ads(src, [ad.ad_id for ad in push])

    def handle_antientropy_pull(self, envelope: "Envelope") -> None:
        """A peer asked for advertisements our digest showed it lacks."""
        self._send_ads(envelope.src, envelope.payload.ad_ids)

    def _send_ads(self, dst: str, ad_ids) -> None:
        """Ship full advertisements with their *remaining* lease time."""
        store = self.registry.store
        leases = self.registry.leases
        now = self._now()
        entries = []
        for ad_id in sorted(set(ad_ids)):
            if ad_id not in store:
                continue
            duration = self.config.lease_duration
            if self.config.leasing_enabled:
                lease = leases.lease_for_ad(ad_id)
                if lease is None:
                    continue
                duration = lease.expires_at - now
                if duration <= 0:
                    continue
            entries.append(
                protocol.AdForwardPayload(
                    advertisement=store.get(ad_id),
                    lease_duration=duration,
                    epoch=self.epochs.get(ad_id, 0),
                )
            )
        if not entries:
            return
        self.ads_sent += len(entries)
        self.registry.recovered("antientropy-ads-sent", len(entries),
                                {"n": len(entries)})
        self.registry.send(dst, protocol.ANTIENTROPY_ADS,
                           protocol.SyncAdsPayload(ads=tuple(entries)))

    def handle_antientropy_ads(self, envelope: "Envelope") -> None:
        """Absorb pulled/pushed advertisements (no onward flooding)."""
        for entry in envelope.payload.ads:
            if self.registry.writes.absorb_replica(entry):
                self.ads_applied += 1
                self.registry.recovered("antientropy-ads-applied", attrs={"n": 1})

    # -- reporting ---------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Reconciliation counters for experiment rows."""
        return {
            "rounds_run": self.rounds_run,
            "pulls_sent": self.pulls_sent,
            "ads_sent": self.ads_sent,
            "ads_applied": self.ads_applied,
            "removals_applied": self.removals_applied,
            "resurrections_blocked": self.resurrections_blocked,
            "tombstones": len(self.tombstones),
            "tombstones_pruned": self.tombstones_pruned,
        }
