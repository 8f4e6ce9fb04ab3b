"""Durable crash recovery: WAL + snapshot persistence with epoch fencing.

The paper treats registry content as soft state — "should a service
crash … the service description would be purged" — but the *registry's
own* crash is a different failure mode: a correlated outage (whole-LAN
blackout, rolling restart of every replica) loses every advertisement
and lease until each service's next renew cycle notices and republishes.
Directory-based discovery must keep registry state available across
registry failure, not only across network faults. This module gives a
registry exactly that, without giving up determinism:

* every store mutation (publish/absorb, renew, explicit remove, lease
  expiry) appends a **checksummed record** to an append-only WAL;
* a **compacting snapshot** rewrites the full state and truncates the
  WAL, periodically and whenever the WAL holds as many records as the
  last snapshot holds entries (never fewer than
  :data:`MAX_WAL_RECORDS`): replay reads at most the snapshot and as
  many WAL records again, and each snapshot is paid for by as many
  appends as it writes, so a bulk load costs linear snapshot work;
* both are written to the :class:`~repro.netsim.disk.SimDisk` the
  network keeps per node id (zero simulated time, survives
  crash/restart, reachable by fault injection);
* on restart the registry **replays** snapshot+WAL, drops leases that
  expired while it was down, bumps a persisted **incarnation epoch** so
  peers fence its stale pre-crash messages, and lets the ordinary
  join-time anti-entropy digest run as a *delta* repair round instead
  of a cold bootstrap.

Torn tail writes stop replay at the damaged frame; records whose CRC
fails are skipped and counted (``durability.corrupt_skipped``) — the
next anti-entropy round repairs whatever a skipped record lost.

With the all-off default (``DurabilityConfig()``) the registry registers
none of this — no write is observed, no snapshot armed — so no disk is
ever attached, no header is added to any message, and event timing is
bit-identical to a build without this module.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core import protocol
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.registry_node import RegistryNode

#: Envelope header carrying the sender's persisted incarnation epoch.
#: Only present when the sender has durability enabled; receivers track
#: the highest epoch seen per peer and drop lower-stamped replication
#: traffic ("a message from a previous life of this registry").
INCARNATION_HEADER = "x-incarnation"

#: Message types stamped with (and fenced by) the incarnation header:
#: replication and reconciliation traffic, where a stale pre-crash write
#: could undo post-recovery state, plus the federation handshake so
#: peers learn a restarted registry's new epoch immediately on rejoin.
FENCED_MSG_TYPES = frozenset({
    protocol.AD_FORWARD,
    protocol.ANTIENTROPY_DIGEST,
    protocol.ANTIENTROPY_PULL,
    protocol.ANTIENTROPY_ADS,
    protocol.FEDERATION_JOIN,
    protocol.FEDERATION_JOIN_ACK,
    # Sharded-federation quorum traffic: a pre-crash write or ack from a
    # replica's previous incarnation must not land after recovery.
    protocol.SHARD_STORE,
    protocol.SHARD_STORE_ACK,
    protocol.SHARD_RENEW,
    protocol.SHARD_RENEW_ACK,
    protocol.SHARD_REMOVE,
    protocol.SHARD_REMOVE_ACK,
    protocol.SHARD_TRANSFER,
})

#: WAL/snapshot file names on the per-node disk.
WAL_FILE = "wal"
SNAPSHOT_FILE = "snap"
META_FILE = "meta"

#: Compact as soon as this many WAL records accumulated since the last
#: snapshot, or as many as that snapshot holds entries if it holds more,
#: whatever the periodic task is doing.
MAX_WAL_RECORDS = 512

#: Sanity bound on a single framed record; a length prefix beyond this
#: means the framing itself was destroyed and the rest of the log is
#: unparseable (dropped as a corrupt tail).
_MAX_RECORD = 1 << 24


@dataclass(frozen=True)
class DurabilityConfig:
    """Per-deployment durability tunables.

    The default (``enabled=False``) is fully inert — behavior- and
    byte-identical to a deployment without durability, like the inert
    defaults of :class:`~repro.core.admission.AdmissionPolicy` and
    :class:`~repro.core.routing.RoutingConfig`.
    """

    #: Master switch. Off: no disk attached, no WAL, no headers.
    enabled: bool = False
    #: Seconds between periodic compacting snapshots; ``None`` disables
    #: the periodic task (snapshots still happen when the WAL outgrows
    #: the last snapshot, see :data:`MAX_WAL_RECORDS`, and at recovery).
    snapshot_interval: float | None = 30.0

    def __post_init__(self) -> None:
        if self.snapshot_interval is not None and self.snapshot_interval <= 0:
            raise ReproError(
                f"snapshot_interval must be positive or None, "
                f"got {self.snapshot_interval}"
            )


# -- record framing -----------------------------------------------------------

def frame_record(payload_obj: Any) -> bytes:
    """Serialize one record as ``[length:4][crc32:4][pickle payload]``."""
    payload = pickle.dumps(payload_obj)
    return struct.pack("<II", len(payload), zlib.crc32(payload) & 0xFFFFFFFF) \
        + payload


def scan_records(data: bytes | None) -> tuple[list[Any], int, bool]:
    """Parse framed records; never raises.

    Returns ``(records, corrupt_skipped, torn)``:

    * a frame whose payload fails its CRC (or does not unpickle) is
      *skipped and counted* — the scan resumes at the next frame;
    * an incomplete final frame (torn tail write) or a destroyed length
      prefix stops the scan (``torn=True``) — everything before it is
      kept, everything after is unparseable.
    """
    records: list[Any] = []
    corrupt = 0
    torn = False
    if not data:
        return records, corrupt, torn
    offset, total = 0, len(data)
    while offset < total:
        if total - offset < 8:
            torn = True
            break
        length, crc = struct.unpack_from("<II", data, offset)
        if length > _MAX_RECORD:
            corrupt += 1
            torn = True
            break
        if offset + 8 + length > total:
            torn = True
            break
        payload = data[offset + 8: offset + 8 + length]
        offset += 8 + length
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            corrupt += 1
            continue
        try:
            records.append(pickle.loads(payload))
        except Exception:
            corrupt += 1
    return records, corrupt, torn


# -- the manager --------------------------------------------------------------

class DurabilityManager:
    """WAL + snapshot persistence and recovery for one registry.

    Record shapes (pickled tuples, tagged by their first element):

    * ``("store", ad, lease_id, duration, expires_at, origin_epoch)`` —
      an advertisement entered or refreshed the store (publish, replica
      absorb); carries the lease coordinates so recovery can restore the
      *original* lease id and expiry (services keep renewing the same
      lease across the outage — zero re-publish traffic).
    * ``("renew", ad_id, expires_at, origin_epoch)`` — a lease renewal
      (much smaller than re-logging the advertisement).
    * ``("remove", ad_id, version, noted_at)`` — an explicit removal;
      replayed as a tombstone so recovery cannot resurrect it.
    * ``("expire", ad_id)`` — the purge task dropped a lapsed lease.

    The snapshot file holds one framed ``("snapshot", entries,
    tombstones, taken_at)`` record; the meta file one framed
    ``("meta", incarnation)`` record.
    """

    def __init__(self, registry: "RegistryNode", config: DurabilityConfig) -> None:
        self.registry = registry
        self.config = config
        #: Persisted restart counter ("which life of this registry"),
        #: bumped on every recovery and carried on replication traffic
        #: so peers can fence stale pre-crash writes.
        self.incarnation = 0
        self.wal_appends = 0
        self.replayed = 0
        self.corrupt_skipped = 0
        self.recoveries = 0
        self.snapshots = 0
        self.fenced = 0
        self._records_since_snapshot = 0
        #: Entries in the snapshot on disk: the WAL may grow as long.
        self._snapshot_entries = 0
        self._port: Any = None
        self._meta_loaded = False

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def port(self) -> Any:
        """This node's disk (resolved lazily)."""
        if self._port is None:
            self._port = self.registry.network.disk(self.registry.node_id)
        return self._port

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Load persisted meta and arm the periodic snapshot."""
        if not self._meta_loaded:
            self._meta_loaded = True
            records, _corrupt, _torn = scan_records(self.port().read(META_FILE))
            for record in records:
                if record and record[0] == "meta":
                    self.incarnation = max(self.incarnation, int(record[1]))
        if self.config.snapshot_interval is not None:
            self.registry.every(self.config.snapshot_interval, self.snapshot)

    def discard(self) -> None:
        """Drop persisted store state (a standby giving up the role).

        The incarnation meta survives: the *next* promotion of this node
        must still fence any stragglers from its previous active life.
        """
        if not self.enabled:
            return
        port = self.port()
        port.write(WAL_FILE, b"")
        port.write(SNAPSHOT_FILE, b"")
        self._records_since_snapshot = self._snapshot_entries = 0

    def rebuild(self) -> None:
        """A crash loses nothing here: what was logged is on the disk."""

    # -- logging: a write observer of the registry's write path ------------

    def _append(self, record: tuple) -> None:
        self.port().append(WAL_FILE, frame_record(record))
        self.wal_appends += 1
        self._records_since_snapshot += 1
        self.registry.count("durability.wal_appends")
        if self._records_since_snapshot >= max(MAX_WAL_RECORDS, self._snapshot_entries):
            self.snapshot()

    def log_store(
        self,
        ad: Any,
        *,
        lease_id: str,
        duration: float,
        expires_at: float,
        origin_epoch: int,
    ) -> None:
        """An advertisement was stored or refreshed (publish/absorb)."""
        self._append(("store", ad, lease_id, duration, expires_at, origin_epoch))

    def log_renew(self, ad_id: str, *, expires_at: float, origin_epoch: int) -> None:
        """A lease renewal extended an advertisement's expiry."""
        self._append(("renew", ad_id, expires_at, origin_epoch))

    def log_remove(self, ad_id: str, version: int) -> None:
        """An advertisement was explicitly removed (tombstoned)."""
        self._append(("remove", ad_id, version, self.registry.sim.now))

    def log_expire(self, ad_id: str) -> None:
        """The purge task dropped an advertisement whose lease lapsed."""
        self._append(("expire", ad_id))

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> None:
        """Write a full-state snapshot and truncate the WAL (compaction)."""
        registry = self.registry
        entries = []
        for ad in sorted(registry.store.all(), key=lambda a: a.ad_id):
            lease_id = ""
            duration = self.registry.config.lease_duration
            expires_at = float("inf")
            if registry.config.leasing_enabled:
                lease = registry.leases.lease_for_ad(ad.ad_id)
                if lease is None:
                    # An ad without a lease (``check_invariants`` flags
                    # one): the snapshot must not immortalize it. A lapsed
                    # lease the purge has not reached yet is kept, and
                    # replay drops the ad by its expiry.
                    continue
                lease_id = lease.lease_id
                duration = lease.duration
                expires_at = lease.expires_at
            entries.append(
                (ad, lease_id, duration, expires_at,
                 registry.antientropy.epochs.get(ad.ad_id, 0))
            )
        record = (
            "snapshot",
            tuple(entries),
            dict(registry.antientropy.tombstones),
            registry.sim.now,
        )
        port = self.port()
        # Snapshot first, then truncate: a crash between the two leaves
        # the old WAL alongside the new snapshot, and replaying those
        # records over the snapshotted state is idempotent.
        port.write(SNAPSHOT_FILE, frame_record(record))
        port.write(WAL_FILE, b"")
        self._records_since_snapshot = 0
        self._snapshot_entries = len(entries)
        self.snapshots += 1
        registry.count("durability.snapshots")

    # -- recovery ----------------------------------------------------------

    def _load_state(self) -> tuple[dict, dict, int]:
        """Replay snapshot+WAL into ``(ads, tombstones, corrupt)``.

        ``ads`` maps ad_id to ``[ad, lease_id, duration, expires_at,
        origin_epoch]``; ``tombstones`` maps ad_id to ``(version,
        noted_at)``.
        """
        port = self.port()
        ads: dict[str, list] = {}
        tombstones: dict[str, tuple[int, float]] = {}
        corrupt = 0

        snap_records, snap_corrupt, _torn = scan_records(port.read(SNAPSHOT_FILE))
        corrupt += snap_corrupt
        for record in snap_records:
            if not record or record[0] != "snapshot":
                corrupt += 1
                continue
            _tag, entries, snap_tombs, _taken_at = record
            for ad, lease_id, duration, expires_at, origin_epoch in entries:
                ads[ad.ad_id] = [ad, lease_id, duration, expires_at, origin_epoch]
            tombstones.update(snap_tombs)

        wal_records, wal_corrupt, _torn = scan_records(port.read(WAL_FILE))
        corrupt += wal_corrupt
        for record in wal_records:
            tag = record[0] if record else None
            if tag == "store":
                _tag, ad, lease_id, duration, expires_at, origin_epoch = record
                ads[ad.ad_id] = [ad, lease_id, duration, expires_at, origin_epoch]
                tombstones.pop(ad.ad_id, None)
            elif tag == "renew":
                _tag, ad_id, expires_at, origin_epoch = record
                entry = ads.get(ad_id)
                if entry is not None:
                    entry[3] = expires_at
                    entry[4] = max(entry[4], origin_epoch)
            elif tag == "remove":
                _tag, ad_id, version, noted_at = record
                ads.pop(ad_id, None)
                tombstones[ad_id] = (version, noted_at)
            elif tag == "expire":
                ads.pop(record[1], None)
            else:
                corrupt += 1
        return ads, tombstones, corrupt

    def recover(self) -> dict[str, int] | None:
        """Replay persisted state into the (freshly started) registry.

        Must run *after* the restart rebuilt the store and lease manager
        and :meth:`RegistryNode.start` scheduled the seed joins: the
        joins' acks arrive as later events, so by the time the join-time
        anti-entropy digest fires, the store is already warm and the digest exchange is a
        pure delta repair round. Leases that expired in simulated time
        while the registry was down are dropped (with their ads) rather
        than resurrected. Bumps and persists the incarnation epoch so
        peers fence this registry's stale pre-crash messages.
        """
        if not self.enabled:
            return None
        registry = self.registry
        span = registry.span("registry.recover",
                             {"incarnation": self.incarnation + 1}, ctx=None)
        ads, tombstones, corrupt = self._load_state()
        now = registry.sim.now
        replayed = 0
        dropped_expired = 0
        for ad_id in sorted(ads):
            ad, lease_id, duration, expires_at, origin_epoch = ads[ad_id]
            if registry.config.leasing_enabled and expires_at <= now:
                dropped_expired += 1
                continue
            registry.writes.store_ad(
                ad, lease_duration=duration, epoch=origin_epoch,
                restore=(lease_id, expires_at),
            )
            replayed += 1
        # Only where they are read: a registry that replicates nothing
        # keeps no replica bookkeeping.
        if registry.antientropy in registry.writes.observers:
            for ad_id in sorted(tombstones):
                registry.antientropy.tombstones[ad_id] = tombstones[ad_id]
            # A WAL older than a prune brings back tombstones the registry
            # had aged out: age them out again, so what recovers does not
            # depend on when the WAL was last compacted.
            registry.antientropy.prune_tombstones()

        self.incarnation += 1
        self.recoveries += 1
        self.replayed += replayed
        self.corrupt_skipped += corrupt
        self.port().write(META_FILE, frame_record(("meta", self.incarnation)))
        # Compact immediately: recovery itself is the best snapshot point.
        self.snapshot()

        counts = {
            "replayed": replayed,
            "dropped_expired": dropped_expired,
            "corrupt_skipped": corrupt,
            "tombstones": len(tombstones),
            "incarnation": self.incarnation,
        }
        registry.count("durability.replayed", replayed)
        if corrupt:
            registry.count("durability.corrupt_skipped", corrupt)
        registry.recovered("durability-recover", traced=False)
        registry.end(span, attrs=counts)
        return counts

    # -- fencing -----------------------------------------------------------

    def stamp(self, headers: dict[str, Any] | None) -> dict[str, Any]:
        """Add the incarnation header to an outgoing fenced message."""
        out = dict(headers or {})
        out.setdefault(INCARNATION_HEADER, self.incarnation)
        return out

    # -- reporting ---------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Durability counters for experiment rows."""
        return {
            "wal_appends": self.wal_appends,
            "replayed": self.replayed,
            "corrupt_skipped": self.corrupt_skipped,
            "recoveries": self.recoveries,
            "snapshots": self.snapshots,
            "fenced": self.fenced,
            "incarnation": self.incarnation,
        }
