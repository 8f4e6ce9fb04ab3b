"""Leases: the aliveness mechanism.

"Typically, the provider of a service obtains a lease when publishing its
service description to the registry. From then on, the provider must
periodically confirm that it is alive. Should a service crash, it would
not be able to renew its lease, and the service description would be
purged from the registry." (§4.8; mechanism as in Jini and JXTA.)

The :class:`LeaseManager` is pure bookkeeping over an injected clock (the
simulator's ``now``) and the registry's
:class:`~repro.registry.store.AdvertisementStore`, so it is unit-testable
without a network. A lease lives in its advertisement's store slot: it is
found through its ad, and it leaves the store with it, so a lease without
a stored advertisement cannot be represented. The registry node wires
:meth:`expired_ads` to a periodic purge task; leases are also kept in an
expiry-ordered heap so a purge that finds nothing lapsed costs nothing,
however many leases are live. Each lease is its own heap entry, ordered
by ``(due, grant_no)``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterator, TYPE_CHECKING

from repro.errors import LeaseError
from repro.registry.advertisements import new_uuid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.registry.store import AdvertisementStore

#: Default advertisement lease duration in seconds. Configurable per
#: deployment — the paper lists "the advertisement lease period" among the
#: parameters that "could even be made configurable on an individual
#: deployment basis".
DEFAULT_LEASE_DURATION = 60.0

#: ``on_event`` kind -> its metric / trace event name (one shared string each).
LEASE_EVENTS = {k: f"lease.{k}" for k in ("grant", "renew", "expire", "cancel", "restore")}

_grant_order = attrgetter("grant_no")


@dataclass(slots=True)
class Lease:
    """One granted lease binding an advertisement to an expiry time."""

    lease_id: str
    ad_id: str
    duration: float
    expires_at: float
    #: The manager's expiry-heap key: when the purge looks at this lease
    #: next (never after ``expires_at``), and the grant count that orders
    #: leases due at the same time. Not part of the lease's value.
    due: float = field(default=0.0, init=False, repr=False, compare=False)
    grant_no: int = field(default=0, init=False, repr=False, compare=False)

    def expired(self, now: float) -> bool:
        """Whether the lease has lapsed at time ``now``."""
        return now >= self.expires_at

    def __lt__(self, other: "Lease") -> bool:
        """Heap order: ``(due, grant_no)``."""
        if self.due != other.due:
            return self.due < other.due
        return self.grant_no < other.grant_no


class LeaseManager:
    """Grants, renews, and expires advertisement leases.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time (``sim.now``).
    store:
        The advertisement store whose slots hold the leases.
    default_duration:
        Lease length granted when the publisher does not ask for one.
    on_event:
        Optional observer called with ``(kind, lease)`` on every lease
        lifecycle transition: ``"grant"``, ``"renew"``, ``"expire"``,
        ``"cancel"``, ``"restore"`` (crash recovery). The registry wires
        this to its metrics/trace hooks.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        store: "AdvertisementStore",
        *,
        default_duration: float = DEFAULT_LEASE_DURATION,
        on_event: Callable[[str, Lease], None] | None = None,
    ) -> None:
        if default_duration <= 0:
            raise LeaseError(f"lease duration must be positive, got {default_duration}")
        self.clock = clock
        self._store = store
        self.default_duration = default_duration
        self.on_event = on_event
        #: Min-heap of the leases themselves by ``(due, grant_no)``, with
        #: ``due <= expires_at``, each lease at most once, invalidated
        #: lazily: a lease its advertisement no longer holds is skipped
        #: when popped, and a live one not yet expired is pushed back due
        #: by its expiry, and never later than one duration from now.
        self._expiry_heap: list[Lease] = []
        self._grants = 0
        self.expired_total = 0

    def _notify(self, kind: str, lease: Lease) -> None:
        if self.on_event is not None:
            self.on_event(kind, lease)

    def __len__(self) -> int:
        """How many leases are live (a scan of the store)."""
        return sum(1 for _ in self._live())

    def _live(self) -> Iterator[Lease]:
        """Every live lease, in its advertisement's UUID order."""
        lease_of = self._store.lease_of
        return filter(None, (lease_of(ad.ad_id) for ad in self._store.all()))

    def grant(self, ad_id: str, duration: float | None = None) -> Lease:
        """Grant a lease for a stored advertisement.

        Republishing an advertisement that already holds a lease replaces
        the old lease (the new expiry wins); renewing the replaced lease
        id afterwards raises :class:`LeaseError` like any unknown lease.
        """
        length = self.default_duration if duration is None else duration
        self._check(ad_id, length)
        lease = Lease(
            lease_id=new_uuid("lease"),
            ad_id=ad_id,
            duration=length,
            expires_at=self.clock() + length,
        )
        self._track(lease)
        self._notify("grant", lease)
        return lease

    def renew(self, ad_id: str, lease_id: str) -> Lease:
        """Extend ``ad_id``'s lease by its original duration from *now*.

        ``lease_id`` must be the lease the advertisement holds: renewing an
        unknown (e.g. already-expired-and-purged or replaced) lease, or
        another advertisement's, raises :class:`LeaseError`; the service
        node reacts by republishing from scratch.
        """
        lease = self._store.lease_of(ad_id)
        if lease is None or lease.lease_id != lease_id:
            raise LeaseError(f"advertisement {ad_id!r} holds no lease {lease_id!r}")
        if lease.expired(self.clock()):
            # Expired but not yet purged: refuse like an unknown lease,
            # forcing a republish, so expiry semantics don't depend on purge
            # timing. The lease stays due, so the next purge still expires
            # its advertisement if the republish never comes.
            raise LeaseError(f"lease {lease_id!r} has expired")
        lease.expires_at = self.clock() + lease.duration
        self._notify("renew", lease)
        return lease

    def restore(self, ad_id: str, *, lease_id: str, duration: float,
                expires_at: float) -> Lease:
        """Reinstate a lease with its *original* id and expiry (recovery).

        Crash recovery replays persisted leases through here instead of
        :meth:`grant`: the service node holds the original ``lease_id``
        and keeps renewing it across the registry outage, so restoring
        the exact id (rather than minting a new one) is what lets those
        renewals succeed — no RENEW_NACK, no forced republish.
        """
        self._check(ad_id, duration)
        lease = Lease(lease_id=lease_id, ad_id=ad_id, duration=duration,
                      expires_at=expires_at)
        self._track(lease)
        self._notify("restore", lease)
        return lease

    def cancel_for_ad(self, ad_id: str) -> None:
        """Drop the lease backing an advertisement (explicit removal)."""
        lease = self._store.lease_of(ad_id)
        if lease is not None:
            self._store.set_lease(ad_id, None)
            self._notify("cancel", lease)

    def lease_for_ad(self, ad_id: str) -> Lease | None:
        """The live lease backing an advertisement, if any."""
        return self._store.lease_of(ad_id)

    def expired_ads(self) -> list[str]:
        """Advertisement ids whose leases have lapsed, removing the leases.

        The caller (the registry's purge task) removes the advertisements
        themselves. Costs O(lapsed · log n): only heap entries that have
        come due are looked at, so a sweep that finds nothing expired is
        O(1) regardless of how many leases are live. ``"expire"`` events
        fire in the order the leases were granted.
        """
        now = self.clock()
        heap, lease_of = self._expiry_heap, self._store.lease_of
        lapsed: list[Lease] = []
        while heap and heap[0].due <= now:
            lease = heapq.heappop(heap)
            if lease_of(lease.ad_id) is not lease:
                continue  # cancelled, replaced, purged, or its ad is gone
            if lease.expired(now):
                lapsed.append(lease)
            else:  # renewed since it was pushed, or restored long (see _track)
                lease.due = min(lease.expires_at, now + lease.duration)
                heapq.heappush(heap, lease)
        lapsed.sort(key=_grant_order)
        for lease in lapsed:
            self._store.set_lease(lease.ad_id, None)
            self._notify("expire", lease)
        self.expired_total += len(lapsed)
        return sorted(lease.ad_id for lease in lapsed)

    def audit(self) -> list[str]:
        """Bookkeeping violations, empty when sound (``core.invariants``):
        every live lease must be due in the expiry heap no later than it
        expires, or the purge sweep would find it late or never."""
        in_heap = {id(lease) for lease in self._expiry_heap}
        return [
            f"lease {lease.lease_id} is not due in the expiry heap by "
            f"{lease.expires_at:g}; the purge sweep would find it late or never"
            for lease in self._live()
            if id(lease) not in in_heap or lease.due > lease.expires_at
        ]

    def _check(self, ad_id: str, duration: float) -> None:
        if duration <= 0:
            raise LeaseError(f"lease duration must be positive, got {duration}")
        if ad_id not in self._store:
            raise LeaseError(f"advertisement {ad_id!r} is not stored; nothing to lease")

    def _track(self, lease: Lease) -> None:
        """Put a new lease in its advertisement's slot and the expiry heap."""
        self._store.set_lease(lease.ad_id, lease)
        heap = self._expiry_heap
        if len(heap) > 2 * len(self._store) + 16:
            # Mostly dead entries (publish/remove churn under leases too
            # long to ever come due): keep only those of live leases.
            lease_of = self._store.lease_of
            heap[:] = [e for e in heap if lease_of(e.ad_id) is e]
            heapq.heapify(heap)
        self._grants += 1
        # A renewal must never move the expiry before the lease's due
        # time, or the sweep would find it late. ``renew`` sets now +
        # duration, so due <= now + duration guarantees it; that only
        # binds for a restored lease whose expiry lies beyond one duration.
        lease.due = min(lease.expires_at, self.clock() + lease.duration)
        lease.grant_no = self._grants
        heapq.heappush(heap, lease)
