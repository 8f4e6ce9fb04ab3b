"""Leases: the aliveness mechanism.

"Typically, the provider of a service obtains a lease when publishing its
service description to the registry. From then on, the provider must
periodically confirm that it is alive. Should a service crash, it would
not be able to renew its lease, and the service description would be
purged from the registry." (§4.8; mechanism as in Jini and JXTA.)

The :class:`LeaseManager` is pure bookkeeping over an injected clock (the
simulator's ``now``) and the registry's
:class:`~repro.registry.store.AdvertisementStore`, so it is unit-testable
without a network. A lease lives in its advertisement's store slot, in
columns (expiry, length, grant number, id number): it is found through its
ad, and it leaves the store with it, so a lease without a stored
advertisement cannot be represented. A :class:`Lease` is a value read off
those columns on demand. The registry node wires :meth:`expired_ads` to a
periodic purge task; leases are also kept in an expiry-ordered heap so a
purge that finds nothing lapsed costs nothing, however many leases are
live. Each heap entry is one int packing ``(due, grant_no, slot)``, so the
heap compares in C.
"""

from __future__ import annotations

import heapq
import struct
from typing import Callable, Iterator, NamedTuple, TYPE_CHECKING

from repro.errors import LeaseError
from repro.registry.advertisements import new_serial

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.registry.store import AdvertisementStore

#: Default advertisement lease duration in seconds. Configurable per
#: deployment — the paper lists "the advertisement lease period" among the
#: parameters that "could even be made configurable on an individual
#: deployment basis".
DEFAULT_LEASE_DURATION = 60.0

#: ``on_event`` kind -> its metric / trace event name (one shared string each).
LEASE_EVENTS = {k: f"lease.{k}" for k in ("grant", "renew", "expire", "cancel", "restore")}

#: An expiry-heap key is ``due << _DUE_SHIFT | grant_no << _SLOT_BITS |
#: slot``, ``due`` as :func:`_ordered` bits: int order is ``(due,
#: grant_no)`` order, and a key's slot and grant number read back exactly.
_SLOT_BITS = 32
_GRANT_BITS = 48
_DUE_SHIFT = _SLOT_BITS + _GRANT_BITS
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_LOW_MASK = (1 << _DUE_SHIFT) - 1
_GRANT_MASK = (1 << _GRANT_BITS) - 1
_SIGN = 1 << 63
_ALL = (1 << 64) - 1
_pack_double = struct.Struct("<d").pack
_from_bytes = int.from_bytes


def _ordered(x: float) -> int:
    """``x``'s IEEE-754 bits mapped so that int order is float order
    (non-negative doubles gain the sign bit; negative ones are inverted)."""
    bits = _from_bytes(_pack_double(x), "little")
    return bits ^ _ALL if bits & _SIGN else bits | _SIGN


def _number_of(lease_id: str) -> int:
    """``n`` for an id :func:`~repro.registry.advertisements.new_uuid`
    renders as ``lease-{n:06d}``; :class:`LeaseError` for any other id."""
    digits = lease_id[6:]
    if lease_id.startswith("lease-") and digits.isdecimal() and len(digits) < 19:
        number = int(digits)
        if f"lease-{number:06d}" == lease_id:
            return number
    raise LeaseError(f"{lease_id!r} is not a lease id this registry minted")


class Lease(NamedTuple):
    """One granted lease binding an advertisement to an expiry time: a
    value read off its slot's columns, not updated by later renewals."""

    lease_id: str
    ad_id: str
    duration: float
    expires_at: float

    def expired(self, now: float) -> bool:
        """Whether the lease had lapsed at time ``now``."""
        return now >= self.expires_at


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
        #: Min-heap of packed ``(due, grant_no, slot)`` keys, with ``due <=
        #: expires_at``, each lease at most once, invalidated lazily: a key
        #: whose grant number its slot no longer holds is skipped when
        #: popped, and a live lease not yet expired is pushed back due by
        #: its expiry, and never later than one duration from now.
        self._expiry_heap: list[int] = []
        self._grants = 0
        self.expired_total = 0

    def _notify(self, kind: str, lease: Lease) -> None:
        if self.on_event is not None:
            self.on_event(kind, lease)

    def __len__(self) -> int:
        """How many leases are live."""
        grants = self._store._lease_grants
        return len(grants) - grants.count(0)

    def _live(self) -> Iterator[Lease]:
        """Every live lease, in its advertisement's UUID order."""
        store = self._store
        slot_of, grants = store._slot_of, store._lease_grants
        for ad in store.all():
            slot = slot_of[ad.ad_id]
            if grants[slot]:
                yield self._lease_at(slot, ad.ad_id)

    def _id_at(self, slot: int) -> str:
        """The id of the lease ``slot`` holds."""
        return f"lease-{self._store._lease_numbers[slot]:06d}"

    def _lease_at(self, slot: int, ad_id: str) -> Lease:
        """The lease ``slot`` holds, as a value."""
        store = self._store
        return Lease(self._id_at(slot), ad_id, store._lease_durations[slot],
                     store._lease_expiries[slot])

    def _held(self, ad_id: str) -> int | None:
        """The slot of ``ad_id`` when it holds a lease."""
        store = self._store
        slot = store._slot_of.get(ad_id)
        return slot if slot is not None and store._lease_grants[slot] else None

    def _current(self, key: int) -> bool:
        """Whether heap ``key`` is that of the lease its slot holds now."""
        grants, slot = self._store._lease_grants, key & _SLOT_MASK
        return slot < len(grants) and grants[slot] == key >> _SLOT_BITS & _GRANT_MASK

    def _drop(self, slot: int) -> None:
        """Empty ``slot``'s lease; its heap key goes stale."""
        self._store._lease_grants[slot] = 0

    def grant(self, ad_id: str, duration: float | None = None) -> Lease:
        """Grant a lease for a stored advertisement.

        Republishing an advertisement that already holds a lease replaces
        the old lease (the new expiry wins); renewing the replaced lease
        id afterwards raises :class:`LeaseError` like any unknown lease.
        """
        length = self.default_duration if duration is None else duration
        slot = self._check(ad_id, length)
        number, now = new_serial(), self.clock()
        lease = Lease(f"lease-{number:06d}", ad_id, length, now + length)
        self._track(slot, number, lease, now)
        self._notify("grant", lease)
        return lease

    def renew(self, ad_id: str, lease_id: str) -> Lease:
        """Extend ``ad_id``'s lease by its original duration from *now*.

        ``lease_id`` must be the lease the advertisement holds: renewing an
        unknown (e.g. already-expired-and-purged or replaced) lease, or
        another advertisement's, raises :class:`LeaseError`; the service
        node reacts by republishing from scratch.
        """
        slot = self._held(ad_id)
        if slot is None or self._id_at(slot) != lease_id:
            raise LeaseError(f"advertisement {ad_id!r} holds no lease {lease_id!r}")
        now, store = self.clock(), self._store
        if now >= store._lease_expiries[slot]:
            # Expired but not yet purged: refuse like an unknown lease,
            # forcing a republish, so expiry semantics don't depend on purge
            # timing. The lease stays due, so the next purge still expires
            # its advertisement if the republish never comes.
            raise LeaseError(f"lease {lease_id!r} has expired")
        duration = store._lease_durations[slot]
        store._lease_expiries[slot] = expires_at = now + duration
        lease = Lease(lease_id, ad_id, duration, expires_at)
        self._notify("renew", lease)
        return lease

    def restore(self, ad_id: str, *, lease_id: str, duration: float,
                expires_at: float) -> Lease:
        """Reinstate a lease with its *original* id and expiry (recovery).

        Crash recovery replays persisted leases through here instead of
        :meth:`grant`: the service node holds the original ``lease_id``
        and keeps renewing it across the registry outage, so restoring
        the exact id (rather than minting a new one) is what lets those
        renewals succeed — no RENEW_NACK, no forced republish. The id must
        be one a registry mints, ``lease-000123``, held as its number;
        any other raises :class:`LeaseError`.
        """
        number = _number_of(lease_id)
        slot = self._check(ad_id, duration)
        lease = Lease(lease_id, ad_id, duration, expires_at)
        self._track(slot, number, lease, self.clock())
        self._notify("restore", lease)
        return lease

    def cancel_for_ad(self, ad_id: str) -> None:
        """Drop the lease backing an advertisement (explicit removal)."""
        slot = self._held(ad_id)
        if slot is not None:
            lease = self._lease_at(slot, ad_id)
            self._drop(slot)
            self._notify("cancel", lease)

    def lease_for_ad(self, ad_id: str) -> Lease | None:
        """The live lease backing an advertisement, if any."""
        slot = self._held(ad_id)
        return None if slot is None else self._lease_at(slot, ad_id)

    def expired_ads(self) -> list[str]:
        """Advertisement ids whose leases have lapsed, removing the leases.

        The caller (the registry's purge task) removes the advertisements
        themselves. Costs O(lapsed · log n): only heap entries that have
        come due are looked at, so a sweep that finds nothing expired is
        O(1) regardless of how many leases are live. ``"expire"`` events
        fire in the order the leases were granted.
        """
        now = self.clock()
        heap, store = self._expiry_heap, self._store
        expiries = store._lease_expiries
        limit = (_ordered(now) + 1) << _DUE_SHIFT
        lapsed: list[int] = []
        while heap and heap[0] < limit:
            key = heapq.heappop(heap)
            if not self._current(key):
                continue  # cancelled, replaced, purged, or its ad is gone
            slot = key & _SLOT_MASK
            expires_at = expiries[slot]
            if now >= expires_at:
                lapsed.append(key & _LOW_MASK)
            else:  # renewed since it was pushed, or restored long (see _track)
                due = min(expires_at, now + store._lease_durations[slot])
                heapq.heappush(heap, _ordered(due) << _DUE_SHIFT | key & _LOW_MASK)
        lapsed.sort()  # grant order
        ads, ad_ids = store._ads, []
        for key in lapsed:
            slot = key & _SLOT_MASK
            lease = self._lease_at(slot, ads[slot].ad_id)
            self._drop(slot)
            self._notify("expire", lease)
            ad_ids.append(lease.ad_id)
        self.expired_total += len(lapsed)
        return sorted(ad_ids)

    def audit(self) -> list[str]:
        """Bookkeeping violations, empty when sound (``core.invariants``):
        every live lease must be due in the expiry heap no later than it
        expires, or the purge sweep would find it late or never."""
        due_of = {key & _SLOT_MASK: key >> _DUE_SHIFT
                  for key in self._expiry_heap if self._current(key)}
        slot_of = self._store._slot_of
        return [
            f"lease {lease.lease_id} is not due in the expiry heap by "
            f"{lease.expires_at:g}; the purge sweep would find it late or never"
            for lease in self._live()
            if due_of.get(slot_of[lease.ad_id], _ALL + 1) > _ordered(lease.expires_at)
        ]

    def _check(self, ad_id: str, duration: float) -> int:
        """``ad_id``'s slot, once the lease asked for is valid."""
        if duration <= 0:
            raise LeaseError(f"lease duration must be positive, got {duration}")
        slot = self._store._slot_of.get(ad_id)
        if slot is None:
            raise LeaseError(f"advertisement {ad_id!r} is not stored; nothing to lease")
        return slot

    def _track(self, slot: int, number: int, lease: Lease, now: float) -> None:
        """Put a new lease in ``slot``'s columns and the expiry heap (the
        new grant number leaves a replaced lease's heap key stale)."""
        store, heap = self._store, self._expiry_heap
        self._grants = grant_no = self._grants + 1
        store._lease_grants[slot] = grant_no
        store._lease_numbers[slot] = number
        store._lease_durations[slot] = duration = lease.duration
        store._lease_expiries[slot] = expires_at = lease.expires_at
        if len(heap) > 2 * len(store._slot_of) + 16:
            # Mostly dead entries (publish/remove churn under leases too
            # long to ever come due): keep only those of live leases.
            heap[:] = [key for key in heap if self._current(key)]
            heapq.heapify(heap)
        # A renewal must never move the expiry before the lease's due
        # time, or the sweep would find it late. ``renew`` sets now +
        # duration, so due <= now + duration guarantees it; that only
        # binds for a restored lease whose expiry lies beyond one duration.
        due = min(expires_at, now + duration)
        heapq.heappush(heap, _ordered(due) << _DUE_SHIFT | grant_no << _SLOT_BITS | slot)
