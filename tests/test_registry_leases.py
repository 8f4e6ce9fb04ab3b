"""Unit tests for the lease manager — the §4.8 aliveness mechanism."""

from __future__ import annotations

import random
import struct
from types import SimpleNamespace

import pytest

from repro.core.invariants import check_invariants
from repro.descriptions.uri import UriDescription
from repro.errors import LeaseError
from repro.registry.advertisements import Advertisement
from repro.registry import leases as leases_module
from repro.registry.leases import DEFAULT_LEASE_DURATION, LEASE_EVENTS, Lease, LeaseManager
from repro.registry.store import AdvertisementStore


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _ad(ad_id):
    return Advertisement(ad_id=ad_id, service_node="svc", service_name="s",
                         endpoint="svc://s", model_id="uri", description=UriDescription("uri:s", "svc://s"))


def _stored(store, *ad_ids):
    for ad_id in ad_ids:
        store.put(_ad(ad_id))
    return store


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def store():
    return _stored(AdvertisementStore(), "ad-1", "ad-2")


@pytest.fixture
def leases(clock, store):
    return LeaseManager(clock, store, default_duration=10.0)


def test_grant_sets_expiry(leases, clock):
    lease = leases.grant("ad-1")
    assert lease.expires_at == 10.0
    assert not lease.expired(clock())
    assert len(leases) == 1


def test_grant_custom_duration(leases):
    lease = leases.grant("ad-1", duration=3.0)
    assert lease.expires_at == 3.0


def test_grant_rejects_nonpositive_duration(leases):
    with pytest.raises(LeaseError):
        leases.grant("ad-1", duration=0.0)


def test_grant_and_restore_refuse_an_ad_the_store_does_not_hold(leases):
    with pytest.raises(LeaseError):
        leases.grant("ad-unknown")
    with pytest.raises(LeaseError):
        leases.restore("ad-unknown", lease_id="lease-000001", duration=5.0, expires_at=5.0)
    assert len(leases) == 0 and leases.lease_for_ad("ad-unknown") is None


def test_default_duration_validation():
    with pytest.raises(LeaseError):
        LeaseManager(lambda: 0.0, AdvertisementStore(), default_duration=-1.0)


def test_regrant_replaces_old_lease(leases):
    first = leases.grant("ad-1")
    second = leases.grant("ad-1")
    assert len(leases) == 1
    assert leases.lease_for_ad("ad-1") == second
    with pytest.raises(LeaseError):
        leases.renew("ad-1", first.lease_id)


def test_renew_extends_from_now(leases, clock):
    lease = leases.grant("ad-1")
    clock.now = 7.0
    assert leases.renew("ad-1", lease.lease_id).expires_at == 17.0
    assert leases.lease_for_ad("ad-1") == lease._replace(expires_at=17.0)
    assert lease.expires_at == 10.0  # a value: the renewal made a new one


def test_renew_unknown_raises(leases):
    with pytest.raises(LeaseError):
        leases.renew("ad-1", "lease-nonexistent")


def test_renew_naming_another_ads_lease_raises_and_moves_nothing(leases, clock):
    mine = leases.grant("ad-1", duration=10.0)
    theirs = leases.grant("ad-2", duration=10.0)
    clock.now = 4.0
    with pytest.raises(LeaseError):
        leases.renew("ad-1", theirs.lease_id)
    with pytest.raises(LeaseError):
        leases.renew("ad-2", mine.lease_id)
    assert (mine.expires_at, theirs.expires_at) == (10.0, 10.0)


def test_renew_after_expiry_raises_and_drops(leases, clock):
    lease = leases.grant("ad-1")
    clock.now = 11.0
    with pytest.raises(LeaseError):
        leases.renew("ad-1", lease.lease_id)
    # The refused lease stays due: the next sweep drops it and expires its ad.
    assert leases.expired_ads() == ["ad-1"]
    assert leases.lease_for_ad("ad-1") is None
    with pytest.raises(LeaseError):
        leases.renew("ad-1", lease.lease_id)


def test_late_renew_still_expires_at_the_next_purge(clock, store):
    """A renew that arrives after expiry but before the purge is refused,
    and the purge still expires the advertisement: refusing it must not
    leave the ad without a lease for good."""
    kinds = []
    leases = LeaseManager(clock, store, default_duration=10.0,
                          on_event=lambda kind, lease: kinds.append((kind, lease.ad_id)))
    lease = leases.grant("ad-1")
    clock.now = 11.0
    with pytest.raises(LeaseError):
        leases.renew("ad-1", lease.lease_id)
    clock.now = 12.0
    assert leases.expired_ads() == ["ad-1"]
    assert kinds == [("grant", "ad-1"), ("expire", "ad-1")]
    assert leases.expired_total == 1 and len(leases) == 0


def test_expired_ads_returns_and_removes(leases, clock):
    leases.grant("ad-1", duration=5.0)
    leases.grant("ad-2", duration=20.0)
    clock.now = 6.0
    assert leases.expired_ads() == ["ad-1"]
    assert leases.expired_ads() == []  # already purged
    assert len(leases) == 1
    assert leases.expired_total == 1


def test_never_serves_expired_entry(leases, clock):
    """Invariant: an expired lease is indistinguishable from no lease."""
    lease = leases.grant("ad-1", duration=5.0)
    clock.now = 5.0  # boundary is inclusive expiry
    assert lease.expired(clock())
    with pytest.raises(LeaseError):
        leases.renew("ad-1", lease.lease_id)


def test_cancel_for_ad(leases):
    leases.grant("ad-1")
    leases.cancel_for_ad("ad-1")
    assert leases.lease_for_ad("ad-1") is None
    assert len(leases) == 0
    leases.cancel_for_ad("ad-unknown")  # no-op, no raise


def test_renewal_keeps_ad_alive_across_sweeps(leases, clock):
    lease = leases.grant("ad-1", duration=5.0)
    for step in range(1, 6):
        clock.now = step * 4.0
        leases.renew("ad-1", lease.lease_id)
        assert leases.expired_ads() == []
    assert leases.lease_for_ad("ad-1").expires_at == 25.0


def test_lease_leaves_with_its_advertisement(leases, store, clock):
    """The lease lives in the ad's store slot: discarding the ad takes the
    lease with it, and the purge later skips its heap entry."""
    kinds = []
    leases.on_event = lambda kind, lease: kinds.append(kind)
    lease = leases.grant("ad-1", duration=5.0)
    store.discard("ad-1")
    assert leases.lease_for_ad("ad-1") is None and len(leases) == 0
    with pytest.raises(LeaseError):
        leases.renew("ad-1", lease.lease_id)
    store.put(_ad("ad-1"))  # republished: a new slot holds no lease yet
    assert leases.lease_for_ad("ad-1") is None
    clock.now = 6.0
    assert leases.expired_ads() == [] and leases.expired_total == 0
    assert kinds == ["grant"] and leases._expiry_heap == []


def test_a_long_restored_lease_renewed_after_a_sweep_is_found_on_time(leases, clock):
    """A restored lease may expire more than one duration ahead; a sweep
    that pops it early must re-push it due no later than a renewal can
    move its expiry, or the purge finds the renewed lease late."""
    leases.restore("ad-1", lease_id="lease-000042", duration=2.0, expires_at=8.0)
    clock.now = 3.0
    assert leases.expired_ads() == []  # due at 2.0, expires at 8.0: pushed back
    clock.now = 4.0
    assert leases.renew("ad-1", "lease-000042").expires_at == 6.0
    clock.now = 6.5
    assert leases.expired_ads() == ["ad-1"]
    assert leases.audit() == []


def test_a_lease_restored_already_lapsed_expires_at_the_next_sweep(leases, clock):
    """Heap keys order as their due times do, negative ones included."""
    leases.restore("ad-1", lease_id="lease-000001", duration=5.0, expires_at=-1.0)
    leases.restore("ad-2", lease_id="lease-000002", duration=5.0, expires_at=-0.0)
    assert leases.expired_ads() == ["ad-1", "ad-2"] and len(leases) == 0


def test_lease_has_no_instance_dict(leases):
    lease = leases.grant("ad-1")
    assert not hasattr(lease, "__dict__")
    (entry,) = leases._expiry_heap
    assert type(entry) is int  # the heap holds one packed int per lease
    assert _unpacked(entry) == (10.0, 1, 0)  # (due, grant_no, slot)
    with pytest.raises(AttributeError):
        lease.renewed_by = "someone"  # undeclared: a typo must not create a field
    with pytest.raises(AttributeError):
        lease.expires_at += 1.0  # a value: only the manager moves an expiry
    assert lease == Lease(lease.lease_id, "ad-1", 10.0, 10.0)


def test_lease_event_names_cover_every_transition(clock, store):
    kinds = []
    leases = LeaseManager(clock, store, default_duration=10.0,
                          on_event=lambda k, _l: kinds.append(k))
    first = leases.grant("ad-1")
    leases.renew("ad-1", first.lease_id)
    leases.cancel_for_ad("ad-1")
    leases.restore("ad-2", lease_id="lease-000077", duration=5.0, expires_at=5.0)
    clock.now = 6.0
    assert leases.expired_ads() == ["ad-2"]
    assert kinds == ["grant", "renew", "cancel", "restore", "expire"]
    assert sorted(LEASE_EVENTS) == sorted(kinds)
    assert all(LEASE_EVENTS[kind] == f"lease.{kind}" for kind in kinds)


def test_default_module_duration_positive():
    assert DEFAULT_LEASE_DURATION > 0


def test_republish_retires_replaced_lease(leases, store):
    old = leases.grant("ad-1")
    new = leases.grant("ad-1")
    assert new.lease_id != old.lease_id
    # The replaced lease is fully retired: renewing it raises like any
    # unknown lease, and the new lease is untouched by the attempt.
    with pytest.raises(LeaseError):
        leases.renew("ad-1", old.lease_id)
    assert leases.lease_for_ad("ad-1") == new
    assert leases.renew("ad-1", new.lease_id) == new  # renewed at 0: same expiry
    assert len(leases) == 1
    assert leases.lease_for_ad("ad-1") == new


def test_republish_then_cancel_leaves_no_residue(leases, store):
    leases.grant("ad-1")
    leases.grant("ad-1")
    leases.cancel_for_ad("ad-1")
    assert len(leases) == 0
    assert leases.lease_for_ad("ad-1") is None and "ad-1" in store
    assert not any(store._lease_grants)


# -- expiry-ordered purge vs. the linear scan it replaced ---------------------


class _LinearScanLeases(LeaseManager):
    """The oracle: ``expired_ads`` as a scan over every live lease."""

    def expired_ads(self):
        now = self.clock()
        slot_of, grants = self._store._slot_of, self._store._lease_grants
        lapsed = sorted((lease for lease in self._live() if lease.expired(now)),
                        key=lambda lease: grants[slot_of[lease.ad_id]])
        for lease in lapsed:
            self._drop(slot_of[lease.ad_id])
            self._notify("expire", lease)
        self.expired_total += len(lapsed)
        return sorted(lease.ad_id for lease in lapsed)


def _unpacked(key: int) -> tuple[float, int, int]:
    """An expiry-heap key as ``(due, grant_no, slot)``."""
    bits = key >> leases_module._DUE_SHIFT
    bits = bits ^ leases_module._SIGN if bits & leases_module._SIGN else ~bits & leases_module._ALL
    (due,) = struct.unpack("<d", bits.to_bytes(8, "little"))
    return (due, key >> leases_module._SLOT_BITS & leases_module._GRANT_MASK,
            key & leases_module._SLOT_MASK)


def _assert_heap_within_compaction_bound(manager: LeaseManager) -> None:
    """Holds whenever a lease has just been entered (grant / restore)."""
    assert len(manager._expiry_heap) <= 2 * len(manager._store) + 17


def _assert_heap_covers_live_leases(manager: LeaseManager) -> None:
    """Every live lease is in the heap exactly once, due no later than it
    expires, and no two entries share a grant number; the packed keys
    order as their ``(due, grant_no)`` pairs do."""
    heap, store = manager._expiry_heap, manager._store
    grants, expiries = store._lease_grants, store._lease_expiries
    entries = [_unpacked(key) for key in heap]
    live = [(due, slot) for due, grant_no, slot in entries
            if slot < len(grants) and grants[slot] == grant_no]
    assert sorted(slot for _due, slot in live) \
        == sorted(store._slot_of[lease.ad_id] for lease in manager._live())
    assert all(due <= expiries[slot] for due, slot in live)
    assert len({grant_no for _due, grant_no, _slot in entries}) == len(heap)
    assert [_unpacked(key) for key in sorted(heap)] == sorted(entries)
    assert not any(heap[i] < heap[(i - 1) >> 1] for i in range(1, len(heap)))
    assert manager.audit() == []


@pytest.mark.parametrize("seed", range(8))
def test_heap_purge_matches_linear_scan_model(seed):
    rng = random.Random(seed)
    clock = Clock()
    logs = ([], [])

    def observer(log):
        return lambda kind, lease: log.append((kind, lease.ad_id, lease.expires_at))

    stores = (AdvertisementStore(), AdvertisementStore())
    heap = LeaseManager(clock, stores[0], default_duration=10.0, on_event=observer(logs[0]))
    scan = _LinearScanLeases(clock, stores[1], default_duration=10.0,
                             on_event=observer(logs[1]))
    #: The k-th lease either manager ever issued (ids differ, roles match).
    issued: list[tuple[Lease, Lease]] = []
    ads = [f"ad-{i}" for i in range(12)]
    durations = (1.0, 2.0, 5.0, 10.0, 1e9)

    def both(call):
        """``call(manager)`` on both managers: the same result or both raise."""
        outcomes = []
        for manager in (heap, scan):
            try:
                outcomes.append(call(manager))
            except LeaseError:
                outcomes.append("raised")
        assert (outcomes[0] == "raised") == (outcomes[1] == "raised")
        return outcomes

    for step in range(600):
        op = rng.choice(("put", "put", "grant", "grant", "renew", "renew", "cancel",
                         "restore", "discard", "advance", "advance", "purge", "purge",
                         "clear"))
        if op == "put":
            ad = _ad(rng.choice(ads))
            for store in stores:
                store.put(ad)
        elif op == "discard":
            # The ad leaves the store behind the lease manager's back: its
            # lease must leave with it, in both models.
            ad = rng.choice(ads)
            for store in stores:
                store.discard(ad)
        elif op == "grant":
            ad, duration = rng.choice(ads), rng.choice(durations)
            outcomes = both(lambda manager: manager.grant(ad, duration))
            if outcomes[0] != "raised":
                issued.append(tuple(outcomes))
                _assert_heap_within_compaction_bound(heap)
        elif op == "renew" and issued:
            # Any lease ever issued: live, lapsed-but-unpurged, or retired,
            # named with its own ad or, now and then, with another one.
            ours, theirs = rng.choice(issued)
            ad = ours.ad_id if rng.random() < 0.8 else rng.choice(ads)
            # A lease is a value: ``ours`` is as granted, so ask what it is now.
            # A retired id (replaced, cancelled, purged, or its ad discarded)
            # is never held again: minted ids and restored ones (numbered
            # from 10**9 + step, past anything minted) are unique.
            now_held = heap.lease_for_ad(ours.ad_id)
            retired = now_held is None or now_held.lease_id != ours.lease_id
            outcomes = both(lambda manager: manager.renew(
                ad, (ours if manager is heap else theirs).lease_id).expires_at)
            assert outcomes[0] == outcomes[1]
            if retired or now_held.expired(clock()) or ad != ours.ad_id:
                assert outcomes[0] == "raised"
        elif op == "cancel":
            ad = rng.choice(ads)
            heap.cancel_for_ad(ad)
            scan.cancel_for_ad(ad)
        elif op == "restore":
            ad, duration = rng.choice(ads), rng.choice(durations)
            # May already be in the past: lapsed at the next sweep.
            kwargs = dict(lease_id=f"lease-{10**9 + step:06d}", duration=duration,
                          expires_at=clock() + rng.uniform(-2.0, 8.0))
            outcomes = both(lambda manager: manager.restore(ad, **kwargs))
            if outcomes[0] != "raised":
                issued.append(tuple(outcomes))
                _assert_heap_within_compaction_bound(heap)
        elif op == "advance":
            clock.now += rng.choice((0.0, 0.5, 1.0, 3.0, 7.0))
        elif op == "purge":
            assert heap.expired_ads() == scan.expired_ads()
        elif op == "clear" and rng.random() < 0.1:
            for store in stores:
                store.clear()
        assert logs[0] == logs[1]
        assert heap.expired_total == scan.expired_total
        assert len(heap) == len(scan)
        assert [lease.ad_id for lease in heap._live()] == [lease.ad_id for lease in scan._live()]
        _assert_heap_covers_live_leases(heap)

    clock.now += 20.0  # everything but the 1e9 leases lapses, in grant order
    assert heap.expired_ads() == scan.expired_ads()
    assert logs[0] == logs[1]
    assert any(kind == "expire" for kind, *_ in logs[0])
    assert heap.expired_total == scan.expired_total > 0


def test_expire_events_fire_in_grant_order_not_expiry_order(leases, store, clock):
    seen = []
    leases.on_event = lambda kind, lease: kind == "expire" and seen.append(lease.ad_id)
    _stored(store, "ad-late", "ad-early", "ad-mid")
    leases.grant("ad-late", duration=9.0)
    leases.grant("ad-early", duration=1.0)
    leases.grant("ad-mid", duration=5.0)
    clock.now = 20.0
    assert leases.expired_ads() == ["ad-early", "ad-late", "ad-mid"]
    assert seen == ["ad-late", "ad-early", "ad-mid"]


def test_sweep_with_nothing_lapsed_looks_at_no_lease(leases, store, clock):
    for i in range(100):
        _stored(store, f"ad-{i}")
        leases.grant(f"ad-{i}", duration=50.0)
    before = list(leases._expiry_heap)
    clock.now = 49.0
    assert leases.expired_ads() == []
    assert leases._expiry_heap == before  # nothing popped, nothing re-pushed


def test_publish_remove_churn_under_long_leases_does_not_leak(leases, store):
    for i in range(10):
        _stored(store, f"resident-{i}")
        leases.grant(f"resident-{i}", duration=1e9)
    for i in range(10_000):
        _stored(store, f"ad-{i % 7}")
        leases.grant(f"ad-{i % 7}", duration=1e9)
        _assert_heap_within_compaction_bound(leases)
        if i % 3:
            leases.cancel_for_ad(f"ad-{i % 7}")
            store.discard(f"ad-{i % 7}")
    _assert_heap_covers_live_leases(leases)
    assert len(leases._expiry_heap) < 100


def test_invariant_sweep_flags_a_lease_the_heap_would_miss(leases, store, clock):
    lease = leases.grant("ad-1", duration=5.0)
    leases.grant("ad-2", duration=5.0)
    registry = SimpleNamespace(node_id="reg-0", leases=leases, store=store)
    system = SimpleNamespace(clients=[], registries=[registry])
    assert check_invariants(system) == []
    clock.now = 2.0
    leases.renew("ad-1", lease.lease_id)  # entry now due before the lease expires: fine
    assert check_invariants(system) == []
    expiries, slot = store._lease_expiries, store._slot_of["ad-1"]
    expiries[slot] = 1.0  # moved behind the manager's back
    assert any("expiry heap" in v for v in check_invariants(system))
    expiries[slot] = 7.0
    leases._expiry_heap.clear()
    assert [v.split(":")[0] for v in check_invariants(system)] == ["reg-0", "reg-0"]
    assert all("expiry heap" in v for v in check_invariants(system))


def test_lease_ids_round_trip_through_the_columns(leases, store):
    """An id of the ``lease-{n:06d}`` form a registry mints is held as ``n``
    and rendered back exactly; ``restore`` refuses any other id with
    :class:`LeaseError` and leaves the slot without a lease."""
    _stored(store, "ad-3", "ad-4", "ad-5", "ad-6", "ad-7")
    ids = {"ad-1": "lease-000123", "ad-2": "lease-1234567"}
    for ad_id, lease_id in ids.items():
        assert leases.restore(ad_id, lease_id=lease_id, duration=5.0,
                              expires_at=5.0).lease_id == lease_id
    assert {lease.ad_id: lease.lease_id for lease in leases._live()} == ids
    slot_of = store._slot_of
    assert [store._lease_numbers[slot_of[ad]] for ad in ("ad-1", "ad-2")] == [123, 1234567]
    for ad_id, lease_id in ids.items():
        assert leases.renew(ad_id, lease_id).lease_id == lease_id
    foreign = {"ad-3": "lease-x", "ad-4": "lease-0123", "ad-5": "lease-٣",
               "ad-6": "restored-7", "ad-7": "lease-" + "9" * 19}
    for ad_id, lease_id in foreign.items():
        with pytest.raises(LeaseError, match="not a lease id"):
            leases.restore(ad_id, lease_id=lease_id, duration=5.0, expires_at=5.0)
        assert leases.lease_for_ad(ad_id) is None
    assert len(leases) == 2 and leases.audit() == []
