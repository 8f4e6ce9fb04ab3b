"""Unit tests for the lease manager — the §4.8 aliveness mechanism."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.core.invariants import check_invariants
from repro.errors import LeaseError
from repro.registry.leases import DEFAULT_LEASE_DURATION, LEASE_EVENTS, Lease, LeaseManager


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def leases(clock):
    return LeaseManager(clock, default_duration=10.0)


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


def test_default_duration_validation():
    with pytest.raises(LeaseError):
        LeaseManager(lambda: 0.0, default_duration=-1.0)


def test_regrant_replaces_old_lease(leases):
    first = leases.grant("ad-1")
    second = leases.grant("ad-1")
    assert len(leases) == 1
    assert leases.lease_for_ad("ad-1") is second
    with pytest.raises(LeaseError):
        leases.renew(first.lease_id)


def test_renew_extends_from_now(leases, clock):
    lease = leases.grant("ad-1")
    clock.now = 7.0
    leases.renew(lease.lease_id)
    assert lease.expires_at == 17.0
    assert lease.renewals == 1


def test_renew_unknown_raises(leases):
    with pytest.raises(LeaseError):
        leases.renew("lease-nonexistent")


def test_renew_after_expiry_raises_and_drops(leases, clock):
    lease = leases.grant("ad-1")
    clock.now = 11.0
    with pytest.raises(LeaseError):
        leases.renew(lease.lease_id)
    # The refused lease stays due: the next sweep drops it and expires its ad.
    assert leases.expired_ads() == ["ad-1"]
    assert leases.lease_for_ad("ad-1") is None
    with pytest.raises(LeaseError):
        leases.renew(lease.lease_id)


def test_late_renew_still_expires_at_the_next_purge(clock):
    """A renew that arrives after expiry but before the purge is refused,
    and the purge still expires the advertisement: refusing it must not
    leave the ad without a lease for good."""
    kinds = []
    leases = LeaseManager(clock, default_duration=10.0,
                          on_event=lambda kind, lease: kinds.append((kind, lease.ad_id)))
    lease = leases.grant("ad-1")
    clock.now = 11.0
    with pytest.raises(LeaseError):
        leases.renew(lease.lease_id)
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
        leases.renew(lease.lease_id)


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
        leases.renew(lease.lease_id)
        assert leases.expired_ads() == []
    assert lease.renewals == 5


def test_clear(leases):
    leases.grant("ad-1")
    leases.clear()
    assert len(leases) == 0


def test_lease_has_no_instance_dict(leases):
    lease = leases.grant("ad-1")
    assert not hasattr(lease, "__dict__")
    (entry,) = leases._expiry_heap
    assert entry is lease  # the lease is its own heap entry, not in a tuple
    with pytest.raises(AttributeError):
        lease.renewed_by = "someone"  # undeclared: a typo must not create a field
    lease.expires_at += 1.0  # declared fields stay writable (renew does this)
    assert lease == Lease(lease.lease_id, "ad-1", 10.0, lease.expires_at)


def test_lease_event_names_cover_every_transition(clock):
    kinds = []
    leases = LeaseManager(clock, default_duration=10.0, on_event=lambda k, _l: kinds.append(k))
    first = leases.grant("ad-1")
    leases.renew(first.lease_id)
    leases.cancel_for_ad("ad-1")
    leases.restore("ad-2", lease_id="lease-x", duration=5.0, expires_at=5.0)
    clock.now = 6.0
    assert leases.expired_ads() == ["ad-2"]
    assert kinds == ["grant", "renew", "cancel", "restore", "expire"]
    assert sorted(LEASE_EVENTS) == sorted(kinds)
    assert all(LEASE_EVENTS[kind] == f"lease.{kind}" for kind in kinds)


def test_default_module_duration_positive():
    assert DEFAULT_LEASE_DURATION > 0


def test_republish_retires_replaced_lease(leases):
    old = leases.grant("ad-1")
    new = leases.grant("ad-1")
    assert new.lease_id != old.lease_id
    # The replaced lease is fully retired: renewing it raises like any
    # unknown lease, and the new lease is untouched by the attempt.
    with pytest.raises(LeaseError):
        leases.renew(old.lease_id)
    assert leases.lease_for_ad("ad-1") is new
    leases.renew(new.lease_id)
    assert len(leases) == 1
    assert leases._by_ad == {"ad-1": new.lease_id}
    assert list(leases._by_lease) == [new.lease_id]


def test_republish_then_cancel_leaves_no_residue(leases):
    leases.grant("ad-1")
    leases.grant("ad-1")
    leases.cancel_for_ad("ad-1")
    assert len(leases) == 0
    assert leases._by_ad == {}
    assert leases._by_lease == {}


# -- expiry-ordered purge vs. the linear scan it replaced ---------------------


class _LinearScanLeases(LeaseManager):
    """The oracle: ``expired_ads`` as a scan over every live lease."""

    def expired_ads(self):
        now = self.clock()
        lapsed = [lease for lease in self._by_lease.values() if lease.expired(now)]
        for lease in lapsed:
            self._drop(lease)
            self._notify("expire", lease)
        self.expired_total += len(lapsed)
        return sorted(lease.ad_id for lease in lapsed)


def _assert_heap_within_compaction_bound(manager: LeaseManager) -> None:
    """Holds whenever a lease has just been entered (grant / restore)."""
    assert len(manager._expiry_heap) <= 2 * len(manager) + 17


def _assert_heap_covers_live_leases(manager: LeaseManager) -> None:
    """Every live lease is in the heap exactly once, due no later than it
    expires, and no two entries share a grant number."""
    heap = manager._expiry_heap
    entries = [lease for lease in heap if manager._by_lease.get(lease.lease_id) is lease]
    assert sorted(id(lease) for lease in entries) \
        == sorted(id(lease) for lease in manager._by_lease.values())
    assert all(lease.due <= lease.expires_at for lease in entries)
    assert len({lease.grant_no for lease in heap}) == len(heap)
    assert not any(heap[i] < heap[(i - 1) >> 1] for i in range(1, len(heap)))


@pytest.mark.parametrize("seed", range(8))
def test_heap_purge_matches_linear_scan_model(seed):
    rng = random.Random(seed)
    clock = Clock()
    logs = ([], [])

    def observer(log):
        return lambda kind, lease: log.append(
            (kind, lease.ad_id, lease.expires_at, lease.renewals))

    heap = LeaseManager(clock, default_duration=10.0, on_event=observer(logs[0]))
    scan = _LinearScanLeases(clock, default_duration=10.0, on_event=observer(logs[1]))
    #: The k-th lease either manager ever issued (ids differ, roles match).
    issued: list[tuple[Lease, Lease]] = []
    ads = [f"ad-{i}" for i in range(12)]
    durations = (1.0, 2.0, 5.0, 10.0, 1e9)

    for step in range(600):
        op = rng.choice(("grant", "grant", "renew", "renew", "cancel", "restore",
                         "advance", "advance", "purge", "purge", "clear"))
        if op == "grant":
            ad, duration = rng.choice(ads), rng.choice(durations)
            issued.append((heap.grant(ad, duration), scan.grant(ad, duration)))
            _assert_heap_within_compaction_bound(heap)
        elif op == "renew" and issued:
            # Any lease ever issued: live, lapsed-but-unpurged, or retired.
            ours, theirs = rng.choice(issued)
            lapsed = ours.expired(clock())
            outcomes = []
            for manager, lease in ((heap, ours), (scan, theirs)):
                try:
                    outcomes.append(manager.renew(lease.lease_id).expires_at)
                except LeaseError:
                    outcomes.append("raised")
            assert outcomes[0] == outcomes[1]
            if lapsed:
                assert outcomes[0] == "raised"
        elif op == "cancel":
            ad = rng.choice(ads)
            heap.cancel_for_ad(ad)
            scan.cancel_for_ad(ad)
        elif op == "restore":
            ad, duration = rng.choice(ads), rng.choice(durations)
            # May already be in the past: lapsed at the next sweep.
            expires_at = clock() + rng.uniform(-2.0, 8.0)
            kwargs = dict(lease_id=f"restored-{step}", duration=duration,
                          expires_at=expires_at, renewals=rng.randrange(3))
            issued.append((heap.restore(ad, **kwargs), scan.restore(ad, **kwargs)))
            _assert_heap_within_compaction_bound(heap)
        elif op == "advance":
            clock.now += rng.choice((0.0, 0.5, 1.0, 3.0, 7.0))
        elif op == "purge":
            assert heap.expired_ads() == scan.expired_ads()
        elif op == "clear" and rng.random() < 0.1:
            heap.clear()
            scan.clear()
        assert logs[0] == logs[1]
        assert heap.expired_total == scan.expired_total
        assert len(heap) == len(scan)
        assert sorted(heap._by_ad) == sorted(scan._by_ad)
        _assert_heap_covers_live_leases(heap)

    clock.now += 20.0  # everything but the 1e9 leases lapses, in grant order
    assert heap.expired_ads() == scan.expired_ads()
    assert logs[0] == logs[1]
    assert any(kind == "expire" for kind, *_ in logs[0])
    assert heap.expired_total == scan.expired_total > 0


def test_expire_events_fire_in_grant_order_not_expiry_order(leases, clock):
    seen = []
    leases.on_event = lambda kind, lease: kind == "expire" and seen.append(lease.ad_id)
    leases.grant("ad-late", duration=9.0)
    leases.grant("ad-early", duration=1.0)
    leases.grant("ad-mid", duration=5.0)
    clock.now = 20.0
    assert leases.expired_ads() == ["ad-early", "ad-late", "ad-mid"]
    assert seen == ["ad-late", "ad-early", "ad-mid"]


def test_sweep_with_nothing_lapsed_looks_at_no_lease(leases, clock):
    for i in range(100):
        leases.grant(f"ad-{i}", duration=50.0)
    before = list(leases._expiry_heap)
    clock.now = 49.0
    assert leases.expired_ads() == []
    assert leases._expiry_heap == before  # nothing popped, nothing re-pushed


def test_publish_remove_churn_under_long_leases_does_not_leak(leases):
    for i in range(10):
        leases.grant(f"resident-{i}", duration=1e9)
    for i in range(10_000):
        leases.grant(f"ad-{i % 7}", duration=1e9)
        _assert_heap_within_compaction_bound(leases)
        if i % 3:
            leases.cancel_for_ad(f"ad-{i % 7}")
    _assert_heap_covers_live_leases(leases)
    assert len(leases._expiry_heap) < 100


def test_invariant_sweep_flags_a_lease_the_heap_would_miss(leases, clock):
    lease = leases.grant("ad-1", duration=5.0)
    registry = SimpleNamespace(node_id="reg-0", leases=leases, store={"ad-1"})
    system = SimpleNamespace(clients=[], registries=[registry])
    assert check_invariants(system) == []
    clock.now = 2.0
    leases.renew(lease.lease_id)  # entry now due before the lease expires: fine
    assert check_invariants(system) == []
    lease.expires_at = 1.0  # moved behind the manager's back
    assert any("expiry heap" in v for v in check_invariants(system))
    lease.expires_at = 7.0
    leases._expiry_heap.clear()
    assert any("expiry heap" in v for v in check_invariants(system))
