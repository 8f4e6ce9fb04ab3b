"""Post-scenario invariant checking.

Fault scenarios exercise recovery code paths (retry, failover, fallback,
lease expiry) whose bugs are silent: a stale wire-id entry or an
advertisement no purge will remove does not crash anything, it just
skews the next measurement. :func:`check_invariants` sweeps a quiesced
:class:`~repro.core.system.DiscoverySystem` for the three classes of
bookkeeping rot the recovery paths can leave behind:

* **single completion** — no discovery call ever completes twice (the
  client notes a second completion where it happens, since it keeps no
  history of its calls to sweep);
* **wire-id drain** — no client keeps a wire-id entry for a completed
  call (after every call has resolved, the maps are empty);
* **lease/store agreement** — with leasing on no advertisement lives
  without a lease, the lease manager passes its own
  :meth:`~repro.registry.leases.LeaseManager.audit` (every live lease is
  due in the expiry heap no later than it expires), and each concept
  index passes its own :meth:`~repro.registry.index.ConceptIndexer.audit`;
* **queue drain** — every message a registry's admission controller
  intercepted was either dispatched, explicitly shed with exactly one
  BUSY, lost to a crash, or is still pending — and no message was both
  shed and dispatched.

Run it after every fault scenario (the experiment helpers in
:mod:`repro.experiments` do); :func:`assert_invariants` raises
:class:`~repro.errors.InvariantError` listing every violation at once.

:func:`check_convergence` adds a fourth, replication-specific sweep:
after a quiesced anti-entropy cycle every live active registry in a
replicate-ads deployment must hold the same ``(ad_id, version)`` set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import InvariantError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import DiscoverySystem


def check_invariants(system: "DiscoverySystem") -> list[str]:
    """Sweep ``system`` for bookkeeping violations; returns descriptions.

    Intended for a *quiesced* system (no in-flight calls); clients with
    still-pending calls are allowed matching wire-id entries, so running
    mid-flight only reports genuine rot, never transients.
    """
    violations: list[str] = []

    for client in system.clients:
        for query_id, completions in getattr(client, "recompleted", ()):
            violations.append(
                f"{client.node_id}: call {query_id} completed {completions} times"
            )
        for wire_id, call in getattr(client, "_by_wire_id", {}).items():
            if call.completed:
                violations.append(
                    f"{client.node_id}: stale wire-id {wire_id!r} for "
                    f"completed call {call.query_id}"
                )

    for registry in system.registries:
        node = registry.node_id
        violations.extend(f"{node}: {v}" for v in registry.leases.audit())
        config = getattr(registry, "config", None)
        if config is not None and config.leasing_enabled:
            for ad in registry.store.all():
                if registry.leases.lease_for_ad(ad.ad_id) is None:
                    violations.append(
                        f"{node}: advertisement {ad.ad_id} has no "
                        f"lease; no purge will ever remove it"
                    )
        violations.extend(f"{node}: index: {v}" for v in registry.store.audit())

    for registry in system.registries:
        admission = getattr(registry, "admission", None)
        if admission is None:
            continue
        violations.extend(
            f"{registry.node_id}: {violation}"
            for violation in admission.audit()
        )

    return violations


def assert_invariants(system: "DiscoverySystem") -> None:
    """Raise :class:`InvariantError` listing every violation found."""
    violations = check_invariants(system)
    if violations:
        # Capture flight-recorder dumps before raising (where the health
        # layer is on): the rings hold the last events leading up to the rot.
        if system.health is not None:
            system.health.on_invariant_violation("; ".join(violations))
        raise InvariantError(
            "invariant violations:\n  " + "\n  ".join(violations)
        )


def check_convergence(system: "DiscoverySystem") -> list[str]:
    """Replica agreement sweep for replicate-ads deployments.

    After a quiesced anti-entropy cycle, every *live, active* registry
    should hold the same advertisement set at the same versions — the
    bounded-round convergence the reconciliation protocol promises. Each
    disagreeing registry yields one violation naming its surplus and
    missing ``(ad_id, version)`` pairs against the majority view. Under
    forwarding cooperation stores are disjoint by design, so the check is
    vacuously clean.
    """
    from repro.core.config import COOPERATION_REPLICATE_ADS

    if system.config.cooperation != COOPERATION_REPLICATE_ADS:
        return []
    members = [
        r for r in system.registries
        if r.alive and getattr(r, "active", True)
    ]
    if len(members) < 2:
        return []
    if system.config.sharding.enabled:
        return _check_sharded_convergence(system, members)
    views = {
        r.node_id: frozenset((ad.ad_id, ad.version) for ad in r.store.all())
        for r in members
    }
    if len(set(views.values())) <= 1:
        return []
    # Majority (ties broken toward the larger set) as the reference view.
    counts: dict[frozenset, int] = {}
    for view in views.values():
        counts[view] = counts.get(view, 0) + 1
    reference = max(counts, key=lambda v: (counts[v], len(v)))
    violations = []
    for node_id, view in sorted(views.items()):
        if view == reference:
            continue
        extra = sorted(view - reference)
        missing = sorted(reference - view)
        violations.append(
            f"{node_id}: store diverges from majority view "
            f"(extra={extra[:5]}, missing={missing[:5]})"
        )
    return violations


def _canonical_ring(system: "DiscoverySystem", members):
    """The ring implied by the live active registries' ring identities.

    Crashed registries are *kept* on the live rings by design (replica
    selection masks them, anti-entropy repairs them; only a graceful leave shrinks
    the ring), so the canonical ring also includes any member a live
    registry still has on its own ring — with the ring identity that
    registry records for it. A gracefully-departed member appears on no
    live ring and therefore stays excluded.
    """
    from repro.core.sharding import ConsistentHashRing

    ring = ConsistentHashRing()
    for registry in members:
        ring.add(registry.node_id, getattr(registry, "ring_identity", registry.node_id))
    for registry in sorted(members, key=lambda r: r.node_id):
        live = registry.shard
        for member in sorted(live.ring.members()):
            if member not in ring:
                ring.add(member, live.ring.ring_id_of(member))
    return ring


def _check_sharded_convergence(system: "DiscoverySystem", members) -> list[str]:
    """Per-replica-set agreement: under sharding only the R assigned
    replicas of an advertisement must agree — the global identical-store
    comparison would flag correct partitioning as divergence."""
    ring = _canonical_ring(system, members)
    r = system.config.sharding.replication_factor
    holders: dict[str, dict[str, int]] = {}
    for registry in members:
        for ad in registry.store.all():
            holders.setdefault(ad.ad_id, {})[registry.node_id] = ad.version
    alive = {registry.node_id for registry in members}
    violations = []
    for ad_id in sorted(holders):
        assigned = [m for m in ring.replicas_for(ad_id, r) if m in alive]
        versions = {m: holders[ad_id].get(m) for m in assigned}
        present = {v for v in versions.values() if v is not None}
        if len(present) > 1 or (present and None in versions.values()):
            detail = ", ".join(
                f"{m}={'-' if v is None else v}" for m, v in sorted(versions.items())
            )
            violations.append(
                f"shard replicas diverge on {ad_id}: {detail}"
            )
    return violations


def check_shard_placement(system: "DiscoverySystem") -> list[str]:
    """Placement sweep for sharded deployments.

    After quiescing (rebalances drained), every stored advertisement must
    sit inside its assigned replica range on the canonical ring — the
    ring implied by the live active registries' ring identities — and
    every live advertisement must still have at least one alive assigned
    replica holding it. Vacuous when sharding is off.
    """
    if not system.config.sharding.enabled:
        return []
    members = [
        r for r in system.registries
        if r.alive and getattr(r, "active", True)
    ]
    if not members:
        return []
    ring = _canonical_ring(system, members)
    r = system.config.sharding.replication_factor
    violations: list[str] = []
    live_ads: set[str] = set()
    for registry in members:
        for ad in registry.store.all():
            live_ads.add(ad.ad_id)
            if not ring.owns(registry.node_id, ad.ad_id, r):
                violations.append(
                    f"{registry.node_id}: holds {ad.ad_id} outside its "
                    f"assigned replica set {ring.replicas_for(ad.ad_id, r)}"
                )
    held_by = {
        registry.node_id: {ad.ad_id for ad in registry.store.all()}
        for registry in members
    }
    for ad_id in sorted(live_ads):
        assigned = [m for m in ring.replicas_for(ad_id, r) if m in held_by]
        if assigned and not any(ad_id in held_by[m] for m in assigned):
            violations.append(
                f"{ad_id}: no alive assigned replica ({assigned}) holds it"
            )
    return violations


def assert_convergence(system: "DiscoverySystem") -> None:
    """Raise :class:`InvariantError` when replicated stores disagree."""
    violations = check_convergence(system)
    if violations:
        raise InvariantError(
            "store convergence violations:\n  " + "\n  ".join(violations)
        )


def store_snapshot(registry) -> dict[str, tuple[int, float]]:
    """Capture ``{ad_id: (version, lease_expires_at)}`` for one registry.

    Take this *before* a crash; feed it to :func:`check_recovery` after
    the restart. Advertisements without a lease (leasing disabled) carry
    ``float('inf')`` as their expiry.
    """
    snapshot: dict[str, tuple[int, float]] = {}
    for ad in registry.store.all():
        lease = registry.leases.lease_for_ad(ad.ad_id)
        expires_at = lease.expires_at if lease is not None else float("inf")
        snapshot[ad.ad_id] = (ad.version, expires_at)
    return snapshot


def check_recovery(
    registry,
    pre_crash: dict[str, tuple[int, float]],
    *,
    now: float | None = None,
) -> list[str]:
    """The durable-recovery invariant for one restarted registry.

    The replayed store must equal the pre-crash store **minus the leases
    that expired during the outage**: every pre-crash advertisement whose
    lease outlived the downtime must be back at (at least) its pre-crash
    version, every advertisement whose lease lapsed while the registry
    was down must be gone, and nothing the registry never held may
    appear out of thin air (anti-entropy repair runs *after* recovery,
    so run this check before the first delta round — or accept repaired
    entries by passing the union of peer snapshots as ``pre_crash``).
    """
    if now is None:
        now = registry.sim.now
    violations: list[str] = []
    held = {ad.ad_id: ad.version for ad in registry.store.all()}
    for ad_id, (version, expires_at) in sorted(pre_crash.items()):
        if expires_at <= now:
            if ad_id in held:
                violations.append(
                    f"{registry.node_id}: recovered {ad_id} whose lease "
                    f"expired at {expires_at:g} (now={now:g})"
                )
        elif ad_id not in held:
            violations.append(
                f"{registry.node_id}: lost {ad_id} whose lease was still "
                f"live (expires {expires_at:g}, now={now:g})"
            )
        elif held[ad_id] < version:
            violations.append(
                f"{registry.node_id}: recovered {ad_id} at stale version "
                f"{held[ad_id]} < pre-crash {version}"
            )
    for ad_id in sorted(set(held) - set(pre_crash)):
        violations.append(
            f"{registry.node_id}: recovered {ad_id} the registry never "
            f"held before the crash"
        )
    return violations


def assert_recovery(
    registry,
    pre_crash: dict[str, tuple[int, float]],
    *,
    now: float | None = None,
) -> None:
    """Raise :class:`InvariantError` when replay diverges from pre-crash."""
    violations = check_recovery(registry, pre_crash, now=now)
    if violations:
        raise InvariantError(
            "recovery violations:\n  " + "\n  ".join(violations)
        )
