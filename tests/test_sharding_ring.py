"""Property tests for the consistent-hash ring (sharded federation).

The ring is the contract everything else in :mod:`repro.core.sharding`
leans on: placement must be deterministic across processes and insertion
orders, replica sets must be R distinct members, membership changes must
move only ~K·R/S keys, and load must stay near-uniform. Each property is
asserted over a 10k-key workload at 16 registries — the scale the E21
acceptance criteria quote.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.core.sharding import ConsistentHashRing, ShardingConfig
from repro.errors import ReproError

MEMBERS = tuple(f"registry-{i:02d}" for i in range(16))
KEYS = tuple(f"ad-{k:06d}" for k in range(10_000))
R = 3


def _ring(members=MEMBERS, *, virtual_nodes=64, seed=0):
    ring = ConsistentHashRing(virtual_nodes=virtual_nodes, seed=seed)
    for member in members:
        ring.add(member)
    return ring


def _placement(ring, keys=KEYS, r=R):
    return {key: ring.replicas_for(key, r) for key in keys}


# -- determinism -----------------------------------------------------------


def test_placement_deterministic_across_instances_and_insertion_order():
    a = _ring(MEMBERS)
    b = _ring(tuple(reversed(MEMBERS)))
    assert _placement(a, KEYS[:500]) == _placement(b, KEYS[:500])


def test_seed_changes_placement():
    a = _placement(_ring(seed=0), KEYS[:500])
    b = _placement(_ring(seed=1), KEYS[:500])
    assert a != b


def test_membership_version_bumps_only_on_change():
    ring = _ring(MEMBERS[:2])
    version = ring.version
    assert not ring.add(MEMBERS[0])          # already present, same identity
    assert ring.version == version
    assert ring.add("registry-99")
    assert ring.version == version + 1
    assert ring.remove("registry-99")
    assert not ring.remove("registry-99")    # second removal is a no-op


# -- replica sets ----------------------------------------------------------


def test_replica_sets_are_r_distinct_members():
    ring = _ring()
    for key in KEYS[:2000]:
        replicas = ring.replicas_for(key, R)
        assert len(replicas) == R
        assert len(set(replicas)) == R
        assert set(replicas) <= set(MEMBERS)


def test_small_ring_degrades_to_full_replication():
    ring = _ring(MEMBERS[:2])
    for key in KEYS[:100]:
        assert set(ring.replicas_for(key, R)) == set(MEMBERS[:2])
    assert _ring(()).replicas_for("ad-x", R) == ()


def test_every_replica_set_is_a_replica_group():
    ring = _ring(MEMBERS[:8])
    groups = set(ring.replica_groups(R))
    for key in KEYS[:1000]:
        assert ring.replicas_for(key, R) in groups


def test_partners_are_symmetric():
    ring = _ring(MEMBERS[:8])
    for a in MEMBERS[:8]:
        for b in ring.partners(a, R):
            assert a in ring.partners(b, R)


# -- load uniformity -------------------------------------------------------


def test_uniform_load_at_10k_ads_16_registries():
    ring = _ring()
    counts = dict.fromkeys(MEMBERS, 0)
    for key in KEYS:
        for member in ring.replicas_for(key, R):
            counts[member] += 1
    mean = sum(counts.values()) / len(counts)
    assert max(counts.values()) / mean < 1.35
    assert min(counts.values()) > 0


# -- minimal movement ------------------------------------------------------


def _assignments_gained(before, after):
    """Replica-slot assignments that are new in ``after`` (copies to move)."""
    return sum(len(set(after[k]) - set(before[k])) for k in before)


def test_join_moves_bounded_fraction():
    ring = _ring()
    before = _placement(ring)
    ring.add("registry-16")
    after = _placement(ring)
    bound = len(KEYS) * R / (len(MEMBERS) + 1) * 1.25  # K·R/S plus slack
    assert _assignments_gained(before, after) <= bound


def test_leave_moves_bounded_fraction():
    ring = _ring()
    before = _placement(ring)
    ring.remove(MEMBERS[0])
    after = _placement(ring)
    bound = len(KEYS) * R / len(MEMBERS) * 1.25
    assert _assignments_gained(before, after) <= bound


def test_ring_identity_inheritance_moves_no_other_keys():
    """A member registered under a dead peer's ring identity occupies its
    exact positions: every key the dead member owned is owned by the heir,
    and no key between two *other* members moved (the standby-promotion
    satellite regression)."""
    ring = _ring(MEMBERS[:8])
    before = _placement(ring, KEYS[:2000])
    ring.remove(MEMBERS[3])
    ring.add("standby-77", MEMBERS[3])
    after = _placement(ring, KEYS[:2000])
    renamed = {
        key: tuple("standby-77" if m == MEMBERS[3] else m for m in replicas)
        for key, replicas in before.items()
    }
    assert after == renamed


# -- no OpenSSL -------------------------------------------------------------

_PLACE_WITHOUT_HASHLIB = """
import json, sys
import repro
from repro.core.sharding import ConsistentHashRing
ring = ConsistentHashRing(virtual_nodes=4, seed=7)
for member in ("registry-a", "registry-b"):
    ring.add(member)
print(json.dumps({"hashlib_loaded": "_hashlib" in sys.modules,
                  "points": [point for point, _ in ring._points],
                  "owners": [ring.replicas_for(key, 1)[0] for key in ("ad-1", "ad-2", "ad-3")]}))
"""


def test_placing_keys_loads_no_openssl_and_keeps_hashlib_points():
    """The ring hashes with the builtin BLAKE2 module, not through
    ``hashlib`` (whose import maps OpenSSL's libcrypto, megabytes of
    resident memory in every process): a fresh interpreter that imports
    ``repro`` and places keys never loads ``_hashlib``, and every ring point
    is the ``hashlib.blake2b`` digest it always was."""
    src = Path(repro.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", _PLACE_WITHOUT_HASHLIB], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    placed = json.loads(run.stdout)
    assert placed["hashlib_loaded"] is False
    golden = sorted(
        int.from_bytes(hashlib.blake2b(f"{member}#{vnode}#7".encode(), digest_size=8)
                       .digest(), "big")
        for member in ("registry-a", "registry-b") for vnode in range(4))
    assert placed["points"] == golden
    ring = _ring(("registry-a", "registry-b"), virtual_nodes=4, seed=7)
    assert placed["owners"] == [ring.replicas_for(key, 1)[0] for key in ("ad-1", "ad-2", "ad-3")]


# -- config validation -----------------------------------------------------


def test_sharding_config_validation():
    with pytest.raises(ReproError):
        ShardingConfig(enabled=True, replication_factor=0)
    with pytest.raises(ReproError):
        ShardingConfig(enabled=True, replication_factor=3, write_quorum=4)
    with pytest.raises(ReproError):
        ShardingConfig(enabled=True, write_quorum=0)
    assert not ShardingConfig().enabled  # default off
