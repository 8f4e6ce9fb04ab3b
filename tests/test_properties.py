"""Property-based tests (hypothesis) for core invariants."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.descriptions.uri import UriDescription
from repro.netsim.simulator import Simulator
from repro.registry.advertisements import Advertisement
from repro.registry.leases import LeaseManager
from repro.registry.matching import QueryEvaluator, QueryHit
from repro.registry.store import AdvertisementStore
from repro.semantics.generator import OntologyGenerator, ProfileGenerator
from repro.semantics.matchmaker import DegreeOfMatch, Matchmaker
from repro.semantics.ontology import THING
from repro.semantics.reasoner import Reasoner

# Small bounded generators keep each example fast.
seeds = st.integers(min_value=0, max_value=10_000)
sizes = st.integers(min_value=2, max_value=25)


def _ontology(seed, n_service=8, n_data=12):
    return OntologyGenerator(seed).random_ontology(
        n_service_classes=n_service, n_data_classes=n_data
    )


# -- ontology/reasoner invariants ------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_subsumption_is_partial_order(seed):
    """Reflexive, antisymmetric (DAG => no distinct mutual subsumers),
    transitive."""
    ont = _ontology(seed)
    reasoner = Reasoner(ont)
    classes = ont.classes()
    for c in classes:
        assert reasoner.subsumes(c, c)
    import random

    rng = random.Random(seed)
    for _ in range(30):
        a, b, c = (rng.choice(classes) for _ in range(3))
        if a != b and reasoner.subsumes(a, b):
            assert not reasoner.subsumes(b, a)
        if reasoner.subsumes(a, b) and reasoner.subsumes(b, c):
            assert reasoner.subsumes(a, c)


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_thing_subsumes_everything(seed):
    ont = _ontology(seed)
    reasoner = Reasoner(ont)
    assert all(reasoner.subsumes(THING, c) for c in ont.classes())


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_ancestors_equal_subsumers(seed):
    """ancestors(c) must be exactly the strict subsumers of c."""
    ont = _ontology(seed, n_service=5, n_data=8)
    reasoner = Reasoner(ont)
    for c in ont.classes():
        ancestors = ont.ancestors(c)
        subsumers = {
            other for other in ont.classes()
            if other != c and reasoner.subsumes(other, c)
        }
        assert ancestors == subsumers


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_distance_and_similarity_consistency(seed):
    import random

    ont = _ontology(seed)
    reasoner = Reasoner(ont)
    rng = random.Random(seed)
    classes = ont.classes()
    for _ in range(20):
        a, b = rng.choice(classes), rng.choice(classes)
        assert reasoner.distance(a, b) == reasoner.distance(b, a) >= 0
        sim = reasoner.similarity(a, b)
        assert 0.0 <= sim <= 1.0
        if a == b:
            assert reasoner.distance(a, b) == 0
            assert sim == 1.0


# -- matchmaker invariants ----------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_anchor_profile_always_matches_its_generalized_request(seed):
    """Generalizing a request must never lose the anchoring profile."""
    ont = _ontology(seed)
    gen = ProfileGenerator(ont, seed=seed)
    matchmaker = Matchmaker(Reasoner(ont))
    profile = gen.random_profile(0)
    for generalize in (0, 1, 2, 3):
        request = gen.request_for(profile, generalize=generalize)
        assert matchmaker.match(profile, request).matched


@settings(max_examples=20, deadline=None)
@given(seed=seeds, limit=st.integers(min_value=1, max_value=5))
def test_rank_limit_returns_prefix_of_full_ranking(seed, limit):
    """Response control must truncate, never reorder."""
    ont = _ontology(seed)
    gen = ProfileGenerator(ont, seed=seed)
    matchmaker = Matchmaker(Reasoner(ont))
    profiles = gen.profiles(10)
    request = gen.request_for(profiles[0], generalize=1)
    full = matchmaker.rank(profiles, request)
    capped = matchmaker.rank(profiles, request, limit=limit)
    assert capped == full[:limit]


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_match_results_are_deterministic(seed):
    ont = _ontology(seed)
    gen = ProfileGenerator(ont, seed=seed)
    matchmaker = Matchmaker(Reasoner(ont))
    profiles = gen.profiles(8)
    request = gen.request_for(profiles[0], generalize=1)
    first = [(r.profile.service_name, r.degree, r.score)
             for r in matchmaker.rank(profiles, request)]
    second = [(r.profile.service_name, r.degree, r.score)
              for r in matchmaker.rank(profiles, request)]
    assert first == second


# -- lease invariants -------------------------------------------------------------------


def _lease_ad(ad_id):
    return Advertisement(ad_id=ad_id, service_node="n", service_name="s",
                         endpoint="e", model_id="uri", description=UriDescription("uri:s", "e"))


@settings(max_examples=30, deadline=None)
@given(
    durations=st.lists(st.floats(min_value=0.1, max_value=100.0),
                       min_size=1, max_size=10),
    advance=st.floats(min_value=0.0, max_value=200.0),
)
def test_lease_manager_never_serves_expired(durations, advance):
    clock = [0.0]
    store = AdvertisementStore()
    for i in range(len(durations)):
        store.put(_lease_ad(f"ad-{i}"))
    manager = LeaseManager(lambda: clock[0], store, default_duration=10.0)
    leases = [manager.grant(f"ad-{i}", duration=d)
              for i, d in enumerate(durations)]
    clock[0] = advance
    expired_ids = set(manager.expired_ads())
    for lease, duration in zip(leases, durations):
        if advance >= duration:
            assert lease.ad_id in expired_ids
            assert manager.lease_for_ad(lease.ad_id) is None
        else:
            assert lease.ad_id not in expired_ids
            assert manager.lease_for_ad(lease.ad_id) == lease


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_lease_renewal_timeline(data):
    """Renewing on time always prevents expiry; stopping always expires."""
    duration = data.draw(st.floats(min_value=1.0, max_value=10.0))
    renewals = data.draw(st.integers(min_value=0, max_value=10))
    clock = [0.0]
    store = AdvertisementStore()
    store.put(_lease_ad("ad-1"))
    manager = LeaseManager(lambda: clock[0], store, default_duration=duration)
    lease = manager.grant("ad-1")
    for _ in range(renewals):
        clock[0] += duration * 0.5
        manager.renew("ad-1", lease.lease_id)
        assert manager.expired_ads() == []
    clock[0] += duration * 1.01
    assert manager.expired_ads() == ["ad-1"]


# -- merge invariants --------------------------------------------------------------------


def _hits(names_and_ranks):
    return [
        QueryHit(
            Advertisement(ad_id=name, service_node=name, service_name=name,
                          endpoint="e", model_id="uri", description=UriDescription("d", "e")),
            degree, score,
        )
        for name, degree, score in names_and_ranks
    ]


hit_lists = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["ad-a", "ad-b", "ad-c", "ad-d"]),
            st.integers(min_value=0, max_value=3),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        max_size=5,
    ),
    max_size=4,
)


@settings(max_examples=50, deadline=None)
@given(batches=hit_lists)
def test_merge_no_duplicates_and_sorted(batches):
    merged = QueryEvaluator.merge([_hits(batch) for batch in batches])
    ids = [h.advertisement.ad_id for h in merged]
    assert len(ids) == len(set(ids))
    keys = [h.sort_key() for h in merged]
    assert keys == sorted(keys)


@settings(max_examples=50, deadline=None)
@given(batches=hit_lists, cap=st.integers(min_value=1, max_value=3))
def test_merge_cap_is_prefix(batches, cap):
    full = QueryEvaluator.merge([_hits(b) for b in batches])
    capped = QueryEvaluator.merge([_hits(b) for b in batches], max_results=cap)
    assert [h.advertisement.ad_id for h in capped] == \
        [h.advertisement.ad_id for h in full[:cap]]


# -- simulator invariants ------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=1, max_size=30),
)
def test_simulator_fires_in_nondecreasing_time_order(delays):
    sim = Simulator(seed=0)
    fire_times = []
    for delay in delays:
        sim.schedule(delay, lambda: fire_times.append(sim.now))
    sim.run()
    assert fire_times == sorted(fire_times)
    assert len(fire_times) == len(delays)


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_byte_accounting_conservation(seed):
    """sent messages == delivered + dropped, for random traffic patterns."""
    import random

    from repro.netsim.network import Network
    from repro.netsim.node import Node

    rng = random.Random(seed)
    sim = Simulator(seed=seed)
    net = Network(sim, loss_rate=rng.choice([0.0, 0.3]))
    net.add_lan("lan-a")
    net.add_lan("lan-b")
    nodes = []
    for i in range(6):
        node = net.add_node(Node(f"n{i}"), rng.choice(["lan-a", "lan-b"]))
        nodes.append(node)
    # Random crashes and unicasts.
    for _ in range(40):
        src, dst = rng.choice(nodes), rng.choice(nodes)
        if src is dst or not src.alive:
            continue
        src.send(dst.node_id, "m", payload="x" * rng.randrange(100))
        if rng.random() < 0.1:
            rng.choice(nodes).crash()
    sim.run(until=10.0)
    stats = net.stats
    # Multicast would complicate the count (one send, many deliveries);
    # this pattern is unicast-only, so conservation must hold exactly.
    assert stats.messages_sent == stats.messages_delivered + stats.messages_dropped
