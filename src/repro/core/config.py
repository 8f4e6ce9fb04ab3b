"""Deployment configuration.

The paper insists the knobs "could even be made configurable on an
individual deployment basis. Other configurable parameters could be the
interval between registry beacons, the number of registry nodes to
traverse for a query, and the advertisement lease period." Every such knob
lives here, with defaults chosen so a LAN-scale scenario behaves sensibly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.core.admission import AdmissionPolicy
from repro.core.durability import DurabilityConfig
from repro.core.retry import RetryPolicy
from repro.core.routing import RoutingConfig
from repro.core.sharding import ShardingConfig
from repro.obs.health import HealthConfig

#: Query forwarding strategies (§4.9: "increasing the reach of a query
#: gradually in several rounds, random walks, or broadcasting in the
#: registry network").
STRATEGY_FLOODING = "flooding"
STRATEGY_EXPANDING_RING = "expanding-ring"
STRATEGY_RANDOM_WALK = "random-walk"
#: Summary-informed routing: registries gossip content summaries ("send
#: out summary information about the advertisements present in a
#: registry") and queries go directly to the registries whose summaries
#: match.
STRATEGY_INFORMED = "informed"

_STRATEGIES = frozenset({
    STRATEGY_FLOODING, STRATEGY_EXPANDING_RING, STRATEGY_RANDOM_WALK,
    STRATEGY_INFORMED,
})

#: Registry cooperation strategies (§4.9 forwarding vs replication — the
#: "push or pull advertisements between registries" design choice).
COOPERATION_FORWARD_QUERIES = "forward-queries"
COOPERATION_REPLICATE_ADS = "replicate-ads"

_COOPERATION = frozenset({COOPERATION_FORWARD_QUERIES, COOPERATION_REPLICATE_ADS})


@dataclass(frozen=True)
class DiscoveryConfig:
    """All tunables of the discovery architecture.

    Attributes are grouped by the paper's three operation categories.
    """

    # -- registry network maintenance ------------------------------------
    #: Seconds between registry beacon multicasts (passive registry
    #: discovery); ``None`` disables beacons.
    beacon_interval: float | None = 5.0
    #: Seconds between aliveness pings among federated registries.
    ping_interval: float = 5.0
    #: Missed pongs before a neighbor is declared dead.
    ping_failure_threshold: int = 2
    #: Seconds between registry-list gossip rounds among neighbors
    #: (registry signalling); ``None`` disables signalling.
    signalling_interval: float | None = 10.0
    #: Whether same-LAN registries elect a single WAN gateway.
    gateway_election: bool = True
    #: Whether registries fetch missing repository artifacts (ontologies,
    #: schemas) from newly joined neighbors (§4.6).
    artifact_sync: bool = True

    # -- publishing -------------------------------------------------------
    #: Advertisement lease duration granted by registries (seconds).
    lease_duration: float = 60.0
    #: Service nodes renew after ``lease_duration * renew_fraction``.
    renew_fraction: float = 0.4
    #: Seconds between registry purge sweeps of expired leases.
    purge_interval: float = 5.0
    #: Whether leasing is enabled at all. Disabling reproduces the UDDI
    #: shortcoming ("neither UDDI nor ebXML use leasing") inside our own
    #: architecture for the E4 ablation.
    leasing_enabled: bool = True
    #: Cooperation strategy between registries.
    cooperation: str = COOPERATION_FORWARD_QUERIES

    # -- querying ---------------------------------------------------------
    #: Forwarding strategy for WAN queries.
    strategy: str = STRATEGY_FLOODING
    #: Max registry-network hops for a query (the "number of registry
    #: nodes to traverse"). A query's TTL also bounds the other
    #: strategies: an expanding ring runs rounds ``(0, 1, 2, ttl)`` up to
    #: ``ttl``, and a random walk visits ``ttl`` registries.
    default_ttl: int = 4
    #: Seconds a registry waits for forwarded-query responses before
    #: answering upstream.
    aggregation_timeout: float = 1.0
    #: Seconds a client waits for its registry's response before declaring
    #: the query failed (and trying an alternative registry). Must exceed
    #: ``aggregation_timeout * default_ttl`` or slow dead-branch waits get
    #: misread as registry death.
    query_timeout: float = 6.0
    #: Whether clients fall back to decentralized LAN multicast discovery
    #: when no registry is reachable (Fig. 3 right-hand mode).
    fallback_enabled: bool = True
    #: Seconds a client collects decentralized responses before reporting.
    fallback_timeout: float = 0.5

    # -- self-healing -------------------------------------------------------
    #: Seconds between anti-entropy digest rounds among replicating
    #: neighbors; ``None`` disables the periodic rounds (join-time and
    #: promotion-time digest sync are disabled with it). Only effective
    #: under ``COOPERATION_REPLICATE_ADS`` — forwarding registries hold
    #: disjoint stores by design, so there is nothing to reconcile. A
    #: sharded ring needs it: anti-entropy is how its replicas catch up.
    antientropy_interval: float | None = 10.0
    #: Seconds an open breaker waits before allowing a half-open probe.
    breaker_reset_timeout: float = 10.0

    def antientropy_enabled(self) -> bool:
        """Anti-entropy runs only for replicating registries."""
        return (
            self.antientropy_interval is not None
            and self.cooperation == COOPERATION_REPLICATE_ADS
        )

    # -- overload protection ----------------------------------------------
    #: Per-registry admission control: service-time costs per message
    #: class, bounded priority queue, BUSY shedding. The default policy
    #: has every cost at 0.0, so admission control is inert unless a
    #: deployment opts in (behavior-preserving for existing scenarios).
    admission: AdmissionPolicy = AdmissionPolicy()

    # -- routing -----------------------------------------------------------
    #: Adaptive target selection (sibling failover, WAN fan-out ordering,
    #: walk next hops) driven by passive health signals. The default
    #: ``static`` strategy is a pure pass-through: selection defers to the
    #: caller's historical choice and the observation hooks are no-ops, so
    #: existing deployments are bit-identical.
    routing: RoutingConfig = RoutingConfig()

    # -- durability ---------------------------------------------------------
    #: Crash recovery from a per-node WAL + snapshot (see
    #: :mod:`repro.core.durability`). The default has durability off and
    #: is fully inert: no disk is attached, no message grows a header,
    #: and event timing is bit-identical to a memory-only deployment.
    durability: DurabilityConfig = DurabilityConfig()

    # -- sharded federation --------------------------------------------------
    #: Consistent-hash partitioning with quorum writes and replica-set
    #: query routing (see :mod:`repro.core.sharding`); needs
    #: ``replicate-ads``. The default has sharding off: replicate-ads
    #: cooperation keeps its replicate-everywhere flood and traces stay
    #: byte-identical to a pre-sharding deployment.
    sharding: ShardingConfig = ShardingConfig()

    # -- runtime health ------------------------------------------------------
    #: Flight recorders, windowed SLO tracking, and the alarm table
    #: (see :mod:`repro.obs.health`). The default has the layer off and
    #: fully inert: no periodic tick is scheduled, no trace observer is
    #: registered, and every run is byte-identical to a pre-health
    #: deployment.
    health: HealthConfig = HealthConfig()

    # -- recovery / retries ------------------------------------------------
    #: Retransmission of unacked lease renewals. Keeping this shorter than
    #: the renew interval lets a transiently lost RENEW recover without
    #: tripping the registry-death failover heuristic.
    renew_retry: RetryPolicy = RetryPolicy(base=1.0, cap=6.0, max_attempts=3)

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise ReproError(f"unknown strategy {self.strategy!r}; choose from {sorted(_STRATEGIES)}")
        if self.cooperation not in _COOPERATION:
            raise ReproError(
                f"unknown cooperation {self.cooperation!r}; choose from {sorted(_COOPERATION)}"
            )
        if self.sharding.enabled and self.cooperation != COOPERATION_REPLICATE_ADS:
            raise ReproError(
                "sharding.enabled partitions what replicate-ads cooperation "
                f"replicates; it cannot be combined with {self.cooperation!r}"
            )
        if self.sharding.enabled and self.antientropy_interval is None:
            raise ReproError(
                "sharding.enabled repairs replicas through anti-entropy rounds; "
                "it needs an antientropy_interval"
            )
        if not 0.0 < self.renew_fraction < 1.0:
            raise ReproError(f"renew_fraction must be in (0, 1), got {self.renew_fraction}")
        if self.lease_duration <= 0:
            raise ReproError(f"lease_duration must be positive, got {self.lease_duration}")
        if self.default_ttl < 0:
            raise ReproError(f"default_ttl must be >= 0, got {self.default_ttl}")
        if self.antientropy_interval is not None and self.antientropy_interval <= 0:
            raise ReproError(
                f"antientropy_interval must be positive or None, "
                f"got {self.antientropy_interval}"
            )
        if self.breaker_reset_timeout <= 0:
            raise ReproError(
                f"breaker_reset_timeout must be positive, got {self.breaker_reset_timeout}"
            )

    @property
    def renew_interval(self) -> float:
        """Seconds between lease renewals by service nodes."""
        return self.lease_duration * self.renew_fraction


#: Every configuration dataclass: their fields are the settable values.
CONFIG_CLASSES = (DiscoveryConfig, AdmissionPolicy, RoutingConfig, DurabilityConfig,
                  ShardingConfig, HealthConfig, RetryPolicy)
