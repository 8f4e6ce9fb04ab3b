"""A ratchet on the number of settable configuration values.

Every independently settable value doubles the configurations the tests
and benchmarks would have to cover, and an option nobody sets is a
branch nobody runs. The rule: a new option needs two existing callers
(experiments, examples, benchmarks — not tests) that want *different*
values; with one value in use it is a constant. Deleting an option
lowers ``CEILING``; nothing raises it without that justification in the
PR that does.
"""

from __future__ import annotations

import dataclasses

from repro.core.admission import AdmissionPolicy
from repro.core.config import DiscoveryConfig
from repro.core.durability import DurabilityConfig
from repro.core.retry import RetryPolicy
from repro.core.routing import RoutingConfig
from repro.core.sharding import ShardingConfig
from repro.obs.health import HealthConfig

CONFIG_CLASSES = (
    DiscoveryConfig, AdmissionPolicy, RoutingConfig, DurabilityConfig,
    ShardingConfig, HealthConfig, RetryPolicy,
)

CEILING = 57


def test_settable_values_do_not_grow():
    counts = {cls.__name__: len(dataclasses.fields(cls)) for cls in CONFIG_CLASSES}
    total = sum(counts.values())
    assert total <= CEILING, (
        f"{total} settable configuration values (ceiling {CEILING}): {counts}. "
        "A new option needs two existing callers that want different values "
        "(see this file's docstring); otherwise make it a constant."
    )
