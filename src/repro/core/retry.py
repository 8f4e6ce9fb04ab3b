"""Shared retry policy: capped exponential backoff with deterministic jitter.

Survey work on discovery in unreliable networks singles out *retry* as one
of the recovery behaviours that separates robust architectures from
fragile ones. Every protocol path that re-sends after silence (client
queries, service publishes and renewals) shares this one policy object:
they differ in first delay, cap and attempt budget, and all double per
retry with the same ±10 % spread.

Jitter is **deterministic**: it is derived by hashing ``(seed, key,
attempt)`` rather than drawing from the simulator RNG, so adding or
removing a retry never perturbs the RNG stream consumed by loss sampling
and workload generation — a fixed seed still fully determines a run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.errors import ReproError

#: Multiplier applied per additional retry.
FACTOR = 2.0
#: Fractional spread: a delay is scaled into ``[1 - JITTER, 1 + JITTER]``
#: by the deterministic hash.
JITTER = 0.1


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff.

    Attributes
    ----------
    base:
        Delay before the first retry (seconds); each further retry
        waits :data:`FACTOR` times longer.
    cap:
        Upper bound on the un-jittered delay.
    max_attempts:
        Total attempts allowed (the first try counts as attempt 1).
    """

    base: float = 0.5
    cap: float = 8.0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ReproError(f"retry base must be positive, got {self.base}")
        if self.cap < self.base:
            raise ReproError(f"retry cap {self.cap} must be >= base {self.base}")
        if self.max_attempts < 1:
            raise ReproError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def delay(
        self,
        attempt: int,
        *,
        seed: int = 0,
        key: str = "",
        retry_after: float | None = None,
        budget: float | None = None,
    ) -> float:
        """Backoff before retry number ``attempt`` (1-based).

        ``seed`` and ``key`` select the jitter deterministically — the same
        (seed, key, attempt) triple always yields the same delay, and
        distinct keys (e.g. per call or per node) de-synchronize retries
        so a crashed registry is not hammered by a thundering herd.

        ``retry_after`` is an optional server hint (a BUSY rejection's
        back-off): it replaces the computed exponential delay for this
        attempt — not subject to ``cap``, because the server knows its own
        backlog — while jitter and the attempt budget stay in force.

        ``budget`` is the caller's remaining deadline: the returned delay
        (hint or computed, after jitter) never exceeds it, so a generous
        server hint cannot schedule a retry past the point where the
        attempt would die by timeout anyway. Callers should check the
        hint against the budget *before* delaying and fail over when it
        cannot fit; the clamp here is the last line of defence.
        """
        if attempt < 1:
            raise ReproError(f"retry attempt must be >= 1, got {attempt}")
        if budget is not None and budget < 0:
            raise ReproError(f"retry budget must be >= 0, got {budget}")
        if retry_after is not None:
            if retry_after < 0:
                raise ReproError(f"retry_after hint must be >= 0, got {retry_after}")
            raw = retry_after
            if budget is not None:
                raw = min(raw, budget)
        else:
            raw = min(self.cap, self.base * FACTOR ** (attempt - 1))
        unit = zlib.crc32(f"{seed}:{key}:{attempt}".encode("utf-8")) / 0xFFFFFFFF
        raw *= 1.0 - JITTER + 2.0 * JITTER * unit
        if budget is not None:
            raw = min(raw, budget)
        return raw
