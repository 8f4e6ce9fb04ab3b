"""Message envelopes and the byte-size model.

The paper's bandwidth arguments (decentralized flooding is expensive,
semantic advertisements are "quite large, compared to for example URI
strings") only mean something if every message has a concrete size. The
:class:`SizeModel` assigns bytes to envelopes: a constant per-message
overhead standing in for the SOAP/WS-Addressing envelope the paper layers
under its generic discovery protocol, plus the payload's own serialized
size.

A payload is a record that states its own ``size_bytes() -> int``, or
text (the raw payloads of tests and probes that drive ``netsim`` without
the protocol).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

#: Default byte overhead per message: SOAP envelope + WS-Addressing headers.
DEFAULT_ENVELOPE_OVERHEAD = 512

#: XML-element overhead of a text payload, beyond its UTF-8 bytes.
_SCALAR_COST = 16


def estimate_payload_size(payload: Any) -> int:
    """The serialized size of a payload in bytes: 0 for none, a record's
    own ``size_bytes()``, and text's UTF-8 length plus an element's
    overhead. Anything else has no wire size and raises."""
    if payload is None:
        return 0
    if isinstance(payload, str):
        return len(payload.encode("utf-8")) + _SCALAR_COST
    return payload.size_bytes()


@dataclass(frozen=True)
class SizeModel:
    """Byte-size model for messages.

    Parameters
    ----------
    envelope_overhead:
        Constant per-message cost in bytes (transport + messaging headers).
    compression_ratio:
        Multiplier applied to payload bytes, modelling the binary-XML /
        compression "hook" the paper suggests for large semantic payloads.
        ``1.0`` means uncompressed.
    """

    envelope_overhead: int = DEFAULT_ENVELOPE_OVERHEAD
    compression_ratio: float = 1.0

    def message_size(self, payload: Any) -> int:
        """Total wire size of a message carrying ``payload``."""
        payload_bytes = estimate_payload_size(payload) * self.compression_ratio
        return int(self.envelope_overhead + payload_bytes)


_envelope_ids = itertools.count(1)


@dataclass
class Envelope:
    """A single message on the wire.

    Attributes
    ----------
    msg_type:
        Protocol operation name, e.g. ``"publish"``, ``"query"``,
        ``"beacon"``. The set of types is defined by the protocol layer
        (:mod:`repro.core.protocol`), not by the simulator.
    src / dst:
        Node ids. ``dst`` is ``None`` for multicast.
    payload:
        Arbitrary protocol payload; sized by the network's
        :class:`SizeModel` at send time.
    payload_type:
        The paper's "next header" field: names the description model the
        payload belongs to (e.g. ``"uri"``, ``"semantic"``) so nodes can
        dispatch — or silently discard messages they cannot understand.
    headers:
        Free-form protocol headers (query ids, TTLs, lease ids, ...).
    size_bytes:
        Filled in by the transport at send time.
    hops:
        Incremented each time the envelope is forwarded between nodes.
    """

    msg_type: str
    src: str
    dst: str | None
    payload: Any = None
    payload_type: str | None = None
    headers: dict[str, Any] = field(default_factory=dict)
    size_bytes: int = 0
    hops: int = 0
    envelope_id: int = field(default_factory=lambda: next(_envelope_ids))
    sent_at: float = 0.0

    def forwarded(self, new_src: str, new_dst: str | None) -> "Envelope":
        """A copy of this envelope as re-sent by ``new_src``.

        Headers are shallow-copied so a forwarder may decrement a TTL
        without mutating the original.
        """
        return Envelope(
            msg_type=self.msg_type,
            src=new_src,
            dst=new_dst,
            payload=self.payload,
            payload_type=self.payload_type,
            headers=dict(self.headers),
            hops=self.hops + 1,
        )

    def copy_for(self, dst: str) -> "Envelope":
        """A per-receiver delivery copy of this envelope.

        Multicast delivers one copy per receiver so a handler mutating
        envelope metadata (headers, hops) cannot contaminate sibling
        deliveries. The payload object is shared — protocol payloads are
        frozen dataclasses — but headers are copied.
        """
        return Envelope(
            msg_type=self.msg_type,
            src=self.src,
            dst=dst,
            payload=self.payload,
            payload_type=self.payload_type,
            headers=dict(self.headers),
            size_bytes=self.size_bytes,
            hops=self.hops,
            sent_at=self.sent_at,
        )

    def header(self, name: str, default: Any = None) -> Any:
        """Convenience accessor for :attr:`headers`."""
        return self.headers.get(name, default)
