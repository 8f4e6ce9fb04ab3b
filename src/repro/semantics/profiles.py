"""OWL-S-profile-like service descriptions and requests.

A :class:`ServiceProfile` describes what a service *provides*: a service
category concept, the input concepts it consumes, the output concepts it
produces, and numeric QoS attributes. A :class:`ServiceRequest` is the
"partial template" the paper describes clients submitting: desired
category/outputs, the inputs the client can supply, and QoS constraints.

Both carry a byte-size model reflecting their XML serializations — the
paper stresses that "semantic service advertisements can become quite
large, compared to for example URI strings", and experiment E10 measures
exactly that.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import DescriptionError

#: Base size of an OWL-S profile document: namespaces, profile skeleton,
#: grounding stub. Calibrated against typical OWL-S 1.1 sample profiles.
_PROFILE_BASE_BYTES = 2048

#: Per-parameter (input/output) serialization cost.
_PARAMETER_BYTES = 128

#: Per-QoS-attribute serialization cost.
_QOS_BYTES = 96

#: Base size of a request template (no grounding section).
_REQUEST_BASE_BYTES = 1024

#: QoS attribute-name tuple -> its one shared instance. Profiles draw their
#: QoS attributes from a small vocabulary, so every profile with the same
#: attribute set holds the same names tuple. Process-wide like
#: ``sys.intern``'s table: it decides which equal tuple is held, never a
#: result.
_QOS_NAMES: dict[tuple[str, ...], tuple[str, ...]] = {}


def _utf8_len(text: str) -> int:
    """The UTF-8 length of ``text``, with no encoded copy of ASCII text."""
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _shared_names(names: tuple[str, ...]) -> tuple[str, ...]:
    """The shared instance of one sorted QoS attribute-name tuple."""
    shared = _QOS_NAMES.get(names)
    if shared is None:
        shared = _QOS_NAMES[names] = tuple(map(sys.intern, names))
    return shared


@dataclass(frozen=True, slots=True)
class QoSConstraint:
    """A numeric constraint on one QoS attribute.

    ``minimum``/``maximum`` are inclusive bounds; either may be ``None``.
    """

    attribute: str
    minimum: float | None = None
    maximum: float | None = None

    def satisfied_by(self, value: float | None) -> bool:
        """Whether ``value`` (``None`` = attribute absent) meets the bounds."""
        if value is None or math.isnan(value):
            return False
        if self.minimum is not None and value < self.minimum:
            return False
        if self.maximum is not None and value > self.maximum:
            return False
        return True


@dataclass(frozen=True, slots=True)
class ServiceProfile:
    """A semantic advertisement of one service's capability.

    Attributes
    ----------
    service_name:
        Human-readable name (also usable by keyword matchers).
    category:
        Ontology concept classifying the service (e.g. ``"ont:RadarService"``).
    inputs / outputs:
        Ontology concepts the service consumes / produces.
    qos_names / qos_values:
        Numeric quality-of-service attributes (latency, coverage radius,
        confidence, ...): the sorted attribute names, one tuple shared by
        every profile with the same attribute set, and their values in the
        same order. :attr:`qos` is the ``(name, value)`` view.
    provider:
        Identifier of the providing organization/node.
    text:
        Free-text description (used by keyword matchers only).
    """

    service_name: str
    category: str
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    qos_names: tuple[str, ...] = ()
    qos_values: tuple[float, ...] = ()
    provider: str = ""
    text: str = ""

    def __post_init__(self) -> None:
        if not self.service_name:
            raise DescriptionError("service_name must be non-empty")
        if not self.category:
            raise DescriptionError("category must be non-empty")
        if len(self.qos_names) != len(self.qos_values):
            raise DescriptionError("qos_names and qos_values differ in length")

    def __reduce__(self) -> tuple:
        # Unpickling (WAL replay, snapshots) goes through _compact, so a
        # recovered profile shares its strings and QoS names like a built one.
        return (_compact, (self.service_name, self.category, self.inputs, self.outputs,
                           self.qos_names, self.qos_values, self.provider, self.text))

    @property
    def qos(self) -> tuple[tuple[str, float], ...]:
        """The QoS attributes as sorted ``(name, value)`` pairs (a view)."""
        return tuple(zip(self.qos_names, self.qos_values))

    @staticmethod
    def build(
        service_name: str,
        category: str,
        *,
        inputs: tuple[str, ...] | list[str] = (),
        outputs: tuple[str, ...] | list[str] = (),
        qos: dict[str, float] | None = None,
        provider: str = "",
        text: str = "",
    ) -> "ServiceProfile":
        """Ergonomic constructor accepting lists and dicts.

        Concept URIs and the provider are ``sys.intern``-ed: stores hold
        many profiles drawn from a small concept vocabulary and a few
        providers, so interning collapses the duplicated strings and makes
        the matchmaker's per-pair cache keys hash/compare on
        pointer-identical objects. The QoS attribute names are one shared
        tuple per attribute set.
        """
        pairs = sorted((qos or {}).items())
        return _compact(
            service_name, category, inputs, outputs,
            tuple(name for name, _value in pairs), tuple(value for _name, value in pairs),
            provider, text,
        )

    def qos_value(self, attribute: str) -> float | None:
        """The value of one QoS attribute, or ``None`` if absent."""
        names = self.qos_names
        return self.qos_values[names.index(attribute)] if attribute in names else None

    def qos_dict(self) -> dict[str, float]:
        """QoS attributes as a plain dict."""
        return dict(zip(self.qos_names, self.qos_values))

    def concepts(self) -> frozenset[str]:
        """Every ontology concept this profile references."""
        return frozenset({self.category, *self.inputs, *self.outputs})

    def size_bytes(self) -> int:
        """Modelled size of the OWL-S/XML serialization, computed on each
        call: a stored size would cost every profile a registry holds."""
        concepts = (*self.inputs, *self.outputs)
        return (
            _PROFILE_BASE_BYTES
            + len(concepts) * _PARAMETER_BYTES
            + len(self.qos_names) * _QOS_BYTES
            + _utf8_len("".join((self.service_name, self.category, *concepts, self.text)))
        )


def _compact(service_name: str, category: str, inputs: Iterable[str], outputs: Iterable[str],
             qos_names: tuple[str, ...], qos_values: tuple[float, ...], provider: str,
             text: str) -> ServiceProfile:
    """A :class:`ServiceProfile` with its concept URIs and provider interned
    and its QoS names shared: what :meth:`ServiceProfile.build` and
    unpickling make."""
    return ServiceProfile(
        service_name, sys.intern(category), tuple(map(sys.intern, inputs)),
        tuple(map(sys.intern, outputs)), _shared_names(qos_names), qos_values,
        sys.intern(provider), text,
    )


@dataclass(frozen=True, slots=True)
class ServiceRequest:
    """A client's partial template: what it needs and what it can provide.

    Attributes
    ----------
    category:
        Desired service category concept (or ``None`` for any).
    desired_outputs:
        Concepts the client needs produced. A matching service must cover
        every one of them.
    provided_inputs:
        Concepts the client can supply. A matching service must not
        require anything outside this set (up to subsumption).
    qos_constraints:
        Hard numeric constraints; services violating any are rejected.
    keywords:
        Free-text terms (used only by the keyword baseline matcher).
    max_results:
        Query response control (§3): the registry returns at most this
        many, best first. ``None`` disables the cap — the configuration
        under which the paper's "response implosion" occurs.
    """

    category: str | None = None
    desired_outputs: tuple[str, ...] = ()
    provided_inputs: tuple[str, ...] = ()
    qos_constraints: tuple[QoSConstraint, ...] = ()
    keywords: tuple[str, ...] = ()
    max_results: int | None = None
    #: :meth:`size_bytes`, once asked; not part of the value. A request is
    #: never written to the WAL, so this never reaches a pickle.
    _size: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.category is None and not self.desired_outputs and not self.keywords:
            raise DescriptionError(
                "request must constrain at least one of: category, outputs, keywords"
            )
        if self.max_results is not None and self.max_results < 1:
            raise DescriptionError(f"max_results must be >= 1, got {self.max_results}")

    @staticmethod
    def build(
        category: str | None = None,
        *,
        outputs: tuple[str, ...] | list[str] = (),
        inputs: tuple[str, ...] | list[str] = (),
        qos: dict[str, tuple[float | None, float | None]] | None = None,
        keywords: tuple[str, ...] | list[str] = (),
        max_results: int | None = None,
    ) -> "ServiceRequest":
        """Ergonomic constructor; ``qos`` maps attribute -> (min, max)."""
        constraints = tuple(
            QoSConstraint(attribute=name, minimum=low, maximum=high)
            for name, (low, high) in sorted((qos or {}).items())
        )
        return ServiceRequest(
            category=sys.intern(category) if category is not None else None,
            desired_outputs=tuple(sys.intern(c) for c in outputs),
            provided_inputs=tuple(sys.intern(c) for c in inputs),
            qos_constraints=constraints,
            keywords=tuple(keywords),
            max_results=max_results,
        )

    def size_bytes(self) -> int:
        """Modelled size of the serialized query template, kept after the
        first call: every hop of a discover carries the same request."""
        size = self._size
        if size is None:
            concepts = (*self.desired_outputs, *self.provided_inputs)
            size = (
                _REQUEST_BASE_BYTES
                + len(concepts) * _PARAMETER_BYTES
                + len(self.qos_constraints) * _QOS_BYTES
                + _utf8_len("".join((self.category or "", *concepts, *self.keywords)))
            )
            object.__setattr__(self, "_size", size)
        return size
