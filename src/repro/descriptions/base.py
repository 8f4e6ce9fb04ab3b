"""Description-model plug-in interface and dispatch registry.

A registry node holds one :class:`ModelRegistry`; incoming payloads are
dispatched on their ``payload_type`` ("next header"). A payload of a model
the node does not support, or not that model's own record, is "quickly
filtered and silently discarded" at one gate, which counts it for E10.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from repro.errors import UnsupportedModelError
from repro.semantics.ontology import THING, Ontology
from repro.semantics.profiles import ServiceProfile, ServiceRequest


class ModelMatch(NamedTuple):
    """A model-agnostic match verdict.

    ``degree`` orders match strength within a model (semantic models map
    their degree-of-match here; boolean models use 1/0). ``score`` in
    [0, 1] breaks ties. Registries rank hits by ``(degree, score)``.
    """

    matched: bool
    degree: int = 0
    score: float = 0.0

    @staticmethod
    def no_match() -> "ModelMatch":
        return NO_MATCH


#: The one no-match verdict (instances are immutable, so it is shared).
NO_MATCH = ModelMatch(matched=False)


class DescriptionModel(abc.ABC):
    """One way of describing and querying for services.

    Subclasses declare the two records that flow inside envelopes with
    ``payload_type == model_id`` (both expose ``size_bytes()``); a node's
    :class:`ModelRegistry` admits no other, so each method gets its own.
    """

    #: Unique "next header" value for this model.
    model_id: str = ""
    #: The record a description in this model is, and the one a query is.
    description_record: type
    query_record: type
    #: Other models' records offered under this id: refused by the gate,
    #: once per message, and then treated as an unsupported model's payload.
    malformed_payloads: int = 0

    @abc.abstractmethod
    def describe(self, profile: ServiceProfile, endpoint: str) -> Any:
        """Render a capability as this model's advertisement payload."""

    @abc.abstractmethod
    def query_from(self, request: ServiceRequest) -> Any:
        """Render a need as this model's query payload."""

    @abc.abstractmethod
    def evaluate(self, description: Any, query: Any) -> ModelMatch:
        """Match one stored description against one query payload."""

    def prefilter(self, description: Any, query: Any) -> bool:
        """Cheap reject before :meth:`evaluate` is paid for.

        Must only return ``False`` when :meth:`evaluate` is guaranteed to
        report no match (e.g. a hard QoS constraint the description cannot
        satisfy), so skipping the rejected description never changes the
        query's hit list. The default accepts everything.
        """
        return True

    def prefilter_for(self, query: Any) -> Callable[[Any, Any], bool] | None:
        """Asked once per query: :meth:`prefilter`, or ``None`` when it can
        reject no candidate of ``query`` and the call per candidate is skipped."""
        return self.prefilter

    def can_evaluate(self) -> bool:
        """Whether this node currently has what it needs to evaluate
        queries (e.g. the shared ontology for semantic models)."""
        return True

    def make_index(self) -> Any | None:
        """A fresh :class:`~repro.registry.index.ConceptIndexer` for this
        model's advertisements, or ``None`` when the model's queries can
        only be answered by a linear scan (the default)."""
        return None

    # -- content summaries (summary-informed routing) ----------------------

    def summary_terms(self, description: Any) -> Iterable[str]:
        """The index terms one stored description adds to its registry's
        content summary; none by default."""
        return ()

    def query_terms(self, query: Any) -> Iterable[str]:
        """The index terms a query can meet in a content summary."""
        return ()

    def too_general(self, term: str) -> bool:
        """Whether ``term`` would match almost any query and so stays out
        of every summary, whichever model indexed it."""
        return False

    def accept_artifact(self, artifact: Ontology) -> bool:
        """Offered a repository artifact (§4.6); True when put to use."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} id={self.model_id!r}>"


class ModelRegistry:
    """The set of description models one node supports, keyed by model id."""

    def __init__(self, models: list[DescriptionModel] | None = None) -> None:
        self._models: dict[str, DescriptionModel] = {}
        self.discarded_payloads = 0
        for model in models or []:
            self.register(model)

    def register(self, model: DescriptionModel) -> DescriptionModel:
        """Add a model. Re-registering the same id replaces the plug-in —
        the paper's "software libraries for distribution would only need
        new plug-ins … keeping the same stack underneath"."""
        if not model.model_id:
            raise UnsupportedModelError("description model has empty model_id")
        self._models[model.model_id] = model
        return model

    def get(self, model_id: str | None) -> DescriptionModel:
        """The model for ``model_id``; raises if unsupported."""
        if model_id is None or model_id not in self._models:
            raise UnsupportedModelError(f"unsupported description model {model_id!r}")
        return self._models[model_id]

    def for_description(self, model_id: str | None,
                        description: Any) -> DescriptionModel | None:
        """The gate a description passes where it enters a node: the model
        of ``model_id`` when ``description`` is that model's own record.
        Otherwise ``None``, counted once: in ``discarded_payloads`` for a
        model this node does not support, in the model's
        ``malformed_payloads`` for another model's record."""
        return self._admit(model_id, description, "description_record")

    def for_query(self, model_id: str | None, query: Any) -> DescriptionModel | None:
        """The same gate for a query (see :meth:`for_description`)."""
        return self._admit(model_id, query, "query_record")

    def _admit(self, model_id: str | None, record: Any, declared: str, *,
               counted: bool = True) -> DescriptionModel | None:
        model = self._models.get(model_id or "")
        if model is not None and isinstance(record, getattr(model, declared)):
            return model
        if counted:
            if model is None:
                self.discarded_payloads += 1
            else:
                model.malformed_payloads += 1
        return None

    def __contains__(self, model_id: object) -> bool:
        return model_id in self._models

    def model_ids(self) -> list[str]:
        """Supported model ids, sorted."""
        return sorted(self._models)

    def __iter__(self) -> Iterator[DescriptionModel]:
        return iter(self._models.values())

    def summary_terms(self, advertisements: Iterable[Any]) -> tuple[str, ...]:
        """The content summary of ``advertisements``: what each one's own
        model indexes, minus the terms any model finds too general."""
        terms: set[str] = set()
        for ad in advertisements:
            model = self._models.get(ad.model_id)
            if model is not None:
                terms.update(model.summary_terms(ad.description))
        terms.discard(THING)
        return tuple(sorted(
            t for t in terms if not any(m.too_general(t) for m in self)
        ))

    def query_terms(self, model_id: str | None, query: Any) -> frozenset[str]:
        """The index terms ``query`` can meet in a content summary; none
        for a query the gate refuses (counted where it was evaluated)."""
        model = self._admit(model_id, query, "query_record", counted=False)
        return frozenset(model.query_terms(query)) if model is not None else frozenset()
