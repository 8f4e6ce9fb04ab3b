"""Pluggable service-description models.

The paper's central layering claim: "The infrastructure should support
different kinds of service description mechanisms, ranging from simple
(name, id, URI specifying a pre-agreed service type), to rich (e.g.
semantic descriptions)" — carried over one generic distribution stack via
a "next header"-style ``payload_type`` field.

Each :class:`~repro.descriptions.base.DescriptionModel` plug-in defines:

* how a service capability (a :class:`~repro.semantics.ServiceProfile`)
  is *described* in that model,
* how a need (a :class:`~repro.semantics.ServiceRequest`) becomes a
  *query* in that model, and
* how a registry *evaluates* a query against stored descriptions.

Three models ship, mirroring the technology landscape the paper surveys:

* :class:`~repro.descriptions.uri.UriModel` — WS-Discovery-style opaque
  type URIs; exact string match; tiny advertisements.
* :class:`~repro.descriptions.template.TemplateModel` — UDDI/WSDL-style
  names + keyword templates; token containment match.
* :class:`~repro.descriptions.semantic.SemanticModel` — OWL-S-style
  profiles evaluated by the degree-of-match matchmaker; requires the
  shared ontology (which the registry network can ship, §4.6).
"""

from repro.descriptions.base import DescriptionModel, ModelMatch, ModelRegistry
from repro.descriptions.uri import UriDescription, UriModel, UriQuery
from repro.descriptions.template import TemplateDescription, TemplateModel, TemplateQuery
from repro.descriptions.semantic import SemanticModel
from repro.semantics.profiles import ServiceProfile, ServiceRequest

#: Any model's declared description record, and any model's query record:
#: the types of the protocol's description and query slots.
Description = ServiceProfile | TemplateDescription | UriDescription
Query = ServiceRequest | TemplateQuery | UriQuery

__all__ = [
    "Description",
    "DescriptionModel",
    "ModelMatch",
    "ModelRegistry",
    "Query",
    "SemanticModel",
    "TemplateDescription",
    "TemplateModel",
    "TemplateQuery",
    "UriDescription",
    "UriModel",
    "UriQuery",
]
