"""Registry internals: advertisement storage, leases, and query evaluation.

These are the pieces inside every registry node:

* :class:`~repro.registry.advertisements.Advertisement` — a stored
  description with a UUID, endpoint, model id, and lease linkage. The
  UUID convention follows the paper: "a unique identification convention
  … would be needed in order to reference published advertisements when
  updating information, renewing leases, and removing advertisements."
* :class:`~repro.registry.store.AdvertisementStore` — the registry's
  content, indexed by UUID, owning service node, and description model.
* :class:`~repro.registry.index.SemanticConceptIndex` — the inverted
  ancestor-closure concept index that prunes semantic queries to their
  plugin/subsumes-compatible candidates before any scoring.
* :class:`~repro.registry.leases.LeaseManager` — the aliveness mechanism
  (§4.8): advertisements expire unless their service node renews.
* :class:`~repro.registry.matching.QueryEvaluator` — dispatches queries
  to the right description model and applies query response control.
* :class:`~repro.registry.rim.RegistryInfoModel` — what the registry
  knows about itself and exposes to peers (supported models,
  statistics).
"""

from repro.registry.advertisements import Advertisement, new_uuid
from repro.registry.index import ConceptIndexer, SemanticConceptIndex
from repro.registry.leases import Lease, LeaseManager
from repro.registry.matching import QueryEvaluator, QueryHit
from repro.registry.rim import RegistryInfoModel
from repro.registry.store import AdvertisementStore

__all__ = [
    "Advertisement",
    "AdvertisementStore",
    "ConceptIndexer",
    "Lease",
    "LeaseManager",
    "QueryEvaluator",
    "QueryHit",
    "RegistryInfoModel",
    "SemanticConceptIndex",
    "new_uuid",
]
