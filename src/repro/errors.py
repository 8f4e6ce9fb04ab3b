"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause
while still being able to discriminate on the concrete subtype.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SimulationError(ReproError):
    """Raised for invalid simulator operations (e.g. scheduling in the past)."""


class NetworkError(ReproError):
    """Raised for invalid network configuration or addressing errors."""


class UnknownNodeError(NetworkError):
    """Raised when a message is addressed to a node id the network has never seen."""


class OntologyError(ReproError):
    """Raised for inconsistent or malformed ontology definitions."""


class UnknownClassError(OntologyError):
    """Raised when a concept URI is not defined in the ontology."""


class CycleError(OntologyError):
    """Raised when subclass axioms would introduce a cycle in the class graph."""


class DescriptionError(ReproError):
    """Raised for malformed service descriptions or queries."""


class UnsupportedModelError(DescriptionError):
    """Raised when a payload's description model is not registered with a node."""


class RegistryError(ReproError):
    """Raised for invalid registry operations."""


class LeaseError(RegistryError):
    """Raised for invalid lease operations (e.g. renewing an unknown lease)."""


class AdvertisementNotFoundError(RegistryError):
    """Raised when referencing an advertisement UUID the registry does not hold."""


class ProtocolError(ReproError):
    """Raised where a protocol record is built with a field of the wrong kind."""


class WorkloadError(ReproError):
    """Raised for invalid workload/scenario parameters."""


class ExperimentError(ReproError):
    """Raised when an experiment is configured inconsistently."""


class InvariantError(ReproError):
    """Raised when a post-scenario invariant sweep finds bookkeeping rot."""
