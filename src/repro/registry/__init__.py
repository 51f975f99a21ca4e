"""The ebXML registry server: life-cycle + query services over the substrates.

Mirrors the freebXML registry server layer of thesis Figure 2.1: the
LifeCycleManager and QueryManager service interfaces, the integrated
repository with validation/cataloging, federation support, and the assembled
:class:`RegistryServer` facade.
"""

from repro.registry.federation import (
    FederatedRow,
    RegistryFederation,
    ReplicationLink,
    ShardMap,
    ShardRouter,
)
from repro.registry.kernel import (
    EdgeProfile,
    OperationSpec,
    RegistryKernel,
    RequestContext,
)
from repro.registry.lifecycle import LifeCycleManager
from repro.registry.querymgr import AdhocQueryResponse, QueryManager
from repro.registry.repository import (
    RepositoryItem,
    RepositoryManager,
    WsdlCataloger,
    WsdlValidator,
)
from repro.registry.server import RegistryConfig, RegistryServer
from repro.registry.taxonomy import CANONICAL_SCHEMES, TaxonomyNodeView, TaxonomyService
from repro.registry.versioning import VersionHistory, VersionRecord

__all__ = [
    "FederatedRow",
    "RegistryFederation",
    "ReplicationLink",
    "ShardMap",
    "ShardRouter",
    "EdgeProfile",
    "OperationSpec",
    "RegistryKernel",
    "RequestContext",
    "LifeCycleManager",
    "AdhocQueryResponse",
    "QueryManager",
    "RepositoryItem",
    "RepositoryManager",
    "WsdlCataloger",
    "WsdlValidator",
    "RegistryConfig",
    "RegistryServer",
    "CANONICAL_SCHEMES",
    "TaxonomyNodeView",
    "TaxonomyService",
    "VersionHistory",
    "VersionRecord",
]
