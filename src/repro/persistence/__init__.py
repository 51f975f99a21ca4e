"""Persistence substrate: in-memory datastore, DAO layer, NodeState.

Replaces freebXML's Apache-Derby-backed ``SQLPersistenceManagerImpl`` with an
in-memory equivalent that preserves the behaviours the registry relies on:
per-request transactions, primary-key uniqueness, per-class DAO access, and
the load-balancing scheme's ``NodeState`` table.
"""

from repro.persistence.changelog import ChangeLog, ChangeRecord
from repro.persistence.datastore import DataStore
from repro.persistence.views import (
    ChangelogView,
    ObjectView,
    QueryResultView,
)
from repro.persistence.dao import (
    BindingResolver,
    DAORegistry,
    DefaultBindingResolver,
    GenericDAO,
    ServiceBindingDAO,
    ServiceDAO,
)
from repro.persistence.nodestate import NODESTATE_TABLE, NodeSample, NodeStateStore

__all__ = [
    "ChangeLog",
    "ChangeRecord",
    "ChangelogView",
    "DataStore",
    "ObjectView",
    "QueryResultView",
    "BindingResolver",
    "DAORegistry",
    "DefaultBindingResolver",
    "GenericDAO",
    "ServiceBindingDAO",
    "ServiceDAO",
    "NODESTATE_TABLE",
    "NodeSample",
    "NodeStateStore",
]
