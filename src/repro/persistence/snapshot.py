"""Registry state snapshots: save/load a whole registry to/from JSON.

freebXML persisted across restarts through Derby; this module gives the
in-memory reproduction the same durability: every registry object (via the
SOAP serializer), the NodeState monitoring table, repository items, and the
authentication records round-trip through one JSON document, so CLI
invocations and long-running studies can span processes.
"""

from __future__ import annotations

import base64
import json
from typing import TYPE_CHECKING, Any

from repro.persistence.nodestate import NodeSample
from repro.soap.serializer import deserialize, serialize

if TYPE_CHECKING:  # pragma: no cover
    from repro.registry.server import RegistryServer

FORMAT_VERSION = 1


def dump_registry(registry: "RegistryServer") -> dict[str, Any]:
    """Capture a registry's durable state as a JSON-safe dict."""
    objects = []
    for type_name in registry.store.type_names():
        objects.extend(
            serialize(obj) for obj in registry.store.objects_of_type(type_name)
        )
    node_rows = [
        {
            "host": s.host,
            "load": s.load,
            "memory": s.memory,
            "swapMemory": s.swap_memory,
            "updated": s.updated,
        }
        for s in registry.node_state.all_samples()
    ]
    repository_items = [
        {
            "objectId": object_id,
            "content": base64.b64encode(item.content).decode("ascii"),
            "mimeType": item.mime_type,
        }
        for object_id, item in sorted(registry.repository._items.items())
    ]
    authority = registry.authority
    return {
        "format": FORMAT_VERSION,
        "home": registry.home,
        "objects": objects,
        "nodeState": node_rows,
        "repositoryItems": repository_items,
        "fingerprints": dict(registry.authenticator._fingerprints),
        "eventSequence": registry.lcm._event_sequence,
        "authority": {
            "name": authority.name,
            "publicKey": authority.keypair.public_key,
            "privateKey": authority.keypair.private_key,
        },
    }


def load_registry(registry: "RegistryServer", state: dict[str, Any]) -> int:
    """Restore durable state into a *fresh* registry; returns objects loaded.

    The target registry must be empty (load-into-live would need merge
    semantics the format does not define).  The objects go in as one store
    transaction: one published generation, and an object that does not
    read back leaves the store empty.
    """
    if state.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported snapshot format: {state.get('format')!r}")
    store = registry.store
    if store.count() != 0:
        raise ValueError("load_registry requires an empty registry")
    with store.transaction():
        for data in state["objects"]:
            store.insert_object(deserialize(data))
    count = len(state["objects"])
    registry.node_state.record_sweep(
        NodeSample(
            host=row["host"],
            load=row["load"],
            memory=row["memory"],
            swap_memory=row["swapMemory"],
            updated=row["updated"],
        )
        for row in state["nodeState"]
    )
    for item in state["repositoryItems"]:
        from repro.registry.repository import RepositoryItem

        registry.repository._items[item["objectId"]] = RepositoryItem(
            object_id=item["objectId"],
            content=base64.b64decode(item["content"]),
            mime_type=item["mimeType"],
        )
    registry.authenticator._fingerprints.update(state["fingerprints"])
    registry.lcm._event_sequence = state.get("eventSequence", 0)
    authority_state = state.get("authority")
    if authority_state:
        from repro.security.certs import KeyPair

        authority = registry.authority
        authority.name = authority_state["name"]
        authority.keypair = KeyPair(
            public_key=authority_state["publicKey"],
            private_key=authority_state["privateKey"],
        )
        authority.certificate = authority._self_signed()
    return count


def save_registry_file(registry: "RegistryServer", path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dump_registry(registry), handle, indent=1)


def load_registry_file(registry: "RegistryServer", path: str) -> int:
    with open(path, "r", encoding="utf-8") as handle:
        return load_registry(registry, json.load(handle))
