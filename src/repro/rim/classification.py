"""Classification schemes, nodes, and classifications (ebRIM taxonomy support).

A ClassificationScheme is the root of a taxonomy tree of ClassificationNodes
(e.g. NAICS, ISO 3166).  A Classification applies one node of a scheme — or,
for *external* schemes, a raw value — to a RegistryObject.  User-defined
taxonomies are a headline ebXML-over-UDDI feature (Table 1.1), so the model
supports building arbitrary trees and validating classifications against
them.
"""

from __future__ import annotations

from repro.rim.base import OnFirstRead, RegistryEntry, RegistryObject
from repro.util.errors import InvalidRequestError


class ClassificationScheme(RegistryEntry):
    """Root of a taxonomy; ``internal`` schemes keep their node tree in-registry."""

    OBJECT_TYPE = "urn:oasis:names:tc:ebxml-regrep:ObjectType:ClassificationScheme"

    #: ids of direct child ClassificationNodes
    child_node_ids = OnFirstRead(list)

    def __init__(self, id: str, *, is_internal: bool = True, node_type: str = "UniqueCode", **kwargs) -> None:
        super().__init__(id, **kwargs)
        self.is_internal = is_internal
        self.node_type = node_type


class ClassificationNode(RegistryObject):
    """A node in a taxonomy tree.

    ``code`` is the node's value within the scheme (e.g. a NAICS code);
    ``path`` is the canonical `/scheme/code/...` path used in queries.
    """

    OBJECT_TYPE = "urn:oasis:names:tc:ebxml-regrep:ObjectType:ClassificationNode"

    child_node_ids = OnFirstRead(list)

    def __init__(
        self,
        id: str,
        *,
        code: str,
        parent: str,
        path: str | None = None,
        **kwargs,
    ) -> None:
        super().__init__(id, **kwargs)
        self.code = code
        self.parent = parent  # scheme id or another node id
        self.path = path or code
        ClassificationNode._check(self)

    def _check(self) -> None:
        if not self.code:
            raise InvalidRequestError("classification node requires a code")
        if not self.parent:
            raise InvalidRequestError("classification node requires a parent id")


class Classification(RegistryObject):
    """Application of a taxonomy node (or external value) to an object.

    Exactly one of ``classification_node`` (internal scheme) or
    ``node_representation`` + ``classification_scheme`` (external scheme)
    must be provided, per ebRIM.
    """

    OBJECT_TYPE = "urn:oasis:names:tc:ebxml-regrep:ObjectType:Classification"

    def __init__(
        self,
        id: str,
        *,
        classified_object: str,
        classification_node: str | None = None,
        classification_scheme: str | None = None,
        node_representation: str | None = None,
        **kwargs,
    ) -> None:
        super().__init__(id, **kwargs)
        self.classified_object = classified_object
        self.classification_node = classification_node
        self.classification_scheme = classification_scheme
        self.node_representation = node_representation
        Classification._check(self)

    def _check(self) -> None:
        if not self.classified_object:
            raise InvalidRequestError("classification requires a classified object id")
        internal = self.classification_node is not None
        external = self.node_representation is not None and self.classification_scheme is not None
        if internal == external:
            raise InvalidRequestError(
                "classification must be internal (node id) XOR external "
                "(scheme id + node representation)"
            )

    @property
    def is_internal(self) -> bool:
        return self.classification_node is not None
