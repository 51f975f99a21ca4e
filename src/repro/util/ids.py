"""Registry identifier generation.

ebRIM identifies every RegistryObject by a URN of the form
``urn:uuid:<uuid4>`` (the thesis shows ids such as
``urn:uuid:59bd7041-781f-4c57-b985-f0293588642b``).  For reproducible
simulations and tests we route all id generation through an :class:`IdFactory`
seeded from a :class:`random.Random`, so a fixed seed yields a fixed id
stream while the textual format stays spec-conformant.
"""

from __future__ import annotations

import random
import re
import uuid

#: the identifier pattern's bound ``match``: a match for a well-formed
#: ``urn:uuid:`` identifier, else ``None`` (one call, for the constructors)
match_urn_uuid = re.compile(
    r"^urn:uuid:[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}$"
).match


def is_urn_uuid(value: str) -> bool:
    """Return True if *value* is a well-formed ``urn:uuid:`` identifier."""
    return bool(match_urn_uuid(value))


def new_urn_uuid() -> str:
    """Return a fresh non-deterministic ``urn:uuid:`` identifier."""
    return f"urn:uuid:{uuid.uuid4()}"


class IdFactory:
    """Deterministic generator of ``urn:uuid:`` identifiers.

    Parameters
    ----------
    seed:
        Seed for the internal PRNG.  Two factories constructed with the same
        seed generate identical id sequences, which keeps simulation runs and
        golden-output benchmarks reproducible.
    """

    def __init__(self, seed: int | None = None) -> None:
        self._rng = random.Random(seed)

    def new_id(self) -> str:
        """Return the next identifier in the deterministic stream."""
        # uuid4 layout from 16 PRNG bytes, with version / variant bits set
        # exactly as uuid.uuid4 would, written as str(uuid.UUID) writes it.
        raw = bytearray(map(self._rng.getrandbits, (8,) * 16))  # one draw per byte
        raw[6] = (raw[6] & 0x0F) | 0x40  # version 4
        raw[8] = (raw[8] & 0x3F) | 0x80  # RFC 4122 variant
        h = raw.hex()
        return f"urn:uuid:{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:]}"

    def new_ids(self, count: int) -> list[str]:
        """Return *count* identifiers."""
        return [self.new_id() for _ in range(count)]
