"""Tests for urn:uuid identifier generation."""


from repro.util.ids import IdFactory, is_urn_uuid, new_urn_uuid


class TestIsUrnUuid:
    def test_accepts_wellformed(self):
        assert is_urn_uuid("urn:uuid:59bd7041-781f-4c57-b985-f0293588642b")

    def test_rejects_bare_uuid(self):
        assert not is_urn_uuid("59bd7041-781f-4c57-b985-f0293588642b")

    def test_rejects_uppercase_hex(self):
        assert not is_urn_uuid("urn:uuid:59BD7041-781f-4c57-b985-f0293588642b")

    def test_rejects_wrong_prefix(self):
        assert not is_urn_uuid("uuid:59bd7041-781f-4c57-b985-f0293588642b")

    def test_rejects_truncated(self):
        assert not is_urn_uuid("urn:uuid:59bd7041-781f-4c57-b985")


class TestNewUrnUuid:
    def test_format(self):
        assert is_urn_uuid(new_urn_uuid())

    def test_uniqueness(self):
        ids = {new_urn_uuid() for _ in range(1000)}
        assert len(ids) == 1000


class TestIdFactory:
    def test_deterministic_for_same_seed(self):
        a = IdFactory(7).new_ids(50)
        b = IdFactory(7).new_ids(50)
        assert a == b

    def test_different_seeds_diverge(self):
        assert IdFactory(1).new_id() != IdFactory(2).new_id()

    def test_all_wellformed(self):
        factory = IdFactory(3)
        assert all(is_urn_uuid(i) for i in factory.new_ids(200))

    def test_no_duplicates_in_stream(self):
        ids = IdFactory(9).new_ids(5000)
        assert len(set(ids)) == 5000

    def test_version_and_variant_bits(self):
        import uuid

        raw = IdFactory(11).new_id().removeprefix("urn:uuid:")
        parsed = uuid.UUID(raw)
        assert parsed.version == 4
        assert parsed.variant == uuid.RFC_4122

    def test_stream_is_str_of_uuid_from_the_same_draws(self):
        """The id text is exactly what ``str(uuid.UUID(bytes=...))`` writes for
        16 draws of 8 bits with the version-4 and RFC 4122 bits set, so a seed
        names the same ids as it always has."""
        import random
        import uuid

        for seed in range(4):
            rng = random.Random(seed)
            expected = []
            for _ in range(1000):
                raw = bytearray(rng.getrandbits(8) for _ in range(16))
                raw[6] = (raw[6] & 0x0F) | 0x40
                raw[8] = (raw[8] & 0x3F) | 0x80
                expected.append(f"urn:uuid:{uuid.UUID(bytes=bytes(raw))}")
            assert IdFactory(seed).new_ids(1000) == expected, seed
