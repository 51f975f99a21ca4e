"""Tests for keystore file persistence and the keystoremover CLI over it."""

import pytest

from repro.security import (
    CertificateAuthority,
    Keystore,
    load_keystore,
    save_keystore,
)
from repro.util.errors import AuthenticationError


@pytest.fixture
def ca():
    return CertificateAuthority(seed=21)


class TestKeystoreFiles:
    def test_round_trip_entries(self, ca, tmp_path):
        keystore = Keystore(store_type="PKCS12", password="store-pw")
        cred = ca.issue("gold")
        keystore.set_entry("gold", cred, "gold123")
        keystore.import_trusted("registryOperator", ca.certificate)
        path = tmp_path / "ks.json"
        save_keystore(keystore, str(path))

        restored = load_keystore(str(path))
        assert restored.store_type == "PKCS12"
        assert restored.password == "store-pw"
        loaded = restored.get_entry("gold", "gold123")
        assert loaded.certificate.fingerprint == cred.certificate.fingerprint
        assert loaded.keypair.matches(loaded.certificate.public_key)
        assert restored.trusts(ca.certificate)

    def test_password_still_enforced_after_reload(self, ca, tmp_path):
        keystore = Keystore()
        keystore.set_entry("gold", ca.issue("gold"), "gold123")
        path = tmp_path / "ks.json"
        save_keystore(keystore, str(path))
        restored = load_keystore(str(path))
        with pytest.raises(AuthenticationError):
            restored.get_entry("gold", "wrong")

    def test_reloaded_credential_authenticates(self, tmp_path):
        from repro.registry import RegistryConfig, RegistryServer
        from repro.util.clock import ManualClock

        registry = RegistryServer(RegistryConfig(seed=5), clock=ManualClock())
        _, cred = registry.register_user("gold")
        keystore = Keystore()
        keystore.set_entry("gold", cred, "pw")
        path = tmp_path / "ks.json"
        save_keystore(keystore, str(path))
        restored = load_keystore(str(path))
        session = registry.login(restored.get_entry("gold", "pw"))
        assert session.alias == "gold"

    def test_empty_keystore_round_trips(self, tmp_path):
        path = tmp_path / "ks.json"
        save_keystore(Keystore(), str(path))
        restored = load_keystore(str(path))
        assert restored.aliases() == []


class TestKeystoreMoverCli:
    def test_move_between_keystore_files(self, tmp_path, capsys):
        from repro.cli import main

        ca = CertificateAuthority(seed=3)
        source = Keystore(store_type="PKCS12")
        source.set_entry("gold", ca.issue("gold"), "gold123")
        source.import_trusted("registryOperator", ca.certificate)
        src_path = tmp_path / "generated-key_gold123.p12.json"
        dst_path = tmp_path / "keystore.jks.json"
        save_keystore(source, str(src_path))

        rc = main(
            [
                "keystoremover",
                "--sourceKeystorePath", str(src_path),
                "--sourceAlias", "gold",
                "--sourceKeyPassword", "gold123",
                "--destinationKeystorePath", str(dst_path),
            ]
        )
        assert rc == 0
        destination = load_keystore(str(dst_path))
        assert destination.has_alias("gold")
        assert destination.trusts(ca.certificate)

    def test_wrong_password_fails(self, tmp_path, capsys):
        from repro.cli import main

        ca = CertificateAuthority(seed=3)
        source = Keystore()
        source.set_entry("gold", ca.issue("gold"), "gold123")
        src_path = tmp_path / "src.json"
        save_keystore(source, str(src_path))
        rc = main(
            [
                "keystoremover",
                "--sourceKeystorePath", str(src_path),
                "--sourceAlias", "gold",
                "--sourceKeyPassword", "wrong",
                "--destinationKeystorePath", str(tmp_path / "dst.json"),
            ]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err
