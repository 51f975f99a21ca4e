"""Tests for user registration and session authentication."""

import pytest

from repro.client.jaxr import ConnectionFactory
from repro.rim import Organization
from repro.security.certs import CertificateAuthority
from repro.serving import ServingConfig, ServingSupervisor
from repro.soap.binding import SoapRegistryBinding
from repro.soap.envelope import SoapEnvelope, SoapFault
from repro.soap.messages import SubmitObjectsRequest
from repro.soap.serializer import serialize
from repro.util.errors import AuthenticationError


class TestRegistration:
    def test_register_creates_user_and_credential(self, registry):
        user, credential = registry.register_user("gold")
        assert user.alias == "gold"
        assert credential.certificate.subject == "gold"
        assert registry.daos.users.find_by_alias("gold") is not None

    def test_duplicate_alias_rejected(self, registry):
        registry.register_user("gold")
        with pytest.raises(AuthenticationError):
            registry.register_user("gold")

    def test_roles_assigned(self, registry):
        user, _ = registry.register_user("admin", roles={"RegistryAdministrator"})
        assert "RegistryAdministrator" in user.roles
        assert "RegistryUser" in user.roles


class TestAuthentication:
    def test_login_success(self, registry):
        user, credential = registry.register_user("gold")
        session = registry.login(credential)
        assert session.alias == "gold"
        assert session.user_id == user.id
        assert registry.authenticator.is_active(session)

    def test_unknown_alias(self, registry):
        foreign = CertificateAuthority(seed=99).issue("stranger")
        with pytest.raises(AuthenticationError, match="unknown user"):
            registry.login(foreign)

    def test_certificate_mismatch(self, registry):
        registry.register_user("gold")
        # a certificate for the right alias but issued out-of-band
        forged = registry.authority.issue("gold")
        with pytest.raises(AuthenticationError, match="mismatch"):
            registry.login(forged)

    def test_foreign_issuer_rejected(self, registry):
        _, credential = registry.register_user("gold")
        tampered = credential.tampered(issuer="evilOperator")
        with pytest.raises(AuthenticationError):
            registry.login(tampered)

    def test_wrong_private_key_rejected(self, registry):
        from repro.security.certs import Credential, KeyPair

        _, credential = registry.register_user("gold")
        swapped = Credential(
            certificate=credential.certificate, keypair=KeyPair.generate()
        )
        with pytest.raises(AuthenticationError, match="private key"):
            registry.login(swapped)

    def test_close_session(self, registry):
        _, credential = registry.register_user("gold")
        session = registry.login(credential)
        registry.authenticator.close(session)
        assert not registry.authenticator.is_active(session)


class TestClosedSession:
    """After ``authenticator.close(s)`` no edge lets ``s`` write, whatever
    the edge was told about ``s`` while it was open."""

    @pytest.fixture
    def session(self, registry):
        _, credential = registry.register_user("gold")
        return registry.login(credential)

    @staticmethod
    def _submit(registry):
        org = Organization(registry.ids.new_id(), name="AfterLogout")
        return org, SubmitObjectsRequest(objects=[serialize(org)])

    def test_soap_edge_refuses(self, registry, session):
        binding = SoapRegistryBinding(registry)
        binding.register_session(session)
        registry.authenticator.close(session)
        org, request = self._submit(registry)
        fault = binding.handle(SoapEnvelope.with_session(request, session.token))
        assert isinstance(fault, SoapFault)
        assert fault.fault_code == AuthenticationError.code
        assert not registry.store.contains(org.id)

    @pytest.mark.parametrize("path", ["inline", "queued"])
    def test_serving_edge_refuses(self, registry, session, path):
        org, request = self._submit(registry)
        with ServingSupervisor(registry, ServingConfig(workers=1)) as supervisor:
            supervisor.register_session(session)
            registry.authenticator.close(session)
            if path == "inline":
                fault = supervisor.call(body=request, token=session.token)
            else:
                fault = supervisor.submit(body=request, token=session.token).result(30.0)
            assert supervisor.serving_stats()["served_inline"] == (1 if path == "inline" else 0)
        assert isinstance(fault, SoapFault)
        assert fault.fault_code == AuthenticationError.code
        assert not registry.store.contains(org.id)

    def test_local_call_connection_refuses(self, registry):
        _, credential = registry.register_user("gold")
        connection = ConnectionFactory(registry, local_call=True).create_connection(
            credential
        )
        registry.authenticator.close(connection.session)
        blm = connection.get_registry_service().get_business_life_cycle_manager()
        org = blm.create_organization("AfterLogout")
        with pytest.raises(AuthenticationError, match="authenticated session"):
            blm.save_objects([org])
        assert not registry.store.contains(org.id)


class TestGuestSession:
    def test_guest_has_guest_role_only(self, registry):
        guest = registry.guest()
        assert guest.roles == frozenset({"RegistryGuest"})
        assert guest.alias == "guest"
