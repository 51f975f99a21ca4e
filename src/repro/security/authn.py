"""Client authentication: the registry side of the credential handshake.

Thesis §3.4.2–3.4.3: the registry registers users via the wizard (issuing a
certificate), and on each new session the JAXR provider presents the client's
credential from its keystore; the registry verifies (1) the certificate
fingerprint matches its user record and (2) the certificate chains to the
``registryOperator``.  Successful authentication yields a :class:`Session`
that carries the User identity into authorization and audit.

The :class:`Authenticator` is the registry's one token → session table:
every protocol edge resolves a request's session through it (the kernel's
``authenticate`` step), so :meth:`Authenticator.close` ends a session at
every edge at once.  :meth:`Authenticator.adopt` makes a session another
federation member issued valid here, so a read forwarded to its owner runs
as the same user.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.persistence.dao import DAORegistry
from repro.rim import PersonName, User
from repro.security.certs import CertificateAuthority, Credential
from repro.util.errors import AuthenticationError
from repro.util.ids import IdFactory


@dataclass(frozen=True)
class Session:
    """An authenticated client session."""

    token: str
    user_id: str
    alias: str
    roles: frozenset[str]

    def has_role(self, role: str) -> bool:
        return role in self.roles


#: sentinel session for anonymous (read-only) access to the QueryManager
GUEST_ALIAS = "guest"

#: sessions are frozen, so every anonymous request shares this one
_GUEST_SESSION = Session(
    token="urn:repro:session:guest",
    user_id="urn:repro:user:guest",
    alias=GUEST_ALIAS,
    roles=frozenset({"RegistryGuest"}),
)


class Authenticator:
    """User registration and session establishment."""

    def __init__(
        self,
        daos: DAORegistry,
        *,
        ids: IdFactory,
        authority: CertificateAuthority | None = None,
    ) -> None:
        self.daos = daos
        self.ids = ids
        self.authority = authority or CertificateAuthority()
        #: alias → certificate fingerprint on record
        self._fingerprints: dict[str, str] = {}
        self._sessions: dict[str, Session] = {}

    # -- registration (User Registration Wizard) -------------------------------

    def register_user(
        self,
        alias: str,
        *,
        person_name: PersonName | None = None,
        roles: set[str] | None = None,
    ) -> tuple[User, Credential]:
        """Create a User record and issue its credential (wizard steps 2–4)."""
        if self.daos.users.find_by_alias(alias) is not None:
            raise AuthenticationError(f"alias already registered: {alias!r}")
        credential = self.authority.issue(alias)
        user = User(self.ids.new_id(), alias=alias, person_name=person_name)
        if roles:
            user.roles |= roles
        user.owner = user.id
        self.daos.users.insert(user)
        self._fingerprints[alias] = credential.certificate.fingerprint
        return user, credential

    # -- session establishment -----------------------------------------------

    def authenticate(self, credential: Credential) -> Session:
        """Verify a presented credential and open a session."""
        certificate = credential.certificate
        alias = certificate.subject
        user = self.daos.users.find_by_alias(alias)
        if user is None:
            raise AuthenticationError(f"unknown user alias: {alias!r}")
        recorded = self._fingerprints.get(alias)
        if recorded != certificate.fingerprint:
            raise AuthenticationError(f"certificate mismatch for alias {alias!r}")
        if certificate.issuer != self.authority.name or not certificate.verify(
            self.authority.keypair
        ):
            raise AuthenticationError(
                f"certificate for {alias!r} was not issued by {self.authority.name}"
            )
        if not credential.keypair.matches(certificate.public_key):
            raise AuthenticationError(f"private key does not match certificate for {alias!r}")
        token = self.ids.new_id()
        session = Session(
            token=token,
            user_id=user.id,
            alias=alias,
            roles=frozenset(user.roles),
        )
        self._sessions[token] = session
        return session

    def adopt(self, session: Session) -> None:
        """Honour a session another registry issued (a federation peer)."""
        self._sessions[session.token] = session

    def session_for(self, token: str) -> Session | None:
        """The open session *token* names, or None."""
        return self._sessions.get(token)

    def guest_session(self) -> Session:
        """Anonymous read-only session (unauthenticated QueryManager access)."""
        return _GUEST_SESSION

    def close(self, session: Session) -> None:
        self._sessions.pop(session.token, None)

    def is_active(self, session: Session) -> bool:
        return session.token in self._sessions
