"""XACML-lite: rule-based access control for registry requests.

freebXML authorizes every request with XACML 1.0 policies over Subject /
Resource / Action attributes (thesis §2.2.3).  This module implements the
decision model at the granularity the registry uses:

* a **request** is (subject attributes, resource attributes, action id);
* a **rule** matches attribute predicates and yields Permit or Deny;
* a **policy** combines rules (first-applicable);
* the **PDP** evaluates the policy set with deny-overrides across policies
  and a configurable default (deny).

The default policy set reproduces freebXML's behaviour: guests may read,
registered users may create and may modify/delete **only objects they own**,
and RegistryAdministrators may do anything.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Mapping

Attributes = Mapping[str, object]


class Effect(enum.Enum):
    PERMIT = "Permit"
    DENY = "Deny"


class Decision(enum.Enum):
    PERMIT = "Permit"
    DENY = "Deny"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class Request:
    """An access-control request."""

    subject: Attributes  # e.g. {"id": user_id, "roles": {...}, "alias": ...}
    resource: Attributes  # e.g. {"id": object_id, "owner": ..., "type": ...}
    action: str  # "create" | "read" | "update" | "delete" | "approve" | ...


Matcher = Callable[[Request], bool]


@dataclass(frozen=True)
class Rule:
    """One rule: a name, a match predicate, and an effect.

    ``matches`` must be a pure function of the request: the registry
    remembers read decisions for as long as the policy set holds the same
    rules (``RegistryServer.check_read``), and a predicate that consults a
    clock or other state would be remembered at its first answer.
    """

    name: str
    matches: Matcher
    effect: Effect


@dataclass
class Policy:
    """First-applicable rule combination."""

    name: str
    rules: list[Rule] = field(default_factory=list)

    def evaluate(self, request: Request) -> Decision:
        for rule in self.rules:
            if rule.matches(request):
                return Decision.PERMIT if rule.effect is Effect.PERMIT else Decision.DENY
        return Decision.NOT_APPLICABLE


class PolicyDecisionPoint:
    """Deny-overrides combination across policies; default-deny."""

    def __init__(self, policies: list[Policy] | None = None) -> None:
        self.policies = policies if policies is not None else [default_policy()]

    def decide(self, request: Request) -> Decision:
        permitted = False
        for policy in self.policies:
            decision = policy.evaluate(request)
            if decision is Decision.DENY:
                return Decision.DENY
            if decision is Decision.PERMIT:
                permitted = True
        return Decision.PERMIT if permitted else Decision.DENY

    def is_permitted(self, request: Request) -> bool:
        return self.decide(request) is Decision.PERMIT


def _roles(request: Request) -> set[str]:
    roles = request.subject.get("roles", ())
    return set(roles)  # type: ignore[arg-type]


def _is_admin(request: Request) -> bool:
    return "RegistryAdministrator" in _roles(request)


def _is_registered(request: Request) -> bool:
    return "RegistryUser" in _roles(request) or _is_admin(request)


def _owns_resource(request: Request) -> bool:
    owner = request.resource.get("owner")
    return owner is not None and owner == request.subject.get("id")


READ_ACTIONS = frozenset({"read"})
CREATE_ACTIONS = frozenset({"create"})
WRITE_ACTIONS = frozenset(
    {"update", "delete", "approve", "deprecate", "undeprecate", "relocate"}
)


#: Table 1.4 registry deployment flavours
REGISTRY_TYPES = ("public", "affiliated", "private")


def registry_type_policies(registry_type: str) -> list[Policy]:
    """Policy set for a Table 1.4 deployment flavour.

    * ``public`` — UBR-style: registry data readable by anyone (the default
      policy's guest-read rule);
    * ``affiliated`` — trading-partner network: reads require membership in
      the ``Affiliate`` group (or registration); guests are denied;
    * ``private`` — corporate registry behind the firewall: every access,
      including reads, requires an authenticated registered user.
    """
    if registry_type == "public":
        return [default_policy()]
    if registry_type == "affiliated":
        deny_guest_reads = Policy(
            name="urn:repro:policy:affiliated",
            rules=[
                Rule(
                    name="affiliates-and-members-read",
                    matches=lambda r: r.action in READ_ACTIONS
                    and ("Affiliate" in _roles(r) or _is_registered(r)),
                    effect=Effect.PERMIT,
                ),
                Rule(
                    name="guests-denied",
                    matches=lambda r: r.action in READ_ACTIONS and not _is_registered(r),
                    effect=Effect.DENY,
                ),
            ],
        )
        return [deny_guest_reads, _default_policy_without_guest_read()]
    if registry_type == "private":
        deny_unregistered = Policy(
            name="urn:repro:policy:private",
            rules=[
                Rule(
                    name="unregistered-denied",
                    matches=lambda r: not _is_registered(r),
                    effect=Effect.DENY,
                ),
                Rule(
                    name="registered-read",
                    matches=lambda r: r.action in READ_ACTIONS and _is_registered(r),
                    effect=Effect.PERMIT,
                ),
            ],
        )
        return [deny_unregistered, _default_policy_without_guest_read()]
    raise ValueError(f"unknown registry type: {registry_type!r}; use {REGISTRY_TYPES}")


def _default_policy_without_guest_read() -> Policy:
    policy = default_policy()
    policy.rules = [r for r in policy.rules if r.name != "anyone-may-read"]
    return policy


def default_policy() -> Policy:
    """The freebXML-equivalent default access policy."""
    return Policy(
        name="urn:repro:policy:default",
        rules=[
            Rule(
                name="admin-unrestricted",
                matches=_is_admin,
                effect=Effect.PERMIT,
            ),
            Rule(
                name="anyone-may-read",
                matches=lambda r: r.action in READ_ACTIONS,
                effect=Effect.PERMIT,
            ),
            Rule(
                name="registered-may-create",
                matches=lambda r: r.action in CREATE_ACTIONS and _is_registered(r),
                effect=Effect.PERMIT,
            ),
            Rule(
                name="owner-may-write",
                matches=lambda r: r.action in WRITE_ACTIONS
                and _is_registered(r)
                and _owns_resource(r),
                effect=Effect.PERMIT,
            ),
        ],
    )
