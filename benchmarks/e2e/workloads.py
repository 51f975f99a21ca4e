"""Inputs of the four workloads: registry contents and request sequences.

Everything in this module is a pure function of ``(workload name, seed)``.
The program under test only ever sees what these functions return: RIM
objects to load, NodeState samples to record, and protocol request bodies.
The structured form of every generated constraint (:class:`Limits`) is kept
beside its XML text so the oracle in :mod:`model` never needs the program's
own constraint parser.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core import BalanceMode
from repro.soap import (
    AdhocQueryRequest,
    GetServiceBindingsRequest,
    RemoveObjectsRequest,
    SubmitObjectsRequest,
    UpdateObjectsRequest,
)
from repro.util.ids import IdFactory

GB = 1 << 30
MB = 1 << 20

#: the registry clock starts at 08:00; churn's time window (06:00-22:00)
#: contains it for 2 016 sweeps of 25 s, far more than any run performs
BENCH_CLOCK_START = 8 * 3600.0
SWEEP_EVERY = 100
SWEEP_PERIOD_S = 25.0

HOT_TEXTS = 64
COLD_TEXTS = 4096
#: idempotent re-send cadence on ``mixed_rw`` (every Nth write)
RESEND_EVERY = 10

#: ad-hoc kinds and their share of generated texts.  Fixed on the seed so
#: that no kind exceeds 40 % of ``adhoc_mix`` closed-phase time (README).
ADHOC_KINDS = (
    ("eq", 0.30),
    ("prefix", 0.18),
    ("semi", 0.12),
    ("scan", 0.10),
    ("count", 0.22),
    ("wide", 0.08),
)


@dataclass(frozen=True)
class Spec:
    """The fixed design of one workload."""

    name: str
    services: int
    hosts: int
    #: bindings per service, inclusive range
    bindings: tuple[int, int]
    mode: BalanceMode
    churn: bool
    orgs: int
    #: closed-loop client threads
    clients: int
    #: (operation kind, weight), weights summing to 1
    mix: tuple[tuple[str, float], ...]

    @property
    def writes(self) -> bool:
        return any(kind.startswith("w_") for kind, _ in self.mix)


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="discovery_steady",
            services=1000,
            hosts=16,
            bindings=(1, 4),
            mode=BalanceMode.PREFER,
            churn=False,
            orgs=0,
            clients=1,
            mix=(("discovery", 1.0),),
        ),
        Spec(
            name="discovery_churn",
            # the issue asks for 200; the store's insert is O(n) per object,
            # so 12 800 bindings load in ~6 s and three timed set-ups per run
            # would not fit the driver's time cap (CHANGES.md)
            services=100,
            hosts=64,
            bindings=(64, 64),
            mode=BalanceMode.FILTER,
            churn=True,
            orgs=0,
            clients=1,
            mix=(("discovery", 1.0),),
        ),
        Spec(
            name="adhoc_mix",
            services=1000,
            hosts=16,
            bindings=(1, 4),
            mode=BalanceMode.PREFER,
            churn=False,
            orgs=0,
            clients=1,
            mix=(("adhoc_hot", 0.5), ("adhoc_cold", 0.5)),
        ),
        Spec(
            name="mixed_rw",
            services=1000,
            hosts=16,
            bindings=(1, 4),
            mode=BalanceMode.PREFER,
            churn=False,
            orgs=64,
            clients=2,
            mix=(
                ("discovery", 0.8 * 2 / 3),
                ("adhoc_hot", 0.8 / 3),
                ("w_constraint", 0.2 * 0.5),
                ("w_org", 0.2 * 0.3),
                ("w_pair", 0.2 * 0.2),
            ),
        ),
    )
}


@dataclass(frozen=True)
class Limits:
    """One service's constraint in structured form (what the oracle evaluates)."""

    load_below: float
    memory_above: int | None = None
    swap_above: int | None = None
    #: (start, end) in minutes past midnight
    window: tuple[int, int] | None = None

    def xml(self) -> str:
        parts = [f"<cpuLoad>load ls {self.load_below:g}</cpuLoad>"]
        if self.memory_above is not None:
            parts.append(f"<memory>memory gr {self.memory_above // GB}GB</memory>")
        if self.swap_above is not None:
            parts.append(
                f"<swapmemory>swapmemory gr {self.swap_above // MB}MB</swapmemory>"
            )
        if self.window is not None:
            start, end = self.window
            parts.append(f"<starttime>{start // 60:02d}{start % 60:02d}</starttime>")
            parts.append(f"<endtime>{end // 60:02d}{end % 60:02d}</endtime>")
        return "<constraint>" + "".join(parts) + "</constraint>"

    def description(self) -> str:
        return "Benchmark service. " + self.xml()


@dataclass(frozen=True)
class ServiceInput:
    id: str
    name: str
    limits: Limits
    #: (binding id, host, access uri) in publisher order
    bindings: tuple[tuple[str, str, str], ...]


#: host → (load, available memory bytes, available swap bytes)
Samples = dict[str, tuple[float, int, int]]


@dataclass(frozen=True)
class Inputs:
    """Everything one run feeds the program, derived from the seed."""

    spec: Spec
    seed: int
    hosts: tuple[str, ...]
    services: tuple[ServiceInput, ...]
    #: (organization id, name)
    orgs: tuple[tuple[str, str], ...]
    hot_texts: tuple[str, ...]
    cold_texts: tuple[str, ...]
    static_samples: Samples

    def sweep_samples(self, sweep: int) -> Samples:
        """The 64 samples of churn sweep number *sweep* (seeded, repeatable)."""
        rng = random.Random(f"{self.seed}:sweep:{sweep}")
        samples: Samples = {
            host: (
                round(rng.uniform(0.0, 8.0), 2),
                rng.randint(1, 8) * GB,
                rng.randint(128, 2048) * MB,
            )
            for host in self.hosts
        }
        # two idle hosts per sweep, so every constraint is satisfied somewhere
        # and FILTER never falls back to the 64-binding publisher list
        for host in rng.sample(self.hosts, 2):
            samples[host] = (round(rng.uniform(0.01, 0.4), 2), 16 * GB, 4 * GB)
        return samples


def _limits_for(spec: Spec, rng: random.Random) -> Limits:
    if spec.churn:
        return Limits(
            load_below=rng.choice((0.5, 1.0, 1.5, 2.0)),
            memory_above=rng.choice((1, 2)) * GB,
            swap_above=rng.choice((256, 512)) * MB,
            window=(6 * 60, 22 * 60),
        )
    # 20 distinct cpuLoad constraints
    return Limits(load_below=0.5 + 0.25 * rng.randrange(20))


def _adhoc_text(kind: str, p: int, spec: Spec, hosts: tuple[str, ...]) -> str:
    """The *p*-th text of one ad-hoc kind (distinct p ⇒ distinct text)."""
    n = spec.services
    host = hosts[p % len(hosts)]
    q = p // len(hosts)
    if kind == "eq":
        if p < n:
            return f"SELECT id FROM Service WHERE name = 'Svc{p:04d}'"
        return f"SELECT id FROM ServiceBinding WHERE name = 'Svc{p - n:04d}.b0'"
    if kind == "prefix":
        return (
            f"SELECT id, name FROM Service WHERE name LIKE 'Svc{p % 100:03d}%' "
            f"ORDER BY name LIMIT {1 + p // 100}"
        )
    if kind == "semi":
        return (
            "SELECT id, name FROM Service WHERE id IN (SELECT service FROM "
            f"ServiceBinding WHERE host = '{host}') AND name LIKE 'Svc{q % 100:03d}%'"
        )
    if kind == "scan":
        return f"SELECT id FROM Service WHERE name LIKE '%{p % 1000:03d}'"
    if kind == "count":
        return (
            f"SELECT COUNT(*) FROM ServiceBinding WHERE host = '{host}' "
            f"AND name LIKE 'Svc{q % 100:03d}%'"
        )
    if kind == "wide":
        low = p % max(1, n - 40)
        return (
            f"SELECT * FROM Service WHERE name BETWEEN 'Svc{low:04d}' "
            f"AND 'Svc{low + 39:04d}'"
        )
    raise ValueError(f"unknown ad-hoc kind: {kind!r}")


#: distinct parameter values each kind offers on a 1000-service registry
_ADHOC_DOMAIN = {
    "eq": 2000,
    "prefix": 1000,
    "semi": 1600,
    "scan": 1000,
    "count": 1600,
    "wide": 960,
}


def adhoc_kind_of(text: str) -> str:
    """Which generator produced *text* (for the per-kind time report)."""
    if text.startswith("SELECT *"):
        return "wide"
    if text.startswith("SELECT COUNT"):
        return "count"
    if " IN (SELECT" in text:
        return "semi"
    if "LIKE '%" in text:
        return "scan"
    if " LIKE " in text:
        return "prefix"
    return "eq"


def _adhoc_texts(
    spec: Spec, hosts: tuple[str, ...], rng: random.Random
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    hot: list[str] = []
    cold: list[str] = []
    for kind, share in ADHOC_KINDS:
        params = list(range(_ADHOC_DOMAIN[kind]))
        rng.shuffle(params)
        n_hot = max(1, round(HOT_TEXTS * share))
        n_cold = round(COLD_TEXTS * share)
        texts = [_adhoc_text(kind, p, spec, hosts) for p in params[: n_hot + n_cold]]
        hot.extend(texts[:n_hot])
        cold.extend(texts[n_hot:])
    rng.shuffle(hot)
    rng.shuffle(cold)
    return tuple(hot[:HOT_TEXTS]), tuple(cold[:COLD_TEXTS])


def make_inputs(workload: str, seed: int) -> Inputs:
    spec = SPECS[workload]
    rng = random.Random(f"{seed}:{workload}:inputs")
    ids = IdFactory(rng.getrandbits(32))
    hosts = tuple(f"host{i:02d}.bench" for i in range(spec.hosts))
    services = []
    for i in range(spec.services):
        name = f"Svc{i:04d}"
        count = rng.randint(*spec.bindings)
        bound = rng.sample(hosts, count)
        services.append(
            ServiceInput(
                id=ids.new_id(),
                name=name,
                limits=_limits_for(spec, rng),
                bindings=tuple(
                    (ids.new_id(), host, f"http://{host}:8080/{name}/endpoint")
                    for host in bound
                ),
            )
        )
    orgs = tuple((ids.new_id(), f"Org{i:03d}") for i in range(spec.orgs))
    hot, cold = _adhoc_texts(spec, hosts, rng)
    static = {
        host: (round(rng.uniform(0.0, 6.0), 2), rng.randint(2, 8) * GB, 1 * GB)
        for host in hosts
    }
    return Inputs(
        spec=spec,
        seed=seed,
        hosts=hosts,
        services=tuple(services),
        orgs=orgs,
        hot_texts=hot,
        cold_texts=cold,
        static_samples=static,
    )


class Request:
    """One generated request plus what the oracle needs to judge its answer."""

    __slots__ = (
        "kind", "body", "auth", "service", "limits", "sweep", "resend", "verify"
    )

    def __init__(self, kind: str, body: object, *, auth: bool = False) -> None:
        #: "discovery" | "adhoc" | "write"
        self.kind = kind
        self.body = body
        #: send the writer's session token
        self.auth = auth
        #: discovery only: index into ``Inputs.services``
        self.service: int | None = None
        #: discovery only: the constraint in force, when this client knows it
        #: exactly (always, except for services another client rewrites)
        self.limits: Limits | None = None
        #: churn only: a NodeState sweep precedes this request
        self.sweep = False
        #: re-send under the same idempotency key after the first reply
        self.resend = False
        #: the oracle must check this answer (the read after a rewrite)
        self.verify = False


class Sequence:
    """One client's endless request stream.

    Same ``(inputs, client)`` ⇒ same stream, request for request.  On
    ``mixed_rw`` each client rewrites only the services and organizations of
    its own partition (``index % clients == client``), so what a client reads
    back after its own write is never raced by the other client's writes.
    """

    def __init__(
        self, inputs: Inputs, client: int, clients: int, templates: "Templates"
    ) -> None:
        self.inputs = inputs
        self.client = client
        self.clients = clients
        self.templates = templates
        self.position = 0
        self._rng = random.Random(f"{inputs.seed}:{inputs.spec.name}:client:{client}")
        self._ids = IdFactory(self._rng.getrandbits(32))
        kinds, weights = zip(*inputs.spec.mix)
        self._kinds = kinds
        self._cum = [sum(weights[: i + 1]) for i in range(len(weights))]
        self._owned = [
            i for i in range(len(inputs.services)) if i % clients == client
        ]
        self._owned_orgs = [i for i in range(len(inputs.orgs)) if i % clients == client]
        #: constraints this client has rewritten (service index → Limits)
        self._rewritten: dict[int, Limits] = {}
        self._writes = 0
        #: read-your-write discovery queued behind a constraint rewrite
        self._pending_read: int | None = None
        #: service id submitted by the last ``w_pair`` and not yet removed
        self._pending_remove: str | None = None

    def next(self) -> Request:
        position = self.position
        self.position += 1
        if self._pending_read is not None:
            index, self._pending_read = self._pending_read, None
            request = self._discovery(index)
            request.verify = True
        else:
            draw = self._rng.random()
            kind = self._kinds[-1]
            for candidate, edge in zip(self._kinds, self._cum):
                if draw < edge:
                    kind = candidate
                    break
            request = getattr(self, "_" + kind)()
        if self.inputs.spec.churn and position % SWEEP_EVERY == 0:
            request.sweep = True
        return request

    # -- reads -----------------------------------------------------------------

    def _discovery(self, index: int | None = None) -> Request:
        services = self.inputs.services
        if index is None:
            index = self._rng.randrange(len(services))
        request = Request("discovery", GetServiceBindingsRequest(services[index].id))
        request.service = index
        if index % self.clients == self.client:
            request.limits = self._rewritten.get(index, services[index].limits)
        elif not self.inputs.spec.writes:
            request.limits = services[index].limits
        return request

    def _adhoc_hot(self) -> Request:
        return Request("adhoc", AdhocQueryRequest(self._rng.choice(self.inputs.hot_texts)))

    def _adhoc_cold(self) -> Request:
        return Request(
            "adhoc", AdhocQueryRequest(self._rng.choice(self.inputs.cold_texts))
        )

    # -- writes ----------------------------------------------------------------

    def _write(self, body_cls, payload) -> Request:
        self._writes += 1
        key = f"c{self.client}-w{self._writes}"
        request = Request("write", body_cls(payload, idempotency_key=key), auth=True)
        request.resend = self._writes % RESEND_EVERY == 0
        return request

    def _w_constraint(self) -> Request:
        index = self._rng.choice(self._owned)
        limits = Limits(load_below=0.5 + 0.25 * self._rng.randrange(20))
        self._rewritten[index] = limits
        self._pending_read = index
        payload = self.templates.service(index, limits.description())
        return self._write(UpdateObjectsRequest, [payload])

    def _w_org(self) -> Request:
        index = self._rng.choice(self._owned_orgs)
        payload = self.templates.org(index, f"churn {self.client}-{self._writes}")
        return self._write(UpdateObjectsRequest, [payload])

    def _w_pair(self) -> Request:
        if self._pending_remove is not None:
            service_id, self._pending_remove = self._pending_remove, None
            return self._write(RemoveObjectsRequest, [service_id])
        service_id, binding_id = self._ids.new_id(), self._ids.new_id()
        self._pending_remove = service_id
        payload = self.templates.transient(
            service_id, binding_id, f"Tmp{self.client}-{self._writes}x"
        )
        return self._write(SubmitObjectsRequest, payload)


def write_probe(inputs: Inputs, templates: "Templates", count: int) -> list[Request]:
    """Rewrites of services with the description they were loaded with.

    The write commits, bumps the version and invalidates what any rewrite
    invalidates, yet leaves every discovery answer as it was.
    """
    services = inputs.services
    return [
        Request(
            "write",
            UpdateObjectsRequest(
                [templates.service(i % len(services), services[i % len(services)].limits.description())]
            ),
            auth=True,
        )
        for i in range(count)
    ]


class Templates:
    """Serialized write payloads, built once from the loaded objects.

    A client publishes by sending the serialized object back with one field
    changed; the templates are taken with the program's own ``serialize`` at
    set-up, so generating a write during a timed phase is a dict copy.
    """

    def __init__(
        self,
        services: list[dict],
        orgs: list[dict],
        transient_service: dict,
        transient_binding: dict,
    ) -> None:
        self._services = services
        self._orgs = orgs
        self._transient_service = transient_service
        self._transient_binding = transient_binding

    @staticmethod
    def _with_description(template: dict, text: str) -> dict:
        data = dict(template)
        data["description"] = [dict(template["description"][0], value=text)]
        return data

    def service(self, index: int, description: str) -> dict:
        return self._with_description(self._services[index], description)

    def org(self, index: int, description: str) -> dict:
        return self._with_description(self._orgs[index], description)

    def transient(self, service_id: str, binding_id: str, name: str) -> list[dict]:
        """A short-lived Service with one binding, for Submit/Remove pairs."""
        service = dict(self._transient_service)
        service.update(
            id=service_id,
            lid=service_id,
            name=[dict(service["name"][0], value=name)],
            bindingIds=[binding_id],
        )
        binding = dict(self._transient_binding)
        binding.update(id=binding_id, lid=binding_id, service=service_id)
        return [service, binding]
