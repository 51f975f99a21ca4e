"""The system under test, assembled once per set-up, and the wire path into it.

:class:`Rig` builds a registry from a workload's inputs, installs the
paper's constraint resolver on it, and starts the serving supervisor.
:class:`Wire` is one client's full wire path::

    envelope_to_xml → SimTransport.request → [endpoint: envelope_from_xml →
    ServingSupervisor.call → envelope_to_xml] → envelope_from_xml → deserialize

with a bench-owned timestamp at every boundary.  Nothing here reaches into
the program: every call is to a public function of a ``repro`` package.
"""

from __future__ import annotations

from time import perf_counter_ns

from repro.core import attach_load_balancer
from repro.persistence.nodestate import NodeSample
from repro.registry import RegistryConfig, RegistryServer
from repro.rim import Organization, Service, ServiceBinding
from repro.serving import ServingConfig, ServingSupervisor
from repro.sim.engine import SimEngine
from repro.soap import (
    SimTransport,
    SoapEnvelope,
    SoapFault,
    deserialize,
    envelope_from_xml,
    envelope_to_xml,
    serialize,
)
from repro.util.clock import ManualClock

from workloads import BENCH_CLOCK_START, SWEEP_PERIOD_S, Inputs, Samples, Templates

WORKERS = 2
#: objects loaded between two calls of a set-up's ``pace``
PACE_EVERY = 8
ENDPOINT = "http://registry.bench:8080/omar/registry/soap"
CALL_TIMEOUT_S = 60.0

#: span names of one wire request, with the index pairs of the nine
#: timestamps :meth:`Wire.request` takes (start, end) and the parent span
SPANS = (
    ("client.encode", 0, 1, None),
    ("transport.request", 1, 6, None),
    ("endpoint.decode", 2, 3, "transport.request"),
    ("serving.call", 3, 4, "transport.request"),
    ("endpoint.encode", 4, 5, "transport.request"),
    ("client.decode", 6, 7, None),
    ("client.deserialize", 7, 8, None),
)


class Rig:
    """One workload's running system: registry + resolver + serving fleet.

    *pace*, if given, is called after every :data:`PACE_EVERY` objects loaded:
    a timed set-up runs the reference kernel there.
    """

    def __init__(self, inputs: Inputs, pace=None) -> None:
        self.inputs = inputs
        spec = inputs.spec
        self.clock = ManualClock(start=BENCH_CLOCK_START)
        self.registry = RegistryServer(
            RegistryConfig(seed=inputs.seed), clock=self.clock
        )
        registry = self.registry
        self.record_samples(inputs.static_samples)
        services: list[Service] = []
        orgs: list[Organization] = []
        loaded = 0

        def load(obj) -> None:
            nonlocal loaded
            registry.store.insert_object(obj)
            loaded += 1
            if pace is not None and loaded % PACE_EVERY == 0:
                pace()

        with registry.store.batch():
            for item in inputs.services:
                service = Service(
                    item.id, name=item.name, description=item.limits.description()
                )
                for n, (binding_id, _host, uri) in enumerate(item.bindings):
                    service.binding_ids.append(binding_id)
                    load(
                        ServiceBinding(
                            binding_id,
                            service=item.id,
                            access_uri=uri,
                            name=f"{item.name}.b{n}",
                        )
                    )
                load(service)
                services.append(service)
            for org_id, name in inputs.orgs:
                org = Organization(
                    org_id, name=name, description="Benchmark organization."
                )
                load(org)
                orgs.append(org)
        self.balancer = attach_load_balancer(
            registry,
            SimTransport(),
            SimEngine(start=self.clock.now()),
            mode=spec.mode,
            start_monitor=False,
        )
        _user, credential = registry.register_user(
            "bench-writer", roles={"RegistryAdministrator"}
        )
        self.session = registry.login(credential)
        self.templates = Templates(
            [serialize(service) for service in services],
            [serialize(org) for org in orgs],
            serialize(Service(services[0].id, name="Tmp", description="transient")),
            serialize(
                ServiceBinding(
                    inputs.services[0].bindings[0][0],
                    service=services[0].id,
                    access_uri="http://tmp.bench:8080/tmp/endpoint",
                    name="Tmp.b0",
                )
            ),
        )
        self.supervisor = ServingSupervisor(registry, ServingConfig(workers=WORKERS))
        self.supervisor.register_session(self.session)
        self.supervisor.start()
        #: last NodeState sweep applied (churn); -1 = the static set-up samples
        self.sweep_index = -1

    def close(self) -> None:
        self.supervisor.close()
        self.balancer.detach(self.registry)

    # -- NodeState ------------------------------------------------------------

    def record_samples(self, samples: Samples) -> None:
        now = self.clock.now()
        record = self.registry.node_state.record_sample
        for host, (load, memory, swap) in samples.items():
            record(
                NodeSample(
                    host=host, load=load, memory=memory, swap_memory=swap, updated=now
                )
            )

    def sweep(self, index: int) -> None:
        """The monitoring sweep of churn: advance 25 s, rewrite all samples."""
        self.clock.advance(SWEEP_PERIOD_S)
        self.record_samples(self.inputs.sweep_samples(index))
        self.sweep_index = index

    def wire(self) -> "Wire":
        return Wire(self.supervisor, self.session.token)


class Answer:
    """One decoded reply: the response body and its deserialized objects."""

    __slots__ = ("body", "objects")

    def __init__(self, body, objects) -> None:
        self.body = body
        self.objects = objects

    @property
    def ok(self) -> bool:
        return not isinstance(self.body, SoapFault) and self.body.is_success


class Wire:
    """One client's wire path to the supervisor.

    Each client owns its transport and endpoint closure, so the boundary
    timestamps of a request live on the instance without any locking.
    ``spans`` is ``None`` on untraced runs; on traced runs every request
    appends its nine timestamps, the two message sizes (the XML is ASCII, so
    characters are bytes) and the answer's object count to it.
    """

    def __init__(self, supervisor: ServingSupervisor, token: str) -> None:
        self.supervisor = supervisor
        self.token = token
        self.transport = SimTransport()
        self.transport.register_endpoint(ENDPOINT, self._endpoint)
        self.spans: list[tuple] | None = None
        self._stamps = (0, 0, 0, 0)

    def _endpoint(self, wire_text: str) -> str:
        t2 = perf_counter_ns()
        envelope = envelope_from_xml(wire_text)
        t3 = perf_counter_ns()
        response = self.supervisor.call(
            body=envelope.body, token=envelope.session_token, timeout=CALL_TIMEOUT_S
        )
        t4 = perf_counter_ns()
        reply = envelope_to_xml(SoapEnvelope(body=response))
        self._stamps = (t2, t3, t4, perf_counter_ns())
        return reply

    def request(self, body, auth: bool = False) -> Answer:
        t0 = perf_counter_ns()
        wire_text = envelope_to_xml(
            SoapEnvelope.with_session(body, self.token if auth else None)
        )
        t1 = perf_counter_ns()
        reply_text = self.transport.request(ENDPOINT, wire_text)
        t6 = perf_counter_ns()
        reply = envelope_from_xml(reply_text).body
        t7 = perf_counter_ns()
        if isinstance(reply, SoapFault):
            objects = []
        else:
            objects = [deserialize(data) for data in reply.objects]
        spans = self.spans
        if spans is not None:
            spans.append(
                (t0, t1, *self._stamps, t6, t7, perf_counter_ns(),
                 len(wire_text), len(reply_text), len(objects))
            )
        return Answer(reply, objects)
