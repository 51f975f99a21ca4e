"""Tests for the registry kernel: pipeline stages, stats, call budgets."""

import dataclasses
import gc
import sys
import threading

import pytest

from repro.registry.kernel import UNRESOLVED_OPERATION, OperationSpec
from repro.registry import RegistryConfig, RegistryServer
from repro.rim import Organization
from repro.security.xacml import Effect, Policy, Rule, default_policy
from repro.serving import ServingConfig, ServingSupervisor
from repro.soap import (
    AdhocQueryRequest,
    GetRegistryObjectRequest,
    HttpGetBinding,
    SoapEnvelope,
    SoapFault,
    SoapRegistryBinding,
    SubmitObjectsRequest,
    serialize,
)

from repro.util.clock import ManualClock
from repro.util.errors import AuthorizationError

from conftest import publish_service_with_bindings
from test_obs_costattr import TickingClock


@pytest.fixture
def binding(registry) -> SoapRegistryBinding:
    return SoapRegistryBinding(registry)


def login_via(binding, registry, alias="kernel-user"):
    _, credential = registry.register_user(alias)
    session = registry.login(credential)
    binding.register_session(session)
    return session


class TestOperationRegistry:
    def test_managers_register_declaratively(self, registry):
        ops = registry.kernel.operations()
        # write side (LifeCycleManager)
        for name in ("submitObjects", "updateObjects", "removeObjects", "addSlots"):
            assert name in ops
        # read side (QueryManager) + repository edge-native op
        for name in ("executeQuery", "getRegistryObject", "getRepositoryItem"):
            assert name in ops

    def test_spec_flags(self, registry):
        assert registry.kernel.operation("submitObjects").requires_session
        assert not registry.kernel.operation("executeQuery").requires_session
        assert registry.kernel.operation("executeQuery").read_gate

    def test_default_chain_order(self, registry, session):
        """A traced hit passes every stage of a plain registry, in order."""
        org, _svc = publish_service_with_bindings(registry, session)
        registry.enable_tracing()
        binding = SoapRegistryBinding(registry)
        binding.handle(SoapEnvelope(body=GetRegistryObjectRequest(object_id=org.id)))
        assert _stage_spans(registry) == [
            "account",
            "fault-map",
            "admit",
            "resolve",
            "authenticate",
            "authorize",
            "validate",
            "dispatch",
        ]


class TestPipelineStats:
    def test_counts_and_latency_per_edge(self, registry, session, binding):
        publish_service_with_bindings(registry, session)
        binding.handle(
            SoapEnvelope(body=AdhocQueryRequest(query="SELECT name FROM Organization"))
        )
        binding.handle(
            SoapEnvelope(body=AdhocQueryRequest(query="SELECT name FROM Organization"))
        )
        stats = registry.pipeline_stats()
        op = stats["soap"]["executeQuery"]
        assert op["count"] == 2
        assert op["faults"] == 0
        assert op["total_latency_s"] > 0
        assert op["min_latency_s"] <= op["mean_latency_s"] <= op["max_latency_s"]

    def test_fault_tallies_by_code(self, registry, binding):
        org = Organization(registry.ids.new_id())
        response = binding.handle(
            SoapEnvelope(body=SubmitObjectsRequest(objects=[serialize(org)]))
        )
        assert isinstance(response, SoapFault)
        op = registry.pipeline_stats()["soap"]["submitObjects"]
        assert op["faults"] == 1
        assert op["fault_codes"] == {"urn:repro:error:AuthenticationFailed": 1}

    def test_unresolved_operation_accounted(self, registry, binding):
        response = binding.handle(SoapEnvelope(body=object()))
        assert isinstance(response, SoapFault)
        op = registry.pipeline_stats()["soap"][UNRESOLVED_OPERATION]
        assert op["fault_codes"] == {"urn:repro:error:InvalidRequest": 1}

    def test_all_three_edges_reported(self, registry, session, binding):
        from repro.client.jaxr import ConnectionFactory

        org, _svc = publish_service_with_bindings(registry, session)
        binding.handle(SoapEnvelope(body=GetRegistryObjectRequest(object_id=org.id)))
        HttpGetBinding(registry).get(
            f"http://x/omar?interface=QueryManager&method=getRegistryObject&param-id={org.id}"
        )
        conn = ConnectionFactory(registry, local_call=True).create_connection()
        conn.get_registry_service().get_business_query_manager().get_registry_object(
            org.id
        )
        stats = registry.pipeline_stats()
        for edge in ("soap", "http", "local"):
            assert stats[edge]["getRegistryObject"]["count"] == 1


LOCAL_STAGES = (
    "account",
    "fault-map",
    "admit",
    "resolve",
    "authenticate",
    "authorize",
    "validate",
    "dispatch",
)
#: a federation member's stages: ``route`` runs after ``resolve``
ROUTED_STAGES = LOCAL_STAGES[:4] + ("route",) + LOCAL_STAGES[4:]


def _stage_spans(registry):
    """The stage names of *registry*'s last trace, outermost first."""
    return [
        span.name[len("stage:") :]
        for span in registry.telemetry.tracer.last_trace().iter_spans()
        if span.name.startswith("stage:")
    ]


def _reached(stages, last):
    """The stages as far as a request that ends in stage *last* gets."""
    return list(stages[: stages.index(last) + 1])


def _plain_registry():
    registry = RegistryServer(
        RegistryConfig(seed=42), clock=ManualClock(), monotonic=TickingClock()
    )
    _, credential = registry.register_user("composer")
    org = Organization(registry.ids.new_id(), name="Composed")
    registry.lcm.submit_objects(registry.login(credential), [org])
    # a hit, a miss that faults locally, and a body of no known type
    requests = (
        (GetRegistryObjectRequest(object_id=org.id), "dispatch"),
        (GetRegistryObjectRequest(object_id="urn:uuid:missing"), "dispatch"),
        (object(), "resolve"),
    )
    return registry, LOCAL_STAGES, requests


def _federation_member():
    from repro.registry import RegistryFederation

    federation = RegistryFederation("composed")
    members = []
    for n in range(2):
        member = RegistryServer(
            RegistryConfig(seed=42 + n, home=f"http://member{n}.test:8080/omar/registry"),
            clock=ManualClock(),
            monotonic=TickingClock(),
        )
        federation.join(member)
        _, credential = member.register_user("composer")
        session = member.login(credential)
        object_id = member.ids.new_id()
        while federation.shard_map.owner(object_id) != member.home:
            object_id = member.ids.new_id()
        member.lcm.submit_objects(session, [Organization(object_id, name=f"Org{n}")])
        members.append((member, object_id))
    (registry, held), (_other, remote) = members
    # a hit, a miss the route step forwards, and a body of no known type
    requests = (
        (GetRegistryObjectRequest(object_id=held), "dispatch"),
        (GetRegistryObjectRequest(object_id=remote), "route"),
        (object(), "resolve"),
    )
    return registry, ROUTED_STAGES, requests


def _run_pipeline(build, tracing):
    """Three requests through one registry's pipeline in one tracing state."""
    registry, stages, requests = build()
    registry.enable_tracing(tracing)
    binding = SoapRegistryBinding(registry)
    outcomes = []
    for body, last in requests:
        response = binding.handle(SoapEnvelope(body=body))
        outcomes.append(
            dataclasses.asdict(response)
            if isinstance(response, SoapFault)
            else (response.status, response.objects)
        )
        if tracing:
            assert _stage_spans(registry) == _reached(stages, last)
    if tracing:
        split = registry.telemetry.attribution_stats()
        assert split["attributed_s"] == pytest.approx(
            split["queue_wait_s"] + split["stage_s"] + split["forward_hop_s"]
        )
        assert sum(split["stages"].values()) == pytest.approx(split["stage_s"])
    tracer = registry.telemetry.tracer
    assert tracer.stats()["traces_kept"] == (3 if tracing else 0)
    assert registry.telemetry.attribution_stats()["requests"] == (3 if tracing else 0)
    counts = {
        operation: (stats["count"], stats["faults"], stats["fault_codes"])
        for operation, stats in registry.pipeline_stats()["soap"].items()
    }
    return outcomes, counts


class TestCompositionEquivalence:
    """Traced and untraced requests run one pipeline."""

    @pytest.mark.parametrize(
        "build", (_plain_registry, _federation_member), ids=("default", "member")
    )
    def test_every_flag_state_behaves_alike(self, build):
        plain, traced = [_run_pipeline(build, tracing) for tracing in (False, True)]
        assert traced == plain
        outcomes, counts = plain
        status, objects = outcomes[0]
        assert status == "Success" and len(objects) == 1
        assert outcomes[2]["fault_code"] == "urn:repro:error:InvalidRequest"
        if build is _plain_registry:
            assert outcomes[1]["fault_code"] == "urn:repro:error:ObjectNotFound"
            assert counts == {
                "getRegistryObject": (2, 1, {"urn:repro:error:ObjectNotFound": 1}),
                UNRESOLVED_OPERATION: (1, 1, {"urn:repro:error:InvalidRequest": 1}),
            }
        else:
            # the forwarded miss comes back as the owner's answer
            status, objects = outcomes[1]
            assert status == "Success" and objects[0]["name"][0]["value"] == "Org1"
            assert counts == {
                "getRegistryObject": (2, 0, {}),
                UNRESOLVED_OPERATION: (1, 1, {"urn:repro:error:InvalidRequest": 1}),
            }

    def test_flag_flips_reach_the_next_request(self, registry, binding):
        """No recomposition call: execute reads the flag per request, and
        attribution counts exactly the traced requests."""
        envelope = SoapEnvelope(
            body=AdhocQueryRequest(query="SELECT name FROM Organization")
        )
        tracer = registry.telemetry.tracer
        attributed = lambda: registry.telemetry.attribution_stats()["requests"]
        binding.handle(envelope)
        assert tracer.last_trace() is None and attributed() == 0
        registry.enable_tracing()
        for _ in range(2):
            binding.handle(envelope)
        assert len(tracer.last_trace().find("stage:dispatch")) == 1
        assert tracer.stats()["traces_kept"] == attributed() == 2
        registry.enable_tracing(False)
        binding.handle(envelope)
        assert tracer.stats()["traces_kept"] == attributed() == 2
        registry.enable_tracing()
        binding.handle(envelope)
        assert tracer.stats()["traces_kept"] == attributed() == 3


class TestCallBudget:
    #: call + c_call events of one no-op read-gated request at the commit
    #: before the chain was fused (CPython 3.11)
    UNFUSED_EVENTS = 90
    #: the same request now (57 while the account stage wrote every request
    #: into PipelineStats as well as the latency histogram; 47 while the
    #: stages were an interceptor chain, whose three composed layers, two
    #: ``proceed`` lambdas, terminal and per-tracing-state cache lookup the
    #: fixed pipeline does not have; 40 while each edge's own authenticate
    #: callback fetched the guest session through ``registry.guest()``)
    RECORDED_ONCE_EVENTS = 38

    @staticmethod
    def call_events(run) -> int:
        """Interpreter call + c_call events of one warmed-up ``run()``."""
        events = 0

        def profiler(frame, event, arg):
            nonlocal events
            if event in ("call", "c_call"):
                events += 1

        for _ in range(3):
            run()
        # a collection inside the counted run would add its callbacks' calls
        # (hypothesis installs one for the session) — count the path alone
        gc.disable()
        sys.setprofile(profiler)
        try:
            run()
        finally:
            sys.setprofile(None)
            gc.enable()
        return events

    def test_noop_request_stays_within_two_thirds_of_the_unfused_chain(
        self, registry
    ):
        """A clock-free guard against stages leaking work back onto the path.

        Observability is at its defaults (tracing off), the
        handler does nothing, so every event counted is the fixed path:
        context, stages, read decision, accounting.
        """
        edge = ServingSupervisor(registry).edge
        noop = OperationSpec(name="noop", handler=lambda ctx: None, read_gate=True)
        body = AdhocQueryRequest(query="SELECT id FROM Service")

        def run():
            registry.kernel.execute(edge, body=body, spec=noop)

        first, second = self.call_events(run), self.call_events(run)
        assert first == second
        assert first <= self.UNFUSED_EVENTS * 2 // 3
        # one accounting call per request: a second record cannot come back
        assert first <= self.RECORDED_ONCE_EVENTS

    #: what `supervisor.call` with a free permit adds to the kernel's own count
    #: (CPython 3.11): its frame, a ``dict.get``, the gate's ``admit_inline``,
    #: ``_count_in`` and ``done`` with their two lock exits, less the five
    #: events of the worker-label lookup its tags spare the kernel.  7 while
    #: every call built a tag dict and ``done`` notified a condition nobody
    #: waited on
    INLINE_EVENTS = 2

    def test_inline_call_adds_at_most_two_events_and_no_hand_off(
        self, registry, monkeypatch
    ):
        """The serving layer's own cost on the path `call` takes when a permit
        is free: no Future, no WorkItem, no second thread, no notify."""
        from repro.serving import supervisor as serving

        built: list[str] = []
        for name in ("Future", "WorkItem"):
            real = getattr(serving, name)
            monkeypatch.setattr(
                serving,
                name,
                lambda *args, _real=real, _name=name, **kw: (
                    built.append(_name),
                    _real(*args, **kw),
                )[1],
            )
        ran_on: list[int] = []
        noop = OperationSpec(
            name="noop",
            handler=lambda ctx: ran_on.append(threading.get_ident()),
            read_gate=True,
        )
        body = AdhocQueryRequest(query="SELECT id FROM Service")
        with ServingSupervisor(registry, ServingConfig(workers=1)) as supervisor:
            kernel_events = self.call_events(
                lambda: registry.kernel.execute(supervisor.edge, body=body, spec=noop)
            )
            inline = lambda: supervisor.call(body=body, spec=noop)  # noqa: E731
            first, second = self.call_events(inline), self.call_events(inline)
            assert supervisor.submit(body=body, spec=noop).result(timeout=30.0) is None
            assert supervisor.serving_stats()["served_inline"] == 8
        assert first == second
        assert first - kernel_events <= self.INLINE_EVENTS
        assert built == ["Future", "WorkItem"]  # the submit, and only it
        assert set(ran_on[:-1]) == {threading.get_ident()} != {ran_on[-1]}


class TestResolveBudget:
    """A clock-free budget on the discovery decision itself: one FILTER
    service bound on every monitored host, a handful of them satisfying.

    Guards against per-binding work coming back onto the request path — a
    sample fetch, staleness check or constraint check per binding per
    request read about 1 300 events for this service at 64 hosts.  Between
    two sweeps a resolve reads the answer kept on the service's join: it
    read 39 events when it still ranked, and 19 once kept.
    """

    #: call + c_call events of one warm ``resolve_bindings(view, copy=False)``:
    #: the join, the constraint parse, the window and the kept answer's tags
    WARM_EVENTS = 24
    #: the same call right after a sweep: one sort of the monitored hosts by
    #: load and one constraint evaluation over the range the cpuLoad clause cuts
    FIRST_AFTER_SWEEP_EVENTS = 700
    ANSWER = 9
    DESCRIPTION = (
        "<constraint><cpuLoad>load ls 1.0</cpuLoad><memory>memory gr 1GB</memory>"
        "<swapmemory>swapmemory gr 5MB</swapmemory></constraint>"
    )

    def rig(self, n_hosts, answer=ANSWER):
        """(resolve, sweep) over a registry with *n_hosts* monitored hosts, the
        first *answer* of them satisfying."""
        from repro.core import attach_load_balancer
        from repro.core.balancer import BalanceMode
        from repro.persistence.nodestate import NodeSample
        from repro.rim import Service, ServiceBinding
        from repro.sim.engine import SimEngine
        from repro.soap import SimTransport

        clock = ManualClock(start=10 * 3600.0)
        registry = RegistryServer(RegistryConfig(seed=5), clock=clock)
        hosts = [f"host{n:03d}.bench" for n in range(n_hosts)]
        service = Service(registry.ids.new_id(), name="Adder", description=self.DESCRIPTION)
        with registry.store.transaction():
            for host in hosts:
                binding = ServiceBinding(
                    registry.ids.new_id(), service=service.id, access_uri=f"http://{host}:8080/a"
                )
                service.binding_ids.append(binding.id)
                registry.store.insert_object(binding)
            registry.store.insert_object(service)
        attach_load_balancer(
            registry,
            SimTransport(),
            SimEngine(start=clock.now()),
            mode=BalanceMode.FILTER,
            start_monitor=False,
        )

        def sweep():
            """The first *answer* hosts satisfy; the rest fail a clause each, in turn."""
            clock.advance(25.0)
            samples = []
            for n, host in enumerate(hosts):
                failing = None if n < answer else n % 3
                samples.append(
                    NodeSample(
                        host=host,
                        load=5.0 if failing == 0 else 0.01 * ((n * 7) % answer),
                        memory=(1 << 20) if failing == 1 else (4 << 30),
                        swap_memory=(1 << 10) if failing == 2 else (1 << 30),
                        updated=clock.now(),
                    )
                )
            registry.node_state.record_sweep(samples)

        sweep()
        view = registry.daos.services.get_view(service.id)

        def resolve():
            return registry.daos.services.resolve_bindings(view, copy=False)

        return resolve, sweep

    def test_warm_resolve_follows_the_answer_not_the_partition(self):
        resolve, _sweep = self.rig(64)
        first = TestCallBudget.call_events(resolve)
        assert first == TestCallBudget.call_events(resolve)
        assert first <= self.WARM_EVENTS
        answer = [b.host for b in resolve()]
        assert len(answer) == self.ANSWER and 3 <= self.ANSWER <= 15
        # the same answer drawn from twice the hosts costs the same
        resolve_128, _sweep = self.rig(128)
        assert [b.host for b in resolve_128()] == answer
        assert TestCallBudget.call_events(resolve_128) <= first + 10
        # ... and a kept answer of a third of the hosts costs exactly as much
        resolve_3, _sweep = self.rig(64, answer=3)
        assert len(resolve_3()) == 3
        assert TestCallBudget.call_events(resolve_3) == first

    def test_first_resolve_after_a_sweep_is_one_pass_over_the_monitored_hosts(self):
        resolve, sweep = self.rig(64)

        def sweep_then_resolve():
            sweep()
            resolve()

        swept = TestCallBudget.call_events(sweep)
        assert TestCallBudget.call_events(sweep_then_resolve) - swept <= (
            self.FIRST_AFTER_SWEEP_EVENTS
        )
        assert TestCallBudget.call_events(resolve) <= self.WARM_EVENTS


class TestRequestIds:
    def test_request_ids_never_touch_idfactory(self):
        """Kernel request ids must not perturb seeded object-id sequences."""
        a = RegistryServer(RegistryConfig(seed=123))
        b = RegistryServer(RegistryConfig(seed=123))
        binding = SoapRegistryBinding(a)
        for _ in range(5):
            binding.handle(SoapEnvelope(body=AdhocQueryRequest(query="SELECT id FROM Service")))
        assert a.ids.new_id() == b.ids.new_id()


class TestReadGate:
    def test_private_registry_http_rejected_before_method_resolution(self):
        registry = RegistryServer(RegistryConfig(seed=1, registry_type="private"))
        response = HttpGetBinding(registry).get(
            "http://x/omar?interface=QueryManager&method=mystery"
        )
        assert isinstance(response, SoapFault)
        # the admit stage gates first, as the pre-kernel binding did
        assert "AuthorizationFailed" in response.fault_code

    def test_private_registry_soap_query_rejected(self):
        registry = RegistryServer(RegistryConfig(seed=1, registry_type="private"))
        binding = SoapRegistryBinding(registry)
        response = binding.handle(
            SoapEnvelope(body=AdhocQueryRequest(query="SELECT id FROM Service"))
        )
        assert isinstance(response, SoapFault)
        assert "AuthorizationFailed" in response.fault_code


class TestReadDecisionMemo:
    """check_read decides once per session, and never outlives the policies."""

    @staticmethod
    def _deny_alias(alias):
        asked = []

        def matches(request):
            asked.append(request.subject["alias"])
            return request.subject["alias"] == alias

        policy = Policy(
            name=f"urn:test:deny:{alias}",
            rules=[Rule(name="deny-alias", matches=matches, effect=Effect.DENY)],
        )
        return policy, asked

    def test_decided_once_until_the_policy_set_changes(self, registry, binding):
        envelope = SoapEnvelope(body=AdhocQueryRequest(query="SELECT id FROM Service"))
        bystander, asked = self._deny_alias("nobody")
        registry.pdp.policies.append(bystander)
        for _ in range(3):
            assert not isinstance(binding.handle(envelope), SoapFault)
        assert asked == ["guest"]

        # appended: the very next read is decided again, and denied
        deny_guest, _ = self._deny_alias("guest")
        registry.pdp.policies.append(deny_guest)
        fault = binding.handle(envelope)
        assert isinstance(fault, SoapFault)
        assert "AuthorizationFailed" in fault.fault_code
        with pytest.raises(AuthorizationError):
            registry.check_read(registry.guest())
        # a remembered denial denies again
        with pytest.raises(AuthorizationError):
            registry.check_read(registry.guest())

        # replaced by a list of the same length: decided again, permitted
        registry.pdp.policies = [default_policy(), bystander, bystander]
        assert not isinstance(binding.handle(envelope), SoapFault)
        # and again, denied
        registry.pdp.policies = [default_policy(), bystander, deny_guest]
        assert isinstance(binding.handle(envelope), SoapFault)

    def test_edits_inside_the_policy_set_are_seen_by_the_next_read(self, registry):
        """Same list object, same length: the memo must still notice."""
        guest = registry.guest()
        policies = registry.pdp.policies
        bystander, _ = self._deny_alias("nobody")
        deny_guest, _ = self._deny_alias("guest")
        deny_rule = deny_guest.rules[0]

        def permitted():
            try:
                registry.check_read(guest)
            except AuthorizationError:
                return False
            return True

        policies.append(bystander)
        assert permitted()
        # a policy swapped in place
        policies[-1] = deny_guest
        assert not permitted()
        # removed and another appended: the length never changed between reads
        policies.remove(deny_guest)
        policies.append(bystander)
        assert permitted()
        # a rule inserted into a policy the set already holds
        bystander.rules.insert(0, deny_rule)
        assert not permitted()
        # rules reordered: first-applicable now reaches the permit first
        permit_all = Rule(name="permit", matches=lambda r: True, effect=Effect.PERMIT)
        bystander.rules[:] = [permit_all, deny_rule]
        assert permitted()
        bystander.rules[:] = [deny_rule, permit_all]
        assert not permitted()
        # a rule replaced in place
        bystander.rules[0] = permit_all
        assert permitted()

    def test_equal_roles_are_not_one_decision(self, registry):
        deny_mallory, asked = self._deny_alias("mallory")
        registry.pdp.policies.append(deny_mallory)
        alice = dataclasses.replace(
            registry.guest(), token="urn:t:1", user_id="urn:u:1", alias="alice"
        )
        mallory = dataclasses.replace(alice, token="urn:t:2", alias="mallory")
        assert alice.roles == mallory.roles
        registry.check_read(alice)
        with pytest.raises(AuthorizationError):
            registry.check_read(mallory)
        registry.check_read(alice)
        assert asked == ["alice", "mallory"]
        # same alias and roles under another token: its own decision
        registry.check_read(dataclasses.replace(alice, token="urn:t:3"))
        assert asked == ["alice", "mallory", "alice"]
