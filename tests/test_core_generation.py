"""One NodeState generation per decision: the per-host evaluation is the oracle.

``LoadStatus`` answers "which monitored hosts satisfy these constraints" once
per (NodeState version, constraint set) and the resolver joins that answer to
a service's bindings.  The reference functions below are the evaluation it
replaced — one table read and one constraint check per host per request —
kept here, on purpose, so every property is stated against code that shares
nothing with the implementation.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import ConstraintBindingResolver, LoadStatus, ServiceConstraint
from repro.core import load_status as load_status_module
from repro.core.balancer import BalanceMode
from repro.core.constraints import parse_constraints
from repro.core.monitor import TimeHits
from repro.persistence import DAORegistry, DataStore, NodeSample, NodeStateStore
from repro.query import QueryEngine
from repro.registry import QueryManager
from repro.rim import Service, ServiceBinding
from repro.sim import Cluster, HostSpec
from repro.soap import SimTransport
from repro.util.clock import ManualClock
from repro.util.ids import IdFactory

from conftest import publish_nodestatus

GB = 1 << 30


# -- the oracle: today's answer, one host at a time ----------------------------


def reference_table(store):
    """host → sample as the scan engine answers ``SELECT * FROM NodeState``."""
    rows = QueryEngine(store, planner=False).execute("SELECT * FROM NodeState")
    return {
        row["host"]: NodeSample(
            row["host"], row["load"], row["memory"], row["swapmemory"], row["updated"]
        )
        for row in rows
    }


def reference_rank(store, hosts, constraints):
    table = reference_table(store)
    samples = {}
    for host in hosts:
        if host not in samples:
            samples[host] = table.get(host)
    position = {}
    for index, host in enumerate(hosts):
        position.setdefault(host, index)
    satisfying = [
        h
        for h in hosts
        if (sample := samples[h]) is not None and constraints.satisfied_by(sample)
    ]
    return sorted(satisfying, key=lambda h: (samples[h].load, position[h]))


def reference_satisfying(store, hosts, constraints):
    table = reference_table(store)
    return [
        h
        for h in hosts
        if (sample := table.get(h)) is not None and constraints.satisfied_by(sample)
    ]


def reference_resolve(store, constraints, bindings, mode):
    hosts, by_host = [], {}
    for binding in bindings:
        host = binding.host
        if host is not None:
            hosts.append(host)
            by_host.setdefault(host, []).append(binding)
    satisfying = []
    for host in reference_rank(store, hosts, constraints):
        satisfying.extend(by_host.pop(host, ()))
    if mode is BalanceMode.FILTER:
        return satisfying or list(bindings)
    taken = {b.id for b in satisfying}
    return satisfying + [b for b in bindings if b.id not in taken]


# -- a small world -------------------------------------------------------------

HOSTS = [f"h{n}" for n in range(6)]
#: every operator of the language, both spellings of greater-than, ties on the
#: threshold (``eq``, the ``ls``/``leq`` and the ``gt``/``geq`` pairs differ
#: exactly there)
BLOCKS = [
    "<constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>",
    "<constraint><cpuLoad>load leq 1.0</cpuLoad></constraint>",
    "<constraint><cpuLoad>load eq 1.0</cpuLoad></constraint>",
    "<constraint><cpuLoad>load gr 0.5</cpuLoad></constraint>",
    "<constraint><cpuLoad>load gt 0.5</cpuLoad><memory>memory geq 2GB</memory></constraint>",
    "<constraint><cpuLoad>load ls 2.0</cpuLoad><memory>memory gr 1GB</memory>"
    "<swapmemory>swapmemory gr 5MB</swapmemory></constraint>",
    "<constraint><cpuLoad>load geq 1.0</cpuLoad></constraint>",
]
LOADS = [0.0, 0.5, 1.0, 1.0, 1.5, 3.0]
MEMORY = [GB, 2 * GB, 4 * GB]
ids = IdFactory(2020)


def make_service(description, hosts):
    """A service whose bindings share hosts, plus one with no host at all."""
    service = Service(ids.new_id(), name="Adder", description=description)
    bindings = [
        ServiceBinding(ids.new_id(), service=service.id, access_uri=f"http://{h}:80/{n}")
        for n, h in enumerate(hosts)
    ]
    bindings.insert(
        len(bindings) // 2,
        ServiceBinding(ids.new_id(), service=service.id, target_binding=ids.new_id()),
    )
    service.binding_ids.extend(b.id for b in bindings)
    return service, bindings


#: host lists with a repeated host (two bindings on one machine) and a host
#: the monitor has never heard of
SERVICES = [
    make_service(block, hosts)
    for block, hosts in zip(
        BLOCKS,
        [
            ["h0", "h1", "h2", "h3", "h4", "h5"],
            ["h3", "h1", "h3", "h0"],
            ["h5", "h4", "h5", "h5", "nowhere"],
            ["h2"],
            ["h1", "h0", "h1", "h2", "h0"],
            ["h4", "h2", "h0", "h2"],
            ["h3", "h2", "h5", "h1"],
        ],
    )
]


class GenerationMachine(RuleBasedStateMachine):
    """Every kind of NodeState write, checked after each step."""

    def __init__(self) -> None:
        super().__init__()
        self.clock = ManualClock(start=10 * 3600.0)
        self.store = DataStore()
        self.node_state = self.store.node_state
        self.load_status = LoadStatus(self.node_state)
        self.resolvers = {
            mode: ConstraintBindingResolver(
                ServiceConstraint(self.clock), self.load_status, mode=mode
            )
            for mode in BalanceMode
        }
        # the same services published, read back through a QueryManager per mode
        for service, bindings in SERVICES:
            for obj in (*bindings, service):
                self.store.insert_object(obj)
        self.qms = {}
        for mode, resolver in self.resolvers.items():
            daos = DAORegistry(self.store)
            daos.services.set_resolver(resolver)
            self.qms[mode] = QueryManager(daos, QueryEngine(self.store))

    def _sample(self, host, load, memory):
        return NodeSample(
            host=host, load=load, memory=memory, swap_memory=memory >> 4, updated=self.clock.now()
        )

    sample_args = dict(
        host=st.sampled_from(HOSTS), load=st.sampled_from(LOADS), memory=st.sampled_from(MEMORY)
    )

    @rule(**sample_args)
    def record_sample(self, host, load, memory):
        self.node_state.record_sample(self._sample(host, load, memory))

    @rule(
        hosts=st.lists(st.sampled_from(HOSTS), unique=True, max_size=4),
        load=st.sampled_from(LOADS),
        memory=st.sampled_from(MEMORY),
    )
    def sweep(self, hosts, load, memory):
        """A sweep that reached *hosts*, and so ejects every other host."""
        self.node_state.record_sweep(self._sample(h, load, memory) for h in hosts)

    @rule(**sample_args)
    def write_beside_a_rollback(self, host, load, memory):
        """A rollback undoes the heap, never the monitor's sample."""
        with pytest.raises(RuntimeError):
            with self.store.transaction():
                self.node_state.record_sample(self._sample(host, load, memory))
                self.check_against_reference()  # warm the memo mid-transaction
                raise RuntimeError("abort")

    @invariant()
    def check_against_reference(self):
        store, load_status = self.store, self.load_status
        table = reference_table(store)
        for host in HOSTS:
            assert load_status.current_sample(host) == table.get(host)
        for service, bindings in SERVICES:
            constraints = parse_constraints(service.description.value)
            hosts = [b.host for b in bindings if b.host is not None]
            expected = reference_rank(store, hosts, constraints)
            assert load_status.rank(hosts, constraints) == expected
            assert load_status.satisfying_hosts(hosts, constraints) == (
                reference_satisfying(store, hosts, constraints)
            )
            for mode, resolver in self.resolvers.items():
                resolved = reference_resolve(store, constraints, bindings, mode)
                assert list(resolver.resolve(service, bindings)) == resolved
                # the in-process URI list is the wire's binding answer, projected
                qm = self.qms[mode]
                answer = qm.get_service_bindings(service.id, copy=False)
                assert [b.id for b in answer] == [b.id for b in resolved]
                assert qm.get_access_uris(service.id) == [
                    b.access_uri for b in answer if b.access_uri
                ]


GenerationMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None, derandomize=True
)
TestGenerationSchedules = GenerationMachine.TestCase


@pytest.fixture
def world():
    node_state = NodeStateStore()
    return node_state, LoadStatus(node_state)


def sample(host, load, updated, memory=4 * GB):
    return NodeSample(host=host, load=load, memory=memory, swap_memory=GB, updated=updated)


# -- a sweep is one generation ------------------------------------------------------


class SweepOnRead(NodeStateStore):
    """A store that lands *write* right after handing out one generation."""

    write = None

    def generation(self):
        held = super().generation()
        write, self.write = self.write, None
        if write is not None:
            write()
        return held


class TestSweepIsOneGeneration:
    CONSTRAINTS = parse_constraints(BLOCKS[0])
    HOSTS = ["a", "b", "c"]

    def test_a_decision_never_blends_two_table_versions(self):
        """The per-host writes rewrite ``a`` and then ``c`` while a decision
        is under way: old ``a`` beside new ``c`` is the order [c, a, b],
        which no table version ever held."""
        store = DataStore()
        node_state = store.node_state = SweepOnRead()
        versions = []

        def decision_of_table():
            versions.append(reference_rank(store, self.HOSTS, self.CONSTRAINTS))

        def sweep():
            for host, load in (("a", 0.9), ("c", 0.05)):
                node_state.record_sample(sample(host, load, 1000.0))
                decision_of_table()

        for host, load in zip(self.HOSTS, (0.1, 0.3, 0.5)):
            node_state.record_sample(sample(host, load, 1000.0))
        decision_of_table()
        load_status = LoadStatus(node_state)
        node_state.write = sweep
        decision = load_status.rank(self.HOSTS, self.CONSTRAINTS)
        assert versions == [["a", "b", "c"], ["b", "c", "a"], ["c", "b", "a"]]
        assert decision == versions[0]
        # and the decision after the sweep is the sweep's
        assert load_status.rank(self.HOSTS, self.CONSTRAINTS) == versions[-1]

    def test_record_samples_is_one_version_and_one_read_of_the_table(self):
        node_state = NodeStateStore()
        before = node_state.generation()[0]
        node_state.record_sweep(sample(h, 0.1, 0.0) for h in self.HOSTS)
        version, samples = node_state.generation()
        assert version == before + 1 and sorted(samples) == self.HOSTS
        assert node_state.generation()[1] is samples  # shared until the next write
        node_state.record_sample(sample("a", 0.7, 1.0))
        assert node_state.generation()[1] is not samples
        assert node_state.get("a").load == 0.7 and samples["a"].load == 0.1

    def test_collect_once_over_eight_hosts_is_one_version(self, sim_registry, engine):
        names = [f"node{n}.sdsu.edu" for n in range(8)]
        cluster = Cluster(engine)
        cluster.add_hosts([HostSpec(name, cores=2) for name in names])
        transport = SimTransport()
        for monitor in cluster.monitors():
            transport.register_endpoint(monitor.access_uri, lambda req, m=monitor: m.invoke())
        _, credential = sim_registry.register_user("admin", roles={"RegistryAdministrator"})
        publish_nodestatus(sim_registry, sim_registry.login(credential), hosts=names)
        collector = TimeHits(sim_registry, transport, engine)
        before = sim_registry.node_state.generation()[0]
        assert collector.collect_once() == 8
        version, samples = sim_registry.node_state.generation()
        assert version == before + 1 and sorted(samples) == sorted(names)


class TestConcurrentSweeps:
    def test_readers_racing_whole_sweeps_only_ever_see_whole_sweeps(self):
        """Two worlds, each written by one ``record_sweep``: every decision
        taken while a writer flips between them is the ranking of one world,
        and so is the join the resolver builds on it."""
        import sys
        import threading
        import time

        node_state = NodeStateStore()
        load_status = LoadStatus(node_state)
        hosts = [f"h{n:02d}" for n in range(24)]
        constraints = parse_constraints(BLOCKS[0])
        worlds = [
            [sample(h, 0.01 * n, 1000.0) for n, h in enumerate(hosts)],
            [sample(h, 0.01 * (len(hosts) - n), 1000.0) for n, h in enumerate(hosts)],
        ]
        allowed = [hosts, hosts[::-1]]
        node_state.record_sweep(worlds[0])
        stop = threading.Event()
        blends: list = []
        decisions = [0]

        def writer():
            flip = 0
            while not stop.is_set():
                flip ^= 1
                node_state.record_sweep(worlds[flip])

        def reader():
            while not stop.is_set():
                ranked = load_status.rank(hosts, constraints)
                decisions[0] += 1
                if ranked not in allowed:
                    blends.append(ranked)
                    return

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(5)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.5)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert blends == [] and decisions[0] > 0
        assert load_status.rank(hosts, constraints) in allowed


# -- bounded --------------------------------------------------------------------------


class TestAnswersAreBounded:
    def test_ten_times_the_cap_in_distinct_constraint_sets(self, world):
        """Stated bound: ``MAX_ANSWERS`` constraint sets per generation."""
        node_state, load_status = world
        node_state.record_sweep(sample(h, 0.5, 1000.0) for h in HOSTS)
        cap = load_status_module.MAX_ANSWERS
        for n in range(10 * cap):
            block = f"<constraint><cpuLoad>load ls {n + 1}.5</cpuLoad></constraint>"
            assert load_status.satisfying(parse_constraints(block)).keys() == set(HOSTS)
            # the whole memo: the answers, and one load order of the generation
            _version, answers, order = load_status._memo
            assert len(answers) <= cap and len(order) == len(HOSTS)

    def test_answers_go_with_the_generation(self, world):
        node_state, load_status = world
        node_state.record_sample(sample("h0", 0.5, 1000.0))
        constraints = parse_constraints(BLOCKS[0])
        first = load_status.satisfying(constraints)
        assert load_status.satisfying(parse_constraints(BLOCKS[0])) is first  # by value
        node_state.record_sample(sample("h1", 0.2, 1000.0))
        assert load_status.satisfying(constraints) == {"h0": 0.5, "h1": 0.2}
        assert first == {"h0": 0.5}  # published answers are never edited
        # the answers and the load order went with the generation before
        _version, answers, order = load_status._memo
        assert len(answers) == 1 and [s.host for s in order] == ["h1", "h0"]
