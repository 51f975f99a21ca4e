"""Tests for ServiceConstraint and LoadStatus (thesis Figures 3.5/3.6)."""

import sys

import pytest

from repro.core import LoadStatus, ServiceConstraint
from repro.core.constraints import parse_constraint_block
from repro.persistence import NodeSample, NodeStateStore
from repro.rim import Service
from repro.util.clock import ManualClock
from repro.util.ids import IdFactory

ids = IdFactory(50)

CONSTRAINT = "<constraint><cpuLoad>load ls 2.0</cpuLoad><memory>memory gr 1GB</memory></constraint>"
TIMED = (
    "<constraint><cpuLoad>load ls 2.0</cpuLoad>"
    "<starttime>1000</starttime><endtime>1200</endtime></constraint>"
)


@pytest.fixture
def node_state():
    return NodeStateStore()


@pytest.fixture
def clock():
    return ManualClock(10 * 3600.0)  # 10:00


def record(node_state, host, *, load=0.0, memory=4 << 30, swap=4 << 30, updated=0.0):
    node_state.record_sample(
        NodeSample(host=host, load=load, memory=memory, swap_memory=swap, updated=updated)
    )


class TestServiceConstraint:
    def test_no_constraints_inactive(self, clock):
        svc = Service(ids.new_id(), description="plain text")
        check = ServiceConstraint(clock).check(svc)
        assert not check.present
        assert not check.active

    def test_constraints_active_inside_window(self, clock):
        svc = Service(ids.new_id(), description=TIMED)
        check = ServiceConstraint(clock).check(svc)
        assert check.present
        assert check.time_satisfied
        assert check.active

    def test_constraints_inactive_outside_window(self):
        clock = ManualClock(13 * 3600.0)  # 13:00 > endtime 12:00
        svc = Service(ids.new_id(), description=TIMED)
        check = ServiceConstraint(clock).check(svc)
        assert check.present
        assert not check.time_satisfied
        assert not check.active

    def test_time_only_constraints_not_active(self, clock):
        svc = Service(
            ids.new_id(),
            description="<constraint><starttime>1000</starttime><endtime>1200</endtime></constraint>",
        )
        # performance filtering requires performance clauses
        assert not ServiceConstraint(clock).check(svc).active

    def test_validate_boolean_contract(self, clock):
        good = Service(ids.new_id(), description=CONSTRAINT)
        plain = Service(ids.new_id(), description="no constraints")
        sc = ServiceConstraint(clock)
        assert sc.validate(good)
        assert not sc.validate(plain)

    def test_malformed_constraints_treated_as_absent(self, clock):
        svc = Service(
            ids.new_id(),
            description="<constraint><cpuLoad>bogus</cpuLoad></constraint>",
        )
        assert not ServiceConstraint(clock).check(svc).present


class TestLoadStatus:
    def test_satisfying_hosts_filters(self, node_state):
        record(node_state, "a", load=0.5)
        record(node_state, "b", load=3.0)
        record(node_state, "c", load=1.0)
        ls = LoadStatus(node_state)
        cs = parse_constraint_block(CONSTRAINT)
        assert ls.satisfying_hosts(["a", "b", "c"], cs) == ["a", "c"]

    def test_memory_clause_checked(self, node_state):
        record(node_state, "a", load=0.5, memory=512 << 20)  # fails memory gr 1GB
        ls = LoadStatus(node_state)
        cs = parse_constraint_block(CONSTRAINT)
        assert ls.satisfying_hosts(["a"], cs) == []

    def test_equal_sets_from_different_texts_hash_equal_and_share_an_answer(
        self, node_state
    ):
        record(node_state, "a", load=0.5)
        record(node_state, "b", load=3.0)
        first = parse_constraint_block(CONSTRAINT)
        # another root spelling, spacing, number form, operator spelling and unit
        second = parse_constraint_block(
            "<constrain>\n  <cpuLoad>load ls 2</cpuLoad>\n"
            "  <memory>memory gt 1024MB</memory>\n</constrain>"
        )
        assert first is not second and first == second
        assert hash(first) == hash(second)
        # hashed when made: a lookup enters no clause's or operator's __hash__
        calls = []

        def profiler(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profiler)
        try:
            hash(first)
        finally:
            sys.setprofile(None)
        assert calls == ["__hash__"]
        ls = LoadStatus(node_state)
        answer = ls.satisfying(first)
        assert ls.satisfying(second) is answer
        assert list(answer) == ["a"]
        # the hash is the set's, so an unequal set is another entry
        other = parse_constraint_block(CONSTRAINT.replace("2.0", "1.0"))
        assert other != first
        other_answer = ls.satisfying(other)
        assert other_answer is not answer and ls.satisfying(other) is other_answer
        assert ls.satisfying(first) is answer

    def test_unmonitored_host_not_satisfying(self, node_state):
        ls = LoadStatus(node_state)
        cs = parse_constraint_block(CONSTRAINT)
        assert ls.satisfying_hosts(["ghost"], cs) == []

    def test_rank_orders_by_ascending_load(self, node_state):
        record(node_state, "a", load=1.5)
        record(node_state, "b", load=0.1)
        record(node_state, "c", load=0.9)
        ls = LoadStatus(node_state)
        cs = parse_constraint_block(CONSTRAINT)
        assert ls.rank(["a", "b", "c"], cs) == ["b", "c", "a"]

    def test_rank_ties_keep_publisher_order(self, node_state):
        record(node_state, "x", load=0.5)
        record(node_state, "y", load=0.5)
        ls = LoadStatus(node_state)
        cs = parse_constraint_block(CONSTRAINT)
        assert ls.rank(["y", "x"], cs) == ["y", "x"]

    def test_rank_drops_unsatisfying(self, node_state):
        record(node_state, "a", load=5.0)
        record(node_state, "b", load=0.5)
        ls = LoadStatus(node_state)
        cs = parse_constraint_block(CONSTRAINT)
        assert ls.rank(["a", "b"], cs) == ["b"]
