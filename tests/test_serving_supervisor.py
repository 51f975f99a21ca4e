"""ServingSupervisor: lifecycle, admission, sessions, and telemetry surface."""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError

import pytest

from repro.registry.kernel import OperationSpec
from repro.serving import ServingConfig, ServingSupervisor
from repro.serving.supervisor import DispatchQueue
from repro.soap.binding import SoapRegistryBinding
from repro.soap.envelope import SoapEnvelope, SoapFault
from repro.soap.messages import (
    AdhocQueryRequest,
    ApproveObjectsRequest,
    GetRegistryObjectRequest,
    GetServiceBindingsRequest,
    SubmitObjectsRequest,
)
from repro.soap.serializer import serialize
from repro.soap.xml_binding import envelope_from_xml, envelope_to_xml
from repro.rim import Organization
from repro.util.errors import QuerySyntaxError

from conftest import HOSTS, Gated, publish_service_with_bindings


@pytest.fixture
def supervisor(registry):
    sup = ServingSupervisor(registry, ServingConfig(workers=2))
    yield sup
    sup.close()


def _wait_until(condition, what: str) -> None:
    """Spin until *condition* holds (a synchronisation point, not a timing)."""
    deadline = time.monotonic() + 30.0
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting until {what}"
        time.sleep(0.001)


def _finishes(target) -> bool:
    """Whether *target*() returns within the test's patience."""
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(30.0)
    return not thread.is_alive()


NOOP = OperationSpec(name="noop", handler=lambda ctx: None, read_gate=True)


def _stall_pick_up(sup: ServingSupervisor) -> threading.Event:
    """Hold every worker at dequeue until the returned event is set."""
    pick_up = threading.Event()
    items = sup._queue._items

    class Stalled:
        put = items.put

        def get(self):
            assert pick_up.wait(30.0)
            return items.get()

    sup._queue._items = Stalled()
    return pick_up


class TestLifecycle:
    def test_context_manager_starts_and_stops_workers(self, supervisor):
        assert not supervisor.started
        with supervisor:
            assert supervisor.started
            workers = supervisor.serving_stats()["workers"]
            assert workers == 2
        assert not supervisor.started

    def test_submit_before_start_rejected(self, supervisor):
        with pytest.raises(RuntimeError):
            supervisor.submit(body=AdhocQueryRequest(query="SELECT id FROM Service"))

    def test_start_is_idempotent(self, supervisor):
        with supervisor:
            supervisor.start()
            assert supervisor.serving_stats()["workers"] == 2

    def test_bad_worker_count_rejected(self, registry):
        with pytest.raises(ValueError):
            ServingSupervisor(registry, ServingConfig(workers=0))


class TestAdmission:
    def test_call_runs_discovery(self, registry, session, supervisor):
        _, service = publish_service_with_bindings(registry, session)
        with supervisor:
            response = supervisor.call(body=GetServiceBindingsRequest(service.id))
        assert response.status == "Success"
        assert len(response.objects) == len(HOSTS)

    def test_submit_returns_future(self, registry, session, supervisor):
        publish_service_with_bindings(registry, session)
        with supervisor:
            future = supervisor.submit(
                body=AdhocQueryRequest(query="SELECT id FROM Service")
            )
            response = future.result(timeout=30.0)
        assert response.status == "Success"
        assert len(response.rows) == 1

    def test_try_submit_sheds_when_full(self, registry):
        # one held worker, a one-slot queue: every request after the first shed
        gated = Gated()
        sup = ServingSupervisor(registry, ServingConfig(workers=1, queue_capacity=1))
        body = AdhocQueryRequest(query="SELECT id FROM Service")
        accepted = []
        rejected = 0
        try:
            with sup:
                held = sup.submit(spec=gated.spec)
                assert gated.entered.acquire(timeout=30.0)
                for _ in range(8):
                    future = sup.try_submit(body=body)
                    if future is None:
                        rejected += 1
                    else:
                        accepted.append(future)
                assert (len(accepted), rejected) == (1, 7)
                stats = sup.serving_stats()
                assert stats["rejected"] == rejected
                assert stats["accepted"] == len(accepted) + 1
                gated.release.set()
                assert held.result(timeout=30.0) == "done"
                for future in accepted:
                    assert future.result(timeout=30.0).status == "Success"
        finally:
            gated.release.set()
            sup.close()

    def test_zero_capacity_is_unbounded(self, registry, session):
        publish_service_with_bindings(registry, session)
        body = AdhocQueryRequest(query="SELECT id FROM Service")
        gated = Gated()
        sup = ServingSupervisor(registry, ServingConfig(workers=1, queue_capacity=0))
        try:
            with sup:
                held = sup.submit(spec=gated.spec)
                assert gated.entered.acquire(timeout=30.0)
                futures = [sup.try_submit(body=body) for _ in range(16)]
                assert None not in futures
                stats = sup.serving_stats()
                assert (stats["rejected"], stats["queue_depth"]) == (0, 16)
                gated.release.set()
                assert held.result(timeout=30.0) == "done"
                for future in futures:
                    assert future.result(timeout=30.0).status == "Success"
        finally:
            gated.release.set()
            sup.close()

    def test_faults_delivered_as_values_not_raised(self, supervisor):
        with supervisor:
            result = supervisor.call(
                body=AdhocQueryRequest(query="SELECT nonsense FROM Nowhere")
            )
        assert isinstance(result, SoapFault)

    @pytest.mark.parametrize("limit", ["x", "1.5"])
    def test_a_bad_limit_comes_back_over_the_wire_as_a_fault(self, supervisor, limit):
        """A decimal LIMIT is a syntax error like any other, not a crash of
        the serving call: request and answer both cross the XML codec."""
        body = AdhocQueryRequest(query=f"SELECT id FROM Service LIMIT {limit}")
        request = envelope_from_xml(envelope_to_xml(SoapEnvelope(body=body)))
        with supervisor:
            answer = supervisor.call(body=request.body, token=request.session_token)
        reply = envelope_from_xml(envelope_to_xml(SoapEnvelope(body=answer))).body
        assert isinstance(reply, SoapFault)
        assert reply.fault_code == QuerySyntaxError.code


class TestCancellation:
    def test_cancelled_future_is_dropped_and_the_worker_survives(
        self, registry, session
    ):
        publish_service_with_bindings(registry, session)
        body = AdhocQueryRequest(query="SELECT id FROM Service")
        gated = Gated()
        sup = ServingSupervisor(registry, ServingConfig(workers=1))
        try:
            with sup:
                first = sup.submit(spec=gated.spec)
                assert gated.entered.acquire(timeout=30.0)
                second = sup.submit(body=body)
                # the one worker is held in the first
                assert second.cancel()
                gated.release.set()
                assert first.result(timeout=30.0) == "done"
                sup.drain()
                assert [worker.alive for worker in sup._workers] == [True]
                assert sup.submit(body=body).result(timeout=5.0).status == "Success"
                stats = sup.serving_stats()
            served = sum(stats["served_per_worker"].values())
            assert (stats["accepted"], served, stats["cancelled"]) == (3, 2, 1)
            # a dropped request never reached the kernel or the wait accounting
            assert stats["queue_wait"]["count"] == served
            assert registry.pipeline_stats()["serving"]["executeQuery"]["count"] == 1
        finally:
            gated.release.set()
            sup.close()

    def test_call_timeout_cancels_work_nobody_waits_for(self, registry, session):
        publish_service_with_bindings(registry, session)
        body = AdhocQueryRequest(query="SELECT id FROM Service")
        gated = Gated()
        sup = ServingSupervisor(registry, ServingConfig(workers=1))
        try:
            with sup:
                blocker = sup.submit(spec=gated.spec)
                assert gated.entered.acquire(timeout=30.0)
                with pytest.raises(FutureTimeoutError):
                    sup.call(body=body, timeout=0.01)
                gated.release.set()
                assert blocker.result(timeout=30.0) == "done"
                sup.drain()
                stats = sup.serving_stats()
            assert stats["cancelled"] == 1
            assert sum(stats["served_per_worker"].values()) == 1
        finally:
            gated.release.set()
            sup.close()


class TestQueueBound:
    def test_four_producers_never_overfill_a_slow_worker(self, registry, session):
        """More producers than cores against capacity 8, switching every 10 µs;
        the one worker is held until the queue has been seen full."""
        publish_service_with_bindings(registry, session)
        body = AdhocQueryRequest(query="SELECT id FROM Service")
        capacity, producers, each = 8, 4, 25
        gated = Gated()
        sup = ServingSupervisor(registry, ServingConfig(workers=1, queue_capacity=capacity))
        futures, depths = [], []

        def produce():
            for _ in range(each):
                futures.append(sup.submit(body=body))
                depths.append(sup.serving_stats()["queue_depth"])

        threads = [threading.Thread(target=produce) for _ in range(producers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with sup:
                held = sup.submit(spec=gated.spec)
                assert gated.entered.acquire(timeout=30.0)
                for thread in threads:
                    thread.start()
                shed = 0
                deadline = time.monotonic() + 60.0
                while (
                    any(thread.is_alive() for thread in threads)
                    and time.monotonic() < deadline
                ):
                    depths.append(sup.serving_stats()["queue_depth"])
                    extra = sup.try_submit(body=body)
                    if extra is None:
                        shed += 1
                        # the producers filled the queue: let the worker drain it
                        gated.release.set()
                    else:
                        futures.append(extra)
                    time.sleep(0.001)
                for thread in threads:
                    thread.join(timeout=60.0)
                    assert not thread.is_alive()
                sup.drain()
                # drained: every accepted request has finished, none is queued
                assert all(future.done() for future in futures)
                stats = sup.serving_stats()
        finally:
            sys.setswitchinterval(interval)
            gated.release.set()
            sup.close()
        assert held.result(0) == "done"
        assert max(depths) <= capacity
        assert stats["queue_depth_high_water"] == capacity
        assert stats["queue_depth"] == 0
        # the blocked producers kept the queue full, so the prober was shed
        assert shed > 0 and stats["rejected"] == shed
        assert stats["accepted"] == len(futures) + 1 > producers * each
        assert sum(stats["served_per_worker"].values()) == stats["accepted"]
        assert all(future.result(0).status == "Success" for future in futures)


class TestSessions:
    def test_write_without_session_faults(self, registry, supervisor):
        org = Organization(registry.ids.new_id(), name="Unauthorized")
        request = SubmitObjectsRequest(objects=[serialize(org)])
        with supervisor:
            result = supervisor.call(body=request)
        assert isinstance(result, SoapFault)
        assert not registry.store.contains(org.id)

    def test_registered_session_token_authenticates(
        self, registry, session, supervisor
    ):
        supervisor.register_session(session)
        org = Organization(registry.ids.new_id(), name="Authorized")
        request = SubmitObjectsRequest(objects=[serialize(org)])
        with supervisor:
            result = supervisor.call(body=request, token=session.token)
        assert result.status == "Success"
        assert registry.store.contains(org.id)


class TestTelemetrySurface:
    def test_serving_source_mounted(self, registry, supervisor):
        snapshot = registry.telemetry_snapshot()
        assert "serving" in snapshot
        stats = snapshot["serving"]
        assert stats["workers"] == 0  # not started yet
        assert stats["queue_capacity"] == ServingConfig().queue_capacity

    def test_served_per_worker_counts_cover_all_traffic(
        self, registry, session, supervisor
    ):
        _, service = publish_service_with_bindings(registry, session)
        body = GetServiceBindingsRequest(service.id)
        with supervisor:
            futures = [supervisor.submit(body=body) for _ in range(20)]
            for future in futures:
                future.result(timeout=30.0)
            supervisor.drain()
            stats = supervisor.serving_stats()
        assert sum(stats["served_per_worker"].values()) == 20
        assert stats["accepted"] == 20
        assert stats["rejected"] == 0
        # the kernel's per-worker shards carry the same labels
        pipeline_workers = set(registry.pipeline_stats(per_worker=True))
        assert pipeline_workers <= {"worker-0", "worker-1"}
        assert pipeline_workers

    @pytest.mark.parametrize("outcome", ["result", "exception"])
    def test_a_request_is_counted_before_its_answer_is_published(self, supervisor, outcome):
        """Whoever the future wakes may read the counters at once: a done-callback
        runs inside ``set_result`` / ``set_exception``, on the worker's thread."""
        entered, release, seen = threading.Event(), threading.Event(), []

        def handler(ctx):
            entered.set()
            assert release.wait(30.0)
            if outcome == "exception":
                raise LookupError("not a registry error: the future carries it")

        def count(_future):
            seen.append(sum(supervisor.serving_stats()["served_per_worker"].values()))

        with supervisor:
            future = supervisor.submit(spec=OperationSpec(name="held", handler=handler))
            assert entered.wait(30.0)  # picked up, not finished: the callback is in time
            future.add_done_callback(count)
            release.set()
            assert isinstance(future.exception(timeout=30.0), LookupError) == (
                outcome == "exception"
            )
        assert seen == [1]

    def test_close_unmounts_source(self, registry):
        sup = ServingSupervisor(registry, ServingConfig(workers=1))
        assert "serving" in registry.telemetry.sources()
        sup.close()
        assert "serving" not in registry.telemetry.sources()


# -- the admission gate: inline runs on the caller's thread ---------------------


class TestInlineGate:
    def test_exactly_workers_run_inline_and_the_rest_queue(self, registry):
        k = 2
        gated = Gated()
        sup = ServingSupervisor(registry, ServingConfig(workers=k))
        # a caller may put before a worker's get has taken the depth down, so
        # without the stall the high water is anything in [2·k, 3·k]
        pick_up = _stall_pick_up(sup)
        callers = [
            threading.Thread(target=sup.call, kwargs={"spec": gated.spec}, daemon=True)
            for _ in range(4 * k)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with sup:
                for caller in callers:
                    caller.start()
                # nothing finishes until released, so the first k admitted hold
                # every permit and everyone after them queues: 3·k wait in the
                # queue, then k of them run on the workers and 2·k stay
                _wait_until(
                    lambda: sup.serving_stats()["accepted"] == 4 * k, "all are admitted"
                )
                pick_up.set()
                for _ in range(2 * k):
                    assert gated.entered.acquire(timeout=30.0)
                blocked = sup.serving_stats()
                running = list(gated.idents)
                gated.release.set()
                for caller in callers:
                    caller.join(30.0)
                    assert not caller.is_alive()
                assert _finishes(sup.drain)
                stats = sup.serving_stats()
        finally:
            sys.setswitchinterval(interval)
            pick_up.set()
            gated.release.set()
            sup.close()
        caller_idents = {caller.ident for caller in callers}
        inline = [ident for ident in running if ident in caller_idents]
        assert len(running) == 2 * k and len(set(inline)) == len(inline) == k
        assert set(running) - caller_idents == {w.thread.ident for w in sup._workers}
        assert (blocked["queue_depth"], blocked["queue_depth_high_water"]) == (2 * k, 3 * k)
        assert stats["served_inline"] == k
        assert sum(stats["served_per_worker"].values()) == 3 * k
        assert stats["queue_wait"]["count"] == 3 * k

    def test_gate_admits_inline_only_with_nothing_queued_and_a_free_permit(self):
        gate = DispatchQueue(capacity=8, permits=2)
        with pytest.raises(RuntimeError):
            gate.admit_inline()
        gate.open = True
        assert gate.put(object(), block=True)
        # one of two permits is free, but an inline run would overtake the item
        assert not gate.admit_inline()
        gate.get()
        assert gate.admit_inline()  # picked up: 1 on a worker + this one
        assert not gate.admit_inline()  # every permit taken
        gate.done(inline=True)
        assert gate.admit_inline()
        assert (gate.accepted, gate.served_inline, gate.rejected) == (3, 1, 0)

    def test_a_call_never_overtakes_a_queued_request(self, registry):
        ran: list[str] = []

        def spec(name: str) -> OperationSpec:
            return OperationSpec(name=name, handler=lambda ctx: ran.append(name))

        sup = ServingSupervisor(registry, ServingConfig(workers=2))
        pick_up = _stall_pick_up(sup)
        caller = threading.Thread(
            target=sup.call, kwargs={"spec": spec("called")}, daemon=True
        )
        try:
            with sup:
                submitted = sup.submit(spec=spec("submitted"))
                caller.start()  # a permit is free, but "submitted" is queued
                _wait_until(
                    lambda: sup.serving_stats()["accepted"] == 2, "the call is admitted"
                )
                stats = sup.serving_stats()
                assert ran == []
                assert (stats["queue_depth"], stats["served_inline"]) == (2, 0)
                pick_up.set()
                caller.join(30.0)
                assert not caller.is_alive()
                submitted.result(timeout=30.0)
        finally:
            pick_up.set()
            sup.close()
        assert sorted(ran) == ["called", "submitted"]
        assert sup.serving_stats()["served_inline"] == 0

    def test_inline_exception_reaches_the_caller_and_frees_the_permit(self, registry):
        def explode(ctx):
            raise ValueError("boom")

        exploding = OperationSpec(name="explode", handler=explode)
        sup = ServingSupervisor(registry, ServingConfig(workers=1))
        try:
            with sup:
                with pytest.raises(ValueError, match="boom") as inline:
                    sup.call(spec=exploding)
                assert sup.serving_stats()["served_inline"] == 1
                # what the queued path delivers through future.result()
                with pytest.raises(ValueError, match="boom") as queued:
                    sup.submit(spec=exploding).result(timeout=30.0)
                assert type(inline.value) is type(queued.value)
                assert _finishes(sup.drain)
                # the one permit is free again: the next call is inline too
                assert sup.call(spec=NOOP) is None
                stats = sup.serving_stats()
        finally:
            sup.close()
        assert (stats["accepted"], stats["served_inline"]) == (3, 2)
        assert stats["served_per_worker"] == {"worker-0": 1}

    def test_inline_run_ignores_timeout_and_runs_to_completion(self, registry):
        gated = Gated()

        def release_once_entered():
            assert gated.entered.acquire(timeout=30.0)
            gated.release.set()

        helper = threading.Thread(target=release_once_entered, daemon=True)
        sup = ServingSupervisor(registry, ServingConfig(workers=1))
        try:
            with sup:
                helper.start()
                # a queued call would raise TimeoutError at once
                assert sup.call(spec=gated.spec, timeout=0.0) == "done"
                helper.join(30.0)
                assert sup.serving_stats()["served_inline"] == 1
        finally:
            gated.release.set()
            sup.close()
        assert gated.idents == [threading.get_ident()]

    def test_stop_and_drain_wait_for_an_inline_run_and_then_refuse(self, registry):
        gated = Gated()
        sup = ServingSupervisor(registry, ServingConfig(workers=1))
        caller = threading.Thread(
            target=sup.call, kwargs={"spec": gated.spec}, daemon=True
        )
        drainer = threading.Thread(target=sup.drain, daemon=True)
        stopper = threading.Thread(target=sup.stop, daemon=True)
        try:
            sup.start()
            caller.start()
            assert gated.entered.acquire(timeout=30.0)
            drainer.start()
            stopper.start()
            _wait_until(lambda: not sup.started, "stop() has closed admission")
            with pytest.raises(RuntimeError):
                sup.call(spec=NOOP, timeout=5.0)
            drainer.join(0.2)
            stopper.join(0.2)
            # the inline run is still in flight, so neither may have returned
            assert drainer.is_alive() and stopper.is_alive()
            gated.release.set()
            for thread in (caller, drainer, stopper):
                thread.join(30.0)
                assert not thread.is_alive()
        finally:
            gated.release.set()
            sup.close()
        stats = sup.serving_stats()
        assert (stats["accepted"], stats["served_inline"]) == (1, 1)
        with pytest.raises(RuntimeError):
            sup.call(spec=NOOP, timeout=5.0)

    def test_accounting_identities_hold_exactly_under_racing_callers(self, registry):
        threads, each = 8, 2000
        sup = ServingSupervisor(registry, ServingConfig(workers=2))
        errors: list[BaseException] = []

        def hammer():
            try:
                for i in range(each):
                    if i % 40 == 0:
                        # abandoned work: dropped at dequeue when the cancel wins
                        sup.submit(spec=NOOP).cancel()
                    assert sup.call(spec=NOOP, timeout=30.0) is None
            except BaseException as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        callers = [threading.Thread(target=hammer, daemon=True) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with sup:
                for caller in callers:
                    caller.start()
                for caller in callers:
                    caller.join(120.0)
                    assert not caller.is_alive()
                assert _finishes(sup.drain)
                stats = sup.serving_stats()
        finally:
            sys.setswitchinterval(interval)
            sup.close()
        assert errors == []
        served = sum(stats["served_per_worker"].values())
        assert stats["accepted"] == threads * (each + each // 40)
        assert stats["accepted"] == served + stats["served_inline"] + stats["cancelled"]
        assert stats["queue_wait"]["count"] == (
            stats["accepted"] - stats["cancelled"] - stats["served_inline"]
        )
        assert stats["served_inline"] > 0 and served > 0
        assert (stats["queue_depth"], stats["rejected"]) == (0, 0)
        # the kernel saw every executed request, under bounded labels
        per_worker = registry.pipeline_stats(per_worker=True)
        assert set(per_worker) <= {"caller", "worker-0", "worker-1"}
        assert per_worker["caller"]["serving"]["noop"]["count"] == stats["served_inline"]
        assert registry.pipeline_stats()["serving"]["noop"]["count"] == (
            served + stats["served_inline"]
        )

    def test_inline_queued_and_soap_answers_are_equal(self, registry, session):
        _, service = publish_service_with_bindings(registry, session)
        missing = "urn:uuid:00000000-0000-4000-8000-00000000dead"
        requests = [
            (GetServiceBindingsRequest(service.id), None),
            (GetRegistryObjectRequest(service.id), None),
            (AdhocQueryRequest(query="SELECT id, name FROM Service"), None),
            (AdhocQueryRequest(query="SELECT nonsense FROM Nowhere"), None),  # faults
            (GetRegistryObjectRequest(missing), None),
            (ApproveObjectsRequest(ids=[missing]), session.token),
            (ApproveObjectsRequest(ids=5), session.token),
        ]
        soap = SoapRegistryBinding(registry)
        soap.register_session(session)
        with ServingSupervisor(registry, ServingConfig(workers=1)) as sup:
            sup.register_session(session)
            for body, token in requests:
                inline = sup.call(body=body, token=token)
                queued = sup.submit(body=body, token=token).result(timeout=30.0)
                assert inline == queued == soap.handle(SoapEnvelope.with_session(body, token))
            stats = sup.serving_stats()
            sup.close()
        assert stats["served_inline"] == stats["served_per_worker"]["worker-0"] == len(requests)
