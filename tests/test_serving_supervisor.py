"""ServingSupervisor: lifecycle, admission, sessions, and telemetry surface."""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError

import pytest

from repro.serving import ServingConfig, ServingSupervisor
from repro.soap.envelope import SoapFault
from repro.soap.messages import (
    AdhocQueryRequest,
    GetServiceBindingsRequest,
    SubmitObjectsRequest,
)
from repro.soap.serializer import serialize
from repro.rim import Organization

from conftest import HOSTS, publish_service_with_bindings


@pytest.fixture
def supervisor(registry):
    sup = ServingSupervisor(registry, ServingConfig(workers=2))
    yield sup
    sup.close()


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
        # one slow worker, a one-slot queue: the third request must shed
        sup = ServingSupervisor(
            registry,
            ServingConfig(workers=1, queue_capacity=1, wire_delay_s=0.1),
        )
        body = AdhocQueryRequest(query="SELECT id FROM Service")
        accepted = []
        rejected = 0
        try:
            with sup:
                for _ in range(8):
                    future = sup.try_submit(body=body)
                    if future is None:
                        rejected += 1
                    else:
                        accepted.append(future)
                assert rejected > 0
                assert sup.rejected == rejected
                assert sup.accepted == len(accepted)
                for future in accepted:
                    assert future.result(timeout=30.0).status == "Success"
        finally:
            sup.close()

    def test_zero_capacity_is_unbounded(self, registry, session):
        publish_service_with_bindings(registry, session)
        body = AdhocQueryRequest(query="SELECT id FROM Service")
        sup = ServingSupervisor(
            registry, ServingConfig(workers=1, queue_capacity=0, wire_delay_s=0.005)
        )
        try:
            with sup:
                futures = [sup.try_submit(body=body) for _ in range(16)]
                assert None not in futures and sup.rejected == 0
                for future in futures:
                    assert future.result(timeout=30.0).status == "Success"
        finally:
            sup.close()

    def test_faults_delivered_as_values_not_raised(self, supervisor):
        with supervisor:
            result = supervisor.call(
                body=AdhocQueryRequest(query="SELECT nonsense FROM Nowhere")
            )
        assert isinstance(result, SoapFault)


class TestCancellation:
    def test_cancelled_future_is_dropped_and_the_worker_survives(
        self, registry, session
    ):
        publish_service_with_bindings(registry, session)
        body = AdhocQueryRequest(query="SELECT id FROM Service")
        sup = ServingSupervisor(
            registry, ServingConfig(workers=1, wire_delay_s=0.05)
        )
        try:
            with sup:
                first = sup.submit(body=body)
                second = sup.submit(body=body)
                # the one worker is busy with (or yet to start) the first
                assert second.cancel()
                assert first.result(timeout=30.0).status == "Success"
                sup.drain()
                assert [worker.alive for worker in sup._workers] == [True]
                assert sup.call(body=body, timeout=5.0).status == "Success"
                stats = sup.serving_stats()
            served = sum(stats["served_per_worker"].values())
            assert (stats["accepted"], served, stats["cancelled"]) == (3, 2, 1)
            # a dropped request never reached the kernel or the wait accounting
            assert stats["queue_wait"]["count"] == served
            assert registry.pipeline_stats()["serving"]["executeQuery"]["count"] == 2
        finally:
            sup.close()

    def test_call_timeout_cancels_work_nobody_waits_for(self, registry, session):
        publish_service_with_bindings(registry, session)
        body = AdhocQueryRequest(query="SELECT id FROM Service")
        sup = ServingSupervisor(registry, ServingConfig(workers=1, wire_delay_s=0.2))
        try:
            with sup:
                blocker = sup.submit(body=body)
                with pytest.raises(FutureTimeoutError):
                    sup.call(body=body, timeout=0.01)
                assert blocker.result(timeout=30.0).status == "Success"
                sup.drain()
                stats = sup.serving_stats()
            assert stats["cancelled"] == 1
            assert sum(stats["served_per_worker"].values()) == 1
        finally:
            sup.close()


class TestQueueBound:
    def test_four_producers_never_overfill_a_slow_worker(self, registry, session):
        """More producers than cores against capacity 8, switching every 10 µs."""
        publish_service_with_bindings(registry, session)
        body = AdhocQueryRequest(query="SELECT id FROM Service")
        capacity, producers, each = 8, 4, 25
        sup = ServingSupervisor(
            registry,
            ServingConfig(workers=1, queue_capacity=capacity, wire_delay_s=0.002),
        )
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
            sup.close()
        assert max(depths) <= capacity
        assert stats["queue_depth_high_water"] == capacity
        assert stats["queue_depth"] == 0
        # the blocked producers kept the queue full, so the prober was shed
        assert shed > 0 and stats["rejected"] == shed
        assert stats["accepted"] == len(futures) >= producers * each
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

    def test_close_unmounts_source(self, registry):
        sup = ServingSupervisor(registry, ServingConfig(workers=1))
        assert "serving" in registry.telemetry.sources()
        sup.close()
        assert "serving" not in registry.telemetry.sources()

    def test_wire_delay_applied(self, registry, session):
        publish_service_with_bindings(registry, session)
        sup = ServingSupervisor(
            registry, ServingConfig(workers=1, wire_delay_s=0.05)
        )
        body = AdhocQueryRequest(query="SELECT id FROM Service")
        try:
            with sup:
                started = time.perf_counter()
                assert sup.call(body=body).status == "Success"
                elapsed = time.perf_counter() - started
            assert elapsed >= 0.05
        finally:
            sup.close()
