"""ClusterSupervisor: member fleets, replication pumping, merged telemetry."""

from __future__ import annotations

from concurrent.futures import TimeoutError as FutureTimeoutError

import pytest

from repro.registry import RegistryConfig, RegistryFederation, RegistryServer
from repro.rim import Organization
from repro.serving import ClusterConfig, ClusterSupervisor, ServingConfig
from repro.soap.messages import GetRegistryObjectRequest, SubmitObjectsRequest
from repro.soap.serializer import serialize
from repro.util.clock import ManualClock
from repro.util.errors import InvalidRequestError

from conftest import Gated


def _federation(registry_type="public"):
    fed = RegistryFederation("cluster-fed")
    registries = []
    for i in range(2):
        reg = RegistryServer(
            RegistryConfig(
                seed=300 + i,
                home=f"http://member{i}.cluster:8080/omar/registry",
                registry_type=registry_type,
            ),
            clock=ManualClock(),
        )
        fed.join(reg)
        registries.append(reg)
    return fed, registries


@pytest.fixture
def federation():
    return _federation()


@pytest.fixture
def cluster(federation):
    fed, _ = federation
    sup = ClusterSupervisor(fed, ClusterConfig(serving=ServingConfig(workers=1)))
    yield sup
    sup.close()


def _publish(reg, name, object_id=None):
    _, cred = reg.register_user(f"user-{name}")
    session = reg.login(cred)
    org = Organization(object_id or reg.ids.new_id(), name=name)
    reg.lcm.submit_objects(session, [org])
    return org, session


def _id_owned_by(fed, reg):
    for _ in range(256):
        object_id = reg.ids.new_id()
        if fed.shard_map.owner(object_id) == reg.home:
            return object_id
    raise AssertionError("shard map never chose the target member")


class TestLifecycle:
    def test_context_manager_starts_member_fleets(self, federation, cluster):
        fed, registries = federation
        assert not cluster.started
        with cluster:
            assert cluster.started
            assert cluster.homes() == sorted(r.home for r in registries)
            for home in cluster.homes():
                assert cluster.supervisor(home).started
        assert not cluster.started

    def test_start_builds_replication_mesh(self, federation, cluster):
        fed, _ = federation
        assert fed.links() == []
        with cluster:
            assert len(fed.links()) == 2  # both directions of a 2-member mesh

    def test_mesh_disabled_leaves_links_alone(self, federation):
        fed, _ = federation
        sup = ClusterSupervisor(
            fed, ClusterConfig(serving=ServingConfig(workers=1), mesh=False)
        )
        try:
            with sup:
                assert fed.links() == []
        finally:
            sup.close()

    def test_submit_before_start_rejected(self, cluster):
        with pytest.raises(RuntimeError):
            cluster.submit(body=GetRegistryObjectRequest(object_id="urn:uuid:x"))

    def test_close_unmounts_cluster_source(self, federation):
        fed, _ = federation
        sup = ClusterSupervisor(fed, ClusterConfig(serving=ServingConfig(workers=1)))
        assert "cluster" in sup.telemetry.sources()
        sup.close()
        assert "cluster" not in sup.telemetry.sources()


class TestAdmission:
    def test_submit_spreads_round_robin(self, federation, cluster):
        fed, (r0, r1) = federation
        org0, _ = _publish(r0, "OrgZero")
        with cluster:
            cluster.pump_until_converged()  # every member can answer locally
            futures = [
                cluster.submit(body=GetRegistryObjectRequest(object_id=org0.id))
                for _ in range(6)
            ]
            for future in futures:
                assert future.result(timeout=30.0).status == "Success"
            cluster.drain()
            accepted = {
                home: cluster.supervisor(home).serving_stats()["accepted"]
                for home in cluster.homes()
            }
        assert accepted == {r0.home: 3, r1.home: 3}

    def test_call_delegates_to_the_members_inline_path(self, federation, cluster):
        fed, (r0, r1) = federation
        org0, _ = _publish(r0, "OrgZero")
        with cluster:
            cluster.pump_until_converged()
            for _ in range(4):
                response = cluster.call(body=GetRegistryObjectRequest(object_id=org0.id))
                assert response.status == "Success"
            inline = {
                home: cluster.supervisor(home).serving_stats()["served_inline"]
                for home in cluster.homes()
            }
        # round-robin as for submit, and no request crossed to a worker
        assert inline == {r0.home: 2, r1.home: 2}

    def test_call_timeout_cancels_work_nobody_waits_for(self, federation):
        fed, (r0, r1) = federation
        org0, _ = _publish(r0, "OrgZero")
        body = GetRegistryObjectRequest(object_id=org0.id)
        gated = Gated()
        cluster = ClusterSupervisor(fed, ClusterConfig(serving=ServingConfig(workers=1)))
        try:
            with cluster:
                cluster.pump_until_converged()
                # round-robin: one blocker holds each member's one worker
                blockers = [cluster.submit(spec=gated.spec) for _ in cluster.homes()]
                for _ in blockers:
                    assert gated.entered.acquire(timeout=30.0)
                with pytest.raises(FutureTimeoutError):
                    cluster.call(body=body, timeout=0.01)
                gated.release.set()
                for blocker in blockers:
                    assert blocker.result(timeout=30.0) == "done"
                cluster.drain()
                stats = [
                    cluster.supervisor(home).serving_stats() for home in cluster.homes()
                ]
        finally:
            gated.release.set()
            cluster.close()
        # the abandoned request was dropped at dequeue, not executed for nobody
        assert sum(member["cancelled"] for member in stats) == 1
        assert [sum(m["served_per_worker"].values()) for m in stats] == [1, 1]

    def test_any_member_is_a_valid_edge(self, federation, cluster):
        # no pumping: the non-holding member must forward through its router
        fed, (r0, r1) = federation
        org, _ = _publish(r0, "OrgZero", object_id=_id_owned_by(fed, r0))
        with cluster:
            responses = [
                cluster.call(
                    body=GetRegistryObjectRequest(object_id=org.id), timeout=30.0
                )
                for _ in range(2)
            ]
        assert all(response.status == "Success" for response in responses)
        routed = [fed.router_for(home).stats() for home in (r0.home, r1.home)]
        assert sum(stats["local"] + stats["forwarded"] for stats in routed) == 2

    def test_malformed_id_faults_instead_of_crashing_the_router(self, cluster):
        # the route stage runs before validate and must not hash a non-string
        with cluster:
            answers = [
                cluster.call(body=GetRegistryObjectRequest(object_id=[1]))
                for _ in cluster.homes()
            ]
        assert [answer.fault_code for answer in answers] == [InvalidRequestError.code] * 2

    def test_registered_session_valid_at_every_edge(self, federation, cluster):
        fed, (r0, r1) = federation
        _, cred = r0.register_user("writer")
        session = r0.login(cred)
        with cluster:
            cluster.register_session(session)
            results = []
            for n in range(2):  # round-robin lands one write on each member
                org = Organization(r0.ids.new_id(), name=f"Org{n}")
                results.append(
                    cluster.call(
                        body=SubmitObjectsRequest(objects=[serialize(org)]),
                        token=session.token,
                        timeout=30.0,
                    )
                )
        assert all(result.status == "Success" for result in results)

    def test_registered_session_holds_on_a_forwarded_read(self):
        """A private federation denies guests, so the read member0 forwards
        to member1 answers only if member1 knows the session's token."""
        fed, (r0, r1) = _federation("private")
        _, cred = r0.register_user("reader")
        session = r0.login(cred)
        org, _ = _publish(r1, "OwnedByOne", _id_owned_by(fed, r1))
        cluster = ClusterSupervisor(fed, ClusterConfig(serving=ServingConfig(workers=1)))
        try:
            with cluster:
                cluster.register_session(session)
                answers = [
                    cluster.supervisor(home).call(
                        body=GetRegistryObjectRequest(object_id=org.id),
                        token=session.token,
                        timeout=30.0,
                    )
                    for home in (r0.home, r1.home)
                ]
        finally:
            cluster.close()
        # a fault has no status: it stands in the list as itself
        assert [getattr(answer, "status", answer) for answer in answers] == ["Success"] * 2
        assert answers[0].objects[0]["id"] == org.id
        assert fed.router_for(r0.home).stats()["forwarded"] == 1
        assert fed.router_for(r1.home).stats()["forwarded_served"] == 1
        assert r1.pipeline_stats()["soap"]["getRegistryObject"]["faults"] == 0


class TestReplicationPumping:
    def test_pump_records_lag_series_and_slo_state(self, federation, cluster):
        fed, (r0, _) = federation
        with cluster:
            _publish(r0, "OrgZero")
            assert cluster.replication_lag() > 0
            pumps = cluster.pump_until_converged()
        assert pumps >= 1
        assert cluster.replication_lag() == 0
        assert "replication.lag" in cluster.telemetry.history.names()
        link = fed.links()[0]
        series = f"replication.{link.source.home}->{link.target.home}.lag"
        assert series in cluster.telemetry.history.names()
        assert cluster.telemetry.slos.states()["replication-lag"] == "ok"

    def test_lag_above_bound_pages_until_pumped(self, federation):
        fed, (r0, _) = federation
        sup = ClusterSupervisor(
            fed,
            ClusterConfig(serving=ServingConfig(workers=1), max_replication_lag=0.5),
        )
        try:
            with sup:
                _publish(r0, "OrgZero")
                assert sup.telemetry.slos.evaluate()["replication-lag"] == "page"
                sup.pump_until_converged()
                assert sup.telemetry.slos.evaluate()["replication-lag"] == "ok"
        finally:
            sup.close()

    def test_bounded_pump_applies_whole_commits(self, federation, cluster):
        """``max_records=1`` still applies one whole source commit per pump:
        the replica holds none or all of a 3-Organization submit."""
        fed, (r0, r1) = federation
        _, session = _publish(r0, "OrgZero")
        orgs = [Organization(r0.ids.new_id(), name=f"Org{n}") for n in range(3)]
        r0.lcm.submit_objects(session, orgs)
        counts = []
        with cluster:
            while cluster.replication_lag() > 0:
                counts.append(cluster.pump_replication(max_records=1)[f"{r0.home}->{r1.home}"])
                assert sum(r1.store.contains(org.id) for org in orgs) in (0, 3)
        assert all(r1.store.contains(org.id) for org in orgs)
        assert set(counts) <= {0, 1, 3} and 3 in counts  # OrgZero's commit applies 1


class TestClusterSurfaces:
    def test_cluster_stats_shape(self, federation, cluster):
        fed, (r0, r1) = federation
        _publish(r0, "OrgZero")
        with cluster:
            cluster.pump_until_converged()
            stats = cluster.cluster_stats()
        assert stats["started"] is True
        assert set(stats["members"]) == {r0.home, r1.home}
        for member in stats["members"].values():
            assert {"serving", "route", "objects", "changelog"} <= set(member)
        assert stats["shard"]["members"] == 2
        assert len(stats["replication"]) == 2
        assert stats["replication_lag"] == 0
        assert stats["max_replication_lag"] == 64.0

    def test_pipeline_stats_totals_merge_members(self, federation, cluster):
        fed, (r0, r1) = federation
        org, _ = _publish(r0, "OrgZero")
        with cluster:
            cluster.pump_until_converged()
            for _ in range(4):
                assert (
                    cluster.call(
                        body=GetRegistryObjectRequest(object_id=org.id), timeout=30.0
                    ).status
                    == "Success"
                )
            cluster.drain()
        stats = cluster.pipeline_stats()
        assert set(stats["per_member"]) == {r0.home, r1.home}
        per_member_total = sum(
            tree.get("serving", {}).get("getRegistryObject", {}).get("count", 0)
            for tree in stats["per_member"].values()
        )
        merged = stats["total"]["serving"]["getRegistryObject"]
        assert merged["count"] == per_member_total == 4
        assert merged["min_latency_s"] <= merged["mean_latency_s"] <= merged["max_latency_s"]
