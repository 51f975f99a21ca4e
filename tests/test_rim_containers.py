"""A new object holds no empty container: one is made on its first read and
kept, a copy copies only what is held, and no read on the server's paths makes
one on a stored object."""

import gc
import os
import sys
import threading
import time

import pytest

from conftest import publish_service_with_bindings
from test_soap_serializer import NEW_OBJECT_KEYWORDS, _uid, populated_objects
from repro.rim import CONCRETE_TYPES, Organization, Service, VersionInfo
from repro.soap import (
    GetRegistryObjectRequest,
    GetServiceBindingsRequest,
    SoapEnvelope,
    SoapRegistryBinding,
    deserialize,
    envelope_to_xml,
    serialize,
)


class TestContainersOnFirstRead:
    @pytest.mark.parametrize("type_name", sorted(CONCRETE_TYPES))
    def test_a_new_object_holds_none_and_a_read_makes_one_it_keeps(self, type_name):
        cls = CONCRETE_TYPES[type_name]
        obj = cls(_uid(99), **NEW_OBJECT_KEYWORDS[type_name])
        assert not vars(obj).keys() & cls.LAZY.keys()
        for name, factory in cls.LAZY.items():
            container = getattr(obj, name)
            assert type(container) is factory and len(container) == 0
            assert getattr(obj, name) is container is vars(obj)[name]

    def test_any_other_missing_attribute_is_an_attribute_error(self):
        service = Service(_uid(1))
        with pytest.raises(AttributeError, match="'Service' object has no attribute 'access_uri'"):
            service.access_uri
        assert not hasattr(service, "access_uri")
        assert "access_uri" not in vars(service)

    @pytest.mark.parametrize("type_name", sorted(CONCRETE_TYPES))
    def test_a_copy_copies_the_containers_held_and_no_other(self, type_name):
        obj = populated_objects()[type_name]
        clone = obj.copy()
        assert vars(clone).keys() == vars(obj).keys()
        for name in vars(obj).keys() & type(obj).LAZY.keys():
            assert getattr(clone, name) is not getattr(obj, name)
        bare = CONCRETE_TYPES[type_name](_uid(99), **NEW_OBJECT_KEYWORDS[type_name])
        assert vars(bare.copy()).keys() == vars(bare).keys()

    def test_a_container_made_on_a_copy_is_the_copys_own(self):
        org = Organization(_uid(1), name="SDSU")
        org.add_slot("copyright", "2011")
        clone = org.copy()
        clone.slots.remove("copyright")
        clone.service_ids.append(_uid(2))
        assert org.slot_value("copyright") == "2011"
        assert "service_ids" not in vars(org)


class TestVersionInfoIsAValue:
    def test_new_objects_share_the_first_version(self):
        assert Service(_uid(1)).version is Service(_uid(2)).version is VersionInfo.FIRST

    def test_it_cannot_change_in_place(self):
        with pytest.raises(AttributeError):
            VersionInfo.FIRST.version_name = "9.9"
        assert VersionInfo.FIRST.version_name == "1.1"

    def test_a_version_read_from_the_wire_is_its_own(self):
        data = {**serialize(Service(_uid(1))), "versionName": "1.4"}
        assert deserialize(data).version == VersionInfo("1.4")
        assert deserialize(serialize(Service(_uid(1)))).version is VersionInfo.FIRST


class TestReadsNeverWrite:
    """What the server's read paths do to a stored object: nothing."""

    def test_serializing_copying_answering_and_querying_leave_stored_objects_alone(
        self, registry, session
    ):
        _, service = publish_service_with_bindings(registry, session)
        unbound = Service(registry.ids.new_id(), name="Unbound")
        registry.lcm.submit_objects(session, [unbound])
        store = registry.store
        stored = [store.get_view(object_id) for object_id in store.all_ids()]
        for obj in stored:
            getattr(obj, "host", None)  # a binding's first host read files its memo
        held = [dict(vars(obj)) for obj in stored]
        edge = SoapRegistryBinding(registry)

        def answer(request) -> str:
            return envelope_to_xml(SoapEnvelope(body=edge.handle(SoapEnvelope(body=request))))

        for obj in stored:
            serialize(obj)
            obj.copy()
            assert obj.id in answer(GetRegistryObjectRequest(obj.id))
        assert service.id in answer(GetServiceBindingsRequest(service.id))
        assert registry.qm.get_access_uris(service.id)
        assert registry.qm.get_access_uris(unbound.id) == []
        for table in ("Service", "ServiceBinding", "Organization", "RegistryObject"):
            assert registry.qm.execute_adhoc_query(f"SELECT * FROM {table}").rows
        assert [store.get_view(obj.id) for obj in stored] == stored
        for obj, before in zip(stored, held):
            assert vars(obj).keys() == before.keys(), type(obj).__name__
            assert all(vars(obj)[key] is value for key, value in before.items())

    def test_racing_first_reads_all_get_the_one_container_held(self):
        threads = 2 * (os.cpu_count() or 1) + 2
        interval, thresholds = sys.getswitchinterval(), gc.get_threshold()
        sys.setswitchinterval(1e-6)
        # frequent collections of garbage whose finalizers run Python code: a
        # collection can start inside a first read and switch threads there
        gc.set_threshold(5)
        try:
            deadline = time.monotonic() + 1.0
            for _ in range(100):
                if time.monotonic() > deadline:
                    break
                # more objects than CPython keeps free dicts for, so making
                # their dicts allocates, and so may collect
                services = [Service(_uid(n)) for n in range(400)]
                start, seen = threading.Barrier(threads), []

                def first_reads():
                    start.wait(timeout=10.0)
                    reads = []
                    for s in services:
                        _Finalized().cycle()
                        reads.append((s.slots, s.classification_ids))
                    seen.append(reads)

                workers = [threading.Thread(target=first_reads) for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=10.0)
                    assert not worker.is_alive()
                assert len(seen) == threads
                for n, service in enumerate(services):
                    slots, ids = vars(service)["slots"], vars(service)["classification_ids"]
                    assert len(slots) == 0 and ids == []
                    assert all(reads[n][0] is slots and reads[n][1] is ids for reads in seen)
        finally:
            gc.set_threshold(*thresholds)
            sys.setswitchinterval(interval)


class _Finalized:
    """Garbage only a collection frees, whose finalizer runs Python code."""

    def cycle(self) -> None:
        self.me = self

    def __del__(self) -> None:
        sum(range(20))
