"""An ad-hoc answer on the wire: a kept answer carries its text, a plan writes its rows.

The ``executeQuery`` handler hands the engine's kept answer to the writer as a
``serializer.AnswerRows``, which is written as the text the answer keeps; each
shared plan writes that text with one row writer compiled over its output
columns.  The bytes stay ``json.dumps(rows, sort_keys=True)``'s.
"""

import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_soap_xml_binding import dumps_document, elementtree_envelope_to_xml
from repro.persistence.nodestate import NodeSample
from repro.query import QueryEngine, ShapePlan, parse_select
from repro.query.ast import Select
from repro.query.virtual import VIRTUAL_TABLES
from repro.rim import InternationalString, Service, ServiceBinding
from repro.soap import (
    AdhocQueryRequest,
    RegistryResponse,
    SoapEnvelope,
    SoapRegistryBinding,
    UpdateObjectsRequest,
    envelope_to_xml,
    serialize,
    serializer,
)

HOSTS = ("h0.bench", "h1.bench", "h2.bench", "h3.bench")

#: keys no generated source may hold, and keys it may
keys = st.text(alphabet='ab_Z9"\\{}\' é中\n', max_size=6) | st.sampled_from(["id", "name"])
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(alphabet="ab<>&\"\\é中\x00\n", max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def plan_of(columns) -> ShapePlan:
    return ShapePlan(Select(table="Service", columns=tuple(columns)), ())


@pytest.fixture
def services(registry, session):
    """40 services ``Svc0000``…``Svc0039``, two bindings each on the four hosts,
    and a NodeState sweep of those hosts."""
    ids = registry.ids
    made = [Service(ids.new_id(), name=f"Svc{n:04d}") for n in range(40)]
    bindings = [
        ServiceBinding(
            ids.new_id(),
            service=svc.id,
            access_uri=f"http://{HOSTS[(n + b) % 4]}:8080/s",
            name=f"{svc.name.value}.b{b}",
        )
        for n, svc in enumerate(made)
        for b in range(2)
    ]
    registry.lcm.submit_objects(session, made)
    registry.lcm.submit_objects(session, bindings)
    registry.node_state.record_sweep(
        NodeSample(host=h, load=0.5 * n, memory=1 << 30, swap_memory=0, updated=36000.0)
        for n, h in enumerate(HOSTS)
    )
    return made


def served(binding, query, **window):
    return binding.handle(SoapEnvelope(body=AdhocQueryRequest(query, **window)))


def oracle(rows, total) -> str:
    """The document of *rows* as plain dicts: the encoder's bytes, and ElementTree's."""
    envelope = SoapEnvelope(body=RegistryResponse(rows=rows, total_result_count=total))
    document = dumps_document(envelope)
    assert elementtree_envelope_to_xml(envelope) == document
    return document


#: the six ``adhoc_mix`` kinds (eq twice), then the tail forms, a union read and NodeState
QUERIES = {
    "eq": "SELECT id FROM Service WHERE name = 'Svc0003'",
    "eq-binding": "SELECT id FROM ServiceBinding WHERE name = 'Svc0003.b0'",
    "prefix": "SELECT id, name FROM Service WHERE name LIKE 'Svc001%' ORDER BY name LIMIT 3",
    "semi": (
        "SELECT id, name FROM Service WHERE id IN (SELECT service FROM ServiceBinding "
        "WHERE host = 'h1.bench') AND name LIKE 'Svc00%'"
    ),
    "scan": "SELECT id FROM Service WHERE name LIKE '%3'",
    "count": (
        "SELECT COUNT(*) FROM ServiceBinding WHERE host = 'h1.bench' AND name LIKE 'Svc00%'"
    ),
    "wide": "SELECT * FROM Service WHERE name BETWEEN 'Svc0000' AND 'Svc0039'",
    "order-by": "SELECT name, accessUri FROM ServiceBinding ORDER BY accessUri DESC, name",
    "distinct": "SELECT DISTINCT host FROM ServiceBinding",
    "limit": "SELECT id, Name FROM ServiceBinding WHERE name LIKE 'Svc002%' LIMIT 5",
    "count-all": "SELECT COUNT(*) FROM Service",
    "union": "SELECT id, name FROM RegistryObject WHERE name LIKE 'Svc000%'",
    "nodestate": "SELECT * FROM NodeState",
    "nodestate-columns": "SELECT host, load FROM NodeState WHERE load < 1.2 ORDER BY load DESC",
}


class TestRowWriterParity:
    """A plan's row writer writes what ``encode_json`` writes, for any row, and the
    handler's answer is the document plain rows make."""

    @settings(max_examples=300, deadline=None)
    @given(
        columns=st.lists(keys, min_size=1, max_size=4, unique=True),
        values=st.lists(st.lists(json_values, min_size=4, max_size=4), max_size=3),
    )
    def test_select_list_rows(self, columns, values):
        rows = [dict(zip(columns, row)) for row in values]
        assert plan_of(columns).rows_json(rows) == serializer.encode_json(rows)

    @settings(max_examples=100, deadline=None)
    @given(
        columns=st.lists(st.sampled_from(["id", "name", "Name"]), min_size=1, unique=True),
        rows=st.lists(st.dictionaries(keys, json_values, max_size=4), max_size=3),
    )
    def test_a_row_of_other_keys_is_the_encoders(self, columns, rows):
        assert plan_of(columns).rows_json(rows) == serializer.encode_json(rows)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_catalogue_and_count_rows(self, data):
        for select in ("SELECT * FROM Service", "SELECT * FROM RegistryObject"):
            columns = list(VIRTUAL_TABLES[parse_select(select).table.lower()].columns)
            row = st.lists(json_values, min_size=len(columns), max_size=len(columns))
            rows = [dict(zip(columns, values)) for values in data.draw(st.lists(row, max_size=2))]
            plan = ShapePlan(parse_select(select), ())
            assert plan.rows_json(rows) == serializer.encode_json(rows)
        count = data.draw(json_values)
        plan = ShapePlan(parse_select("SELECT COUNT(*) FROM Service"), ())
        assert plan.rows_json([{"count": count}]) == serializer.encode_json([{"count": count}])

    def test_only_identifiers_reach_generated_source(self):
        for columns in (["a b"], ['x"]'], ["é"], ["{x}"], ["a\\"], ["id", "1st"]):
            plan = plan_of(columns)
            plan.rows_json([])
            assert plan._write_row is serializer.encode_json
        plan = plan_of(["id", "Name"])
        plan.rows_json([])
        assert plan._write_row is not serializer.encode_json

    @pytest.mark.parametrize("kind", list(QUERIES))
    def test_the_handlers_answer_is_the_document_of_its_rows(self, registry, services, kind):
        query, binding = QUERIES[kind], SoapRegistryBinding(registry)
        expected = QueryEngine(registry.store, planner=False).execute(query)
        assert expected
        document = oracle(expected, len(expected))
        # a miss, a hit whose write the answer keeps, a hit that joins that text
        for _ in range(3):
            answer = served(binding, query)
            assert envelope_to_xml(SoapEnvelope(body=answer)) == document
        assert type(answer.rows) is serializer.AnswerRows
        # read in process, the answer is the rows, and is written as them
        assert answer.rows == expected and list(answer.rows) == expected
        assert envelope_to_xml(SoapEnvelope(body=answer)) == document


class TestAnswerFreshnessAndOwnership:
    """A kept answer's text is the text of that answer, and nobody else's rows."""

    QUERY = "SELECT id, name FROM Service WHERE name LIKE 'Svc001%' ORDER BY name"

    def test_a_patched_entry_is_written_anew(self, registry, services, session):
        binding = SoapRegistryBinding(registry)
        binding.register_session(session)
        for _ in range(2):
            before = envelope_to_xml(SoapEnvelope(body=served(binding, self.QUERY)))
        misses = registry.engine.stats["result_misses"]
        renamed = registry.store.get_object(services[12].id)
        renamed.name = InternationalString("Svc0012-renamed")
        update = SoapEnvelope.with_session(
            UpdateObjectsRequest(objects=[serialize(renamed)]), session.token
        )
        assert binding.handle(update).ids == [renamed.id]
        after = envelope_to_xml(SoapEnvelope(body=served(binding, self.QUERY)))
        # patched, not dropped: the view kept the entry and wrote its new answer
        assert registry.engine.stats["result_misses"] == misses
        assert after != before and "Svc0012-renamed" in after
        expected = QueryEngine(registry.store, planner=False).execute(self.QUERY)
        assert after == oracle(expected, len(expected))

    def test_a_window_is_its_own_rows_not_the_whole_answers_text(self, registry, services):
        binding = SoapRegistryBinding(registry)
        expected = QueryEngine(registry.store, planner=False).execute(self.QUERY)
        for _ in range(2):
            whole = served(binding, self.QUERY)
            envelope_to_xml(SoapEnvelope(body=whole))
        kept = whole.rows._answer
        assert json.loads(kept.text) == expected
        for start, size in ((1, 3), (0, 4), (5, None), (10, 3), (0, 10), (0, None)):
            window = served(binding, self.QUERY, start_index=start, max_results=size)
            end = None if size is None else start + size
            document = envelope_to_xml(SoapEnvelope(body=window))
            assert document == oracle(expected[start:end], len(expected))
            if expected[start:end] != expected:
                assert type(window.rows) is list and json.loads(kept.text) != window.rows
            else:  # a whole window is the kept answer, written as its text
                assert window.rows._answer is kept

    def test_only_an_answer_served_twice_keeps_its_text(self, registry, services):
        binding = SoapRegistryBinding(registry)
        documents = []
        for _ in range(3):
            answer = served(binding, self.QUERY)
            documents.append(envelope_to_xml(SoapEnvelope(body=answer)))
            kept = answer.rows._answer
            if len(documents) == 1:  # served once, as most cold texts are: no text held
                assert kept.text == ""
        assert kept.text and kept.text in documents[-1] and len(set(documents)) == 1

    def test_a_caller_that_mutates_its_rows_changes_no_reply(self, registry, services):
        binding = SoapRegistryBinding(registry)
        document = envelope_to_xml(SoapEnvelope(body=served(binding, self.QUERY)))
        for _ in range(2):
            mine = registry.qm.execute_adhoc_query(self.QUERY).rows
            mine[0]["name"] = "mallory"
            mine.append({"id": "x"})
            handed = served(binding, self.QUERY)
            handed.rows[1]["name"] = "eve"
            # the handler's own answer, read in process, is written as mutated
            assert '"eve"' in envelope_to_xml(SoapEnvelope(body=handed))
            assert envelope_to_xml(SoapEnvelope(body=served(binding, self.QUERY))) == document

    def test_racing_readers_and_patches_each_write_the_answer_they_read(
        self, registry, services, session
    ):
        binding = SoapRegistryBinding(registry)
        target = services[15].id
        names = ("Svc0015-a", "Svc0015-b")
        seen: list = []
        stop = threading.Event()

        def read():
            while not stop.is_set():
                answer = served(binding, self.QUERY)
                kept = answer.rows._answer
                document = envelope_to_xml(SoapEnvelope(body=answer))
                seen.append((document, json.dumps(list(kept.rows), sort_keys=True)))

        def patch():
            for n in range(300):
                obj = registry.store.get_object(target)
                obj.name = InternationalString(names[n % 2])
                registry.lcm.update_objects(session, [obj])
            stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read), threading.Thread(target=read)]
            threads.append(threading.Thread(target=patch))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) > 10
        for document, rows in seen:
            assert json.loads(rows) == oracle_rows(document)
        assert {name for document, _ in seen for name in names if name in document} == set(names)


def oracle_rows(document: str) -> list:
    """The rows a written ``RegistryResponse`` document carries."""
    start = document.index("<ns1:RegistryResponse>") + len("<ns1:RegistryResponse>")
    payload = document[start : document.index("</ns1:RegistryResponse>")]
    payload = payload.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")
    return json.loads(payload)["rows"]
