"""Planner tests: access-path selection, plan caching, and scan parity.

Every behaviour here is pinned against one invariant: a planning engine and
a ``planner=False`` engine over the same store return bit-identical rows —
same rows, same order — for every statement, including the ORDER-BY-tie,
DISTINCT, windowing, and NULL corners the planner could plausibly break.
"""

import random

import pytest

from repro.mtc.experiment import adhoc_query_mix
from repro.persistence import DAORegistry, DataStore, NodeSample
from repro.persistence.views import ROW_CAP
from repro.query import QueryEngine, parse_select
from repro.query.planner import CompiledPlan
from repro.query.virtual import VIRTUAL_TABLES
from repro.rim import Classification, Organization, Service, ServiceBinding
from repro.util.errors import QuerySyntaxError
from repro.util.ids import IdFactory

ids = IdFactory(77)


@pytest.fixture
def store() -> DataStore:
    store = DataStore()
    daos = DAORegistry(store)
    for name in ("DemoOrg_A", "DemoOrg_B", "SDSU", "Acme 100% (west)", ""):
        daos.organizations.insert(Organization(ids.new_id(), name=name))
    services = []
    for index in range(6):
        svc = Service(ids.new_id(), name=f"Svc{index:02d}", description="app")
        daos.services.insert(svc)
        services.append(svc)
    # two services share a name: ORDER BY name ties must stay stable
    twin = Service(ids.new_id(), name="Svc01", description="twin")
    daos.services.insert(twin)
    services.append(twin)
    for svc in services[:3]:
        daos.service_bindings.insert(
            ServiceBinding(
                ids.new_id(),
                service=svc.id,
                access_uri=f"http://h-{svc.name.value}.example:80/x",
            )
        )
    node = ids.new_id()
    for svc in services[1:4]:
        store.insert_object(
            Classification(
                ids.new_id(), classified_object=svc.id, classification_node=node
            )
        )
    node_state = store.node_state
    for index, host in enumerate(("alpha.example", "beta.example", "gamma.example")):
        node_state.record_sample(
            NodeSample(
                host=host,
                load=0.5 * index,
                memory=4 << 30,
                swap_memory=1 << 30,
                updated=0.0,
            )
        )
    store.classification_node_id = node  # stash for tests
    store.service_objects = services
    return store


@pytest.fixture
def planned(store) -> QueryEngine:
    return QueryEngine(store)


@pytest.fixture
def scan(store) -> QueryEngine:
    return QueryEngine(store, planner=False)


def assert_parity(planned: QueryEngine, scan: QueryEngine, query: str) -> list:
    a = planned.execute(query)
    b = scan.execute(query)
    assert a == b, f"planned != scan for {query!r}"
    return a


class TestAccessPathSelection:
    def test_id_equality_probes(self, planned, store):
        svc = store.service_objects[0]
        plan = planned.explain(f"SELECT * FROM Service WHERE id = '{svc.id}'")
        assert plan["access_path"] == "id-eq"
        assert plan["residual_conjuncts"] == 0

    def test_id_equality_reversed_operands(self, planned, store):
        svc = store.service_objects[0]
        plan = planned.explain(f"SELECT * FROM Service WHERE '{svc.id}' = id")
        assert plan["access_path"] == "id-eq"

    def test_id_in_list(self, planned, store):
        a, b = store.service_objects[:2]
        plan = planned.explain(
            f"SELECT * FROM Service WHERE id IN ('{a.id}', '{b.id}')"
        )
        assert plan["access_path"] == "id-in"

    def test_name_equality(self, planned):
        plan = planned.explain("SELECT * FROM Service WHERE name = 'Svc01'")
        assert plan["access_path"] == "name-eq"

    def test_wildcardless_like_is_name_equality(self, planned):
        plan = planned.explain("SELECT * FROM Service WHERE name LIKE 'Svc01'")
        assert plan["access_path"] == "name-eq"

    def test_pure_prefix_like_has_no_residual(self, planned):
        plan = planned.explain("SELECT * FROM Service WHERE name LIKE 'Svc%'")
        assert plan["access_path"] == "name-prefix"
        assert plan["residual_conjuncts"] == 0

    def test_prefix_like_with_inner_wildcard_keeps_residual(self, planned):
        # the name is history: an inner wildcard used to probe the prefix and
        # keep the LIKE as a residual; the pattern now runs over the index's
        # distinct names and the conjunct is fully covered
        plan = planned.explain("SELECT * FROM Service WHERE name LIKE 'Svc0_'")
        assert plan["access_path"] == "name-like"
        assert plan["probe_values"] == ["Svc0", "Svc0_"]
        assert plan["residual_conjuncts"] == 0

    def test_suffix_like_reads_the_name_index(self, planned):
        plan = planned.explain("SELECT id FROM Service WHERE name LIKE '%01'")
        assert plan["access_path"] == "name-like"
        assert plan["probe_values"] == ["", "%01"]
        assert plan["residual_conjuncts"] == 0

    def test_name_between_strings_is_a_range_probe(self, planned):
        for column in ("name", "name_"):
            plan = planned.explain(
                f"SELECT * FROM Service WHERE {column} BETWEEN 'Svc01' AND 'Svc03'"
            )
            assert plan["access_path"] == "name-range"
            assert plan["probe_values"] == ["Svc01", "Svc03"]
            assert plan["residual_conjuncts"] == 0

    def test_negated_between_stays_residual(self, planned):
        plan = planned.explain(
            "SELECT * FROM Service WHERE name NOT BETWEEN 'Svc01' AND 'Svc03'"
        )
        assert plan["access_path"] == "scan"
        assert plan["residual_conjuncts"] == 1

    def test_numeric_between_bounds_stay_residual(self, planned):
        # the scan path coerces numeric-looking names against a numeric
        # bound; the sorted name index orders strings only
        for bounds in ("1 AND 5", "'1' AND 5", "1 AND '5'", "NULL AND 'z'"):
            plan = planned.explain(
                f"SELECT * FROM Service WHERE name BETWEEN {bounds}"
            )
            assert plan["access_path"] == "scan", bounds
            assert plan["residual_conjuncts"] == 1

    def test_between_on_other_columns_stays_residual(self, planned):
        plan = planned.explain(
            "SELECT * FROM Service WHERE description BETWEEN 'a' AND 'b'"
        )
        assert plan["access_path"] == "scan"

    def test_name_in_list(self, planned):
        plan = planned.explain(
            "SELECT * FROM Service WHERE name IN ('Svc01', 'Svc02')"
        )
        assert plan["access_path"] == "name-in"

    def test_id_in_subquery(self, planned, store):
        plan = planned.explain(
            "SELECT name FROM Service WHERE id IN "
            "(SELECT classifiedobject FROM Classification)"
        )
        assert plan["access_path"] == "id-in-subquery"
        assert plan["subqueries"] == 1

    def test_cheapest_conjunct_wins(self, planned, store):
        svc = store.service_objects[0]
        plan = planned.explain(
            "SELECT * FROM Service WHERE name LIKE 'Svc%' "
            f"AND id = '{svc.id}' AND description = 'app'"
        )
        assert plan["access_path"] == "id-eq"
        # the LIKE and description conjuncts stay as residual filters
        assert plan["residual_conjuncts"] == 2

    def test_numeric_literal_against_name_is_not_sargable(self, planned):
        # scan semantics coerce name '123' == 123; an index probe would miss
        plan = planned.explain("SELECT * FROM Organization WHERE name = 123")
        assert plan["access_path"] == "scan"

    def test_negated_predicates_are_not_sargable(self, planned):
        for where in (
            "name NOT LIKE 'Svc%'",
            "id NOT IN ('a', 'b')",
            "NOT name = 'Svc01'",
        ):
            plan = planned.explain(f"SELECT * FROM Service WHERE {where}")
            assert plan["access_path"] == "scan", where

    def test_or_tree_falls_back_to_scan(self, planned):
        plan = planned.explain(
            "SELECT * FROM Service WHERE name = 'Svc01' OR name = 'Svc02'"
        )
        assert plan["access_path"] == "scan"

    def test_relational_tables_always_scan(self, planned):
        plan = planned.explain("SELECT HOST FROM NodeState WHERE LOAD < 1.0")
        assert plan["access_path"] == "scan"
        assert plan["relational"] is True

    def test_unknown_table_raises(self, planned):
        with pytest.raises(QuerySyntaxError):
            planned.execute("SELECT * FROM Nonsense")


class TestPlanCache:
    def test_repeat_text_is_patched_by_a_write(self, planned, scan, store):
        query = "SELECT * FROM Service WHERE name LIKE 'Svc%'"
        first = planned.execute(query)
        built = planned.stats["plans_built"]
        # verbatim repeats are answered by the materialized result view
        # before the planner is even consulted
        assert planned.execute(query) == first
        assert planned.stats["result_hits"] >= 1
        # a write is patched into the kept rows: the next read is a hit that
        # runs neither the plan nor the planner
        store.insert_object(Service(ids.new_id(), name="Svc99", description="d"))
        assert "Svc99" in [row["name"] for row in assert_parity(planned, scan, query)]
        assert planned.stats["plans_built"] == built
        assert planned.stats["plan_hits"] == 0
        assert planned.stats["result_misses"] == 1

    def test_ast_input_hits_cache_too(self, planned):
        select = parse_select("SELECT * FROM Service WHERE name = 'Svc01'")
        planned.execute(select)
        built = planned.stats["plans_built"]
        planned.execute(select)
        assert planned.stats["plans_built"] == built

    def test_plans_survive_writes(self, planned, store):
        query = "SELECT * FROM Service WHERE name = 'SvcNew'"
        assert planned.execute(query) == []
        built = planned.stats["plans_built"]
        store.insert_object(Service(ids.new_id(), name="SvcNew", description="d"))
        rows = planned.execute(query)
        assert [r["name"] for r in rows] == ["SvcNew"]
        # the write invalidated nothing: probes read the live index
        assert planned.stats["plans_built"] == built


class TestSubqueryMaterialization:
    QUERY = (
        "SELECT name FROM Service WHERE id IN "
        "(SELECT classifiedobject FROM Classification)"
    )

    def test_materialized_once_per_version(self, planned):
        planned.execute(self.QUERY)
        # AST inputs bypass the text-keyed result view, so they reach the
        # planner and reuse the materialized subquery for the same version
        select = parse_select(self.QUERY)
        planned.execute(select)
        planned.execute(select)
        assert planned.stats["subquery_materializations"] == 1
        assert planned.stats["subquery_hits"] == 2

    @staticmethod
    def classify_new_service(store) -> Classification:
        svc = Service(ids.new_id(), name="SvcNew", description="d")
        store.insert_object(svc)
        classification = Classification(
            ids.new_id(),
            classified_object=svc.id,
            classification_node=store.classification_node_id,
        )
        store.insert_object(classification)
        return classification

    def test_a_write_is_patched_into_the_materialization(self, planned, scan, store):
        before = assert_parity(planned, scan, self.QUERY)
        classification = self.classify_new_service(store)
        after = assert_parity(planned, scan, self.QUERY)
        assert len(after) == len(before) + 1
        store.delete_object(classification.id)
        assert assert_parity(planned, scan, self.QUERY) == before
        assert planned.stats["subquery_materializations"] == 1

    def test_a_limit_subquery_is_patched(self, planned, scan, store):
        query = (
            "SELECT name FROM Service WHERE id IN (SELECT classifiedobject "
            "FROM Classification ORDER BY classifiedobject DESC LIMIT 2)"
        )
        before = assert_parity(planned, scan, query)
        classification = self.classify_new_service(store)
        assert_parity(planned, scan, query)
        store.delete_object(classification.id)
        assert assert_parity(planned, scan, query) == before
        assert planned.stats["subquery_materializations"] == 1


class TestLazyMaterialization:
    def test_index_path_materializes_only_candidates(self, planned, store):
        svc = store.service_objects[0]
        planned.execute(f"SELECT * FROM Service WHERE id = '{svc.id}'")
        assert planned.stats["rows_materialized"] == 1
        planned.execute("SELECT * FROM Service")
        assert planned.stats["rows_materialized"] == 1 + len(store.service_objects)

    def test_fast_count_materializes_nothing(self, planned, store):
        rows = planned.execute("SELECT COUNT(*) FROM Service")
        assert rows == [{"count": len(store.service_objects)}]
        assert planned.stats["rows_materialized"] == 0


class TestProbeDeleteRace:
    """A delete landing between the index probe and the heap read.

    Probes read ids off the published index generation; the object can be
    gone by the time the plan fetches it.  The statement must answer with
    the remaining objects, as a scan (which skips vanished ids) does.
    """

    @pytest.mark.parametrize(
        "probe, where",
        [
            ("find_ids_by_name_prefix", "name LIKE 'Svc0%'"),
            ("find_ids_by_name_match", "name LIKE '%0_'"),
            ("find_ids_by_name_range", "name BETWEEN 'Svc00' AND 'Svc05'"),
            ("find_ids_by_name", "name = 'Svc01'"),
            ("find_ids_by_names", "name IN ('Svc01', 'Svc02')"),
            ("filter_ids_of_type", "id IN ({ids})"),
        ],
    )
    def test_statement_answers_with_the_remaining_rows(
        self, planned, store, monkeypatch, probe, where
    ):
        victim = store.service_objects[1]  # 'Svc01': every probe above finds it
        where = where.format(
            ids=", ".join(f"'{svc.id}'" for svc in store.service_objects[:3])
        )
        real = getattr(store, probe)

        def probe_then_delete(*args, **kwargs):
            found = real(*args, **kwargs)
            if store.contains(victim.id):
                assert victim.id in found
                store.delete_object(victim.id)
            return found

        monkeypatch.setattr(store, probe, probe_then_delete)
        rows = planned.execute(f"SELECT id FROM Service WHERE {where}")
        assert rows and victim.id not in [row["id"] for row in rows]
        monkeypatch.undo()
        assert rows == QueryEngine(store, planner=False).execute(
            f"SELECT id FROM Service WHERE {where}"
        )


def thousand_services(seed: int) -> DataStore:
    """1 000 services ``Svc0000``…, one binding each (``Svc0000.b0``, 16 hosts)."""
    store = DataStore()
    local = IdFactory(seed)
    with store.transaction():
        for index in range(1000):
            svc = Service(local.new_id(), name=f"Svc{index:04d}", description="d")
            store.insert_object(svc)
            store.insert_object(
                ServiceBinding(
                    local.new_id(),
                    service=svc.id,
                    access_uri=f"http://host{index % 16:02d}.bench:80/x",
                    name=f"Svc{index:04d}.b0",
                )
            )
    return store


def adhoc_texts(rng: random.Random) -> list[str]:
    """64 texts of the ``adhoc_mix`` shapes a record can patch (the semi-join
    shape keeps the drop rule): name equality, prefix with ORDER BY and
    LIMIT, suffix pattern, filtered COUNT(*), and a 40-name BETWEEN."""
    texts = []
    for _ in range(19):
        p = rng.randrange(2000)
        texts.append(
            f"SELECT id FROM Service WHERE name = 'Svc{p:04d}'"
            if p < 1000
            else f"SELECT id FROM ServiceBinding WHERE name = 'Svc{p - 1000:04d}.b0'"
        )
    for _ in range(12):
        p = rng.randrange(1000)
        texts.append(
            f"SELECT id, name FROM Service WHERE name LIKE 'Svc{p % 100:03d}%' "
            f"ORDER BY name LIMIT {1 + p // 100}"
        )
    for _ in range(7):
        texts.append(f"SELECT id FROM Service WHERE name LIKE '%{rng.randrange(1000):03d}'")
    for _ in range(17):
        p = rng.randrange(1600)
        texts.append(
            f"SELECT COUNT(*) FROM ServiceBinding WHERE host = 'host{p % 16:02d}.bench' "
            f"AND name LIKE 'Svc{p // 16 % 100:03d}%'"
        )
    for _ in range(9):
        low = rng.randrange(960)
        texts.append(
            f"SELECT * FROM Service WHERE name BETWEEN 'Svc{low:04d}' "
            f"AND 'Svc{low + 39:04d}'"
        )
    return texts


def path_admits(explained: dict, record) -> bool:
    """Whether a plan's access path admits a record's pre- or post-image."""
    kind, values = explained["access_path"], explained["probe_values"]
    if kind == "scan":
        return True
    if kind in ("id-eq", "id-in"):
        return record.object_id in values
    names = [o.name.value for o in (record.payload, record.previous) if o is not None]
    if kind in ("name-eq", "name-in"):
        return any(name in values for name in names)
    if kind in ("name-prefix", "name-like"):
        return any(name.startswith(values[0]) for name in names)
    assert kind == "name-range", kind
    return any(values[0] <= name <= values[1] for name in names)


class TestWorkBound:
    """Row dicts are built for what a statement returns, not what it reads.

    In the spirit of the kernel's call-budget test: a 1 000-service store,
    the three unindexed-at-the-parent shapes of ``adhoc_mix``, and a bound on
    ``stats["rows_materialized"]`` (row dicts built) instead of a timing.
    """

    @pytest.fixture(scope="class")
    def big_store(self) -> DataStore:
        return thousand_services(1000)

    @pytest.mark.parametrize(
        "query, returned",
        [
            ("SELECT id FROM Service WHERE name LIKE '%007'", 1),
            ("SELECT * FROM Service WHERE name BETWEEN 'Svc0100' AND 'Svc0139'", 40),
            (
                "SELECT COUNT(*) FROM ServiceBinding WHERE host = 'host03.bench' "
                "AND name LIKE 'Svc01%'",
                0,
            ),
            ("SELECT COUNT(*) FROM Service WHERE description = 'd'", 0),
            ("SELECT COUNT(*) FROM Service WHERE name LIKE '%7' AND description = 'd'", 0),
        ],
    )
    def test_builds_no_more_rows_than_it_returns(self, big_store, query, returned):
        engine = QueryEngine(big_store)
        rows = engine.execute(query)
        assert rows == QueryEngine(big_store, planner=False).execute(query)
        if returned:
            assert len(rows) == returned
        else:
            assert rows[0]["count"] > 0  # a COUNT(*) that did filter something
        assert engine.stats["rows_materialized"] == returned

    def test_a_write_patches_a_subquery(self):
        """A semi-join over 2 000 bindings, run after each of 100 binding
        inserts and 100 deletes, scans the bindings once: every write is
        patched into its materialized subquery."""
        store = DataStore()
        local = IdFactory(1001)
        services = [
            Service(local.new_id(), name=f"Svc{index:04d}", description="d")
            for index in range(1000)
        ]
        with store.transaction():
            for index, svc in enumerate(services):
                store.insert_object(svc)
                for twin in range(2):
                    store.insert_object(
                        ServiceBinding(
                            local.new_id(),
                            service=svc.id,
                            access_uri=f"http://host{(index + twin) % 16:02d}.bench:80/x",
                        )
                    )
        query = (
            "SELECT id FROM Service WHERE id IN "
            "(SELECT service FROM ServiceBinding WHERE host = 'host03.bench')"
        )
        engine = QueryEngine(store)
        before = {row["id"] for row in engine.execute(query)}
        expected = set(before)
        added = []
        for svc in services[:100]:
            binding = ServiceBinding(
                local.new_id(), service=svc.id, access_uri="http://host03.bench:80/y"
            )
            store.insert_object(binding)
            added.append(binding.id)
            expected.add(svc.id)
            assert {row["id"] for row in engine.execute(query)} == expected
        assert engine.execute(query) == QueryEngine(store, planner=False).execute(query)
        for binding_id in added:
            store.delete_object(binding_id)
            engine.execute(query)
        assert engine.execute(query) == QueryEngine(store, planner=False).execute(query)
        assert {row["id"] for row in engine.execute(query)} == before
        assert engine.stats["subquery_materializations"] == 1

    def test_a_subquery_entry_keeps_at_most_row_cap_rows(self):
        """600 bindings on one host under a semi-join: the subquery has more
        survivors than an entry may keep, so it falls back to the drop rule
        and no subquery entry holds more than ``ROW_CAP`` rows or values."""
        store = DataStore()
        local = IdFactory(1004)
        bindings = []
        with store.transaction():
            for index in range(600):
                svc = Service(local.new_id(), name=f"Svc{index:04d}", description="d")
                store.insert_object(svc)
                bindings.append(
                    ServiceBinding(
                        local.new_id(), service=svc.id, access_uri="http://host00.bench:80/x"
                    )
                )
                store.insert_object(bindings[-1])
        query = (
            "SELECT id FROM Service WHERE id IN "
            "(SELECT service FROM ServiceBinding WHERE host = 'host00.bench')"
        )
        engine, scan = QueryEngine(store), QueryEngine(store, planner=False)

        def largest_entry() -> int:
            entries = engine._subqueries._entries.values()
            return max((len(getattr(kept, "by_id", kept)) for _, kept, _ in entries), default=0)

        assert len(engine.execute(query)) == 600
        assert largest_entry() <= ROW_CAP
        store.delete_object(bindings[0].id)
        assert engine.execute(query) == scan.execute(query)
        assert largest_entry() <= ROW_CAP

    def test_a_write_reaches_only_the_results_it_can_change(self, monkeypatch):
        """64 cached texts beside 200 description rewrites and 100 Submit /
        Remove pairs of ``Tmp…`` services: every write is patched into the
        kept results (no text misses again), and a record evaluates the WHERE
        of only the entries whose access path admits its names or id."""
        store = thousand_services(1002)
        rng = random.Random(1002)
        texts = adhoc_texts(rng)
        engine = QueryEngine(store)
        for text in texts:
            engine.execute(text)
        assert engine.stats["result_misses"] == len(texts)
        evaluations = [0]
        patch_filter = CompiledPlan.patch_filter

        def counted(plan):
            admits = patch_filter(plan)

            def evaluate(obj):
                evaluations[0] += 1
                return admits(obj)

            return evaluate

        monkeypatch.setattr(CompiledPlan, "patch_filter", counted)
        start = store.changelog.last_seq
        services = list(store.iter_views_of_type("Service"))
        local = IdFactory(1003)
        for step in range(300):
            if step % 3 == 2:
                svc = Service(local.new_id(), name=f"Tmp{step}x", description="t")
                binding = ServiceBinding(
                    local.new_id(),
                    service=svc.id,
                    access_uri=f"http://host{step % 16:02d}.bench:80/t",
                    name=f"Tmp{step}x.b0",
                )
                store.insert_object(svc)
                store.insert_object(binding)
                store.delete_object(binding.id)
                store.delete_object(svc.id)
            else:
                svc = store.get_object(rng.choice(services).id)
                svc.description.set(f"rewrite {step}")
                store.save_object(svc)
            for text in texts:
                engine.execute(text)
        assert engine.stats["result_misses"] == len(texts)
        records = store.changelog.records_since(start)
        assert len(records) == 200 + 4 * 100
        explained = [(engine.explain(text), text) for text in texts]
        reached = sum(
            path_admits(plan, record)
            for record in records
            for plan, _ in explained
            if VIRTUAL_TABLES[plan["table"].lower()].type_name == record.type_name
        )
        every = sum(
            VIRTUAL_TABLES[plan["table"].lower()].type_name == record.type_name
            for record in records
            for plan, _ in explained
        )
        assert 0 < evaluations[0] <= reached < every / 4
        scan = QueryEngine(store, planner=False)
        for text in texts:
            assert engine.execute(text) == scan.execute(text), text


class TestResultPatching:
    """A write patches a cached result; what a record cannot patch is dropped."""

    def test_an_unknown_column_behind_an_empty_probe_is_dropped_not_patched(
        self, planned, scan, store
    ):
        """The probe empties the candidate set, so the residual naming an
        unknown column never runs and ``[]`` is cached.  Once a matching
        object exists, the record must drop that entry — a patch would raise
        inside the catch-up and fail every other read of the view — and the
        next run raises, as the scan path does."""
        bogus = "SELECT id FROM Service WHERE name = 'Nx' AND bogus = 1"
        other = "SELECT id, name FROM Service WHERE name LIKE 'N%'"
        assert planned.execute(bogus) == scan.execute(bogus) == []
        assert planned.execute(other) == []
        store.insert_object(Service(ids.new_id(), name="Nx", description="d"))
        assert [row["name"] for row in assert_parity(planned, scan, other)] == ["Nx"]
        with pytest.raises(QuerySyntaxError):
            scan.execute(bogus)
        with pytest.raises(QuerySyntaxError):
            planned.execute(bogus)

    def test_a_union_entry_is_kept_in_id_order(self, planned, scan, store):
        """Union candidates arrive type by type, and without ORDER BY the scan
        path answers in id order: a kept union entry is sorted on its first
        read and again after a patch, here one that changes an object's type
        under its id.  With ORDER BY, ties break type by type, so that entry
        is dropped instead."""
        kept = (
            "SELECT id, objecttype FROM RegistryObject LIMIT 3",
            "SELECT DISTINCT name FROM RegistryObject WHERE name LIKE 'Svc%'",
            "SELECT COUNT(*) FROM RegistryObject WHERE name LIKE 'Svc%'",
        )
        ordered = "SELECT id FROM RegistryObject WHERE name LIKE 'Svc%' ORDER BY name"
        for query in (*kept, ordered):
            assert_parity(planned, scan, query)
        first = store.service_objects[0]
        with store.transaction():
            store.delete_object(first.id)
            store.insert_object(Organization(first.id, name="Svc01"))
        store.insert_object(Organization(ids.new_id(), name="Svc99"))
        for query in (*kept, ordered):
            assert_parity(planned, scan, query)
        assert planned.stats["result_misses"] == len(kept) + 2


class TestScanParity:
    """The planner must be invisible except in latency."""

    def queries(self, store):
        svc = store.service_objects[0]
        twin_name_order = "SELECT id, name FROM Service ORDER BY name"
        return [
            "SELECT * FROM Service",
            f"SELECT * FROM Service WHERE id = '{svc.id}'",
            f"SELECT * FROM RegistryObject WHERE id = '{svc.id}'",
            f"SELECT * FROM Service WHERE id IN ('{svc.id}', 'missing')",
            "SELECT * FROM Service WHERE name = 'Svc01'",
            "SELECT * FROM Service WHERE name LIKE 'Svc0%'",
            "SELECT * FROM Service WHERE name LIKE 'Svc0_'",
            "SELECT * FROM Service WHERE name IN ('Svc01', 'Svc05', 'nope')",
            "SELECT name FROM Service WHERE id IN "
            "(SELECT classifiedobject FROM Classification)",
            twin_name_order,  # ORDER BY ties between the Svc01 twins
            "SELECT name FROM Service WHERE name LIKE 'Svc%' ORDER BY name DESC",
            "SELECT DISTINCT name FROM Service WHERE name LIKE 'Svc%'",
            "SELECT name FROM Service WHERE name LIKE 'Svc%' LIMIT 3",
            "SELECT COUNT(*) FROM Service WHERE name LIKE 'Svc%'",
            "SELECT * FROM RegistryObject WHERE name = 'Svc01'",
            "SELECT * FROM RegistryObject WHERE name LIKE 'Demo%'",
            "SELECT name FROM Organization WHERE name LIKE '%(west)'",
            "SELECT name FROM Organization WHERE name LIKE 'Acme 100_ (west)'",
            "SELECT HOST, LOAD FROM NodeState WHERE LOAD BETWEEN 0 AND 1",
            "SELECT * FROM Organization WHERE name = ''",
        ]

    def test_rows_and_order_identical(self, planned, scan, store):
        for query in self.queries(store):
            assert_parity(planned, scan, query)

    def test_windowed_parity(self, planned, scan):
        query = "SELECT id, name FROM Service WHERE name LIKE 'Svc%' ORDER BY name"
        for start, size in ((0, 3), (2, 2), (5, None), (50, 4)):
            a = planned.execute_windowed(query, start_index=start, max_results=size)
            b = scan.execute_windowed(query, start_index=start, max_results=size)
            assert a == b

    def test_parity_after_rename_moves_name_index(self, planned, scan, store):
        svc = store.service_objects[0].copy()
        svc.name.set("Renamed")
        store.save_object(svc)
        for query in (
            "SELECT * FROM Service WHERE name = 'Renamed'",
            "SELECT * FROM Service WHERE name = 'Svc00'",
        ):
            assert_parity(planned, scan, query)

    def test_parity_after_delete(self, planned, scan, store):
        target = store.service_objects[2]
        query = f"SELECT * FROM Service WHERE id = '{target.id}'"
        assert len(assert_parity(planned, scan, query)) == 1
        store.delete_object(target.id)
        assert assert_parity(planned, scan, query) == []

    def test_parity_after_rollback_rebuild(self, planned, scan, store):
        query = "SELECT * FROM Service WHERE name = 'SvcTxn'"
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.insert_object(
                    Service(ids.new_id(), name="SvcTxn", description="d")
                )
                raise RuntimeError("abort")
        assert assert_parity(planned, scan, query) == []


class TestAdhocQueryMix:
    def test_mix_shapes(self, store):
        queries = adhoc_query_mix(
            service_ids=("svc-1",),
            name_prefixes=("Svc",),
            classification_nodes=("node-1",),
        )
        assert len(queries) == 4
        engine = QueryEngine(store)
        kinds = [engine.explain(q)["access_path"] for q in queries]
        assert kinds == ["id-eq", "name-prefix", "id-in-subquery", "scan"]

    def test_harness_exposes_bound_mix(self):
        from repro.mtc.experiment import ExperimentConfig, ExperimentHarness

        harness = ExperimentHarness(ExperimentConfig())
        queries = harness.adhoc_discovery_queries()
        assert any(harness.service_id in q for q in queries)
        for query in queries:
            harness.registry.qm.execute_adhoc_query(query, max_results=10)
        stats = harness.registry.qm.query_plan_stats()
        assert stats["plans_built"] >= len(queries)
