"""Tests for SELECT execution over virtual tables and the NodeState relation."""

import pytest

from repro.persistence import DataStore, DAORegistry, NodeSample
import repro.rim as rim
from repro.query import QueryEngine
from repro.query.virtual import VIRTUAL_TABLES
from repro.rim import Organization, Service, ServiceBinding
from repro.util.errors import QuerySyntaxError
from repro.util.ids import IdFactory

ids = IdFactory(30)


@pytest.fixture
def store() -> DataStore:
    store = DataStore()
    daos = DAORegistry(store)
    for name, city in [("DemoOrg_A", "San Diego"), ("DemoOrg_B", "Austin"), ("SDSU", "San Diego")]:
        org = Organization(ids.new_id(), name=name)
        daos.organizations.insert(org)
    svc = Service(ids.new_id(), name="NodeStatus", description="monitoring")
    daos.services.insert(svc)
    daos.service_bindings.insert(
        ServiceBinding(
            ids.new_id(), service=svc.id, access_uri="http://exergy.sdsu.edu:8080/ns"
        )
    )
    node_state = store.node_state
    node_state.record_sample(
        NodeSample(host="exergy.sdsu.edu", load=0.5, memory=4 << 30, swap_memory=1 << 30, updated=0.0)
    )
    node_state.record_sample(
        NodeSample(host="thermo.sdsu.edu", load=3.5, memory=1 << 30, swap_memory=1 << 30, updated=0.0)
    )
    return store


@pytest.fixture
def engine(store) -> QueryEngine:
    return QueryEngine(store)


class TestVirtualTables:
    def test_select_star(self, engine):
        rows = engine.execute("SELECT * FROM Organization")
        assert len(rows) == 3

    def test_like_prefix(self, engine):
        rows = engine.execute("SELECT name FROM Organization WHERE name LIKE 'DemoOrg_%' ORDER BY name")
        assert [r["name"] for r in rows] == ["DemoOrg_A", "DemoOrg_B"]

    def test_like_underscore_wildcard(self, engine):
        rows = engine.execute("SELECT name FROM Organization WHERE name LIKE 'DemoOrg__'")
        assert len(rows) == 2

    def test_equality(self, engine):
        rows = engine.execute("SELECT id FROM Service WHERE name = 'NodeStatus'")
        assert len(rows) == 1

    def test_binding_host_column(self, engine):
        rows = engine.execute("SELECT host FROM ServiceBinding")
        assert rows[0]["host"] == "exergy.sdsu.edu"

    def test_union_view(self, engine):
        rows = engine.execute("SELECT * FROM RegistryObject")
        assert len(rows) == 5  # 3 orgs + 1 service + 1 binding

    def test_case_insensitive_table_name(self, engine):
        assert len(engine.execute("SELECT * FROM organization")) == 3

    def test_unknown_table(self, engine):
        with pytest.raises(QuerySyntaxError):
            engine.execute("SELECT * FROM Nonsense")

    def test_unknown_column(self, engine):
        with pytest.raises(QuerySyntaxError):
            engine.execute("SELECT bogus FROM Organization")


class TestRelationalTables:
    def test_nodestate_query(self, engine):
        rows = engine.execute("SELECT HOST FROM NodeState WHERE LOAD < 1.0")
        assert [r["HOST"] for r in rows] == ["exergy.sdsu.edu"]

    def test_lowercase_columns_work(self, engine):
        rows = engine.execute("SELECT host FROM NodeState WHERE load >= 1.0")
        assert [r["host"] for r in rows] == ["thermo.sdsu.edu"]

    def test_between(self, engine):
        rows = engine.execute("SELECT HOST FROM NodeState WHERE LOAD BETWEEN 0 AND 1")
        assert len(rows) == 1

    @pytest.mark.parametrize("planner", [True, False], ids=["planned", "scan"])
    def test_select_star_answers_each_column_once(self, store, planner):
        rows = QueryEngine(store, planner=planner).execute("SELECT * FROM NodeState")
        assert [list(row) for row in rows] == [
            ["host", "load", "memory", "swapmemory", "updated"]
        ] * 2
        assert [row["host"] for row in rows] == ["exergy.sdsu.edu", "thermo.sdsu.edu"]

    @pytest.mark.parametrize("planner", [True, False], ids=["planned", "scan"])
    def test_table_name_is_case_insensitive(self, store, planner):
        engine = QueryEngine(store, planner=planner)
        for table in ("nodestate", "NODESTATE", "NodeState"):
            rows = engine.execute(f"SELECT HOST FROM {table} WHERE LOAD < 1.0")
            assert rows == [{"HOST": "exergy.sdsu.edu"}]


class TestOrderingProjection:
    def test_order_by_desc(self, engine):
        rows = engine.execute("SELECT name FROM Organization ORDER BY name DESC")
        names = [r["name"] for r in rows]
        assert names == sorted(names, reverse=True)

    def test_default_order_is_id(self, engine):
        rows = engine.execute("SELECT id FROM Organization")
        assert [r["id"] for r in rows] == sorted(r["id"] for r in rows)

    def test_limit(self, engine):
        assert len(engine.execute("SELECT * FROM Organization LIMIT 2")) == 2

    def test_distinct(self, engine):
        rows = engine.execute("SELECT DISTINCT status FROM Organization")
        assert len(rows) == 1

    def test_multi_key_order(self, engine):
        rows = engine.execute("SELECT status, name FROM Organization ORDER BY status, name")
        assert [r["name"] for r in rows] == ["DemoOrg_A", "DemoOrg_B", "SDSU"]


class TestCountStar:
    def test_count_all(self, engine):
        rows = engine.execute("SELECT COUNT(*) FROM Organization")
        assert rows == [{"count": 3}]

    def test_count_with_where(self, engine):
        rows = engine.execute(
            "SELECT COUNT(*) FROM Organization WHERE name LIKE 'DemoOrg_%'"
        )
        assert rows == [{"count": 2}]

    def test_count_empty(self, engine):
        rows = engine.execute("SELECT COUNT(*) FROM Subscription")
        assert rows == [{"count": 0}]

    def test_count_relational_table(self, engine):
        rows = engine.execute("SELECT COUNT(*) FROM NodeState WHERE LOAD < 1.0")
        assert rows == [{"count": 1}]

    def test_count_requires_star(self, engine):
        with pytest.raises(QuerySyntaxError):
            engine.execute("SELECT COUNT(name) FROM Organization")


class TestInSubquery:
    def test_cross_class_join_via_subquery(self, engine):
        # "services that have at least one binding on exergy"
        rows = engine.execute(
            "SELECT name FROM Service WHERE id IN "
            "(SELECT service FROM ServiceBinding WHERE host = 'exergy.sdsu.edu')"
        )
        assert [r["name"] for r in rows] == ["NodeStatus"]

    def test_empty_subquery_matches_nothing(self, engine):
        rows = engine.execute(
            "SELECT name FROM Service WHERE id IN "
            "(SELECT service FROM ServiceBinding WHERE host = 'nowhere')"
        )
        assert rows == []

    def test_not_in_subquery(self, engine):
        rows = engine.execute(
            "SELECT name FROM Organization WHERE id NOT IN "
            "(SELECT id FROM Organization WHERE name LIKE 'Demo%')"
        )
        assert [r["name"] for r in rows] == ["SDSU"]

    def test_subquery_must_project_one_column(self, engine):
        with pytest.raises(QuerySyntaxError, match="one column"):
            engine.execute(
                "SELECT * FROM Service WHERE id IN (SELECT id, name FROM Service)"
            )
        with pytest.raises(QuerySyntaxError):
            engine.execute("SELECT * FROM Service WHERE id IN (SELECT * FROM Service)")

    def test_nested_boolean_context(self, engine):
        rows = engine.execute(
            "SELECT name FROM Service WHERE name = 'ghost' OR id IN "
            "(SELECT service FROM ServiceBinding)"
        )
        assert len(rows) == 1


class TestPredicateSemantics:
    def test_null_comparison_is_false(self, engine):
        rows = engine.execute("SELECT * FROM Service WHERE provider = 'x'")
        assert rows == []

    def test_is_null(self, engine):
        rows = engine.execute("SELECT * FROM Service WHERE provider IS NULL")
        assert len(rows) == 1

    def test_not(self, engine):
        rows = engine.execute("SELECT name FROM Organization WHERE NOT name = 'SDSU'")
        assert len(rows) == 2

    def test_and_or(self, engine):
        rows = engine.execute(
            "SELECT name FROM Organization WHERE name = 'SDSU' OR name = 'DemoOrg_A'"
        )
        assert len(rows) == 2

    def test_in_list(self, engine):
        rows = engine.execute(
            "SELECT name FROM Organization WHERE name IN ('SDSU', 'DemoOrg_B')"
        )
        assert len(rows) == 2

    def test_numeric_string_coercion(self, engine):
        rows = engine.execute("SELECT * FROM NodeState WHERE LOAD > '1'")
        assert len(rows) == 1

    def test_execute_ids(self, engine):
        ids_ = engine.execute_ids("SELECT id FROM Organization WHERE name = 'SDSU'")
        assert len(ids_) == 1
        assert ids_[0].startswith("urn:uuid:")


class TestLikeRegexCache:
    """Satellite: like_to_regex is bounded-memoized, not recompiled per row."""

    def test_same_pattern_returns_cached_compile(self):
        from repro.query import like_to_regex

        assert like_to_regex("Demo%") is like_to_regex("Demo%")

    def test_cache_is_bounded(self):
        from repro.query import like_to_regex

        assert like_to_regex.cache_info().maxsize == 512

    def test_metacharacters_stay_literal(self):
        from repro.query import like_to_regex

        assert like_to_regex("a.b(c)%").match("a.b(c) anything")
        assert not like_to_regex("a.b(c)%").match("aXb(c)")
        assert like_to_regex("50^%").match("50^x")
        assert like_to_regex("[set]_").match("[set]!")
        assert not like_to_regex("[set]_").match("s")


class TestBetweenCoercion:
    """Satellite: BETWEEN coerces the whole triple with one decision."""

    def test_numeric_strings_against_numeric_bound(self):
        from repro.query import coerce_between

        # pairwise coercion left '1' (str) facing 2.5 (float): TypeError → False
        assert coerce_between("2.5", "1", 3) == (2.5, 1.0, 3)

    def test_all_strings_stay_strings(self):
        from repro.query import coerce_between

        assert coerce_between("b", "a", "c") == ("b", "a", "c")

    def test_unparseable_string_is_kept(self):
        from repro.query import coerce_between

        assert coerce_between(2.0, 1, "oops") == (2.0, 1, "oops")

    def test_between_mixed_operands_row_semantics(self, engine):
        # LOAD is a float; string bounds must both coerce
        rows = engine.execute(
            "SELECT HOST FROM NodeState WHERE LOAD BETWEEN '0' AND '1'"
        )
        assert [r["HOST"] for r in rows] == ["exergy.sdsu.edu"]

    def test_unparseable_bound_is_conservative_false(self, engine):
        rows = engine.execute(
            "SELECT HOST FROM NodeState WHERE LOAD BETWEEN '0' AND 'high'"
        )
        assert rows == []


class TestThreeValuedConservatism:
    """Satellite: every NULL-involved predicate is false, negated or not."""

    def test_null_not_like(self, engine):
        # provider is NULL: NOT LIKE must stay false, not become true
        assert engine.execute("SELECT * FROM Service WHERE provider NOT LIKE 'x%'") == []

    def test_null_not_in(self, engine):
        assert engine.execute("SELECT * FROM Service WHERE provider NOT IN ('x')") == []

    def test_null_not_between(self, engine):
        assert (
            engine.execute("SELECT * FROM Service WHERE provider NOT BETWEEN 'a' AND 'z'")
            == []
        )

    def test_not_of_null_comparison_is_true(self, engine):
        # NOT (provider = 'x') where provider IS NULL: the engine's NOT is
        # two-valued over the conservative false, so the row qualifies
        rows = engine.execute("SELECT * FROM Service WHERE NOT provider = 'x'")
        assert len(rows) == 1

    def test_negated_between_and_in(self, engine):
        rows = engine.execute(
            "SELECT HOST FROM NodeState WHERE LOAD NOT BETWEEN 0 AND 1"
        )
        assert [r["HOST"] for r in rows] == ["thermo.sdsu.edu"]
        rows = engine.execute(
            "SELECT name FROM Organization WHERE name NOT IN ('SDSU')"
        )
        assert len(rows) == 2


class TestColumnCatalogue:
    """Every virtual table's getters and full-row projection agree.

    Both are compiled from one expression per column
    (``repro.query.virtual``); an attribute misspelt there would only show
    when that class is queried, so one object of every class goes through.
    """

    def objects(self):
        a, b = ids.new_id(), ids.new_id()
        org = Organization(ids.new_id(), name="Org")
        org.addresses.append(rim.PostalAddress(city="San Diego", country="US"))
        return [
            org,
            Organization(ids.new_id(), name="no address"),
            Service(ids.new_id(), name="svc"),
            ServiceBinding(ids.new_id(), service=a, access_uri="http://h.example:80/x"),
            rim.Association(ids.new_id(), source_object=a, target_object=b),
            rim.Classification(ids.new_id(), classified_object=a, classification_node=b),
            rim.ClassificationNode(ids.new_id(), code="c", parent=a),
            rim.ClassificationScheme(ids.new_id()),
            rim.ExternalIdentifier(
                ids.new_id(), registry_object=a, identification_scheme=b, value="v"
            ),
            rim.ExternalLink(ids.new_id(), external_uri="http://x.example"),
            rim.ExtrinsicObject(ids.new_id()),
            rim.User(ids.new_id(), alias="gold"),
            rim.AuditableEvent(
                ids.new_id(),
                event_type=rim.EventType.CREATED,
                affected_object=a,
                user_id=b,
                timestamp=1.5,
            ),
            rim.RegistryPackage(ids.new_id()),
            rim.SpecificationLink(
                ids.new_id(), service_binding=a, specification_object=b
            ),
            rim.AdhocQuery(ids.new_id(), query="SELECT id FROM Service"),
            rim.Subscription(
                ids.new_id(),
                selector=a,
                actions=[rim.NotifyAction(mode="email", endpoint="a@b.example")],
            ),
        ]

    def test_projection_is_the_getters_in_catalogue_order(self):
        union = VIRTUAL_TABLES["registryobject"]
        covered = set()
        for obj in self.objects():
            tables = [t for t in VIRTUAL_TABLES.values() if t.type_name == obj.type_name]
            assert tables, obj.type_name
            covered.add(obj.type_name)
            for table in (*tables, union):
                row = table.project(obj)
                assert list(row) == list(table.columns)
                assert row == {c: get(obj) for c, get in table.columns.items()}
                # every class leads with the RegistryObject columns, in order
                assert list(row)[: len(union.columns)] == list(union.columns)
                assert row["name"] == row["name_"] == obj.name.value
        assert covered == {t.type_name for t in VIRTUAL_TABLES.values()} - {"*"}

    def test_organization_address_columns(self):
        with_address, without = self.objects()[:2]
        columns = VIRTUAL_TABLES["organization"].columns
        assert columns["city"](with_address) == "San Diego"
        assert columns["country"](with_address) == "US"
        assert columns["city"](without) is None
        assert VIRTUAL_TABLES["organization"].project(without)["country"] is None
