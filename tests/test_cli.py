"""Tests for the command-line administrative tools."""

import pytest

from repro.cli import DEFAULT_URL, main

CONNECTION = f"""<connection>
  <user><alias>gold</alias><password>gold123</password></user>
  <url>{DEFAULT_URL}</url>
</connection>"""

PUBLISH = """<root><action type="publish"><organization>
  <name>CLI Org</name>
  <service><name>CliService</name>
    <accessuri>http://h1.x:8080/svc http://h2.x:8080/svc</accessuri>
  </service>
</organization></action></root>"""

ACCESS = """<root><action type="access"><organization>
  <name>CLI Org</name><service><name>CliService</name></service>
</organization></action></root>"""


@pytest.fixture
def paths(tmp_path):
    state = tmp_path / "registry.json"
    keystore = tmp_path / "keystore.json"
    connection = tmp_path / "connection.xml"
    connection.write_text(CONNECTION)
    publish = tmp_path / "publish.xml"
    publish.write_text(PUBLISH)
    access = tmp_path / "access.xml"
    access.write_text(ACCESS)
    return {
        "state": str(state),
        "keystore": str(keystore),
        "connection": str(connection),
        "publish": str(publish),
        "access": str(access),
    }


class TestLifecycleAcrossInvocations:
    def test_init_register_execute_query(self, paths, capsys):
        assert main(["init", paths["state"]]) == 0
        assert main(["register", paths["state"], "gold", "gold123", "--keystore", paths["keystore"]]) == 0
        capsys.readouterr()

        # publish in one invocation …
        rc = main(
            [
                "execute",
                paths["state"],
                paths["connection"],
                paths["publish"],
                "--keystore",
                paths["keystore"],
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Organization id :- urn:uuid:" in out

        # … and access it from a *separate* invocation (state reloaded)
        rc = main(
            [
                "execute",
                paths["state"],
                paths["connection"],
                paths["access"],
                "--keystore",
                paths["keystore"],
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "http://h1.x:8080/svc" in out
        assert "http://h2.x:8080/svc" in out

        # query subcommand sees the persisted data
        rc = main(["query", paths["state"], "SELECT name FROM Organization"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CLI Org" in out
        assert "1 row(s)" in out

    def test_execute_without_state_fails(self, paths, capsys):
        with pytest.raises(SystemExit, match="repro init"):
            main(["execute", paths["state"], paths["connection"], paths["publish"]])

    def test_bad_action_reports_error(self, paths, capsys, tmp_path):
        main(["init", paths["state"]])
        main(["register", paths["state"], "gold", "gold123", "--keystore", paths["keystore"]])
        bad = tmp_path / "bad.xml"
        bad.write_text(
            '<root><action type="modify"><organization><name>Ghost</name>'
            "</organization></action></root>"
        )
        rc = main(
            [
                "execute",
                paths["state"],
                paths["connection"],
                str(bad),
                "--keystore",
                paths["keystore"],
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "not published" in captured.err

    def test_query_bad_sql_reports_error(self, paths, capsys):
        main(["init", paths["state"]])
        rc = main(["query", paths["state"], "DELETE FROM x"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error" in captured.err


class TestStatsCommand:
    def test_stats_table(self, paths, capsys):
        main(["init", paths["state"]])
        capsys.readouterr()
        rc = main(["stats", paths["state"]])
        out = capsys.readouterr().out
        assert rc == 0
        assert "registry telemetry" in out
        assert "planner.plans_built" in out

    def test_stats_json(self, paths, capsys):
        import json

        main(["init", paths["state"]])
        capsys.readouterr()
        rc = main(["stats", paths["state"], "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        snapshot = json.loads(out)
        for source in ("pipeline", "planner", "writes", "tracer"):
            assert source in snapshot

    def test_stats_prometheus(self, paths, capsys):
        from repro.obs import parse_exposition

        main(["init", paths["state"]])
        capsys.readouterr()
        rc = main(["stats", paths["state"], "--format", "prometheus"])
        out = capsys.readouterr().out
        assert rc == 0
        parsed = parse_exposition(out)
        assert "repro_query_plans_built_total" in parsed

    def test_stats_per_worker_reshapes_pipeline(self, paths, capsys):
        import json

        main(["init", paths["state"]])
        capsys.readouterr()
        rc = main(["stats", paths["state"], "--per-worker", "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        snapshot = json.loads(out)
        # a fresh state has no traffic: the per-worker tree is present, empty
        assert snapshot["pipeline"] == {}

    def test_stats_writes_filters_to_write_spine(self, paths, capsys):
        import json

        main(["init", paths["state"]])
        capsys.readouterr()
        rc = main(["stats", paths["state"], "--writes", "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        snapshot = json.loads(out)
        assert set(snapshot) == {"writes"}
        for key in (
            "changelog_records",
            "last_seq",
            "coalesce_ratio",
            "idempotent_duplicates",
        ):
            assert key in snapshot["writes"], key

    def test_stats_writes_table_title(self, paths, capsys):
        main(["init", paths["state"]])
        capsys.readouterr()
        rc = main(["stats", paths["state"], "--writes"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "write spine" in out
        assert "writes.coalesce_ratio" in out

    def test_top_per_worker_reports_empty_fleet(self, paths, capsys):
        main(["init", paths["state"]])
        capsys.readouterr()
        rc = main(["top", paths["state"], "--per-worker"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no per-worker pipeline traffic recorded" in out

    def test_stats_without_state_fails(self, paths):
        with pytest.raises(SystemExit, match="repro init"):
            main(["stats", paths["state"]])


class TestExperimentCommands:
    def test_experiment_prints_table(self, capsys):
        rc = main(
            ["experiment", "--duration", "200", "--policies", "first-uri,constraint-lb"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "first-uri" in out
        assert "constraint-lb" in out
        assert "dispatch:" in out

    def test_sweep_period(self, capsys):
        rc = main(["sweep-period", "--duration", "200", "--periods", "10,60"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "TimeHits period sweep" in out
        assert "10" in out and "60" in out


class TestClusterCommand:
    def test_cluster_prints_member_and_link_tables(self, capsys):
        rc = main(
            ["cluster", "--members", "2", "--objects", "8", "--requests", "12"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "cluster members" in out
        assert "replication links" in out
        assert "http://member0.cluster:8080/omar/registry" in out
        assert "http://member1.cluster:8080/omar/registry" in out
        # converged: the mesh drained to zero lag within the pump budget
        assert "0 after" in out
        assert "replication-lag SLO: ok" in out

    def test_cluster_json_format(self, capsys):
        import json

        rc = main(
            [
                "cluster",
                "--members",
                "2",
                "--objects",
                "6",
                "--requests",
                "6",
                "--format",
                "json",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        stats = json.loads(out)
        assert len(stats["members"]) == 2
        assert stats["replication_lag"] == 0
        assert len(stats["replication"]) == 2  # the full 2-member mesh
