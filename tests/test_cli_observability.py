"""Tests for the observability CLI: golden stats output, ``top``, ``slo``."""

import json

import pytest

from repro.cli import main
from repro.obs.metrics import parse_exposition


@pytest.fixture
def state(tmp_path, capsys):
    path = tmp_path / "registry.json"
    assert main(["init", str(path)]) == 0
    capsys.readouterr()
    return str(path)


class TestPrometheusGolden:
    def test_stats_prometheus_byte_stable_across_runs(self, state, capsys):
        """The same snapshot must render the same exposition, byte for byte."""
        assert main(["stats", state, "--format", "prometheus"]) == 0
        first = capsys.readouterr().out
        assert main(["stats", state, "--format", "prometheus"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first  # non-empty: families render even before traffic

    def test_exposition_round_trips_through_parser(self, state, capsys):
        assert main(["stats", state, "--format", "prometheus"]) == 0
        text = capsys.readouterr().out
        parsed = parse_exposition(text)
        assert "repro_query_plans_built_total" in parsed

    def test_stats_json_includes_longitudinal_surfaces(self, state, capsys):
        assert main(["stats", state, "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["timeseries"]["enabled"] is False
        assert snapshot["log"]["enabled"] is False
        assert snapshot["slo"]["active"] is False


class TestTop:
    def test_top_without_samples(self, state, capsys):
        assert main(["top", state]) == 0
        out = capsys.readouterr().out
        assert "no NodeState samples recorded" in out
        assert "health: ok" in out


class TestSloCommand:
    ARGS = [
        "slo",
        "--duration", "450",
        "--windows", "60,300",
        "--fail-host", "host1.cluster",
        "--fail-at", "120",
    ]

    def test_outage_run_reports_page_and_expectation_passes(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        rc = main(
            self.ARGS
            + [
                "--expect", "page",
                "--expect-slo", "probe-availability",
                "--export-trace", str(trace_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "SLO alert timeline" in out
        assert '"probe-availability": "page"' in out
        # the exported Chrome trace is valid and non-empty
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]

    def test_unmet_expectation_fails_the_run(self, capsys):
        rc = main(
            ["slo", "--duration", "300", "--windows", "60,300",
             "--expect", "page"]
        )
        capsys.readouterr()
        assert rc == 1


class TestTopExemplars:
    def build_live_registry(self):
        from repro.registry import RegistryConfig, RegistryServer
        from repro.registry.kernel import EdgeProfile
        from repro.rim import Organization
        from repro.soap.messages import GetRegistryObjectRequest
        from repro.util.clock import ManualClock

        registry = RegistryServer(RegistryConfig(seed=5), monotonic=ManualClock())
        registry.enable_tracing()
        _, credential = registry.register_user("publisher")
        session = registry.login(credential)
        org = Organization(registry.ids.new_id(), name="ExemplarOrg")
        registry.lcm.submit_objects(session, [org])
        edge = EdgeProfile(name="test", enforce_read_gate=False)
        registry.kernel.execute(edge, body=GetRegistryObjectRequest(org.id))
        return registry

    def test_top_links_slow_bucket_to_span_tree(self, monkeypatch, capsys):
        import repro.cli as cli

        registry = self.build_live_registry()
        monkeypatch.setattr(cli, "_open_registry", lambda path, **kwargs: registry)
        assert main(["top", "ignored-state.json"]) == 0
        out = capsys.readouterr().out
        assert "slow-bucket exemplars" in out
        assert "repro_request_latency_seconds" in out
        trace_id = registry.telemetry.tracer.last_trace().trace_id
        assert trace_id in out
        assert f"slowest exemplar trace ({trace_id}):" in out
        # the span tree renders the pipeline stages under the root span
        assert "request" in out
        assert "stage:dispatch" in out
