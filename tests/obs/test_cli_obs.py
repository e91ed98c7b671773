"""End-to-end CLI runs with --trace-out / --metrics-out / --profile.

The acceptance path for the observability layer: an ``analyze`` run
must write schema-valid trace and metrics artifacts, fold them into a
schema-version-3 JSON report, merge worker-process spans into the
parent trace under ``--jobs``, and print hotspot tables under
``--profile``.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.schema import schema_dir, validate_file


@pytest.fixture(scope="module")
def tiny_campaign_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-obs") / "camp"
    assert (
        main(["synth", "--seed", "3", "--scale", "0.01", "--out", str(directory)])
        == 0
    )
    return directory


class TestTraceAndMetricsArtifacts:
    def test_analyze_writes_schema_valid_artifacts(
        self, tiny_campaign_dir, tmp_path, capsys
    ):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        report_path = tmp_path / "report.json"
        code = main(
            ["analyze", str(tiny_campaign_dir), "--exp", "table1", "fig04",
             "--trace-out", str(trace_path), "--metrics-out", str(metrics_path),
             "--json-report", str(report_path)]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)  # shape checks may fail at tiny scale; no crash
        assert f"wrote trace to {trace_path}" in out
        assert f"wrote metrics to {metrics_path}" in out

        assert validate_file(schema_dir() / "trace.schema.json", trace_path) == []
        assert validate_file(schema_dir() / "metrics.schema.json", metrics_path) == []

        trace = json.loads(trace_path.read_text())
        names = [r["name"] for r in trace["roots"]]
        assert "run" in names and "ingest.campaign" in names

        metrics = json.loads(metrics_path.read_text())
        counters = metrics["counters"]
        assert counters["experiment.completed"] == 2
        assert counters["ingest.seen"] == (
            counters["ingest.parsed"]
            + counters["ingest.repaired"]
            + counters["ingest.quarantined"]
        )

        report = json.loads(report_path.read_text())
        assert report["schema_version"] == 3
        assert report["created_iso"].endswith("Z")
        assert report["trace"]["roots"]
        assert report["metrics"]["counters"]["experiment.completed"] == 2

    def test_parallel_run_merges_worker_spans(
        self, tiny_campaign_dir, tmp_path, capsys
    ):
        trace_path = tmp_path / "trace.json"
        code = main(
            ["analyze", str(tiny_campaign_dir), "--exp", "table1", "fig04",
             "fig12", "--jobs", "2", "--trace-out", str(trace_path)]
        )
        capsys.readouterr()
        assert code in (0, 1)
        trace = json.loads(trace_path.read_text())
        (run_span,) = [r for r in trace["roots"] if r["name"] == "run"]
        experiment_spans = [
            c["name"]
            for c in run_span["children"]
            if c["name"].startswith("experiment.")
        ]
        assert experiment_spans == [
            "experiment.table1", "experiment.fig04", "experiment.fig12"
        ]

    def test_metrics_without_trace_leaves_tracing_off(
        self, tiny_campaign_dir, tmp_path, capsys
    ):
        metrics_path = tmp_path / "metrics.json"
        report_path = tmp_path / "report.json"
        code = main(
            ["analyze", str(tiny_campaign_dir), "--exp", "table1",
             "--metrics-out", str(metrics_path),
             "--json-report", str(report_path)]
        )
        capsys.readouterr()
        assert code == 0
        assert metrics_path.exists()
        report = json.loads(report_path.read_text())
        assert report["trace"] is None  # tracing stays off without --trace-out
        assert report["metrics"] is not None

    def test_unwritable_artifact_path_fails_before_running(
        self, tiny_campaign_dir, tmp_path, capsys
    ):
        bad = tmp_path / "no-such-dir" / "trace.json"
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["analyze", str(tiny_campaign_dir), "--exp", "table1",
                 "--trace-out", str(bad)]
            )
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err


class TestFailedRunKeepsArtifacts:
    def test_typed_error_still_writes_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            ["query", str(tmp_path), "--rollups", str(tmp_path / "missing"),
             "--trace-out", str(trace_path), "--metrics-out", str(metrics_path)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert validate_file(schema_dir() / "trace.schema.json", trace_path) == []
        assert validate_file(schema_dir() / "metrics.schema.json", metrics_path) == []


class TestProfileFlag:
    def test_profile_prints_hotspots_and_fills_report(
        self, tiny_campaign_dir, tmp_path, capsys
    ):
        report_path = tmp_path / "report.json"
        code = main(
            ["analyze", str(tiny_campaign_dir), "--exp", "table1",
             "--profile", "--json-report", str(report_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "-- profile: table1" in out
        report = json.loads(report_path.read_text())
        rows = report["profiles"]["table1"]
        assert rows and {"func", "ncalls", "tottime_s", "cumtime_s"} <= set(rows[0])

    def test_profiling_off_by_default(self, tiny_campaign_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["analyze", str(tiny_campaign_dir), "--exp", "table1",
             "--json-report", str(report_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "-- profile:" not in out
        assert json.loads(report_path.read_text())["profiles"] is None
