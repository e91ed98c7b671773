"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_cli(*argv: str, code: str | None = None) -> subprocess.CompletedProcess:
    """Run ``python -m repro ARGV`` (or ``python -c CODE``) on this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-c", code] if code else [
        sys.executable, "-m", "repro", *argv
    ]
    return subprocess.run(
        cmd, capture_output=True, text=True, env=env, timeout=120
    )


class TestImportFootprint:
    def test_parser_build_imports_no_layer(self):
        # Startup cost guard: `python -m repro serve` (and every verb)
        # builds the full parser before it does anything else.
        proc = _run_cli(code=(
            "import sys, repro.cli\n"
            "repro.cli.build_parser()\n"
            "print('\\n'.join(sorted(sys.modules)))\n"
        ))
        assert proc.returncode == 0, proc.stderr
        modules = proc.stdout.split()
        heavy = [m for m in modules if m.split(".")[0] in ("numpy", "scipy")]
        layers = [
            m for m in modules
            if m.startswith("repro.")
            and m != "repro.errors"
            and not m.startswith("repro.cli")
        ]
        assert heavy == [] and layers == []


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig15" in out


class TestSynthAnalyze:
    def test_synth_writes_campaign(self, tmp_path, capsys):
        out_dir = tmp_path / "camp"
        code = main(
            ["synth", "--seed", "3", "--scale", "0.01", "--out", str(out_dir)]
        )
        assert code == 0
        assert (out_dir / "errors.npy").exists()
        assert (out_dir / "manifest.txt").exists()
        assert "wrote campaign" in capsys.readouterr().out

    def test_analyze_runs_experiments(self, tmp_path, capsys):
        out_dir = tmp_path / "camp"
        main(["synth", "--seed", "3", "--scale", "0.01", "--out", str(out_dir)])
        capsys.readouterr()
        code = main(["analyze", str(out_dir), "--exp", "table1"])
        out = capsys.readouterr().out
        assert "table1" in out and "shape checks" in out
        assert code == 0  # table1's checks hold at any scale

    def test_text_logs_flag(self, tmp_path):
        out_dir = tmp_path / "camp"
        main(
            [
                "synth",
                "--seed",
                "3",
                "--scale",
                "0.005",
                "--out",
                str(out_dir),
                "--text-logs",
            ]
        )
        assert (out_dir / "ce.log").exists()


class TestExperimentCommand:
    def test_single_experiment(self, capsys):
        code = main(
            ["experiment", "--exp", "table1", "--scale", "0.01", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert "table1" in out
        assert code == 0

    def test_requires_exp_or_all(self):
        with pytest.raises(SystemExit):
            main(["experiment", "--scale", "0.01"])


class TestExpSelection:
    """Empty/unknown ``--exp`` handling (previously ran nothing / crashed)."""

    @pytest.fixture()
    def campaign_dir(self, tmp_path):
        out_dir = tmp_path / "camp"
        main(["synth", "--seed", "3", "--scale", "0.01", "--out", str(out_dir)])
        return str(out_dir)

    def test_empty_exp_runs_all(self, campaign_dir, capsys):
        code = main(["analyze", campaign_dir, "--exp", "--no-cache"])
        out = capsys.readouterr().out
        # Every paper experiment ran, not zero of them.
        assert "table1" in out and "fig02" in out and "fig15" in out
        assert "ran 15 experiments" in out
        assert code in (0, 1)  # small-scale campaigns may fail shape checks

    def test_unknown_exp_friendly_error(self, campaign_dir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", campaign_dir, "--exp", "bogus", "--no-cache"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment id(s): bogus" in err
        assert "known ids:" in err

    def test_known_and_unknown_mixed(self, campaign_dir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["analyze", campaign_dir, "--exp", "table1", "nope", "--no-cache"]
            )
        assert excinfo.value.code == 2


class TestRunnerCli:
    """--jobs / --json-report / --cache-dir round trips."""

    def test_json_report_and_cache_roundtrip(self, tmp_path, capsys):
        import json

        cache_dir = str(tmp_path / "cache")
        argv = [
            "experiment",
            "--exp",
            "table1",
            "fig05",
            "--seed",
            "3",
            "--scale",
            "0.01",
            "--jobs",
            "2",
            "--cache-dir",
            cache_dir,
        ]
        code1 = main(argv + ["--json-report", str(tmp_path / "r1.json")])
        capsys.readouterr()
        code2 = main(argv + ["--json-report", str(tmp_path / "r2.json")])
        capsys.readouterr()
        r1 = json.loads((tmp_path / "r1.json").read_text())
        r2 = json.loads((tmp_path / "r2.json").read_text())
        # First run generates and stores; second hits the campaign cache.
        assert r1["cache"]["hit"] is False and r1["cache"]["generate_s"] > 0
        assert r2["cache"]["hit"] is True and r2["cache"]["load_s"] > 0
        # Identical outcome either way.
        assert code1 == code2
        assert [e["exp_id"] for e in r1["experiments"]] == ["table1", "fig05"]
        assert [e["checks"] for e in r1["experiments"]] == [
            e["checks"] for e in r2["experiments"]
        ]

    def test_jobs_output_matches_serial(self, tmp_path, capsys):
        argv = ["experiment", "--exp", "table1", "--seed", "3", "--scale",
                "0.01", "--no-cache"]
        code_serial = main(argv)
        out_serial = capsys.readouterr().out
        code_parallel = main(argv + ["--jobs", "2"])
        out_parallel = capsys.readouterr().out
        assert code_serial == code_parallel
        # The rendered experiment block is identical; only the run
        # summary footer (timings) differs.
        block = out_serial.split("== table1")[1].split("ran 1 experiments")[0]
        assert block in out_parallel

    def test_analyze_cache_warms_faults(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "camp"
        cache_dir = str(tmp_path / "cache")
        main(["synth", "--seed", "3", "--scale", "0.01", "--out", str(out_dir)])
        capsys.readouterr()
        argv = ["analyze", str(out_dir), "--exp", "table1", "--cache-dir", cache_dir]
        main(argv + ["--json-report", str(tmp_path / "a1.json")])
        main(argv + ["--json-report", str(tmp_path / "a2.json")])
        a1 = json.loads((tmp_path / "a1.json").read_text())
        a2 = json.loads((tmp_path / "a2.json").read_text())
        assert a1["cache"]["hit"] is False
        assert a2["cache"]["hit"] is True


class TestMitigate:
    def test_runs_both_simulators(self, capsys):
        code = main(["mitigate", "--scale", "0.01", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "page retirement" in out
        assert "exclude list" in out

    def test_custom_thresholds(self, capsys):
        main(
            [
                "mitigate",
                "--scale",
                "0.01",
                "--retire-threshold",
                "5",
                "--exclude-budget",
                "50",
            ]
        )
        out = capsys.readouterr().out
        assert "k=5" in out and "B=50" in out


class TestWhatif:
    def test_sweep_runs_and_prints_table(self, capsys):
        code = main(["whatif", "--scale", "0.005", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "replayed" in out
        for name in ("secded", "chipkill", "rs-36-32", "rs-72-64"):
            assert name in out

    def test_check_passes_and_writes_valid_schema(self, tmp_path, capsys):
        report = tmp_path / "scenarios.json"
        code = main(
            [
                "whatif",
                "--scale",
                "0.005",
                "--seed",
                "3",
                "--check",
                "--check-events",
                "1500",
                "--scenarios-out",
                str(report),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "check ok" in out

        import json

        from repro.obs.schema import schema_dir, validate_file

        payload = json.loads(report.read_text())
        assert validate_file(schema_dir() / "whatif.schema.json", report) == []
        assert payload["check"]["identical"] is True
        assert payload["check"]["mismatches"] == 0
        assert len(payload["scenarios"]) == 16
        for row in payload["scenarios"]:
            assert (
                row["avoided"]
                + row["corrected"]
                + row["due"]
                + row["silent"]
                == row["injected"]
            )

    def test_custom_axes_and_jobs(self, tmp_path, capsys):
        report = tmp_path / "s.json"
        code = main(
            [
                "whatif",
                "--scale",
                "0.005",
                "--codes",
                "secded,rs-72-64",
                "--scrub",
                "0,6",
                "--retire",
                "2",
                "--exclude-budget",
                "100",
                "--jobs",
                "2",
                "--scenarios-out",
                str(report),
            ]
        )
        assert code == 0
        import json

        payload = json.loads(report.read_text())
        assert payload["grid"]["codes"] == ["secded", "rs-72-64"]
        assert len(payload["scenarios"]) == 4
        assert payload["jobs"] == 2

    def test_unknown_code_exits_2(self, capsys):
        code = main(["whatif", "--codes", "secded,parity3"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown code" in err and "known codes" in err

    def test_bad_axis_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["whatif", "--scrub", "daily"])
        assert exc.value.code == 2
        assert "invalid --scrub value" in capsys.readouterr().err

    def test_negative_axis_exits_2(self, capsys):
        code = main(["whatif", "--retire", "-2"])
        assert code == 2
        assert ">= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "manifest", [None, "{not json"], ids=["missing", "unparseable"]
    )
    def test_non_fleet_directory_exits_2(self, tmp_path, manifest):
        if manifest is not None:
            (tmp_path / "fleet.json").write_text(manifest)
        proc = _run_cli("whatif", "--fleet", str(tmp_path))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "fleet.json" in lines[0]
        assert "Traceback" not in proc.stderr


class TestValidateAndRelease:
    def test_validate_small_scale(self, capsys):
        code = main(["validate", "--scale", "0.02", "--seed", "7"])
        out = capsys.readouterr().out
        assert "calibration checks:" in out
        assert code == 0

    def test_release_written(self, tmp_path, capsys):
        out_dir = tmp_path / "rel"
        code = main(
            [
                "release",
                "--scale",
                "0.005",
                "--seed",
                "3",
                "--out",
                str(out_dir),
                "--sensor-cadence",
                "43200",
            ]
        )
        assert code == 0
        assert (out_dir / "memory_failures.txt").exists()
        assert (out_dir / "README.txt").exists()


class TestCampaignFromRecords:
    def test_rebuilt_campaign_analysable(self, tmp_path, small_campaign):
        from repro.logs.campaign_io import (
            campaign_from_records,
            load_campaign_records,
            write_campaign,
        )
        from repro import experiments

        directory = write_campaign(small_campaign, tmp_path / "c", text_logs=False)
        rebuilt = campaign_from_records(load_campaign_records(directory))
        assert rebuilt.population is None
        np.testing.assert_array_equal(rebuilt.errors, small_campaign.errors)
        # The sensor field regenerates identically from the seed.
        from repro._util import epoch

        t = epoch("2019-06-01")
        assert rebuilt.sensors.value(5, 0, t) == small_campaign.sensors.value(
            5, 0, t
        )
        # Experiments run on the rebuilt campaign.
        result = experiments.run("fig05", rebuilt)
        assert result.series
