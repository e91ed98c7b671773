"""End-to-end `repro query` over real campaign directories.

Covers the acceptance matrix: build/query/--check on a clean campaign,
--check catching a corrupted snapshot, --json validating against the
checked-in schema, and the stream -> query round trip.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.schema import validate_file
from repro.query.rollup import RollupStore


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    """A small text-log campaign with stream-built rollups."""
    directory = tmp_path_factory.mktemp("query-cli") / "camp"
    assert main([
        "synth", "--seed", "3", "--scale", "0.005",
        "--out", str(directory), "--text-logs",
    ]) == 0
    assert main([
        "stream", str(directory),
        "--rollups-dir", str(directory / "rollups"),
    ]) == 0
    return directory


class TestQueryCLI:
    def test_check_passes_on_clean_campaign(self, campaign_dir, capsys):
        code = main([
            "query", str(campaign_dir),
            "--select", "errors", "--group-by", "rack", "--check",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "element-identical" in out
        assert "source=stream" in out

    def test_json_doc_matches_schema(self, campaign_dir, tmp_path, capsys):
        code = main([
            "query", str(campaign_dir),
            "--select", "faults", "--group-by", "mode",
            "--check", "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["check"]["identical"] is True
        artifact = tmp_path / "answer.json"
        artifact.write_text(json.dumps(doc))
        from repro.obs.schema import schema_dir

        assert validate_file(
            schema_dir() / "query.schema.json", artifact
        ) == []

    def test_manifest_matches_schema(self, campaign_dir):
        from repro.obs.schema import schema_dir

        assert validate_file(
            schema_dir() / "rollup.schema.json",
            campaign_dir / "rollups" / "rollup.json",
        ) == []

    def test_build_then_check_on_binary_campaign(self, campaign_dir, tmp_path):
        rollups = tmp_path / "built"
        assert main([
            "query", str(campaign_dir), "--rollups", str(rollups),
            "--build", "--select", "mode_errors", "--check",
        ]) == 0
        assert RollupStore.latest_version(rollups) == 1

    def test_top_k_human_output(self, campaign_dir, capsys):
        code = main([
            "query", str(campaign_dir),
            "--select", "errors", "--group-by", "node", "--top-k", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "served_from=rollup" in out

    def test_malformed_query_exits_2_with_hint(self, campaign_dir, capsys):
        code = main([
            "query", str(campaign_dir),
            "--select", "faults", "--group-by", "bitpos",
        ])
        assert code == 2
        assert "hint" in capsys.readouterr().err

    def test_missing_rollups_exits_2_with_hint(self, tmp_path, capsys):
        directory = tmp_path / "camp"
        assert main([
            "synth", "--seed", "4", "--scale", "0.004", "--out", str(directory),
        ]) == 0
        capsys.readouterr()
        code = main([
            "query", str(directory), "--select", "errors",
        ])
        assert code == 2
        assert "hint" in capsys.readouterr().err


class TestCorruption:
    def test_check_refuses_corrupted_snapshot(self, campaign_dir, tmp_path,
                                              capsys):
        import shutil

        rollups = tmp_path / "rollups"
        shutil.copytree(campaign_dir / "rollups", rollups)
        victim = next(rollups.glob("rollup-*.npz"))
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))
        code = main([
            "query", str(campaign_dir), "--rollups", str(rollups),
            "--select", "errors", "--group-by", "rack",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "found" in err and "expected" in err and "hint" in err

    def test_check_fails_on_stale_rollups(self, campaign_dir, tmp_path,
                                          capsys):
        """Appended log lines the cubes never saw must fail --check."""
        import shutil

        stale = tmp_path / "camp"
        shutil.copytree(campaign_dir, stale)
        # Duplicate the final (well-formed, time-ordered) CE line: one
        # extra record the snapshotted cubes never folded.
        with open(stale / "ce.log") as fh:
            last = fh.readlines()[-1]
        with open(stale / "ce.log", "a") as fh:
            fh.write(last)
        code = main([
            "query", str(stale),
            "--select", "errors", "--group-by", "rack", "--check",
        ])
        assert code == 1
        assert "check FAILED" in capsys.readouterr().err


class TestBuildCoverage:
    @staticmethod
    def _damaged_copy(campaign_dir, tmp_path, keep_text: bool):
        """A copy of the campaign whose ``errors.npy`` fails its CRC."""
        import shutil

        camp = tmp_path / "camp"
        shutil.copytree(campaign_dir, camp, ignore=shutil.ignore_patterns(
            "rollups", *(() if keep_text else ("ce.log",))
        ))
        raw = bytearray((camp / "errors.npy").read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        (camp / "errors.npy").write_bytes(bytes(raw))
        return camp

    def test_unreadable_ces_refuse_to_build(self, campaign_dir, tmp_path,
                                            capsys):
        camp = self._damaged_copy(campaign_dir, tmp_path, keep_text=False)
        code = main(["query", str(camp), "--build", "--select", "errors"])
        assert code == 2
        err = capsys.readouterr().err
        assert "found" in err and "expected" in err
        assert not (camp / "rollups").exists()

    def test_partial_coverage_builds_and_reports(self, campaign_dir,
                                                 tmp_path, capsys):
        camp = self._damaged_copy(campaign_dir, tmp_path, keep_text=True)
        with open(camp / "ce.log", "a") as fh:
            fh.write("not a CE record\n")
        code = main(["query", str(camp), "--build", "--select", "errors"])
        assert code == 0
        err = capsys.readouterr().err
        assert "telemetry coverage: errors=" in err
        assert "(policy=repair)" in err

    def test_intact_campaign_builds_silently(self, campaign_dir, tmp_path,
                                             capsys):
        code = main([
            "query", str(campaign_dir), "--rollups", str(tmp_path / "r"),
            "--build", "--select", "errors",
        ])
        assert code == 0
        assert "telemetry coverage" not in capsys.readouterr().err
