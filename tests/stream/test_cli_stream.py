"""CLI surface: --version, unknown-command handling, the stream verb."""

import json

import numpy as np
import pytest

from repro import __version__
from repro.cli import main
from repro.obs.schema import schema_dir, validate_file, validate_jsonl


class TestGlobalFlags:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "unknown command 'frobnicate'" in err
        assert "known commands:" in err
        assert "hint:" in err

    def test_unknown_command_mixed_with_flags(self, capsys):
        assert main(["-q", "frobnicate"]) == 2
        assert "unknown command 'frobnicate'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def text_campaign(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("cli-stream") / "camp"
    assert main(
        ["synth", "--seed", "3", "--scale", "0.005", "--out", str(out_dir),
         "--text-logs"]
    ) == 0
    return out_dir


class TestStreamVerb:
    def test_end_to_end_with_resume(self, text_campaign, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        alerts = tmp_path / "alerts.jsonl"
        faults_out = tmp_path / "faults.npy"
        base = [
            "stream", str(text_campaign),
            "--checkpoint-dir", str(ckpt),
            "--alerts-out", str(alerts),
            "--batch-bytes", str(1 << 18),
            "--ce-rate-threshold", "50",
        ]
        assert main(base + ["--max-batches", "2"]) == 0
        out = capsys.readouterr().out
        assert "streamed 2 batch(es)" in out
        assert ckpt.joinpath("checkpoint.json").exists()

        # Second invocation resumes and drains to completion.
        assert main(base + ["--faults-out", str(faults_out)]) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint at batch 2" in out
        assert "errors: seen=" in out

        # Artifacts conform to their checked-in schemas.
        assert validate_jsonl(
            schema_dir() / "alerts.schema.json", alerts
        ) == []
        assert validate_file(
            schema_dir() / "checkpoint.schema.json", ckpt / "checkpoint.json"
        ) == []
        # Alert seq numbers are gapless across the two invocations.
        with open(alerts) as fh:
            seqs = [json.loads(line)["seq"] for line in fh if line.strip()]
        assert seqs == list(range(len(seqs)))

        # The persisted fault array equals the batch pipeline's answer.
        from repro.faults.coalesce import coalesce
        from repro.logs.syslog import ingest_ce_log

        res = ingest_ce_log(text_campaign / "ce.log", policy="repair")
        np.testing.assert_array_equal(
            np.load(faults_out), coalesce(res.errors)
        )

    def test_no_resume_starts_over(self, text_campaign, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        base = [
            "stream", str(text_campaign),
            "--checkpoint-dir", str(ckpt),
            "--batch-bytes", str(1 << 18),
        ]
        assert main(base + ["--max-batches", "1"]) == 0
        capsys.readouterr()
        assert main(base + ["--no-resume", "--max-batches", "1"]) == 0
        assert "resumed" not in capsys.readouterr().out

    def test_stream_without_options(self, text_campaign, capsys):
        assert main(["stream", str(text_campaign)]) == 0
        out = capsys.readouterr().out
        assert "live fault(s)" in out

    def test_stream_missing_directory_fails(self, tmp_path, capsys):
        code = main(["stream", str(tmp_path / "nope")])
        assert code != 0

    @pytest.mark.parametrize("tamper", ["errors_seen", "digit_flip"])
    def test_tampered_checkpoint_exits_2(
        self, text_campaign, tmp_path, capsys, tamper
    ):
        ckpt = tmp_path / "ckpt"
        base = [
            "stream", str(text_campaign),
            "--checkpoint-dir", str(ckpt),
            "--batch-bytes", str(1 << 18),
        ]
        assert main(base + ["--max-batches", "2"]) == 0
        capsys.readouterr()
        path = ckpt / "checkpoint.json"
        if tamper == "errors_seen":
            doc = json.loads(path.read_text())
            doc["coalescer"]["errors_seen"] += 7
            path.write_text(json.dumps(doc))
        else:
            raw = bytearray(path.read_bytes())
            at = raw.index(b'"batches":') + len(b'"batches":')
            raw[at] ^= 0x01  # '2' -> '3': still valid JSON
            path.write_bytes(bytes(raw))
            assert json.loads(raw)["batches"] == 3
        assert main(base) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "crc32c mismatch" in err
        assert "--no-resume" in err
        assert "Traceback" not in err

    def test_truncated_file_exits_2_with_recovery_hint(
        self, text_campaign, tmp_path, capsys
    ):
        # Stream part of the log, then truncate it below the checkpoint
        # offset -- the classic logrotate-without-copytruncate accident.
        # The CLI must map the TailError to a clean exit 2 with the
        # recovery hint, not a traceback.
        import shutil

        camp = tmp_path / "camp"
        shutil.copytree(text_campaign, camp)
        ckpt = tmp_path / "ckpt"
        base = [
            "stream", str(camp),
            "--checkpoint-dir", str(ckpt),
            "--batch-bytes", str(1 << 18),
        ]
        assert main(base + ["--max-batches", "2"]) == 0
        capsys.readouterr()
        log = camp / "ce.log"
        log.write_bytes(log.read_bytes()[: 1 << 10])
        assert main(base) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "rotated or truncated" in err
        assert "To recover" in err
        assert "Traceback" not in err

    def test_trace_and_metrics_out(self, text_campaign, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main([
            "stream", str(text_campaign),
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        assert validate_file(
            schema_dir() / "trace.schema.json", trace
        ) == []
        assert validate_file(
            schema_dir() / "metrics.schema.json", metrics
        ) == []
        assert "stream." in metrics.read_text()
