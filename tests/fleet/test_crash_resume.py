"""Kill -9 a live fleet run mid-shard; --resume must finish it exactly.

The run is a real subprocess of the CLI, slowed per shard via the
``ASTRA_MEMREPRO_SHARD_DELAY_S`` knob so the kill lands between
commits deterministically enough to observe a partial ledger.  The
resumed run must (a) skip every committed shard, re-running only the
rest, and (b) produce the byte-identical fault array of an
uninterrupted run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.fleet import LEDGER_NAME, FleetLedger, FleetSpec, synth_fleet

SPEC = FleetSpec(n_clusters=2, seed=11, scale=0.002)
REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _cli_env(delay_s: float | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    if delay_s is not None:
        env["ASTRA_MEMREPRO_SHARD_DELAY_S"] = str(delay_s)
    return env


def _fleet_cmd(shard_dir: Path, *extra: str) -> list:
    return [
        sys.executable, "-m", "repro.cli", "fleet",
        "--shard-dir", str(shard_dir),
        "--clusters", "2", "--seed", "11", "--scale", "0.002",
        "--jobs", "0", "--source", "shards",
        *extra,
    ]


def _wait_for_commit(ledger_path: Path, deadline_s: float = 60.0) -> int:
    """Poll until the ledger holds >= 1 commit; returns the count seen."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline_s:
        n = len(FleetLedger.committed(ledger_path))
        if n >= 1:
            return n
        time.sleep(0.05)
    raise AssertionError("no shard committed before the deadline")


@pytest.mark.slow
class TestKillResume:
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        victim_dir = tmp_path / "victim"
        clean_dir = tmp_path / "clean"

        # Uninterrupted reference run.
        clean_out = tmp_path / "clean-faults.npy"
        subprocess.run(
            _fleet_cmd(clean_dir, "--faults-out", str(clean_out)),
            env=_cli_env(), check=True, capture_output=True, timeout=120,
        )

        # Victim run: slowed shards, killed after the first commit.
        synth_fleet(SPEC, victim_dir, shards=True)
        proc = subprocess.Popen(
            _fleet_cmd(victim_dir),
            env=_cli_env(delay_s=0.8),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        ledger_path = victim_dir / LEDGER_NAME
        try:
            _wait_for_commit(ledger_path)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL

        committed_before = set(FleetLedger.committed(ledger_path))
        assert committed_before  # the kill landed after >= 1 commit
        events_before, _ = FleetLedger.read(ledger_path)
        n_shards = next(
            e["n_tasks"] for e in events_before if e["event"] == "plan"
        )
        assert len(committed_before) < n_shards  # ... and before the last

        # Resume: committed shards load from cache, the rest re-run.
        resumed_out = tmp_path / "resumed-faults.npy"
        result = subprocess.run(
            _fleet_cmd(
                victim_dir, "--resume", "--faults-out", str(resumed_out)
            ),
            env=_cli_env(), check=True, capture_output=True, text=True,
            timeout=120,
        )
        assert f"resumed={len(committed_before)}" in result.stdout
        assert "status: pass" in result.stdout

        got = np.load(resumed_out)
        want = np.load(clean_out)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

        # The journal tells the whole story: the original plan, the
        # commits that survived the kill, one resume event, and fresh
        # attempts only for the uncommitted remainder.
        events, _ = FleetLedger.read(ledger_path)
        kinds = [e["event"] for e in events]
        assert "resume" in kinds
        resume_at = kinds.index("resume")
        attempted_after = {
            e["task"]
            for e in events[resume_at:]
            if e["event"] == "attempt"
        }
        assert attempted_after.isdisjoint(committed_before)
        assert len(FleetLedger.committed(ledger_path)) == n_shards


class TestUnreadableLedger:
    def test_resume_refuses_with_one_error_line(self, tmp_path):
        fleet_dir = tmp_path / "fleet"
        synth_fleet(SPEC, fleet_dir, shards=True)
        (fleet_dir / LEDGER_NAME).mkdir()  # present but unreadable
        proc = subprocess.run(
            _fleet_cmd(fleet_dir, "--resume"),
            env=_cli_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        errors = [
            ln for ln in proc.stderr.splitlines() if ln.startswith("error:")
        ]
        assert len(errors) == 1
        assert LEDGER_NAME in errors[0] and "--resume" in errors[0]
