"""Harness self-test for perfbench.

A tiny run of every workload, traced and untraced, must emit every
metric ``BENCHMARK.json`` names, with its unit, plus the workload's own
named metrics in the report.  A deliberately corrupted expected
artifact must make the workload's correctness gate fail the run.

Run from the root of a checkout (it takes a few minutes)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY_SCALE = 0.005
CORRUPT_SEED = 8
#: Report lines every run prints, per workload: (metric, unit).
NAMED = {
    "stream-catchup": [("stream_lines_per_s", "1/s")],
    "paper-batch": [("analyze_s", "s"), ("whatif_s", "s")],
    "serve-mixed": [("serve_p50_ms", "ms"), ("serve_p99_ms", "ms")],
}

sys.path.insert(0, str(BENCH))


def _run(workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", str(TINY_SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc, result = _run(workload, seed=7, trace=trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
    for name, unit in NAMED[workload] + [("failed_ratio", "ratio")]:
        line = re.compile(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                          re.M)
        assert line.search(proc.stdout), f"{name} [{unit}] not reported"
    if trace:
        assert "unattributed" in proc.stdout
        assert result["metrics"]["unattributed_ratio"]["value"] <= 0.10


def _corrupt_stream(fx: Path) -> None:
    import numpy as np

    faults = np.load(fx / "expected" / "faults.npy")
    faults["n_errors"][0] += 1
    np.save(fx / "expected" / "faults.npy", faults)


def _corrupt_batch(fx: Path) -> None:
    import run

    path = run.statuses_record(CORRUPT_SEED, TINY_SCALE)
    statuses = json.loads(path.read_text())
    first = next(iter(statuses))
    statuses[first] = "pass" if statuses[first] != "pass" else "fail"
    path.write_text(json.dumps(statuses))


def _corrupt_serve(fx: Path) -> None:
    import numpy as np

    faults = np.load(fx / "faults.npy")
    np.save(fx / "faults.npy", faults[:-1])


CORRUPT = {
    "stream-catchup": _corrupt_stream,
    "paper-batch": _corrupt_batch,
    "serve-mixed": _corrupt_serve,
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expected_artifact_fails_the_gate(workload):
    import fixtures
    import run

    seed = CORRUPT_SEED
    proc, result = _run(workload, seed, trace=0)
    assert proc.returncode == 0 and result["correct"], proc.stderr
    fx = fixtures.fixture_dir(workload, seed, TINY_SCALE)
    try:
        CORRUPT[workload](fx)
        proc, result = _run(workload, seed, trace=0)
    finally:
        shutil.rmtree(fx, ignore_errors=True)
        run.statuses_record(seed, TINY_SCALE).unlink(missing_ok=True)
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "CORRECTNESS GATE FAILED" in proc.stderr


def test_committed_check_outcomes_bite():
    """A flipped or missing committed check outcome is a mismatch."""
    import paper_batch
    import run

    committed = json.loads(run.EXPECTED_CHECKS.read_text())["checks"]
    assert paper_batch.check_mismatches(committed, committed) == []
    exp_id = next(iter(committed))
    name = next(iter(committed[exp_id]))
    flipped = json.loads(json.dumps(committed))
    flipped[exp_id][name] = not flipped[exp_id][name]
    assert len(paper_batch.check_mismatches(committed, flipped)) == 1
    del flipped[exp_id]
    assert paper_batch.check_mismatches(committed, flipped) == [
        f"{exp_id}: None != committed {committed[exp_id]!r}"
    ]
