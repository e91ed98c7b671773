"""Seeded fixture builder: every input a workload needs, made once.

A fixture is a directory of generated files keyed by (workload, seed,
scale, program digest).  It is built outside every timed region, into a
temporary sibling that is renamed into place, so an interrupted build is
never reused.  The program under test only ever receives these files.

The predict model is trained on campaigns whose seeds are offset far
from the workload seed, so the campaign a workload streams or serves is
never one the model saw in training.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path

from common import CACHE, SRC, use_src

#: Training/eval seed offsets; workload seeds stay far below them.
TRAIN_SEED_OFFSET = 1_000_003
EVAL_SEED_OFFSET = 2_000_003
MODEL_SCALE = 0.02
#: Fixture directories kept besides the one in use (each is tens of MB).
KEEP_FIXTURES = 3


def program_digest() -> str:
    """Digest of the program sources and this builder: the cache version."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [Path(__file__)]:
        h.update(str(path.relative_to(SRC.parent)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fixture_dir(workload: str, seed: int, scale: float) -> Path:
    return CACHE / "fixtures" / f"{workload}-s{seed}-x{scale:g}-{program_digest()}"


def ensure(workload: str, seed: int, scale: float) -> tuple[Path, float]:
    """The fixture directory (built if missing) and the build seconds."""
    final = fixture_dir(workload, seed, scale)
    if (final / "DONE").exists():
        final.touch()
        return final, 0.0
    use_src()
    t0 = time.perf_counter()
    tmp = final.with_name(final.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    _BUILDERS[workload](tmp, seed, scale)
    (tmp / "DONE").write_text(json.dumps({"seed": seed, "scale": scale}))
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)
    _prune(final)
    return final, time.perf_counter() - t0


def _prune(keep: Path) -> None:
    others = [
        d for d in (CACHE / "fixtures").iterdir() if d.is_dir() and d != keep
    ]
    others.sort(key=lambda d: d.stat().st_mtime, reverse=True)
    for stale in others[KEEP_FIXTURES:]:
        shutil.rmtree(stale, ignore_errors=True)


# ----------------------------------------------------------------------
def _campaign(seed: int, scale: float):
    from repro.synth import CampaignGenerator

    return CampaignGenerator(seed=seed, scale=scale).generate()


def _model(out: Path, seed: int) -> None:
    from repro.predict import train_and_evaluate

    model, _report = train_and_evaluate(
        train_seeds=(seed + TRAIN_SEED_OFFSET,),
        eval_seeds=(seed + EVAL_SEED_OFFSET,),
        scale=MODEL_SCALE, jobs=0,
    )
    model.save(out / "model.json")


def _build_stream(out: Path, seed: int, scale: float) -> None:
    """Text logs to drain, a model, and the batch answer to match."""
    import numpy as np

    from repro.faults.coalesce import coalesce
    from repro.logs.het import ingest_het_log, write_het_log
    from repro.logs.syslog import ingest_ce_log, write_ce_log

    campaign = _campaign(seed, scale)
    camp = out / "camp"
    camp.mkdir()
    write_ce_log(campaign.errors, camp / "ce.log")
    write_het_log(campaign.het, camp / "het.log")
    _model(out, seed)
    expected = out / "expected"
    expected.mkdir()
    ce = ingest_ce_log(camp / "ce.log", policy="repair", quarantine=False)
    _het, het_stats = ingest_het_log(
        camp / "het.log", policy="repair", quarantine=False
    )
    np.save(expected / "faults.npy", coalesce(ce.errors))
    (expected / "ingest.json").write_text(json.dumps({
        "errors": ce.stats.to_dict(), "het": het_stats.to_dict(),
    }, sort_keys=True))


def _build_batch(out: Path, seed: int, scale: float) -> None:
    """A campaign delivered as text logs plus its binary mirrors."""
    from repro.logs.campaign_io import write_campaign

    write_campaign(_campaign(seed, scale), out / "camp")


def _build_serve(out: Path, seed: int, scale: float) -> None:
    """Campaign + rollup snapshot + model + the stream's recorded alerts."""
    import numpy as np

    from repro.faults.coalesce import coalesce
    from repro.logs.campaign_io import write_campaign
    from repro.predict.model import Model
    from repro.query import build_store
    from repro.stream import StreamPipeline

    campaign = _campaign(seed, scale)
    camp = out / "camp"
    write_campaign(campaign, camp)
    faults = coalesce(campaign.errors)
    build_store(campaign.errors, faults=faults).snapshot(camp / "rollups")
    np.save(out / "faults.npy", faults)
    _model(out, seed)
    pipe = StreamPipeline(
        files=[camp / "ce.log", camp / "het.log"],
        alerts_out=out / "alerts_recorded.jsonl",
        predict_model=Model.load(out / "model.json"),
        quarantine=False,
    )
    pipe.run()
    pipe.finalize()
    # The server reads binary mirrors; the text logs were only the
    # stream's input for the recorded alert feed.
    (camp / "ce.log").unlink()
    (camp / "het.log").unlink()


_BUILDERS = {
    "stream-catchup": _build_stream,
    "paper-batch": _build_batch,
    "serve-mixed": _build_serve,
}

