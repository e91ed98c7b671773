"""stream-catchup: drain a campaign backlog through ``StreamPipeline``.

The pipeline runs with the production flag set of ``repro stream
--predict --rollups-dir``: a checkpoint directory with the default
``checkpoint_every=1`` and 1 MiB batches, a rollup snapshot directory,
an alerts JSONL and a loaded predict model.  One repetition is one full
catch-up of the fixture's text logs into fresh state directories.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from common import Units, digest
from tracing import NULL, ROOT, Tracer

#: ~218k CE lines in 27 one-MiB batches: a drain takes ~3.5 CPU seconds
#: on a 2-vCPU x86-64 VM, so a run holds ~5 drains for ``unit_median``,
#: and checkpointing is still ~65% of it.
SCALE = 0.05
#: Pipeline dispatchers: their self time is work between layer calls, so it
#: counts as unattributed.
CATCH_ALL = ("stream.pipeline.step", "stream.pipeline.finalize")


def build(fx: Path, state: Path):
    """The setup a user pays: model load and pipeline construction."""
    from repro.predict.model import Model
    from repro.stream import StreamPipeline

    state.mkdir(parents=True, exist_ok=True)
    return StreamPipeline(
        files=[fx / "camp" / "ce.log", fx / "camp" / "het.log"],
        checkpoint_dir=state / "ckpt",
        alerts_out=state / "alerts.jsonl",
        rollup_dir=state / "rollups",
        predict_model=Model.load(fx / "model.json"),
    )


def _install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the pipeline calls."""
    from repro.predict.score import OnlineScorer
    from repro.query.rollup import RollupStore
    from repro.stream import (
        AlertEngine,
        AlertSink,
        CheckpointStore,
        LogTailer,
        OnlineCoalescer,
        StreamPipeline,
    )

    def poll_lines(records, *_a, **_k):
        if records is not None and hasattr(records, "size"):
            tracer.count("stream.tailer.lines", int(records.size))

    def saved_bytes(path, *_a, **_k):
        tracer.count("stream.checkpoint.bytes", path.stat().st_size)

    def snapshot_bytes(version, store, directory, *_a, **_k):
        size = (Path(directory) / f"rollup-{version:06d}.npz").stat().st_size
        tracer.count("query.rollup.snapshot_bytes", size)

    tracer.wrap(StreamPipeline, "step", "stream.pipeline.step")
    tracer.wrap(StreamPipeline, "checkpoint", "stream.pipeline.checkpoint")
    tracer.wrap(StreamPipeline, "finalize", "stream.pipeline.finalize")
    tracer.wrap(LogTailer, "poll", "stream.tailer.poll", after=poll_lines)
    tracer.wrap(OnlineCoalescer, "add", "stream.online_coalesce.add")
    for method in ("observe_errors", "observe_het", "observe_sensors"):
        tracer.wrap(AlertEngine, method, "stream.alerts.observe")
        tracer.wrap(OnlineScorer, method, "predict.score.observe")
    tracer.wrap(AlertSink, "emit", "stream.alerts.emit")
    tracer.wrap(RollupStore, "update", "query.rollup.update")
    tracer.wrap(RollupStore, "set_faults", "query.rollup.set_faults")
    tracer.wrap(RollupStore, "snapshot", "query.rollup.snapshot",
                after=snapshot_bytes)
    tracer.wrap(CheckpointStore, "save", "stream.checkpoint.save",
                after=saved_bytes)


def _drain(pipe, tracer, units: Units) -> dict:
    """Catch up to end of file (as ``StreamPipeline.run`` does) and
    finalize; each step that made progress and the finalize are units."""
    with tracer.span(ROOT):
        for eof in (False, True):
            while True:
                units.start()
                if not pipe.step(eof_flush=eof)["progressed"]:
                    break
                units.lap()
                if eof:
                    break
        units.start()
        summary = pipe.finalize()
        units.lap()
    return summary


def _rep(fx: Path, scratch: Path, tracer) -> dict:
    from repro.stream import faults_snapshot

    state = scratch / "state"
    shutil.rmtree(state, ignore_errors=True)
    pipe = build(fx, state)
    units = Units(sample=tracer is NULL)
    summary = _drain(pipe, tracer, units)
    ingest = {f: s.to_dict() for f, s in pipe.final_ingest().items()}
    return {
        "drain_s": sum(units.wall),
        "step_s": units.wall[:-1],
        "units": units.doc(),
        "lines": sum(s["seen"] for s in ingest.values()),
        "ce_lines": ingest["errors"]["seen"],
        "bad_lines": sum(s["quarantined"] + s["repaired"]
                         for s in ingest.values()),
        "ingest": ingest,
        "faults_sha": digest(faults_snapshot(pipe)),
        "rollup_errors_seen": int(pipe.rollups.errors_seen),
        "groups": int(pipe.coalescer.n_groups),
        "alerts": int(summary["alerts"]),
    }


def work(fx: Path, scratch: Path, trace: bool, budget) -> dict:
    """Untraced: drains that fill the budget.  Traced: the budget's
    minimum untraced, then one traced drain; the overhead is taken
    against the last (warm) untraced one."""
    reps = []
    while budget.more():
        reps.append(_rep(fx, scratch, NULL))
        budget.record()
    if not trace:
        return {"reps": reps}
    untraced = reps[-1]
    tracer = Tracer(catch_all=CATCH_ALL)
    _install(tracer)
    try:
        traced = _rep(fx, scratch, tracer)
    finally:
        tracer.unwrap()
    reps.append(traced)
    ingest = traced["ingest"]["errors"]
    layers = {
        "stream.tailer.poll_s": tracer.total("stream.tailer.poll"),
        "stream.tailer.lines": tracer.counters.get("stream.tailer.lines", 0),
        "stream.online_coalesce.add_s":
            tracer.total("stream.online_coalesce.add"),
        "stream.online_coalesce.groups": traced["groups"],
        "stream.alerts.observe_s": tracer.total("stream.alerts.observe"),
        "stream.alerts.emit_s": tracer.total("stream.alerts.emit"),
        "stream.alerts.count": traced["alerts"],
        "predict.score.observe_s": tracer.total("predict.score.observe"),
        "query.rollup.update_s": tracer.total("query.rollup.update"),
        "query.rollup.snapshot_s": tracer.total("query.rollup.snapshot"),
        "query.rollup.snapshot_bytes":
            tracer.counters.get("query.rollup.snapshot_bytes", 0),
        "stream.checkpoint.save_s": tracer.total("stream.checkpoint.save"),
        "stream.checkpoint.saves": tracer.calls("stream.checkpoint.save"),
        "stream.checkpoint.bytes":
            tracer.counters.get("stream.checkpoint.bytes", 0),
        "stream.pipeline.checkpoint_self_s":
            tracer.self_time("stream.pipeline.checkpoint"),
        "logs.fastpath_ratio": ingest["fast_lines"] / max(ingest["seen"], 1),
    }
    return {
        "reps": reps,
        "trace": {
            "untraced_wall_s": untraced["drain_s"],
            "wall_s": tracer.wall_s,
            "unattributed_s": tracer.unattributed_s,
            "table": tracer.table(),
            "layers": layers,
        },
    }
