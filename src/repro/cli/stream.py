"""``stream``: tail a campaign's text logs incrementally (DESIGN.md §10)."""

from __future__ import annotations

import argparse

from repro.cli._options import (
    add_ingest_policy,
    add_json,
    add_obs,
    check_writable,
    error,
    write_json,
)


def register(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "directory", help="directory holding ce.log/het.log/bmc*/inventory*"
    )
    p.add_argument(
        "--follow", action="store_true",
        help="keep polling for appended data instead of stopping at EOF",
    )
    p.add_argument(
        "--poll-interval", type=float, default=1.0, metavar="SECONDS",
        help="idle sleep between empty polls under --follow (default 1.0)",
    )
    p.add_argument(
        "--max-batches", type=int, default=None, metavar="N",
        help="stop after N consuming batches (bounded mode for tests/CI)",
    )
    p.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write crash-safe checkpoints here; an existing checkpoint "
        "is resumed from unless --no-resume",
    )
    p.add_argument(
        "--no-resume", action="store_true",
        help="ignore an existing checkpoint and start from byte zero",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint after every N consuming batches (default 1)",
    )
    p.add_argument(
        "--alerts-out", default=None, metavar="PATH",
        help="append structured JSONL alert events to PATH",
    )
    p.add_argument(
        "--batch-bytes", type=int, default=1 << 20, metavar="BYTES",
        help="bytes consumed per file per batch (default 1 MiB)",
    )
    p.add_argument(
        "--faults-out", default=None, metavar="PATH",
        help="write the final live fault array to PATH as .npy",
    )
    add_ingest_policy(p, "repair")
    p.add_argument(
        "--ce-rate-threshold", type=int, default=100, metavar="N",
        help="CE count per node per window that trips the ce_rate alert",
    )
    p.add_argument(
        "--ce-rate-window", type=float, default=3600.0, metavar="SECONDS",
        help="epoch-aligned window width for the ce_rate alert",
    )
    add_obs(p)
    p.add_argument(
        "--rollups-dir", default=None, metavar="DIR",
        help="maintain rollup cubes incrementally and snapshot them here "
        "(versioned + atomic; query later with 'query --rollups DIR')",
    )
    add_json(p, "one machine-readable summary")
    p.add_argument(
        "--predict", action="store_true",
        help="mount the online failure predictor: re-score every CE "
        "batch's nodes and raise predicted_failure alerts through the "
        "same exactly-once sink (requires --model)",
    )
    p.add_argument(
        "--model", metavar="PATH", default=None,
        help="trained predictor artifact from 'predict train' "
        "(CRC-guarded JSON)",
    )
    p.add_argument(
        "--predict-rearm", type=float, default=86400.0, metavar="SECONDS",
        help="per-node re-arm window for predicted_failure alerts "
        "(event time; default 1 day)",
    )


def run(args) -> int:
    from repro.stream import StreamPipeline
    from repro.stream.alerts import AlertRules

    check_writable(args.alerts_out, args.faults_out)
    model = None
    if args.predict:
        if not args.model:
            return error(
                "--predict needs --model pointing at a trained "
                "artifact; hint: 'predict train --out model.json' "
                "produces one"
            )
        from repro.predict.model import Model

        model = Model.load(args.model)
    elif args.model:
        return error(
            "--model does nothing without --predict; hint: add "
            "--predict to mount the online scorer"
        )
    try:
        pipeline = StreamPipeline(
            directory=args.directory,
            policy=args.ingest_policy,
            checkpoint_dir=args.checkpoint_dir,
            alerts_out=args.alerts_out,
            batch_bytes=args.batch_bytes,
            checkpoint_every=args.checkpoint_every,
            rules=AlertRules(
                ce_rate_threshold=args.ce_rate_threshold,
                ce_rate_window_s=args.ce_rate_window,
            ),
            resume=not args.no_resume,
            rollup_dir=args.rollups_dir,
            predict_model=model,
            predict_rearm_s=args.predict_rearm,
        )
    except ValueError as exc:
        # No tailable files: exit cleanly instead of dumping a traceback.
        return error(exc)
    if pipeline.batches and not args.json:
        print(f"resumed from checkpoint at batch {pipeline.batches}")

    def progress(p, summary):
        consumed = ", ".join(
            f"{family}+{n}" for family, n in summary["consumed"].items()
        )
        line = f"batch {p.batches - 1}: {consumed or 'idle'}"
        if summary["alerts"]:
            line += f"; {len(summary['alerts'])} alert(s)"
        print(line)

    run_info = pipeline.run(
        max_batches=args.max_batches,
        follow=args.follow,
        poll_interval=args.poll_interval,
        progress=None if args.json else progress,
    )
    summary = pipeline.finalize()
    if args.json:
        write_json({
            "schema_version": 1,
            "steps": int(run_info["steps"]),
            "summary": summary,
        })
    else:
        _print_summary(run_info, summary)
    if args.faults_out:
        import numpy as np

        np.save(args.faults_out, pipeline.coalescer.faults())
        if not args.json:
            print(f"wrote faults to {args.faults_out}")
    return 0


def _print_summary(run_info: dict, summary: dict) -> None:
    print(
        f"streamed {run_info['steps']} batch(es): "
        f"{summary['faults']} live fault(s), {summary['alerts']} alert(s)"
    )
    for family, s in sorted(summary["ingest"].items()):
        print(
            f"  {family}: seen={s['seen']} parsed={s['parsed']} "
            f"repaired={s['repaired']} quarantined={s['quarantined']} "
            f"coverage={s['coverage']:.3f}"
        )
    if summary["mode_counts"]:
        modes = ", ".join(
            f"{label}={n}" for label, n in sorted(summary["mode_counts"].items())
        )
        print(f"  modes: {modes}")
    if summary.get("rollups"):
        r = summary["rollups"]
        where = f" v{r['version']} at {r['dir']}" if r.get("dir") else ""
        print(f"  rollups: {r['errors']} CEs, {r['faults']} fault(s){where}")
    if summary.get("predictor"):
        p = summary["predictor"]
        print(
            f"  predictor: model {p['model_id']}, "
            f"{p['scored_batches']} batch(es) scored"
        )
