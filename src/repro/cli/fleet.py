"""``fleet``: synthesise and analyse a fleet of Astra-sized clusters
through the sharded campaign engine (DESIGN.md §11)."""

from __future__ import annotations

import argparse
import sys

from repro.cli._options import (
    add_gen,
    add_ingest_policy,
    add_jobs,
    add_json,
    add_obs,
    check_writable,
    error,
    write_json,
)


def register(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--shard-dir", required=True, metavar="DIR",
        help="fleet directory (one campaign dir per cluster plus "
        "fleet.json); synthesised here when missing",
    )
    p.add_argument(
        "--clusters", type=int, default=None, metavar="N",
        help="number of Astra-sized clusters when synthesising "
        "(default 2; an existing fleet.json fixes the value)",
    )
    add_gen(p)
    add_jobs(p, "process shards")
    p.add_argument(
        "--source", choices=("auto", "shards", "binary", "text"),
        default="auto",
        help="shard source: per-rack binary shards, whole-cluster binary "
        "mirrors, or text logs (auto prefers the finest binary form)",
    )
    p.add_argument(
        "--text-logs", action="store_true",
        help="when synthesising, also write per-cluster ce.log/het.log "
        "(required later for --source text; slower)",
    )
    p.add_argument(
        "--force-synth", action="store_true",
        help="re-synthesise every cluster even if the fleet exists",
    )
    p.add_argument(
        "--check", action="store_true",
        help="verify the sharded result byte-identical to the "
        "single-process whole-stream path (exit 1 on mismatch)",
    )
    p.add_argument(
        "--exp", nargs="*", default=None,
        help="also run experiments over the fleet-wide campaign "
        "(empty = all registered experiments)",
    )
    p.add_argument(
        "--fleet-report", metavar="PATH", default=None,
        help="write a machine-readable fleet report (schemas/"
        "fleet.schema.json) to PATH",
    )
    add_ingest_policy(p, "repair", " under --source text")
    p.add_argument(
        "--json-report", metavar="PATH", default=None,
        help="also write a JSON run report for --exp to PATH",
    )
    add_obs(p)
    p.add_argument(
        "--cache-dir", default=None,
        help="campaign cache directory used during synthesis",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="bypass the campaign cache during synthesis",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="resume from the fleet ledger: shards committed by an "
        "interrupted run load from the shard cache instead of re-running "
        "(the re-reduction is byte-identical to an uninterrupted run)",
    )
    p.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="abandon and retry a shard whose worker exceeds this wall "
        "time (parallel mode; default: no limit)",
    )
    p.add_argument(
        "--shard-retries", type=int, default=2, metavar="N",
        help="re-attempts per shard (full-jitter backoff) before it is "
        "quarantined and the result degrades (default 2)",
    )
    p.add_argument(
        "--no-ledger", action="store_true",
        help="skip the fleet-ledger.jsonl journal and shard cache "
        "(disables --resume for this run)",
    )
    p.add_argument(
        "--chaos", choices=("light", "moderate", "hostile"), default=None,
        help="inject planned process/IO faults: light kills and wedges "
        "workers (retries absorb everything), moderate adds torn shards "
        "and ENOSPC, hostile adds bit rot -- see chaos-manifest.json",
    )
    p.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="seed of the chaos plan (same profile+seed = same faults)",
    )
    p.add_argument(
        "--faults-out", metavar="PATH", default=None,
        help="write the fleet-wide coalesced fault array to PATH (.npy)",
    )
    p.add_argument(
        "--rollups-out", metavar="DIR", default=None,
        help="have every shard worker maintain rollup cubes, merge them "
        "exactly during the reduction, and snapshot the fleet-wide "
        "store here (query later with 'query --rollups DIR')",
    )
    add_json(p, "one machine-readable summary", " (not combinable with --exp)")


def _reference_faults(fleet, result, source: str, policy: str):
    """The single-process whole-stream answer the shard engine must match.

    Binary sources compare against coalescing the concatenated binary
    mirrors; the text source compares against serially re-parsing every
    cluster's ``ce.log`` (text timestamps carry second resolution, so the
    binary mirrors are not its ground truth).

    Degraded results stay checkable: the reference excludes the records
    of quarantined shards (via :func:`repro.fleet.drop_quarantined`), so
    a ``pass-degraded`` run is verified exact *over the shards that
    survived* rather than reported as a spurious mismatch.
    """
    import numpy as np

    from repro.faults.coalesce import coalesce
    from repro.fleet import drop_quarantined, fleet_errors
    from repro.logs.syslog import ingest_ce_log

    if source != "text":
        return coalesce(drop_quarantined(fleet, result, fleet_errors(fleet)))
    parts = []
    quarantined_clusters = {
        q["cluster"] for q in getattr(result, "quarantined", ())
    }
    for i, cdir in enumerate(fleet.cluster_dirs):
        if fleet.spec.cluster_name(i) in quarantined_clusters:
            continue
        errors = ingest_ce_log(cdir / "ce.log", policy=policy).errors.copy()
        errors["node"] += fleet.spec.node_offset(i)
        parts.append(errors)
    if not parts:
        from repro.faults.types import ERROR_DTYPE

        return coalesce(np.zeros(0, dtype=ERROR_DTYPE))
    merged = np.concatenate(parts)
    return coalesce(merged[np.argsort(merged["time"], kind="stable")])


def _print_result(result, jobs: int) -> None:
    modes = ", ".join(
        f"{label}={n}"
        for label, n in sorted(result.mode_histogram().items())
        if n
    )
    print(
        f"processed {len(result.per_shard)} shard(s) with "
        f"jobs={jobs}: {result.n_errors} CEs -> "
        f"{result.n_faults} fault(s) in {result.wall_s:.2f}s"
    )
    if modes:
        print(f"  modes: {modes}")
    status_line = f"  status: {result.status}"
    if result.coverage is not None:
        status_line += f", coverage={result.coverage:.4f}"
    if result.retries:
        status_line += f", retries={result.retries}"
    if result.resumed_shards:
        status_line += f", resumed={len(result.resumed_shards)}"
    if result.integrity_failures:
        status_line += f", integrity_failures={result.integrity_failures}"
    print(status_line)


def run(args) -> int:
    """Synthesise, shard-process, check, analyse."""
    import time
    from pathlib import Path

    from repro.fleet import (
        Fleet,
        FleetSpec,
        fleet_campaign,
        process_fleet,
        synth_fleet,
    )

    check_writable(args.fleet_report, args.json_report)
    if args.json and args.exp is not None:
        return error(
            "--json cannot be combined with --exp; hint: use "
            "--json-report for the experiment run report"
        )

    shard_dir = Path(args.shard_dir)
    existing = Fleet.load(shard_dir) if shard_dir.exists() else None
    if existing is not None and not args.force_synth:
        if args.clusters is not None and args.clusters != existing.spec.n_clusters:
            return error(
                f"{shard_dir} already holds a "
                f"{existing.spec.n_clusters}-cluster fleet; pass "
                "--force-synth to re-synthesise it"
            )
        spec = existing.spec
    else:
        spec = FleetSpec(
            n_clusters=args.clusters if args.clusters is not None else 2,
            seed=args.seed,
            scale=args.scale,
        )
    from repro.cli.campaign import make_cache

    fleet = synth_fleet(
        spec,
        shard_dir,
        text_logs=args.text_logs or args.source == "text",
        shards=True,
        cache=None if args.no_cache else make_cache(args.cache_dir),
        force=args.force_synth,
    )
    if not args.json:
        print(
            f"fleet: {spec.n_clusters} cluster(s), seed={spec.seed}, "
            f"scale={spec.scale}, {fleet.spec.fleet_topology().n_nodes} "
            f"nodes at {shard_dir}"
        )

    result = process_fleet(
        fleet, jobs=args.jobs, source=args.source,
        policy=args.ingest_policy,
        task_timeout_s=args.task_timeout,
        shard_retries=args.shard_retries,
        resume=args.resume,
        ledger=not args.no_ledger,
        chaos=args.chaos,
        chaos_seed=args.chaos_seed,
        rollups=bool(args.rollups_out),
    )
    if not args.json:
        _print_result(result, args.jobs)
    for entry in result.quarantined:
        print(
            f"  quarantined {entry['cluster']}/{entry['shard']} "
            f"after {entry['attempts']} attempt(s): {entry['reason']}",
            file=sys.stderr,
        )
    if result.status == "fail":
        error("every shard was quarantined; no fleet result survived")
        return 1

    rollup_info = None
    if args.rollups_out and result.rollups is not None:
        version = result.rollups.snapshot(args.rollups_out)
        rollup_info = {
            "dir": str(args.rollups_out),
            "version": int(version),
            "errors_seen": int(result.rollups.errors_seen),
            "n_faults": int(result.rollups.n_faults),
        }
        if not args.json:
            print(
                f"  rollups: snapshot v{version} at {args.rollups_out} "
                f"({result.rollups.errors_seen} CEs)"
            )

    check = None
    exit_code = 0
    if args.check:
        reference = _reference_faults(
            fleet, result, args.source, args.ingest_policy
        )
        identical = (
            result.faults.dtype == reference.dtype
            and result.faults.tobytes() == reference.tobytes()
        )
        check = {
            "identical": bool(identical),
            "reference": "text" if args.source == "text" else "binary",
            "n_faults_reference": int(reference.size),
            "degraded": bool(result.quarantined),
        }
        if not identical:
            print(
                f"check FAILED: sharded faults differ from the "
                f"whole-stream path ({result.n_faults} vs {reference.size})",
                file=sys.stderr,
            )
            exit_code = 1
        elif not args.json:
            scope = (
                "whole-stream path over surviving shards"
                if result.quarantined else "whole-stream path"
            )
            print(f"check: sharded result identical to {scope} "
                  f"({reference.size} faults)")

    if args.fleet_report:
        from repro._util import iso

        now = time.time()
        write_json({
            "schema_version": 1,
            "created": now,
            "created_iso": iso(now) + "Z",
            "fleet": fleet.to_dict(),
            "result": result.to_dict(),
            "check": check,
        }, args.fleet_report)
        if not args.json:
            print(f"wrote fleet report to {args.fleet_report}")

    if args.faults_out:
        import numpy as np

        np.save(args.faults_out, result.faults)
        if not args.json:
            print(f"wrote faults to {args.faults_out}")

    if args.json:
        write_json({
            "schema_version": 1,
            "fleet": fleet.to_dict(),
            "result": result.to_dict(),
            "check": check,
            "rollups": rollup_info,
        })
    elif args.exp is not None:
        from repro.cli.campaign import run_experiments

        exp_code = run_experiments(
            fleet_campaign(fleet, result=result),
            args.exp,
            jobs=args.jobs,
            json_report=args.json_report,
            ingest_policy=args.ingest_policy,
        )
        return exit_code or exp_code
    return exit_code
