"""``query``: answer campaign-history queries from rollup cubes with
zero log rescan (DESIGN.md §14)."""

from __future__ import annotations

import argparse
import sys

from repro.cli._options import (
    add_ingest_policy,
    add_json,
    add_obs,
    error,
    parse_axis,
    write_json,
)


def register(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "directory",
        help="campaign directory the rollups describe (used by --build "
        "and --check to reach the raw records)",
    )
    p.add_argument(
        "--rollups", metavar="DIR", default=None,
        help="rollup snapshot directory (default: DIRECTORY/rollups)",
    )
    p.add_argument(
        "--build", action="store_true",
        help="(re)build a rollup snapshot from the campaign's records "
        "before answering",
    )
    p.add_argument(
        "--snapshot-version", type=int, default=None, metavar="N",
        help="load this snapshot version instead of the manifest's latest",
    )
    p.add_argument(
        "--select",
        choices=("errors", "faults", "mode_errors", "ce_windows", "dropout"),
        default="errors",
        help="what to count (default errors)",
    )
    p.add_argument(
        "--group-by", default="", metavar="DIMS",
        help="comma-separated dimensions (errors: rack,slot,bucket or "
        "node or bitpos or bank; faults: rack,slot,mode,bucket; "
        "ce_windows: node,window)",
    )
    for flag, what in (
        ("--racks", "rack-id filter"),
        ("--slots", "DIMM-slot filter"),
        ("--nodes", "node-id filter (per-node cube only)"),
    ):
        p.add_argument(
            flag, default=None, metavar="IDS", help=f"comma-separated {what}"
        )
    p.add_argument(
        "--modes", default=None, metavar="NAMES",
        help="comma-separated fault-mode filter (e.g. single_bit,row)",
    )
    p.add_argument(
        "--since", type=float, default=None, metavar="EPOCH",
        help="time filter: include the bucket containing this time and "
        "later (bucket-granular, inclusive)",
    )
    p.add_argument(
        "--until", type=float, default=None, metavar="EPOCH",
        help="time filter: include buckets up to the one containing "
        "this time (inclusive)",
    )
    p.add_argument(
        "--top-k", type=int, default=None, metavar="K",
        help="keep only the K largest groups (ties break on key)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="differential gate: recompute the answer by a full rescan "
        "of the raw records and assert element-for-element identity "
        "(exit 1 on any divergence)",
    )
    add_ingest_policy(
        p, "repair",
        " for --build, and for --check when the snapshot predates policy "
        "recording",
    )
    add_json(p, "the answer document")
    add_obs(p)


def _inputs(directory, source: str, policy: str):
    """Gather ``(errors, faults, sensor_samples)`` the way ``source`` did.

    Symmetry is the point: ``--build`` and ``--check`` both come through
    here, so the reference a check recomputes from is fed by exactly the
    ingest path that produced the snapshot under test -- ``stream``
    snapshots re-parse the text logs under the recorded policy, ``batch``
    snapshots re-load the binary mirrors, ``fleet`` snapshots re-read
    the node-offset concatenation of the cluster mirrors.
    """
    from repro.faults.coalesce import coalesce

    if source == "stream":
        from repro.logs.syslog import ingest_ce_log

        errors = ingest_ce_log(directory / "ce.log", policy=policy).errors
    elif source == "fleet":
        from repro.fleet import Fleet, fleet_errors

        errors = fleet_errors(Fleet.load(directory))
    else:
        from repro.logs.campaign_io import load_campaign_records

        records = load_campaign_records(directory, policy=policy)
        errors = records.errors
        _check_coverage(directory, records.ingest, policy)
    samples = None
    bmc_files = sorted(directory.glob("bmc*.csv"))
    if bmc_files:
        import numpy as np

        from repro.logs.bmc import ingest_bmc_log

        parts = [ingest_bmc_log(p, policy=policy)[0] for p in bmc_files]
        samples = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return errors, coalesce(errors), samples


def _check_coverage(directory, ingest: dict, policy: str) -> None:
    """Refuse a campaign with no usable CE (its snapshot would answer 0
    to everything); report partial coverage the way ``analyze`` does."""
    from repro.logs.ingest import coverage_line, coverage_map
    from repro.query import QueryError

    stats = ingest["errors"]
    if stats.coverage == 0.0:
        raise QueryError(
            f"{directory}: no usable CE records (found errors coverage 0% "
            f"from source={stats.source or 'missing'}, {stats.seen} record(s) "
            "seen; expected a readable errors.npy or ce.log); restore the "
            "campaign's errors.npy or ce.log, or regenerate it with `synth`"
        )
    if stats.coverage < 1.0:
        print(coverage_line(coverage_map(ingest), policy), file=sys.stderr)


def _query(args):
    from repro.query import Query

    where = {}
    for key, raw, flag in (
        ("rack", args.racks, "--racks"),
        ("slot", args.slots, "--slots"),
        ("node", args.nodes, "--nodes"),
    ):
        if raw is not None:
            where[key] = parse_axis(raw, int, flag)
    if args.modes is not None:
        where["mode"] = [m.strip() for m in args.modes.split(",") if m.strip()]
    if args.since is not None:
        where["since"] = args.since
    if args.until is not None:
        where["until"] = args.until
    group_by = tuple(
        d.strip() for d in (args.group_by or "").split(",") if d.strip()
    )
    return Query(args.select, group_by=group_by, where=where, top_k=args.top_k)


def run(args) -> int:
    """Rollup-served answers plus the ``--check`` gate."""
    from pathlib import Path

    from repro.query import (
        RollupStore,
        answers_equal,
        build_store,
        execute,
        recompute,
    )

    directory = Path(args.directory)
    rollup_dir = Path(args.rollups) if args.rollups else directory / "rollups"
    query = _query(args)
    try:
        if args.build:
            errors, faults, samples = _inputs(
                directory, "batch", args.ingest_policy
            )
            store = build_store(
                errors,
                faults=faults,
                sensor_samples=samples,
                source="batch",
                policy=args.ingest_policy,
            )
            version = store.snapshot(rollup_dir)
            if not args.json:
                print(
                    f"built rollup snapshot v{version} at {rollup_dir} "
                    f"({store.errors_seen} CEs, {store.n_faults} faults)"
                )
        else:
            store = RollupStore.load(rollup_dir, version=args.snapshot_version)
            version = (
                args.snapshot_version
                if args.snapshot_version is not None
                else RollupStore.latest_version(rollup_dir)
            )
        answer = execute(store, query)
    except OSError as exc:
        return error(exc)

    check_doc = None
    exit_code = 0
    if args.check:
        source = store.source if store.source in ("stream", "fleet") else "batch"
        policy = store.policy or args.ingest_policy
        try:
            errors, faults, samples = _inputs(directory, source, policy)
        except OSError as exc:
            return error(f"--check cannot re-ingest: {exc}")
        reference = build_store(
            errors,
            faults=faults,
            config=store.config,
            sensor_samples=samples,
            source=store.source,
            policy=store.policy,
        )
        ref_answer = recompute(
            query,
            store.config,
            errors=errors,
            faults=faults,
            sensor_times=None if samples is None else samples["time"],
        )
        answer_ok = answers_equal(answer, ref_answer)
        store_ok = store.equal(reference)
        check_doc = {
            "identical": bool(answer_ok and store_ok),
            "answer_identical": bool(answer_ok),
            "store_identical": bool(store_ok),
            "source": source,
            "policy": policy,
            "n_errors_reference": int(errors.size),
        }
        if not (answer_ok and store_ok):
            what = []
            if not answer_ok:
                what.append("answer differs from the full-rescan recompute")
            if not store_ok:
                what.append("cubes differ from the from-scratch rebuild")
            print(f"check FAILED: {'; '.join(what)}", file=sys.stderr)
            exit_code = 1
        elif not args.json:
            print(
                "check: cube answer element-identical to the full-rescan "
                f"recompute over {errors.size} records (source={source})"
            )

    if args.json:
        write_json({
            "schema_version": 1,
            "answer": answer,
            "rollups": {
                "dir": str(rollup_dir),
                "version": version,
                "source": store.source,
                "policy": store.policy,
                "errors_seen": int(store.errors_seen),
                "n_faults": int(store.n_faults),
            },
            "check": check_doc,
        })
    else:
        _print_answer(answer, version)
    return exit_code


def _print_answer(answer: dict, version) -> None:
    dims = ",".join(answer["group_by"]) or "-"
    print(
        f"query: select={answer['select']} group_by={dims} "
        f"served_from={answer['served_from']} (snapshot v{version})"
    )
    for shown, (key, value) in enumerate(zip(answer["keys"], answer["values"])):
        if shown >= 40:
            print(f"  ... ({answer['n_groups'] - shown} more group(s))")
            break
        label = " ".join(f"{d}={k}" for d, k in zip(answer["group_by"], key))
        print(f"  {label or 'total'}: {value}")
    print(f"  groups={answer['n_groups']} total={answer['total']}")
