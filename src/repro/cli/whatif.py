"""``whatif``: counterfactual ECC replay over codes x scrub x retirement
grids, with a brute-force self-check."""

from __future__ import annotations

import argparse
import sys

from repro.cli._options import (
    add_gen,
    add_jobs,
    add_obs,
    check_writable,
    error,
    parse_axis,
    write_json,
)


def register(p: argparse.ArgumentParser) -> None:
    add_gen(p)
    p.add_argument(
        "--codes", default="secded,chipkill,rs-36-32,rs-72-64",
        help="comma-separated protection codes to replay under "
        "(default: all four)",
    )
    p.add_argument(
        "--scrub", default="0,24",
        help="comma-separated patrol-scrub intervals in hours; 0 = no "
        "scrubbing (default: 0,24)",
    )
    p.add_argument(
        "--retire", default="0,2",
        help="comma-separated page-retirement CE thresholds; 0 = off "
        "(default: 0,2)",
    )
    p.add_argument(
        "--exclude-budget", type=int, default=0,
        help="exclude-list CE budget applied to every scenario; 0 = off",
    )
    add_jobs(p, "replay policy groups")
    p.add_argument(
        "--fleet", metavar="DIR", default=None,
        help="replay a stored fleet campaign directory instead of "
        "synthesising one from --seed/--scale",
    )
    p.add_argument(
        "--scenarios-out", metavar="PATH", default=None,
        help="write the per-scenario report tables as JSON to PATH "
        "(schemas/whatif.schema.json)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="verify the vectorised engine element-for-element against "
        "the brute-force per-event reference on a downsampled replay "
        "(exit 1 on any mismatch)",
    )
    p.add_argument(
        "--check-events", type=int, default=20000, metavar="N",
        help="downsample size for --check (default 20000)",
    )
    add_obs(p)


def _self_check(errors, scenarios, args) -> dict:
    """Replay a downsample through the engine and the reference."""
    import numpy as np

    from repro import obs
    from repro.mitigation.reference import reference_replay_events
    from repro.mitigation.whatif import replay_events

    n = int(errors.size)
    take = min(max(int(args.check_events), 1), n) if n else 0
    sel = np.unique(np.linspace(0, n - 1, take).astype(np.int64)) if n else []
    sub = errors[sel]
    mismatches = 0
    with obs.span("whatif.check", transient=True) as sp:
        for sc in scenarios:
            fast = replay_events(sub, sc, seed=args.seed)
            slow = reference_replay_events(sub, sc, seed=args.seed)
            mismatches += int((fast != slow).sum())
        sp.add(events=int(sub.size), scenarios=len(scenarios))
    return {
        "identical": mismatches == 0,
        "events_compared": int(sub.size),
        "scenarios_compared": len(scenarios),
        "mismatches": mismatches,
    }


def run(args) -> int:
    """Counterfactual scenario replay + self-check."""
    import time

    from repro.mitigation.codes import CODES
    from repro.mitigation.whatif import render_table, replay_campaign, scenario_grid

    check_writable(args.scenarios_out)
    codes = [c.strip() for c in args.codes.split(",") if c.strip()]
    unknown = [c for c in codes if c not in CODES]
    if not codes or unknown:
        return error(
            f"unknown code(s): {', '.join(unknown) or '(none given)'}\n"
            f"known codes: {', '.join(CODES)}"
        )
    scrub_hours = parse_axis(args.scrub, float, "--scrub")
    retire = parse_axis(args.retire, int, "--retire")
    if min(scrub_hours) < 0 or min(retire) < 0 or args.exclude_budget < 0:
        return error(
            "--scrub/--retire/--exclude-budget values must be >= 0 "
            "(0 disables the mechanism)"
        )

    if args.fleet:
        import numpy as np

        from repro.fleet import Fleet, fleet_errors

        errors = np.ascontiguousarray(fleet_errors(Fleet.load(args.fleet)))
        source = f"fleet:{args.fleet}"
    else:
        from repro.synth import CampaignGenerator

        errors = CampaignGenerator(seed=args.seed, scale=args.scale).generate().errors
        source = "synth"

    scenarios = scenario_grid(
        codes=codes,
        scrub_hours=scrub_hours,
        retire_thresholds=retire,
        exclude_budget=args.exclude_budget,
    )
    t0 = time.perf_counter()
    reports = replay_campaign(errors, scenarios, seed=args.seed, jobs=args.jobs)
    wall = time.perf_counter() - t0
    print(
        f"replayed {errors.size} CEs under {len(scenarios)} scenarios "
        f"in {wall:.2f}s (source={source}, jobs={args.jobs})"
    )
    print(render_table(reports))

    check = None
    exit_code = 0
    if args.check:
        check = _self_check(errors, scenarios, args)
        if check["mismatches"]:
            print(
                f"check FAILED: {check['mismatches']} per-event mismatches "
                "vs the brute-force reference",
                file=sys.stderr,
            )
            exit_code = 1
        else:
            print(
                f"check ok: engine identical to brute-force reference on "
                f"{check['events_compared']} events x {len(scenarios)} "
                "scenarios"
            )

    if args.scenarios_out:
        now = time.time()
        write_json({
            "schema_version": 1,
            "created": now,
            "created_iso": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(now)),
            "campaign": {
                "seed": int(args.seed),
                "scale": float(args.scale),
                "n_errors": int(errors.size),
                "source": source,
            },
            "grid": {
                "codes": codes,
                "scrub_h": [float(s) for s in scrub_hours],
                "retire": [int(r) for r in retire],
                "exclude_budget": int(args.exclude_budget),
            },
            "jobs": int(args.jobs),
            "wall_s": wall,
            "check": check,
            "scenarios": [r.to_dict() for r in reports],
        }, args.scenarios_out)
        print(f"wrote scenario report to {args.scenarios_out}")
    return exit_code
