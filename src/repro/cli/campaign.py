"""Campaign verbs: ``synth``, ``analyze``, ``experiment``, ``mitigate``,
``validate``, ``release`` and ``list``.

Each verb is a ``<verb>(args) -> int`` runner named in the CLI's verb
table, with ``<verb>_args(parser)`` where it takes more than a shared
option group; :func:`run_experiments` is the experiment-runner tail
that ``fleet --exp`` reuses.
"""

from __future__ import annotations

import argparse

from repro.cli._options import add_gen, add_run, check_writable, error


def synth_args(p: argparse.ArgumentParser) -> None:
    add_gen(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--text-logs", action="store_true", help="also write text logs (slower)"
    )
    p.add_argument(
        "--shards", action="store_true", help="write per-rack error shards"
    )


def synth(args) -> int:
    from repro.logs.campaign_io import write_campaign
    from repro.synth import CampaignGenerator

    campaign = CampaignGenerator(seed=args.seed, scale=args.scale).generate()
    directory = write_campaign(
        campaign, args.out, text_logs=args.text_logs, shards=args.shards
    )
    print(
        f"wrote campaign (seed={args.seed}, scale={args.scale}, "
        f"{campaign.n_errors} CEs) to {directory}"
    )
    return 0


def analyze_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("directory", help="campaign directory from 'synth'")
    p.add_argument(
        "--exp", nargs="*", default=None, help="experiment ids (default: all)"
    )
    p.add_argument(
        "--rollups", metavar="DIR", default=None,
        help="attach a rollup snapshot directory; figure paths serve "
        "reads from its cubes when it matches the campaign "
        "(identity-gated, silent fallback to the rescan path otherwise)",
    )
    add_run(p)


def analyze(args) -> int:
    from repro.logs.campaign_io import (
        campaign_from_records,
        load_campaign_records,
    )

    # Validate cheap things (ids, report path) before the expensive
    # campaign load / fault coalescing.
    exp_ids = resolve_exp_ids(args.exp)
    check_writable(args.json_report)
    outcome = None
    injection = None
    campaign_dir = args.directory
    if args.inject:
        campaign, injection = _inject_campaign(
            args.directory, args.inject, args.inject_seed, args.ingest_policy
        )
        # Workers re-loading the corrupted directory under the default
        # strict policy would fail; ship the repaired campaign instead.
        campaign_dir = None
    else:
        records = load_campaign_records(args.directory, policy=args.ingest_policy)
        clean = all(s.source == "binary" for s in records.ingest.values())
        if not clean:
            campaign_dir = None
        if args.no_cache or not clean:
            # Degraded loads stay out of the campaign cache: an entry
            # keyed only by (seed, scale) must never serve partial data
            # to a later clean run.
            campaign = campaign_from_records(records)
        else:
            campaign, outcome = make_cache(args.cache_dir).warm_from_records(
                records
            )
    if args.rollups:
        from repro.query import RollupStore

        campaign.rollups = RollupStore.load(args.rollups)
    return _run_with(args, campaign, exp_ids, outcome, campaign_dir, injection)


def experiment_args(p: argparse.ArgumentParser) -> None:
    add_gen(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exp", nargs="*", help="experiment ids (empty = all)")
    group.add_argument("--all", action="store_true", help="run every experiment")
    add_run(p)


def experiment(args) -> int:
    exp_ids = resolve_exp_ids(None if args.all else args.exp)
    check_writable(args.json_report)
    outcome = None
    injection = None
    campaign_dir = None
    if args.no_cache:
        from repro.synth import CampaignGenerator

        campaign = CampaignGenerator(seed=args.seed, scale=args.scale).generate()
    else:
        campaign, outcome = make_cache(args.cache_dir).get_or_generate(
            seed=args.seed, scale=args.scale
        )
        campaign_dir = outcome.path
    if args.inject:
        # Harness self-test: write the campaign out (text logs and
        # all), corrupt the copy, and re-ingest it under the policy.
        campaign, injection = _inject_campaign(
            campaign, args.inject, args.inject_seed, args.ingest_policy
        )
        campaign_dir = None
    return _run_with(args, campaign, exp_ids, outcome, campaign_dir, injection)


def _run_with(args, campaign, exp_ids, outcome, campaign_dir, injection) -> int:
    """:func:`run_experiments` configured from the runner option group."""
    return run_experiments(
        campaign,
        exp_ids,
        jobs=args.jobs,
        json_report=args.json_report,
        cache_outcome=outcome,
        campaign_dir=campaign_dir,
        timeout=args.timeout,
        retries=args.retries,
        min_coverage=args.min_coverage,
        ingest_policy=args.ingest_policy,
        injection=injection,
    )


def mitigate_args(p: argparse.ArgumentParser) -> None:
    add_gen(p)
    p.add_argument(
        "--retire-threshold", type=int, default=2, help="page retirement CE threshold"
    )
    p.add_argument(
        "--exclude-budget", type=int, default=1000, help="exclude-list CE budget"
    )


def mitigate(args) -> int:
    from repro.mitigation import (
        ExcludeListPolicy,
        PageRetirementPolicy,
        simulate_exclude_list,
        simulate_page_retirement,
    )
    from repro.synth import CampaignGenerator

    campaign = CampaignGenerator(seed=args.seed, scale=args.scale).generate()
    retire = simulate_page_retirement(
        campaign.errors,
        PageRetirementPolicy(threshold=args.retire_threshold),
    )
    exclude = simulate_exclude_list(
        campaign.errors, ExcludeListPolicy(ce_budget=args.exclude_budget)
    )
    print(f"campaign: {campaign.n_errors} CEs (seed={args.seed}, scale={args.scale})")
    print(
        f"page retirement (k={args.retire_threshold}): avoided "
        f"{retire.errors_avoided} CEs ({retire.avoided_fraction:.1%}), "
        f"{retire.pages_retired} pages ({retire.retired_bytes / 1024:.0f} KiB)"
    )
    print(
        f"exclude list (B={args.exclude_budget}): avoided "
        f"{exclude.errors_avoided} CEs ({exclude.avoided_fraction:.1%}), "
        f"{exclude.nodes_excluded} nodes, "
        f"{exclude.node_seconds_lost / 86400.0:.0f} node-days lost"
    )
    return 0


def validate(args) -> int:
    from repro.synth import CampaignGenerator, render_validation, validate_campaign

    campaign = CampaignGenerator(seed=args.seed, scale=args.scale).generate()
    checks = validate_campaign(campaign)
    print(render_validation(checks))
    return 0 if all(c.passed for c in checks) else 1


def release_args(p: argparse.ArgumentParser) -> None:
    add_gen(p)
    p.add_argument("--out", required=True, help="release directory")
    p.add_argument(
        "--sensor-cadence", type=float, default=3600.0,
        help="environmental sampling cadence in seconds",
    )


def release(args) -> int:
    from repro.logs.release import write_release
    from repro.synth import CampaignGenerator

    campaign = CampaignGenerator(seed=args.seed, scale=args.scale).generate()
    directory = write_release(
        campaign, args.out, sensor_cadence_s=args.sensor_cadence
    )
    print(f"wrote release ({campaign.n_errors} CE records) to {directory}")
    return 0


def list_registered(args) -> int:
    from repro.experiments import list_experiments

    for exp_id, title in list_experiments(include_extensions=True):
        print(f"{exp_id:<12} {title}")
    return 0


def resolve_exp_ids(exp_ids):
    """Normalise a CLI ``--exp`` value to a concrete id list.

    ``None`` *and* an empty list mean "run all paper experiments"
    (matching the help-text default; a bare ``--exp`` no longer silently
    runs nothing).  Unknown ids raise ``SystemExit(2)`` with a friendly
    message instead of a traceback.
    """
    from repro import experiments

    if not exp_ids:
        return [e for e, _ in experiments.list_experiments()]
    known = {e for e, _ in experiments.list_experiments(include_extensions=True)}
    unknown = [e for e in exp_ids if e not in known]
    if unknown:
        error(
            f"unknown experiment id(s): {', '.join(unknown)}\n"
            f"known ids: {', '.join(sorted(known))}\n"
            "hint: 'astra-memrepro list' shows every registered experiment"
        )
        raise SystemExit(2)
    return list(exp_ids)


def make_cache(cache_dir):
    """Build a CampaignCache, rejecting a path that is not a directory."""
    from repro.run import CampaignCache

    cache = CampaignCache(cache_dir)
    if cache.directory.exists() and not cache.directory.is_dir():
        error(f"cache dir exists and is not a directory: {cache.directory}")
        raise SystemExit(2)
    return cache


def _inject_campaign(source, profile: str, inject_seed: int, policy: str):
    """Corrupt a disposable copy of the campaign and re-ingest it.

    ``source`` is either an in-memory campaign (written out first, with
    text logs so the fallback path has something to chew on) or an
    existing campaign directory (copied; the original is never touched).
    Returns ``(campaign, manifest)``.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.inject import LogCorruptor
    from repro.logs.campaign_io import (
        campaign_from_records,
        load_campaign_records,
        write_campaign,
    )

    workdir = Path(tempfile.mkdtemp(prefix="astra-inject-"))
    if isinstance(source, (str, Path)):
        shutil.copytree(source, workdir, dirs_exist_ok=True)
    else:
        write_campaign(source, workdir, text_logs=True)
    manifest = LogCorruptor(profile=profile, seed=inject_seed).corrupt_campaign(
        workdir
    )
    records = load_campaign_records(workdir, policy=policy)
    campaign = campaign_from_records(records)
    print(
        f"injected profile={manifest.profile} seed={manifest.seed} "
        f"({len(manifest.events)} fault events) into {workdir}"
    )
    return campaign, manifest


def run_experiments(
    campaign,
    exp_ids,
    jobs: int = 0,
    json_report=None,
    cache_outcome=None,
    campaign_dir=None,
    timeout=None,
    retries: int = 1,
    min_coverage: float = 0.0,
    ingest_policy: str | None = None,
    injection=None,
) -> int:
    """Run ``exp_ids`` over ``campaign``, print results and the run summary."""
    from repro import obs
    from repro.run import ExperimentRunner

    check_writable(json_report)
    exp_ids = resolve_exp_ids(exp_ids)
    runner = ExperimentRunner(
        jobs=jobs,
        campaign_dir=campaign_dir,
        timeout_s=timeout,
        retries=retries,
        min_coverage=min_coverage,
    )
    results, report = runner.run(campaign, exp_ids)
    if cache_outcome is not None:
        report.cache = cache_outcome.to_dict()
    report.ingest_policy = ingest_policy
    if injection is not None:
        report.injection = injection.to_dict()
    # Observability section (report schema v3): the metrics snapshot is
    # always cheap to carry; the trace tree rides along when tracing was
    # enabled, with any worker-process spans already merged in.
    report.metrics = obs.get_metrics().export()
    if obs.tracing_enabled():
        report.trace = obs.get_tracer().export()
    if obs.profiles():
        report.profiles = obs.profiles()
    for exp_id in exp_ids:
        if exp_id in results:
            print(results[exp_id].render())
        else:
            metric = next(m for m in report.experiments if m.exp_id == exp_id)
            print(f"== {exp_id} ==\n  ERROR: {metric.error}")
        print()
    if obs.profiles():
        print(obs.render_profiles())
        print()
    print(report.summary())
    if json_report:
        report.write(json_report)
        print(f"wrote JSON run report to {json_report}")
    return 0 if report.all_pass else 1
