"""paper-batch: regenerate the paper from a campaign delivered as text.

One repetition ingests the CE and HET text logs, coalesces faults, runs
every registered experiment including the extensions (``analyze_s``),
then replays the 32-scenario what-if grid (``whatif_s``).  Everything
runs serially in one process (``jobs=0``).
"""

from __future__ import annotations

import time
from pathlib import Path

from common import Units, digest
from tracing import NULL, ROOT, Tracer

SCALE = 0.05
#: 4 codes x scrub {0, 1, 24, 168} h x retire {0, 2}.
SCRUB_HOURS = (0.0, 1.0, 24.0, 168.0)
#: Events in the what-if reference check's downsample.
REFERENCE_EVENTS = 1500
#: The campaign whose shape-check outcomes ``expected_checks.json``
#: commits: every run re-derives them and compares (``run.py``).
CHECKS_SEED = 1


def _grid():
    from repro.mitigation.whatif import scenario_grid

    return scenario_grid(scrub_hours=SCRUB_HOURS)


def _load(fx: Path, seed: int, scale: float, tracer):
    """The campaign as the paper's pipeline sees it: text logs ingested,
    binary replacements verified.  Returns (campaign, ingest result)."""
    from repro.logs.campaign_io import CampaignRecords, campaign_from_records
    from repro.logs.het import ingest_het_log
    from repro.logs.store import load_records
    from repro.logs.syslog import ingest_ce_log
    from repro.synth.replacements import REPLACEMENT_DTYPE

    camp = fx / "camp"
    with tracer.span("logs.ingest_ce"):
        ce = ingest_ce_log(camp / "ce.log", policy="repair")
    with tracer.span("logs.ingest_het"):
        het, het_stats = ingest_het_log(camp / "het.log", policy="repair")
    with tracer.span("logs.load_records"):
        replacements = load_records(
            camp / "replacements.npy", REPLACEMENT_DTYPE, verify=True
        )
        campaign = campaign_from_records(CampaignRecords(
            errors=ce.errors, replacements=replacements, het=het,
            seed=seed, scale=scale,
            ingest={"errors": ce.stats, "het": het_stats},
        ))
    return campaign, ce


def _experiments(campaign, tracer, units=None) -> tuple[dict, dict, dict]:
    """Every registered experiment: (seconds, results, raised) by id.
    Each experiment is a unit of ``units`` when it is given."""
    from repro.experiments import registry

    exp_s: dict[str, float] = {}
    results: dict[str, object] = {}
    raised: dict[str, str] = {}
    for exp_id, _title in registry.list_experiments(include_extensions=True):
        t = time.perf_counter()
        with tracer.span(f"experiments.{exp_id}"):
            try:
                results[exp_id] = registry.run(exp_id, campaign)
            except Exception as exc:  # noqa: BLE001 -- counted, reported
                raised[exp_id] = f"{type(exc).__name__}: {exc}"
        exp_s[exp_id] = time.perf_counter() - t
        if units is not None:
            units.lap()
    return exp_s, results, raised


def _rep(fx: Path, seed: int, scale: float, tracer) -> tuple[dict, object]:
    from repro.mitigation.whatif import replay_campaign

    grid = _grid()
    # Units: load, coalesce, each experiment, the what-if grid.
    units = Units(sample=tracer is NULL)
    with tracer.span(ROOT):
        units.start()
        campaign, ce = _load(fx, seed, scale, tracer)
        units.lap()
        with tracer.span("faults.coalesce"):
            faults = campaign.faults()
        units.lap()
        exp_s, results, raised = _experiments(campaign, tracer, units)
        with tracer.span("mitigation.whatif.replay"):
            reports = replay_campaign(ce.errors, grid, seed=seed, jobs=0)
        units.lap()
    return {
        "analyze_s": sum(units.wall[:-1]),
        "whatif_s": units.wall[-1],
        "units": units.doc(),
        "exp_s": exp_s,
        "statuses": {e: r.status for e, r in results.items()},
        "raised": raised,
        "errors_sha": digest(ce.errors),
        "fastpath_ratio": ce.stats.fast_lines / max(ce.stats.seen, 1),
        "faults": int(faults.size),
        "events_replayed": int(ce.errors.size) * len(reports),
    }, ce.errors


def check_outcomes(fx: Path, seed: int, scale: float) -> dict:
    """Every experiment's shape-check outcomes on one campaign fixture:
    ``{exp_id: {check: bool}}``, or ``{exp_id: "raised ..."}``."""
    campaign, _ce = _load(fx, seed, scale, NULL)
    _exp_s, results, raised = _experiments(campaign, NULL)
    out = {e: dict(r.checks) for e, r in results.items()}
    out.update({e: f"raised {msg}" for e, msg in raised.items()})
    return out


def check_mismatches(expected: dict, got: dict) -> list[str]:
    """Differences between committed and measured check outcomes."""
    out = []
    for exp_id in sorted(set(expected) | set(got)):
        want, have = expected.get(exp_id), got.get(exp_id)
        if want == have:
            continue
        if not (isinstance(want, dict) and isinstance(have, dict)):
            out.append(f"{exp_id}: {have!r} != committed {want!r}")
            continue
        for name in sorted(set(want) | set(have)):
            if want.get(name) != have.get(name):
                out.append(f"{exp_id} check {name!r}: {have.get(name)} != "
                           f"committed {want.get(name)}")
    return out


def reference_mismatches(errors, seed: int) -> list[str]:
    """``replay_campaign`` against the one-event-at-a-time reference.

    The downsample keeps whole nodes (every error of a node subset), so
    words still accumulate the multi-bit footprints that decide
    outcomes; a random subsample would leave only single-bit words.
    """
    import numpy as np

    from repro.mitigation.reference import reference_replay_events
    from repro.mitigation.whatif import replay_campaign

    sample = errors[errors["node"] % 16 == seed % 16][:REFERENCE_EVENTS]
    grid = _grid()
    out = []
    for scenario, report in zip(grid, replay_campaign(sample, grid, seed)):
        ref = np.bincount(
            reference_replay_events(sample, scenario, seed), minlength=4
        ).tolist()
        got = [report.avoided, report.corrected, report.due, report.silent]
        if got != ref:
            out.append(f"{scenario.label}: engine {got} != reference {ref}")
    return out


def work(fx: Path, trace: bool, budget, seed: int, scale: float) -> dict:
    """Untraced: repetitions that fill the budget.  Traced: the budget's
    minimum untraced, then one traced repetition; the overhead is taken
    against the last (warm) untraced one."""
    reps = []
    while budget.more():
        rep, errors = _rep(fx, seed, scale, NULL)
        reps.append(rep)
        budget.record()
    out = {
        "reps": reps,
        "reference": reference_mismatches(errors, seed),
        "reference_events": int(min(errors.size, REFERENCE_EVENTS)),
    }
    if not trace:
        return out
    untraced = reps[-1]
    tracer = Tracer()
    traced, _ = _rep(fx, seed, scale, tracer)
    reps.append(traced)
    layers = {
        "logs.ingest_ce_s": tracer.total("logs.ingest_ce"),
        "logs.ingest_het_s": tracer.total("logs.ingest_het"),
        "logs.fastpath_ratio": traced["fastpath_ratio"],
        "faults.coalesce_s": tracer.total("faults.coalesce"),
        "faults.groups": traced["faults"],
        "mitigation.whatif.replay_s":
            tracer.total("mitigation.whatif.replay"),
        "mitigation.whatif.events_replayed": traced["events_replayed"],
    }
    for exp_id in traced["exp_s"]:
        layers[f"experiments.{exp_id}_s"] = tracer.total(
            f"experiments.{exp_id}"
        )
    out["trace"] = {
        "untraced_wall_s": untraced["analyze_s"] + untraced["whatif_s"],
        "wall_s": tracer.wall_s,
        "unattributed_s": tracer.unattributed_s,
        "table": tracer.table(),
        "layers": layers,
    }
    return out


def main() -> int:
    """Write ``expected_checks.json`` from this checkout's program.

    Run it only when a change to the experiments or the generator is
    meant to change their outcomes::

        python3 perfbench/paper_batch.py
    """
    import json

    import fixtures
    from common import BENCH_DIR, use_src

    use_src()
    fx, _ = fixtures.ensure("paper-batch", CHECKS_SEED, SCALE)
    doc = {"seed": CHECKS_SEED, "scale": SCALE,
           "checks": check_outcomes(fx, CHECKS_SEED, SCALE)}
    (BENCH_DIR / "expected_checks.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
