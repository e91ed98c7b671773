"""Extension: the SEC-DED vs Chipkill outcome matrix (section 2.2)."""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.mitigation.codes import PATTERNS, compare_schemes

EXP_ID = "ext-ecc"
TITLE = "EXT: SEC-DED (Astra) vs Chipkill outcome matrix"
#: Record families this experiment consumes (for coverage gating).
FAMILIES = ()


def run(campaign, trials: int = 1500, **_params) -> ExperimentResult:
    result = ExperimentResult(EXP_ID, TITLE)
    comparison = compare_schemes(trials=trials, seed=campaign.seed)
    for pattern in PATTERNS:
        for scheme in ("secded", "chipkill"):
            result.series[f"{pattern} / {scheme}"] = comparison[pattern][
                scheme
            ].summary()

    result.check(
        "both codes correct every single-bit error (the study's CEs)",
        comparison["single-bit"]["secded"].corrected == trials
        and comparison["single-bit"]["chipkill"].corrected == trials,
    )
    result.check(
        "SEC-DED turns same-device double bits into DUEs; Chipkill corrects",
        comparison["double-bit same device"]["secded"].detected == trials
        and comparison["double-bit same device"]["chipkill"].corrected == trials,
    )
    result.check(
        "a failing chip defeats SEC-DED with real miscorrection risk",
        comparison["single device failure"]["secded"].miscorrected > 0.1 * trials,
    )
    result.check(
        "Chipkill rides through a failing chip",
        comparison["single device failure"]["chipkill"].corrected == trials,
    )
    result.check(
        "Chipkill never silently corrupts under these patterns",
        all(
            comparison[p]["chipkill"].silent_fraction == 0.0 for p in PATTERNS
        ),
    )
    _scenario_sweep_checks(result, campaign)
    result.note(
        "the paper's section 3.2 remark -- multi-rank/multi-bank faults "
        "'would manifest as uncorrectable memory errors' -- is the "
        "SEC-DED column of this matrix"
    )
    return result


def _scenario_sweep_checks(result: ExperimentResult, campaign) -> None:
    """Replay the campaign through the what-if engine's strength chain.

    The invariants hold at any scale because they are set inclusions
    over the same replay, not calibrated magnitudes: a stronger code's
    corrected set contains a weaker code's, the silent-free symbol
    codes never miscorrect, and outcome accounting is conservative.
    """
    from repro.mitigation.codes import STRENGTH_ORDER
    from repro.mitigation.whatif import Scenario, replay_campaign

    scenarios = [Scenario(code=c, scrub_interval_h=24.0) for c in STRENGTH_ORDER]
    reports = replay_campaign(campaign.errors, scenarios, seed=campaign.seed)
    by_code = {r.scenario.code: r for r in reports}

    result.series["whatif sweep (scrub=24h)"] = ", ".join(
        f"{c}: due={by_code[c].due} silent={by_code[c].silent}"
        for c in STRENGTH_ORDER
    )
    result.check(
        "what-if accounting is conservative: "
        "avoided+corrected+due+silent == injected for every code",
        all(
            r.avoided + r.corrected + r.due + r.silent == r.injected
            for r in reports
        ),
    )
    ordered = [by_code[c] for c in STRENGTH_ORDER]
    result.check(
        "stronger codes never leave more events uncorrected on the "
        "same replay",
        all(
            a.uncorrected >= b.uncorrected
            for a, b in zip(ordered, ordered[1:])
        ),
    )
    result.check(
        "symbol-erasure codes are silent-free on the campaign replay",
        all(by_code[c].silent == 0 for c in STRENGTH_ORDER if c != "secded"),
    )
