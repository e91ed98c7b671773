"""Ablation: SEC-DED (Astra's choice) versus Chipkill.

Section 2.2 notes Astra uses SEC-DED to save cost and power; section 3.2
notes the consequence (multi-bit device faults become DUEs).  This bench
injects physically motivated error patterns through both real codecs and
prints the outcome mix.
"""

from repro.mitigation.codes import (
    PATTERNS,
    compare_schemes,
    render_comparison,
)


def test_ecc_tradeoff(benchmark, report_sink):
    results = benchmark.pedantic(
        lambda: compare_schemes(trials=2000, seed=7), rounds=1, iterations=1
    )
    report_sink(
        "ablation_ecc",
        "== ablation: SEC-DED vs Chipkill ==\n\n" + render_comparison(results),
    )

    for pattern in PATTERNS:
        secded = results[pattern]["secded"]
        chipkill = results[pattern]["chipkill"]
        # Chipkill never silently corrupts under these patterns.
        assert chipkill.silent_fraction == 0.0
    # Both correct every single-bit error (the 4.37M CEs of the study).
    assert results["single-bit"]["secded"].corrected == 2000
    assert results["single-bit"]["chipkill"].corrected == 2000
    # The trade-off: a failing chip defeats SEC-DED but not Chipkill.
    chip = results["single device failure"]
    assert chip["chipkill"].corrected == 2000
    assert chip["secded"].corrected < 100
    assert chip["secded"].miscorrected > 200  # silent corruption risk
