"""Tests for the SEC-DED vs Chipkill pattern study."""

import pytest

from repro.mitigation.codes import (
    PATTERNS,
    EccOutcomes,
    compare_schemes,
    evaluate_chipkill,
    evaluate_secded,
    render_comparison,
)


class TestOutcomes:
    def test_accounting(self):
        o = EccOutcomes(corrected=5, detected=3, miscorrected=1, undetected=1)
        assert o.trials == 10
        assert o.silent_fraction == pytest.approx(0.2)

    def test_summary_renders(self):
        o = EccOutcomes(1, 1, 1, 1)
        assert "corrected" in o.summary()


class TestSecded:
    def test_single_bit_always_corrected(self):
        o = evaluate_secded("single-bit", trials=300, seed=0)
        assert o.corrected == o.trials

    def test_double_bit_always_detected(self):
        for pattern in ("double-bit same device", "double-bit cross device"):
            o = evaluate_secded(pattern, trials=300, seed=0)
            assert o.detected == o.trials

    def test_device_failure_frequently_dangerous(self):
        """SEC-DED against a failing chip: many DUEs, and a real
        miscorrection rate -- the cost of skipping Chipkill."""
        o = evaluate_secded("single device failure", trials=600, seed=0)
        assert o.detected > 0.5 * o.trials
        assert o.miscorrected > 0.1 * o.trials

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            evaluate_secded("nope")


class TestChipkill:
    def test_single_bit_corrected(self):
        o = evaluate_chipkill("single-bit", trials=300, seed=0)
        assert o.corrected == o.trials

    def test_same_device_double_corrected(self):
        o = evaluate_chipkill("double-bit same device", trials=300, seed=0)
        assert o.corrected == o.trials

    def test_device_failure_fully_corrected(self):
        o = evaluate_chipkill("single device failure", trials=300, seed=0)
        assert o.corrected == o.trials
        assert o.silent_fraction == 0.0

    def test_double_device_always_detected(self):
        o = evaluate_chipkill("double device failure", trials=300, seed=0)
        assert o.detected == o.trials

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            evaluate_chipkill("nope")


class TestComparison:
    def test_all_patterns_covered(self):
        res = compare_schemes(trials=100, seed=1)
        assert set(res) == set(PATTERNS)

    def test_chipkill_never_silently_corrupts(self):
        res = compare_schemes(trials=200, seed=1)
        for pattern in PATTERNS:
            assert res[pattern]["chipkill"].silent_fraction == 0.0

    def test_render(self):
        res = compare_schemes(trials=50, seed=2)
        text = render_comparison(res)
        assert "secded" in text and "chipkill" in text
