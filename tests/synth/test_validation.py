"""Tests for campaign self-validation."""

import dataclasses

import pytest

from repro.synth import CampaignGenerator
from repro.synth.validation import (
    CheckResult,
    _check,
    render_validation,
    validate_campaign,
)


class TestCheckPrimitive:
    def test_within_tolerance(self):
        assert _check("x", 100.0, 104.0, 0.05).passed

    def test_outside_tolerance(self):
        assert not _check("x", 100.0, 110.0, 0.05).passed

    def test_zero_target_exact(self):
        assert _check("x", 0.0, 0.0, 0.1).passed
        assert not _check("x", 0.0, 1.0, 0.1).passed

    def test_render(self):
        text = _check("thing", 10.0, 10.0, 0.1).render()
        assert "[ok ]" in text and "thing" in text
        text = _check("thing", 10.0, 99.0, 0.1).render()
        assert "[FAIL]" in text


class TestCampaignValidation:
    def test_small_campaign_passes(self, small_campaign):
        checks = validate_campaign(small_campaign)
        failed = [c.name for c in checks if not c.passed]
        assert not failed, failed

    @pytest.mark.slow
    def test_full_campaign_passes(self, full_campaign):
        checks = validate_campaign(full_campaign)
        failed = [c.name for c in checks if not c.passed]
        assert not failed, failed

    def test_render_summary(self, small_campaign):
        text = render_validation(validate_campaign(small_campaign))
        assert "calibration checks:" in text
        assert "total correctable errors" in text

    def test_detects_miscalibration(self, small_campaign):
        """A campaign claiming the wrong scale fails validation."""
        broken = dataclasses.replace(small_campaign, scale=small_campaign.scale * 3)
        checks = validate_campaign(broken)
        assert any(not c.passed for c in checks)

    def test_covers_every_anchor_family(self, small_campaign):
        names = " ".join(c.name for c in validate_campaign(small_campaign))
        for fragment in (
            "correctable errors",
            "nodes with",
            "single-bit",
            "errors per fault",
            "replaced",
            "DUEs",
        ):
            assert fragment in names

    @pytest.mark.slow
    def test_scale_gated_checks_present_at_full_volume(self, full_campaign):
        names = " ".join(c.name for c in validate_campaign(full_campaign))
        assert "top-2%" in names
        assert "maximum errors per fault" in names
