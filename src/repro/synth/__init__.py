"""Calibrated synthetic telemetry standing in for the Astra production logs.

The paper's raw data (syslog CE records, BMC sensor streams, inventory
scans, HET records; about 8 GiB) is not available in this environment, so
this subpackage generates the same four log families from generative models
whose parameters are fitted to every quantitative statement in the paper.
DESIGN.md section 2 documents the substitution; :mod:`repro.synth.config`
carries the constants with their paper citations.

- :mod:`repro.synth.config` -- the :class:`PaperCalibration` constants.
- :mod:`repro.synth.population` -- the fault population: how many faults,
  of which modes, with how many errors each, placed on which nodes /
  slots / ranks / banks.
- :mod:`repro.synth.errors` -- expansion of the fault population into
  time-stamped CE records, plus the finite-buffer CE logging model.
- :mod:`repro.synth.sensors` -- the stateless sensor field (temperatures
  and DC power as deterministic functions of node, sensor and time).
- :mod:`repro.synth.replacements` -- hardware replacement events with the
  infant-mortality / upgrade / cooling-issue shape of Figure 3.
- :mod:`repro.synth.het` -- Hardware Event Tracker records including the
  pre-firmware silence and the paper's DUE rate.
- :mod:`repro.synth.campaign` -- one-call orchestration producing a
  :class:`Campaign` with everything the analyses consume.
"""

from repro.synth.config import PaperCalibration
from repro.synth.population import FaultPopulationGenerator, PLANNED_FAULT_DTYPE
from repro.synth.errors import expand_errors, apply_ce_logging
from repro.synth.sensors import SensorFieldModel
from repro.synth.replacements import ReplacementGenerator, REPLACEMENT_DTYPE
from repro.synth.het import HetGenerator, HET_DTYPE
from repro.synth.campaign import Campaign, CampaignGenerator

__all__ = [
    "PaperCalibration",
    "FaultPopulationGenerator",
    "PLANNED_FAULT_DTYPE",
    "expand_errors",
    "apply_ce_logging",
    "SensorFieldModel",
    "ReplacementGenerator",
    "REPLACEMENT_DTYPE",
    "HetGenerator",
    "HET_DTYPE",
    "Campaign",
    "CampaignGenerator",
]
