"""The statistical analyses the paper applies to its telemetry.

- :mod:`repro.analysis.counts` -- per-structure (socket / bank / column /
  rank / slot / node) error and fault aggregation (Figures 6, 7).
- :mod:`repro.analysis.distributions` -- per-node histograms, empirical
  CDFs, concentration shares, errors-per-fault statistics (Figures 4b,
  5, 8).
- :mod:`repro.analysis.powerlaw` -- discrete power-law fitting in the
  style of Clauset, Shalizi & Newman (the paper cites [3] for its
  power-law observations).
- :mod:`repro.analysis.uniformity` -- chi-square uniformity tests and
  spread measures backing the "fairly uniform" claims of section 3.2.
- :mod:`repro.analysis.trends` -- monthly series and linear fits
  (Figures 4a, 9).
- :mod:`repro.analysis.temperature` -- windowed pre-error temperature
  means and Schroeder-style decile analysis (Figures 9, 13).
- :mod:`repro.analysis.utilization` -- hot/cold splits of CE rate versus
  node power (Figure 14).
- :mod:`repro.analysis.positional` -- rack-region and per-rack analysis
  (Figures 10, 11, 12).
- :mod:`repro.analysis.replacements` -- Table 1 and Figure 3.
- :mod:`repro.analysis.ue` -- DUE rates and FIT (section 3.5, Figure 15).

Extensions beyond the paper's own figures:

- :mod:`repro.analysis.survival` -- Weibull/Kaplan-Meier treatment of
  the replacement data (quantifying section 3.1's infant mortality).
"""

from repro.analysis import (
    bursts,
    comparison,
    counts,
    distributions,
    positional,
    powerlaw,
    rates,
    replacements,
    survival,
    temperature,
    trends,
    ue,
    uniformity,
    utilization,
)

__all__ = [
    "bursts",
    "comparison",
    "counts",
    "distributions",
    "positional",
    "powerlaw",
    "rates",
    "replacements",
    "survival",
    "temperature",
    "trends",
    "ue",
    "uniformity",
    "utilization",
]
