"""Machine-readable run reports: per-experiment metrics and JSON output.

The JSON report sits next to the text report and carries what a CI job
or dashboard needs without parsing rendered text: per-experiment wall
times, execution mode (parallel / serial / serial-fallback), record
counts, the evaluated shape checks, notes, and the campaign-cache
outcome (hit/miss and the generate/load/store timings that make cache
behaviour observable).

Schema version 2 adds the dirty-telemetry fields: per-experiment
degradation ``status`` (pass / pass-degraded / fail /
skipped-insufficient-data / error / timeout), per-family input
``coverage``, retry ``attempts`` and ``timed_out`` flags, and run-level
``ingest`` (per-family IngestStats), ``injection`` (the fault-injection
manifest, when --inject was used), ``ingest_policy`` and
``min_coverage``.

Schema version 3 adds the observability section: ``created_iso``
(ISO-8601 UTC alongside the float ``created`` epoch), ``trace`` (the
span tree, with child-process spans merged in, when ``--trace-out``
tracing was on), ``metrics`` (the counters/gauges/histograms snapshot),
and ``profiles`` (per-experiment cProfile hotspot rows under
``--profile``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

#: Bumped when the JSON layout changes incompatibly.
REPORT_SCHEMA_VERSION = 3


def series_record_count(series: dict) -> int:
    """Total number of data points across a result's series."""
    total = 0
    for values in series.values():
        if isinstance(values, np.ndarray):
            total += int(values.size)
        elif isinstance(values, (list, tuple, dict)):
            total += len(values)
        else:
            total += 1
    return total


#: Back-compat alias for the pre-v3 private name.
_series_record_count = series_record_count


@dataclass
class ExperimentMetrics:
    """Timing and outcome of one experiment within a run."""

    exp_id: str
    title: str
    wall_s: float
    #: ``"parallel"``, ``"serial"``, or ``"serial-fallback"`` (the worker
    #: failed and the experiment was re-run in the parent process).
    mode: str
    n_series: int = 0
    n_records: int = 0
    n_checks: int = 0
    checks_passed: int = 0
    checks: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    #: Degradation-aware verdict: ``pass`` / ``pass-degraded`` / ``fail``
    #: / ``skipped-insufficient-data`` / ``error`` / ``timeout``.
    status: str = "pass"
    #: Per-family input coverage for the families this experiment reads.
    coverage: dict = field(default_factory=dict)
    #: Execution attempts (1 = first try; >1 means retries happened).
    attempts: int = 1
    #: The experiment exceeded the per-experiment timeout.
    timed_out: bool = False
    #: Exception text when the experiment failed even serially.
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Ran to completion with every shape check passing."""
        return self.error is None and self.checks_passed == self.n_checks

    @classmethod
    def from_result(
        cls, result, wall_s: float, mode: str, attempts: int = 1
    ) -> "ExperimentMetrics":
        """Build metrics from an :class:`ExperimentResult`."""
        return cls(
            exp_id=result.exp_id,
            title=result.title,
            wall_s=wall_s,
            mode=mode,
            n_series=len(result.series),
            n_records=_series_record_count(result.series),
            n_checks=len(result.checks),
            checks_passed=sum(bool(v) for v in result.checks.values()),
            checks={k: bool(v) for k, v in result.checks.items()},
            notes=list(result.notes),
            status=getattr(result, "status", "pass"),
            coverage=dict(getattr(result, "coverage", {}) or {}),
            attempts=attempts,
        )

    @classmethod
    def from_error(
        cls,
        exp_id: str,
        wall_s: float,
        mode: str,
        exc,
        attempts: int = 1,
        timed_out: bool = False,
    ) -> "ExperimentMetrics":
        """Build metrics for an experiment that raised (or timed out)."""
        return cls(
            exp_id=exp_id,
            title="",
            wall_s=wall_s,
            mode=mode,
            status="timeout" if timed_out else "error",
            attempts=attempts,
            timed_out=timed_out,
            error=f"{type(exc).__name__}: {exc}",
        )


@dataclass
class RunReport:
    """One full run: campaign context, cache outcome, per-experiment metrics."""

    seed: int
    scale: float
    n_errors: int
    jobs: int
    total_wall_s: float = 0.0
    #: Time spent warming the coalesced fault stream before the fan-out.
    setup_s: float = 0.0
    #: ``CacheOutcome.to_dict()`` when a campaign cache was consulted.
    cache: dict | None = None
    #: Per-family ``IngestStats.to_dict()`` when the campaign came from
    #: stored (possibly dirty) telemetry.
    ingest: dict | None = None
    #: ``InjectionManifest.to_dict()`` when --inject corrupted the input.
    injection: dict | None = None
    #: Ingest policy the telemetry was loaded under (strict/repair/skip).
    ingest_policy: str | None = None
    #: Coverage floor below which experiments were skipped.
    min_coverage: float = 0.0
    experiments: list = field(default_factory=list)
    created: float = field(default_factory=time.time)
    #: Span tree from :mod:`repro.obs` (child-process spans merged in),
    #: populated when tracing was enabled for the run.
    trace: dict | None = None
    #: ``MetricsRegistry.export()`` snapshot taken at the end of the run.
    metrics: dict | None = None
    #: Per-experiment cProfile hotspot rows (``--profile`` only).
    profiles: dict | None = None

    @property
    def created_iso(self) -> str:
        """ISO-8601 UTC rendering of :attr:`created` (second resolution)."""
        from repro._util import iso

        return iso(self.created) + "Z"

    @property
    def all_pass(self) -> bool:
        """Every experiment completed with all shape checks passing."""
        return all(m.ok for m in self.experiments)

    @property
    def n_failed(self) -> int:
        """Experiments with an error or at least one failed check."""
        return sum(not m.ok for m in self.experiments)

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "seed": self.seed,
            "scale": self.scale,
            "n_errors": self.n_errors,
            "jobs": self.jobs,
            "total_wall_s": self.total_wall_s,
            "setup_s": self.setup_s,
            "cache": self.cache,
            "ingest": self.ingest,
            "injection": self.injection,
            "ingest_policy": self.ingest_policy,
            "min_coverage": self.min_coverage,
            "all_pass": self.all_pass,
            "n_failed": self.n_failed,
            "created": self.created,
            "created_iso": self.created_iso,
            "experiments": [asdict(m) for m in self.experiments],
            "trace": self.trace,
            "metrics": self.metrics,
            "profiles": self.profiles,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def write(self, path: str | os.PathLike) -> None:
        """Write the JSON report to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    def summary(self) -> str:
        """One-paragraph human summary for the CLI footer."""
        lines = [
            f"ran {len(self.experiments)} experiments in "
            f"{self.total_wall_s:.2f}s (jobs={self.jobs})"
        ]
        if self.cache is not None:
            state = "hit" if self.cache.get("hit") else "miss"
            lines.append(
                f"campaign cache: {state} {self.cache.get('key', '?')} "
                f"({self.cache.get('path', '?')})"
            )
        if self.injection is not None:
            lines.append(
                f"fault injection: profile={self.injection.get('profile', '?')} "
                f"seed={self.injection.get('seed', '?')} "
                f"({self.injection.get('n_events', 0)} fault events)"
            )
        if self.ingest:
            from repro.logs.ingest import coverage_line

            lines.append(coverage_line(
                {f: s.get("coverage", 1.0) for f, s in self.ingest.items()},
                self.ingest_policy,
            ))
        degraded = sum(m.status == "pass-degraded" for m in self.experiments)
        skipped = sum(
            m.status == "skipped-insufficient-data" for m in self.experiments
        )
        timeouts = sum(m.timed_out for m in self.experiments)
        if degraded:
            lines.append(f"experiments passing on degraded data: {degraded}")
        if skipped:
            lines.append(f"experiments skipped for insufficient coverage: {skipped}")
        if timeouts:
            lines.append(f"experiments timed out: {timeouts}")
        if self.n_failed:
            lines.append(f"experiments failing checks or erroring: {self.n_failed}")
        return "\n".join(lines)
