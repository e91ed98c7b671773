"""Option groups and helpers shared by the ``astra-memrepro`` verbs.

A flag that more than one verb accepts is declared here, once; each verb
composes the groups it takes in its ``register``.  This module imports
only the standard library, so building the parser pulls in no layer of
the package.
"""

from __future__ import annotations

import argparse
import sys

POLICIES = ("strict", "repair", "skip")


def add_gen(parser: argparse.ArgumentParser) -> None:
    """``--seed``/``--scale`` of a synthesised campaign (or fleet)."""
    parser.add_argument("--seed", type=int, default=7, help="campaign RNG seed")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="volume scale; 1.0 = the paper's 4.37M CEs (per cluster "
        "for a fleet)",
    )


def add_obs(parser: argparse.ArgumentParser) -> None:
    """``--trace-out``/``--metrics-out``; written once after the verb."""
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="enable tracing and write the span tree (wall/CPU time and "
        "record counts per span) as JSON to PATH",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the metrics registry (counters, gauges, latency "
        "histograms) as JSON to PATH",
    )


def add_json(parser: argparse.ArgumentParser, what: str, note: str = "") -> None:
    """``--json``: the verb's document on stdout instead of prose."""
    parser.add_argument(
        "--json", action="store_true",
        help=f"emit {what} as JSON on stdout instead of the "
        f"human-readable report{note}",
    )


def add_jobs(parser: argparse.ArgumentParser, what: str) -> None:
    """``--jobs``: ``what`` runs in N worker processes."""
    parser.add_argument(
        "--jobs", type=int, default=0,
        help=f"{what} in N parallel worker processes (0/1 = serial; "
        "results identical to serial)",
    )


def add_ingest_policy(
    parser: argparse.ArgumentParser, default: str, scope: str = ""
) -> None:
    """``--ingest-policy`` with the verb's own ``default``."""
    parser.add_argument(
        "--ingest-policy", choices=POLICIES, default=default,
        help=f"how to treat unparseable telemetry{scope}: strict raises "
        "a typed error, repair salvages and re-sorts what it can, skip "
        f"quarantines silently (default {default})",
    )


def add_run(parser: argparse.ArgumentParser) -> None:
    """The experiment-runner group of ``analyze`` and ``experiment``."""
    add_jobs(parser, "run experiments")
    parser.add_argument(
        "--json-report", metavar="PATH", default=None,
        help="also write a machine-readable JSON run report to PATH",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="campaign cache directory (default: $ASTRA_MEMREPRO_CACHE_DIR "
        "or ~/.cache/astra-memrepro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the campaign cache entirely",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-experiment wall-time budget in the parallel path; a "
        "wedged worker is abandoned instead of stalling the run",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="re-attempts for a failing or timed-out experiment "
        "(exponential backoff; default 1)",
    )
    parser.add_argument(
        "--min-coverage", type=float, default=0.5, metavar="FRACTION",
        help="skip experiments whose input telemetry coverage is below "
        "this fraction (status skipped-insufficient-data; default 0.5)",
    )
    add_ingest_policy(parser, "strict")
    parser.add_argument(
        "--inject", choices=("light", "moderate", "hostile"), default=None,
        metavar="PROFILE",
        help="harness self-test: corrupt a copy of the campaign "
        "artifacts with the named fault-injection profile before "
        "ingesting them",
    )
    parser.add_argument(
        "--inject-seed", type=int, default=0,
        help="RNG seed for --inject (same seed = identical corruption)",
    )
    add_obs(parser)
    parser.add_argument(
        "--profile", action="store_true",
        help="wrap each experiment body in cProfile and print per-"
        "experiment hotspot tables (adds overhead; off by default)",
    )


def add_predict_gates(parser: argparse.ArgumentParser) -> None:
    """The CI gates of ``predict train`` and ``predict eval``."""
    parser.add_argument(
        "--min-auc", type=float, default=None, metavar="F",
        help="gate: exit 1 unless held-out AUC reaches F",
    )
    parser.add_argument(
        "--min-recall", type=float, default=None, metavar="F",
        help="gate: exit 1 unless held-out recall at the target FPR "
        "reaches F",
    )
    parser.add_argument(
        "--require-beats-baseline", action="store_true",
        help="gate: exit 1 unless the model beats the trivial "
        "rate-threshold baseline on held-out AUC and recall",
    )


def error(message) -> int:
    """Report a usage error on stderr; returns exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def parse_axis(raw: str, kind, flag: str) -> list:
    """Parse a comma-separated numeric CLI axis with a friendly exit 2."""
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(kind(part))
        except ValueError:
            error(
                f"invalid {flag} value {part!r} (expected "
                f"{kind.__name__}s, comma-separated)"
            )
            raise SystemExit(2) from None
    if not out:
        error(f"{flag} must name at least one value")
        raise SystemExit(2)
    return out


def check_writable(*paths) -> None:
    """Fail fast (exit 2) when an output path's directory is missing."""
    from pathlib import Path

    for path in paths:
        if not path:
            continue
        parent = Path(path).resolve().parent
        if not parent.is_dir():
            error(f"output directory does not exist: {parent} (for {path})")
            raise SystemExit(2)


def write_json(doc, path=None) -> None:
    """Write ``doc`` as sorted, indented JSON to ``path`` (or stdout)."""
    import json

    text = json.dumps(doc, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        from pathlib import Path

        Path(path).write_text(text + "\n")
