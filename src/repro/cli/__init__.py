"""Command-line interface: ``astra-memrepro``.

Verbs:

- ``synth``      generate a campaign and write it to a directory;
- ``analyze``    run experiments over a stored campaign directory;
- ``experiment`` generate in memory and run one (or all) experiments;
- ``stream``     tail a campaign's text logs incrementally (live faults,
  alerts, checkpoint/resume; see DESIGN.md section 10);
- ``fleet``      synthesise and analyse a fleet of Astra-sized clusters
  through the sharded campaign engine (DESIGN.md section 11);
- ``query``      answer campaign-history queries from incrementally
  maintained rollup cubes, with zero log rescan (DESIGN.md section 14);
- ``whatif``     replay the campaign under counterfactual ECC policies;
- ``predict``    train, evaluate and apply the failure predictor;
- ``serve``      serve warm predictions, alerts and queries over HTTP;
- ``mitigate``, ``validate``, ``release``, ``list``.

Examples::

    astra-memrepro synth --scale 0.05 --out /tmp/camp --text-logs
    astra-memrepro stream /tmp/camp --rollups-dir /tmp/camp/rollups
    astra-memrepro query /tmp/camp --select errors --group-by rack,bucket
    astra-memrepro query /tmp/camp --build --select faults --group-by mode \
        --check --json
    astra-memrepro fleet --shard-dir /tmp/fleet --clusters 4 --scale 0.02 \
        --jobs 4 --check --fleet-report fleet.json
    astra-memrepro analyze /tmp/camp --exp fig05 fig12
    astra-memrepro stream /tmp/camp --follow --checkpoint-dir /tmp/ckpt \
        --alerts-out /tmp/alerts.jsonl
    astra-memrepro experiment --all --jobs 4 --json-report run.json
    astra-memrepro experiment --all --scale 0.05 --inject moderate \
        --ingest-policy repair --min-coverage 0.5 --json-report dirty.json

Every verb is one row of :data:`VERBS`: the parser, the unknown-command
check and dispatch all come from that table.  Option groups shared
between verbs live in :mod:`repro.cli._options`.  :func:`main` owns the
two things every verb shares: ``--trace-out``/``--metrics-out`` are
written once after the verb, whatever its exit code, and any
:class:`~repro.errors.ReproError` becomes ``error: <message>`` and exit 2.

Repeated ``experiment``/``analyze`` invocations reuse the campaign
cache (``--cache-dir``, default ``~/.cache/astra-memrepro`` or
``$ASTRA_MEMREPRO_CACHE_DIR``); ``--no-cache`` disables it.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import campaign, fleet, predict, query, serve, stream, whatif
from repro.cli._options import add_gen, check_writable, error
from repro.errors import ReproError

#: verb -> (help, add its arguments, run it).  Row order is the order of
#: ``--help`` and of the unknown-command hint.
VERBS = {
    "synth": (
        "generate and store a campaign", campaign.synth_args, campaign.synth,
    ),
    "analyze": (
        "run experiments on a stored campaign",
        campaign.analyze_args, campaign.analyze,
    ),
    "experiment": (
        "generate in memory and run experiments",
        campaign.experiment_args, campaign.experiment,
    ),
    "stream": (
        "tail a campaign's text logs incrementally (live faults, alerts, "
        "checkpoint/resume)",
        stream.register, stream.run,
    ),
    "fleet": (
        "synthesise and analyse a fleet of Astra-sized clusters through "
        "the sharded campaign engine",
        fleet.register, fleet.run,
    ),
    "query": (
        "answer campaign-history queries from rollup cubes with zero log "
        "rescan",
        query.register, query.run,
    ),
    "mitigate": (
        "run the mitigation simulators on a campaign",
        campaign.mitigate_args, campaign.mitigate,
    ),
    "whatif": (
        "counterfactual ECC replay: codes x scrub x retirement grids",
        whatif.register, whatif.run,
    ),
    "predict": (
        "train, evaluate and apply the online failure predictor",
        predict.register, predict.run,
    ),
    "serve": (
        "serve warm predictions, alerts and rollup queries over HTTP "
        "(asyncio, stdlib only)",
        serve.register, serve.run,
    ),
    "validate": (
        "check a campaign against the calibration targets",
        add_gen, campaign.validate,
    ),
    "release": (
        "write the section 2.4-shaped public data release",
        campaign.release_args, campaign.release,
    ),
    "list": (
        "list registered experiments", lambda p: None, campaign.list_registered,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="astra-memrepro",
        description="Reproduction of the HPDC'22 Astra memory-failure study.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, register, _) in VERBS.items():
        register(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Friendly unknown-subcommand handling (same convention as unknown
    # experiment ids): a clear error plus the known vocabulary, exit 2,
    # instead of argparse's bare usage dump.
    first = next((a for a in argv if not a.startswith("-")), None)
    if first is not None and first not in VERBS:
        return error(
            f"unknown command {first!r}\n"
            f"known commands: {', '.join(VERBS)}\n"
            "hint: 'astra-memrepro --help' shows usage"
        )
    args = build_parser().parse_args(argv)

    from repro import obs

    # Configure observability before any campaign load or generation so
    # ingest/cache spans land in the trace.
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    obs.configure(
        trace=bool(trace_out), profile=bool(getattr(args, "profile", False))
    )
    check_writable(trace_out, metrics_out)
    try:
        try:
            return VERBS[args.command][2](args)
        except ReproError as exc:
            # Typed operational failures (strict-policy ingest, foreign
            # checkpoints, rotated logs, bad models, rollups, queries or
            # fleet manifests) carry their own hints: no traceback.
            return error(exc)
    finally:
        # A failed run keeps its trace: that is when it is wanted most.
        for path, write, what in (
            (trace_out, obs.write_trace, "trace"),
            (metrics_out, obs.write_metrics, "metrics"),
        ):
            if path:
                write(path)
                if not getattr(args, "json", False):
                    print(f"wrote {what} to {path}")
