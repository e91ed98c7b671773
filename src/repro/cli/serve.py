"""``serve``: warm predictions, alerts and rollup queries over HTTP.

Takes no ``--trace-out``: the server runs until stopped, and its
``/v1/stats`` endpoint reports its serving counters live.
"""

from __future__ import annotations

import argparse

from repro.cli._options import add_ingest_policy, add_jobs, error


def register(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--model", required=True, metavar="PATH",
        help="model artifact from 'predict train' (CRC-guarded; a "
        "damaged file is refused before the port binds)",
    )
    p.add_argument(
        "directory", nargs="?", default=None,
        help="campaign directory to fold into the warm risk table "
        "(omit for an empty table)",
    )
    p.add_argument(
        "--rollups", metavar="DIR", default=None,
        help="rollup snapshot directory for /v1/query "
        "(default: DIRECTORY/rollups when present)",
    )
    p.add_argument(
        "--alerts", metavar="PATH", default=None,
        help="alerts JSONL (e.g. from stream --alerts-out) to tail "
        "incrementally for /v1/alerts",
    )
    p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    p.add_argument(
        "--port", type=int, default=0,
        help="TCP port; 0 binds an ephemeral port (default)",
    )
    p.add_argument(
        "--ready-file", metavar="PATH", default=None,
        help="write {host, port, pid, model_id} as JSON once accepting "
        "(how tests and the bench discover an ephemeral port)",
    )
    add_ingest_policy(p, "repair")
    add_jobs(p, "fold the campaign at startup")


def run(args) -> int:
    """Warm state, then the asyncio HTTP front door."""
    from repro.serve import ServeState, run as serve_run

    try:
        state = ServeState.build(
            args.model,
            directory=args.directory,
            rollups_dir=args.rollups,
            alerts_path=args.alerts,
            policy=args.ingest_policy,
            jobs=args.jobs,
        )
    except OSError as exc:
        return error(exc)
    serve_run(state, host=args.host, port=args.port, ready_file=args.ready_file)
    return 0
