"""Fresh-process entry for one workload's measured repetitions.

Usage::

    python3 perfbench/worker.py WORKLOAD FIXTURE SCRATCH OUT.json \\
        SECONDS TRACE SEED SCALE

``run.py`` starts it with native thread pools pinned to one thread, so
each workload runs single-threaded in an interpreter of its own.  The
result (repetition timings, gate inputs, the traced layer table) goes
to ``OUT.json``; the process's peak RSS is added as ``rss_mb``.
``WORKLOAD`` ``serve-replay`` is the in-process replay of the
serve-mixed request sequence it reads from ``SCRATCH/replay_paths.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from common import Budget, use_src, vm_hwm_mb, write_json


def main(argv: list[str]) -> int:
    workload, fx, scratch, out, seconds, trace, seed, scale = argv
    fx, scratch, out = Path(fx), Path(scratch), Path(out)
    trace, seed = trace == "1", int(seed)
    use_src()
    # A traced run measures the two-repetition minimum untraced, for the
    # tracing overhead, then one traced repetition.
    budget = Budget(0.0 if trace else float(seconds))
    if workload == "stream-catchup":
        import stream_catchup

        result = stream_catchup.work(fx, scratch, trace, budget)
    elif workload == "paper-batch":
        import paper_batch

        result = paper_batch.work(fx, trace, budget, seed, float(scale))
    elif workload == "serve-replay":
        import serve_mixed

        result = serve_mixed.replay_work(
            fx, scratch / "replay_paths.json", trace, budget
        )
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    result["rss_mb"] = vm_hwm_mb()
    write_json(out, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
