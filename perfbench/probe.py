"""Set-up probe: a cold interpreter brought to the point of work.

Usage::

    python3 perfbench/probe.py WORKLOAD FIXTURE SCRATCH

Prints ``ready`` and the process's CPU seconds so far once the
workload could start its first unit of work, then the host's slowdown
from ``common.reference`` samples, and exits.  For
stream-catchup that is the imports, ``Model.load`` and the pipeline's
construction; for paper-batch it is the imports of every layer the
batch calls.  ``run.py`` also times spawn to ``ready`` on the wall
clock.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from common import SETUP_REF_SAMPLES, reference, slowdown, use_src


def main(argv: list[str]) -> int:
    workload, fx, scratch = argv[0], Path(argv[1]), Path(argv[2])
    use_src()
    if workload == "stream-catchup":
        import stream_catchup

        stream_catchup.build(fx, scratch / "probe-state")
    else:
        import repro.experiments.registry  # noqa: F401
        import repro.logs.campaign_io  # noqa: F401
        import repro.logs.het  # noqa: F401
        import repro.logs.syslog  # noqa: F401
        import repro.mitigation.whatif  # noqa: F401
    print(f"ready {time.process_time()!r}", flush=True)
    ref = [reference() for _ in range(SETUP_REF_SAMPLES)]
    print(f"slowdown {slowdown(ref)!r}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
