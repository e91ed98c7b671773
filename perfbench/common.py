"""Shared helpers: paths, the single-threaded child environment, stats.

Every module of the benchmark imports this one.  It imports nothing from
the program under test, so the orchestrator can refuse a checkout that
has no ``src/`` before touching any program code.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

#: The benchmark's own directory and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Generated fixtures and per-run scratch live here (git-ignored).
CACHE = BENCH_DIR / ".cache"

#: Environment that pins native libraries to one thread, points the
#: program's campaign cache inside the checkout and puts ``src`` first.
_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict:
    env = dict(os.environ)
    for var in _THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["ASTRA_MEMREPRO_CACHE_DIR"] = str(CACHE / "repro-cache")
    env["PYTHONHASHSEED"] = "0"
    env.pop("ASTRA_MEMREPRO_STREAM_DELAY_S", None)
    return env


def use_src() -> None:
    """Make ``import repro`` resolve to this checkout's ``src``."""
    for var, value in child_env().items():
        if var in _THREAD_VARS or var == "ASTRA_MEMREPRO_CACHE_DIR":
            os.environ[var] = value
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def cpu_s(pid: int) -> float:
    """CPU seconds a live process has used, over all its threads.

    Like ``time.process_time`` in the process itself, it leaves out the
    time the host's hypervisor ran other guests on its vCPU.
    """
    return time.clock_gettime(((~pid) << 3) | 2)  # CPUCLOCK_SCHED of pid


def digest(arr) -> str:
    """SHA-256 of a NumPy array's dtype and bytes (byte-identity gates)."""
    h = hashlib.sha256(str(arr.dtype.descr).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def median(values) -> float:
    return float(statistics.median(values))


#: CPU seconds :func:`reference` takes on the host that ``work_s`` and
#: ``setup_s`` are expressed at (a 2-vCPU x86-64 VM at a quiet moment).
REF_NOMINAL_S = 0.004
#: Reference samples taken around a cold start (``setup_s``).
SETUP_REF_SAMPLES = 20


def reference() -> float:
    """CPU seconds of a fixed pure-Python job of a few milliseconds.

    The job never touches the program, so its time moves only with the
    speed the host gives this vCPU.  That speed swings by a third over
    minutes on a shared host (a busy neighbour on the same core), and
    the CPU clock cannot leave such a slowdown out.  Sampled between the
    units of a repetition, the reference's time tracked the
    repetition's (correlation 0.97 over 44 drains of one backlog).
    """
    c = time.process_time()
    tally: dict[int, int] = {}
    for i in range(30000):
        tally[i & 1023] = tally.get(i & 1023, 0) + i
    return time.process_time() - c


def slowdown(ref_s) -> float:
    """How much slower than nominal the host ran, from reference samples."""
    return sum(ref_s) / (len(ref_s) * REF_NOMINAL_S)


class Units:
    """CPU and wall seconds of a repetition's units of work, in order,
    with a :func:`reference` sample after each unit (outside its time).

    ``start`` opens a unit, ``lap`` closes it and opens the next.  With
    ``sample=False`` (traced repetitions) no reference runs.
    """

    def __init__(self, sample: bool = True):
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self.ref: list[float] = []
        self.sample = sample
        self.start()

    def start(self) -> None:
        self._w, self._c = time.perf_counter(), time.process_time()

    def lap(self) -> None:
        self.cpu.append(time.process_time() - self._c)
        self.wall.append(time.perf_counter() - self._w)
        if self.sample:
            self.ref.append(reference())
        self.start()

    def doc(self) -> dict:
        return {"cpu": self.cpu, "ref": self.ref}


def unit_median(reps) -> float:
    """Seconds of one repetition at nominal host speed, summed from its
    units' medians.

    ``reps`` holds, per repetition, ``Units.doc()``: the CPU seconds of
    each unit of work in order (drain steps, stages, request blocks)
    and the reference samples taken between them.  Each repetition's
    units are divided by its :func:`slowdown`.  Every repetition does
    the same units, so unit ``k`` of one is the same work as unit ``k``
    of another; each unit's median over the repetitions leaves out the
    samples a busy moment hit hardest.
    """
    scaled = [[c / slowdown(r["ref"]) for c in r["cpu"]] for r in reps]
    if len({len(r) for r in scaled}) != 1:
        raise ValueError("repetitions did different units of work")
    return float(sum(statistics.median(unit) for unit in zip(*scaled)))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of a sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def fingerprint() -> dict:
    """Environment record attached to every report."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "jobs": 0,
        "threads_per_process": 1,
    }


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def write_json(path: Path, doc) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True))
    tmp.replace(path)


class Budget:
    """Decides how many repetitions of a fixed job fill ``seconds``.

    At least ``MIN_REPS`` repetitions run, so ``unit_median`` always has
    a second sample of every unit; another starts while it would end
    within half a repetition of the budget.
    """

    MIN_REPS = 2

    def __init__(self, seconds: float):
        self.seconds = float(seconds)
        self.t0 = self.last = time.perf_counter()
        self.durations: list[float] = []

    def more(self) -> bool:
        if len(self.durations) < self.MIN_REPS:
            return True
        spent = time.perf_counter() - self.t0
        return spent + 0.5 * max(self.durations) <= self.seconds

    def record(self) -> None:
        """Close the repetition that just ended."""
        now = time.perf_counter()
        self.durations.append(now - self.last)
        self.last = now
