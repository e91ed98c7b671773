"""serve-mixed: ``repro serve`` as a subprocess under an open-loop mix.

The server folds a seeded campaign, its rollup snapshot, a model and an
alerts JSONL.  One generator process (``loadgen.py``) drives it over at
most ``nproc`` keep-alive connections:

1. ``warm`` (closed loop): the hot query set, so the server's 4096-entry
   query memo holds it before cold queries arrive;
2. ``nominal`` (open loop, seeded Poisson arrivals at ``NOMINAL_RPS``):
   the mix behind the client-side latency percentiles, while the
   recorded alerts are appended to the JSONL;
3. traced runs only: a fixed rate ladder for ``serve.max_rps``.

Cold ``/v1/query`` requests come from a valid query space far larger
than the memo (rack x slot x time window), so ``query.engine.execute``
really runs.

``work_s`` comes from a fresh single-threaded process that replays the
same sequence, followed by ``WORK_PER_SECOND`` more requests of the mix,
through the public ``Server.handle``: the server's request-path cost,
free of the client-side scheduling jitter a 2-vCPU host adds to every
socket round trip.  The replay repeats, each time on a freshly built
state, until the run's seconds are spent; ``work_s`` is the CPU time of
one replay, summed from each block's median over the repetitions
(``common.unit_median``), because host speed swings by a third over
ten-second spans.  The traced run adds a traced replay that splits
handle time by endpoint.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import parse_qsl, urlencode, urlsplit

from common import (
    BENCH_DIR,
    SETUP_REF_SAMPLES,
    Units,
    child_env,
    cpu_s,
    median,
    nproc,
    percentile,
    reference,
    slowdown,
    vm_hwm_mb,
)
from tracing import NULL, ROOT, Tracer

SCALE = 0.05
#: Open-loop rate of the nominal phase (requests/s) and its share of the
#: run's seconds.  Two closed-loop connections get ~16k req/s on the
#: lookup kinds and ~6.7k req/s on cold queries on a 2-vCPU x86-64 VM,
#: so ``MIX`` saturates near 1 / (0.9/16000 + 0.1/6700) = 14k req/s.  A
#: tenth of that keeps queueing (rho/(1-rho) = 0.11 of service time in
#: M/M/1) small next to service, so the percentiles measure the server.
NOMINAL_RPS = 1400
NOMINAL_SHARE = 0.25
#: Requests per run-second the replay adds after the live sequence.
WORK_PER_SECOND = 2500
#: Equal blocks of the replay, timed one by one: the units that
#: ``unit_median`` matches across repetitions (~0.08 s each).
REPLAY_BLOCKS = 50
#: Fixed rate ladder (requests/s) for ``serve.max_rps``; each rung lasts
#: ``RUNG_SECONDS`` and passes when p99 <= ``P99_LIMIT_MS`` with no
#: failure and no growing backlog.
LADDER_RPS = (2000, 4000, 6000, 8000, 10000, 12000, 16000)
RUNG_SECONDS = 1.5
P99_LIMIT_MS = 10.0
SETUP_REPS = 3
#: ``/v1/query`` replies per phase checked against the full-rescan oracle
#: (each check rescans the whole campaign); every ``/v1/risk`` is checked.
ORACLE_QUERIES = 25
#: Entries the server's query memo holds (``ServeState.query``).
MEMO_ENTRIES = 4096
#: Public ``ServeState`` lookups behind each endpoint (traced replay).
STATE_METHODS = ("health", "risk", "top", "alerts_since", "query", "stats")
READY_TIMEOUT_S = 60.0

#: (kind, weight) of the request mix, in slots of a ten-slot cycle.  The
#: first eight are ``benchmarks/bench_serve.py``'s ``_PATH_MIX``: 4 risk,
#: 1 risk/top, 1 stats, 1 (hot) query, 1 healthz.  The two kinds this
#: benchmark adds, cold queries and alert tails, get one slot each, as
#: every kind but risk has there.
MIX = tuple((kind, slots / 10) for kind, slots in (
    ("risk", 4), ("risk_top", 1), ("stats", 1), ("hot_query", 1),
    ("healthz", 1), ("cold_query", 1), ("alerts", 1),
))
#: Queries answered from the memo after the warm phase.
HOT_QUERIES = [
    {"select": "errors", "group_by": "rack", "top_k": "5"},
    {"select": "errors", "group_by": "slot"},
    {"select": "errors", "group_by": "bitpos"},
    {"select": "errors", "group_by": "bank"},
    {"select": "errors", "group_by": "rack,slot", "top_k": "10"},
    {"select": "faults", "group_by": "mode"},
    {"select": "faults", "group_by": "rack,mode", "top_k": "10"},
    {"select": "faults", "group_by": "mode,bucket", "top_k": "20"},
    {"select": "mode_errors", "group_by": "mode"},
    {"select": "errors", "group_by": "node", "top_k": "25"},
] + [
    {"select": "errors", "group_by": "slot", "rack": str(r)}
    for r in range(0, 36, 3)
]

ENDPOINTS = {
    "/healthz": "healthz", "/v1/risk": "risk", "/v1/risk/top": "risk_top",
    "/v1/alerts": "alerts", "/v1/query": "query", "/v1/stats": "stats",
}


def endpoint(target: str) -> str:
    return ENDPOINTS.get(target.split("?", 1)[0], "unknown")


# -- request sequences --------------------------------------------------
class Mix:
    """Seeded request paths drawn from the mix over one campaign."""

    def __init__(self, rng, n_nodes: int, t_lo: float, t_hi: float,
                 n_alerts: int):
        self.rng = rng
        self.n_nodes = n_nodes
        self.t_lo, self.t_hi = t_lo, t_hi
        self.n_alerts = n_alerts
        self.kinds = [k for k, _ in MIX]
        self.weights = [w for _, w in MIX]

    def cold_params(self) -> dict:
        """One query from rack x slot x day window (~10^6 combinations)."""
        rng = self.rng
        day = 86400.0
        span_days = max(int((self.t_hi - self.t_lo) // day), 1)
        since = self.t_lo + day * int(rng.integers(0, span_days))
        until = since + day * int(rng.choice((7, 30, 90)))
        return {
            "select": "errors", "group_by": "bucket",
            "rack": str(int(rng.integers(0, 36))),
            "slot": str(int(rng.integers(0, 16))),
            "since": f"{since:.0f}", "until": f"{until:.0f}",
        }

    def path(self, kind: str) -> str:
        rng = self.rng
        if kind == "risk":
            return f"/v1/risk?node={int(rng.integers(0, self.n_nodes))}"
        if kind == "risk_top":
            return f"/v1/risk/top?k={int(rng.choice((5, 10, 50)))}"
        if kind == "healthz":
            return "/healthz"
        if kind == "stats":
            return "/v1/stats"
        if kind == "alerts":
            since = int(rng.integers(-1, max(self.n_alerts, 1)))
            return f"/v1/alerts?since={since}&limit=50"
        if kind == "hot_query":
            params = HOT_QUERIES[int(rng.integers(0, len(HOT_QUERIES)))]
        else:
            params = self.cold_params()
        return "/v1/query?" + urlencode(params)

    def paths(self, n: int) -> list[str]:
        kinds = self.rng.choice(len(self.kinds), size=n, p=self.weights)
        return [self.path(self.kinds[k]) for k in kinds.tolist()]

    def gaps(self, n: int, rate: float) -> list[float]:
        return self.rng.exponential(1.0 / rate, size=n).tolist()


def query_from_params(params: dict):
    """The ``Query`` a ``/v1/query`` target asks for (oracle side)."""
    from repro.query import Query

    params = dict(params)
    where: dict = {}
    for key in ("rack", "slot", "node"):
        if key in params:
            where[key] = [int(v) for v in params.pop(key).split(",")]
    for key in ("since", "until"):
        if key in params:
            where[key] = float(params.pop(key))
    top_k = params.pop("top_k", None)
    return Query(
        params.pop("select"),
        group_by=tuple(d for d in params.pop("group_by", "").split(",") if d),
        where=where,
        top_k=None if top_k is None else int(top_k),
    )


def windowed_latency_ms(phase: dict, width: float = 1.0):
    """Latency percentiles p50/p90/p99 (ms) as medians over ``width``-second
    windows (by due time) of each window's percentile, and the window
    count.

    At the nominal rate a window holds ~1400 requests, so its p99 has
    ~14 samples beyond it; taking the median across windows keeps one
    stalled second (a collector pause, a host hiccup) from setting the
    run's figure.
    """
    windows: dict[int, list[float]] = {}
    for due, lat in zip(phase["due_s"], phase["latency_s"]):
        windows.setdefault(int(due // width), []).append(lat * 1e3)
    full = [w for w in windows.values() if len(w) >= 100] or [
        [x * 1e3 for x in phase["latency_s"]]
    ]
    return ({q: median([percentile(w, q) for w in full])
             for q in (50, 90, 99)}, len(full))


# -- the server subprocess ----------------------------------------------
def _spawn(fx: Path, scratch: Path, alerts: Path):
    ready = scratch / "ready.json"
    ready.unlink(missing_ok=True)
    # The server cannot sample the host's speed itself: sample it here,
    # half before the spawn and half once the server is ready.
    ref = [reference() for _ in range(SETUP_REF_SAMPLES // 2)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--model",
         str(fx / "model.json"), str(fx / "camp"), "--alerts", str(alerts),
         "--ready-file", str(ready)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=child_env(),
    )
    while not ready.exists():
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with {proc.returncode}")
        if time.perf_counter() - t0 > READY_TIMEOUT_S:
            _stop(proc)
            raise RuntimeError("server not ready in time")
        time.sleep(0.002)
    wall = time.perf_counter() - t0
    cpu = cpu_s(proc.pid)
    ref += [reference() for _ in range(SETUP_REF_SAMPLES // 2)]
    return proc, (cpu / slowdown(ref), wall), json.loads(ready.read_text())


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# -- orchestration --------------------------------------------------------
def run(fx: Path, scratch: Path, seconds: float, trace: bool, seed: int,
        replay) -> dict:
    """Drive the live server, then ``replay()`` the request sequence this
    writes to ``scratch/replay_paths.json`` in a worker process."""
    import numpy as np

    from repro.faults.types import ERROR_DTYPE
    from repro.logs.store import load_records
    from repro.predict.model import Model

    errors = load_records(fx / "camp" / "errors.npy", ERROR_DTYPE)
    recorded = (fx / "alerts_recorded.jsonl").read_bytes().splitlines(True)
    half = len(recorded) // 2
    alerts = scratch / "alerts.jsonl"
    alerts.write_bytes(b"".join(recorded[:half]))
    (scratch / "alerts_pending.jsonl").write_bytes(b"".join(recorded[half:]))

    mix = Mix(
        np.random.default_rng(seed),
        Model.load(fx / "model.json").geometry["n_nodes"],
        float(errors["time"].min()), float(errors["time"].max()),
        len(recorded),
    )
    conns = nproc()
    warm = ["/v1/query?" + urlencode(q) for q in HOT_QUERIES]
    n_nominal = max(int(NOMINAL_RPS * NOMINAL_SHARE * seconds), 50)
    phases = [
        {"name": "warm", "kind": "closed", "paths": warm},
        {"name": "nominal", "kind": "open", "paths": mix.paths(n_nominal),
         "gaps": mix.gaps(n_nominal, NOMINAL_RPS), "append_alerts": True},
    ]
    replay_paths = [p for ph in phases for p in ph["paths"]] + mix.paths(
        max(int(WORK_PER_SECOND * seconds), 50)
    )
    if trace:
        for rate in LADDER_RPS:
            n = int(rate * RUNG_SECONDS)
            phases.append({"name": f"rung-{rate}", "kind": "open",
                           "paths": mix.paths(n), "gaps": mix.gaps(n, rate)})
    for ph in phases[:2]:
        queries = [i for i, p in enumerate(ph["paths"])
                   if endpoint(p) == "query"]
        ph["keep"] = sorted(
            [i for i, p in enumerate(ph["paths"]) if endpoint(p) == "risk"]
            + queries[::max(len(queries) // ORACLE_QUERIES, 1)]
        )

    setup_s, setup_wall_s = [], []
    for rep in range(SETUP_REPS):
        proc, (ready_cpu, ready_wall), addr = _spawn(fx, scratch, alerts)
        setup_s.append(ready_cpu)
        setup_wall_s.append(ready_wall)
        if rep < SETUP_REPS - 1:
            _stop(proc)
    try:
        spec = scratch / "loadgen_spec.json"
        spec.write_text(json.dumps({
            "host": addr["host"], "port": addr["port"],
            "connections": conns, "phases": phases,
            "alerts_path": str(alerts),
            "alerts_pending": str(scratch / "alerts_pending.jsonl"),
        }))
        out = scratch / "loadgen_out.json"
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "loadgen.py"), str(spec),
             str(out)],
            env=child_env(), check=True, timeout=120,
        )
        server_rss = vm_hwm_mb(proc.pid)
    finally:
        _stop(proc)
    measured = json.loads(out.read_text())["phases"]
    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "rss_mb": server_rss,
        "connections": conns,
        "phases": {ph["name"]: ph for ph in measured},
    }
    keep, full_at = replay_samples(replay_paths)
    (scratch / "replay_paths.json").write_text(
        json.dumps({"paths": replay_paths, "keep": keep})
    )
    result["replay"] = replay()
    result["replay"]["memo_full_at"] = full_at
    result["failures"] = _oracle(
        fx, phases + [{"name": "replay", "paths": replay_paths}],
        measured + [{"bodies": result["replay"]["bodies"]}],
    )
    if trace:
        result["trace"] = result["replay"]["trace"]
        result["trace"]["layers"].update(_live_layers(result))
    return result


def _oracle(fx: Path, phases: list[dict], measured: list[dict]) -> list[str]:
    """Kept replies against an in-process ServeState and the rescan."""
    import numpy as np

    from repro.faults.types import ERROR_DTYPE
    from repro.logs.store import load_records
    from repro.query import answers_equal, recompute
    from repro.serve import ServeState

    state = ServeState.build(fx / "model.json", fx / "camp")
    errors = load_records(fx / "camp" / "errors.npy", ERROR_DTYPE)
    faults = np.load(fx / "faults.npy")
    config = state.rollups.config
    failures = []
    for spec, got in zip(phases, measured):
        for i, doc in got["bodies"].items():
            target = spec["paths"][int(i)]
            if doc is None:
                continue  # already counted as a failed request
            params = dict(parse_qsl(urlsplit(target).query))
            if endpoint(target) == "risk":
                want = json.loads(json.dumps(state.risk(int(params["node"]))))
                ok = doc == want
            else:
                want = recompute(query_from_params(params), config,
                                 errors=errors, faults=faults)
                ok = answers_equal(doc["answer"], json.loads(json.dumps(want)))
            if not ok:
                failures.append(f"{spec['name']}#{i} {target}: reply "
                                "differs from the oracle")
    return failures


def _live_layers(result: dict) -> dict:
    nominal = result["phases"]["nominal"]
    service = nominal["service_s"]
    max_rps = 0
    result["ladder"] = []
    for rate in LADDER_RPS:
        rung = result["phases"][f"rung-{rate}"]
        lat = rung["latency_s"]
        # A growing backlog shows as a late tail slower than the limit.
        tail = lat[-max(len(lat) // 10, 1):]
        p99_ms = percentile(lat, 99) * 1e3 if lat else float("inf")
        tail_ms = median(tail) * 1e3 if lat else float("inf")
        ok = (not rung["failed"] and p99_ms <= P99_LIMIT_MS
              and tail_ms <= P99_LIMIT_MS)
        result["ladder"].append([rate, p99_ms, tail_ms, ok])
        if not ok:
            break
        max_rps = rate
    return {
        "serve.transport_ms": (sum(service) / max(len(service), 1)
                               - result["trace"]["handle_mean_s"]) * 1e3,
        "serve.gen_late_ms": percentile(nominal["late_s"], 99) * 1e3,
        "serve.max_rps": max_rps,
    }


# -- the in-process replay (runs in a fresh worker process) ---------------
def replay_samples(paths: list[str]) -> tuple[list[int], int | None]:
    """Indices of replay ``/v1/query`` requests to check against the
    rescan oracle, and the index from which the server's memo is full.

    The memo keeps the first ``MEMO_ENTRIES`` distinct queries and never
    evicts, so once that many were seen every new query is answered by
    ``query.engine.execute``.  The sample is drawn from those (the
    memo-full regime); when the sequence never fills the memo (tiny
    runs), from the distinct queries of its last tenth.
    """
    seen: set[str] = set()
    full_at = None
    fresh = []
    for i, path in enumerate(paths):
        if endpoint(path) != "query" or path in seen:
            continue
        if full_at is None and len(seen) >= MEMO_ENTRIES:
            full_at = i
        seen.add(path)
        if full_at is not None or i >= len(paths) - len(paths) // 10:
            fresh.append(i)
    return fresh[::max(len(fresh) // ORACLE_QUERIES, 1)], full_at


def _replay(fx: Path, paths: list[str], keep: set, tracer) -> dict:
    """Build the serving state, then answer ``paths`` through
    ``Server.handle``; each of ``REPLAY_BLOCKS`` equal blocks of
    requests is a unit.  Non-200 replies
    and the bodies of the ``keep`` indices are collected for the gate."""
    from repro.serve import ServeState
    from repro.serve.server import Server

    size = max(len(paths) // REPLAY_BLOCKS, 1)
    non200 = []
    bodies = {}
    t0 = time.perf_counter()
    with tracer.span(ROOT):
        with tracer.span("serve.state.build"):
            state = ServeState.build(
                fx / "model.json", fx / "camp",
                alerts_path=fx / "alerts_recorded.jsonl",
            )
        server = Server(state)
        build_s = time.perf_counter() - t0
        units = Units(sample=tracer is NULL)
        for i, path in enumerate(paths):
            status, _reason, body = server.handle("GET", path)
            if status != 200:
                non200.append([i, status])
            if i in keep:
                bodies[i] = body
            if (i + 1) % size == 0:
                units.lap()
    return {"wall_s": build_s + sum(units.wall),
            "work_s": sum(units.cpu),
            "units": units.doc(),
            "non200": non200,
            "bodies": {i: json.loads(b) for i, b in bodies.items()}}


def replay_work(fx: Path, paths_file: Path, trace: bool, budget) -> dict:
    """Untraced: replays that fill the budget.  Traced: the budget's
    minimum untraced, then one traced replay; the overhead is taken
    against the last (warm) untraced one."""
    import repro.query
    import repro.serve.server
    from repro.serve import ServeState
    from repro.serve.server import Server

    doc = json.loads(paths_file.read_text())
    paths, keep = doc["paths"], set(doc["keep"])
    reps = []
    while budget.more():
        reps.append(_replay(fx, paths, keep, NULL))
        budget.record()
    out = {
        "requests": len(paths),
        "work_s": [r["work_s"] for r in reps],
        "units": [r["units"] for r in reps],
        "non200": [x for r in reps for x in r["non200"]],
        "bodies": reps[0]["bodies"],
    }
    if not trace:
        return out
    # ``Server.handle`` is a catch-all around the target parsing, the
    # state's lookups and the reply encoding; its own time (routing)
    # counts as unattributed.
    tracer = Tracer(catch_all=[f"serve.handle.{ep}"
                               for ep in ENDPOINTS.values()])
    tracer.wrap(Server, "handle",
                lambda _self, _m, target: "serve.handle." + endpoint(target))
    for method in STATE_METHODS:
        tracer.wrap(ServeState, method, f"serve.state.{method}")
    for parse in ("urlsplit", "parse_qsl"):
        tracer.wrap(repro.serve.server, parse, "serve.parse")
    tracer.wrap(repro.serve.server, "_json_bytes", "serve.encode")
    tracer.wrap(repro.query, "execute", "query.engine.execute")
    try:
        traced = _replay(fx, paths, keep, tracer)
    finally:
        tracer.unwrap()
    out["non200"] += traced["non200"]
    out["work_s"].append(traced["work_s"])
    handle_s = {ep: tracer.total(f"serve.handle.{ep}")
                for ep in ENDPOINTS.values()}
    handled = sum(tracer.calls(f"serve.handle.{ep}")
                  for ep in ENDPOINTS.values())
    queries = tracer.calls("serve.handle.query")
    executes = tracer.calls("query.engine.execute")
    layers = {
        "serve.state.build_s": tracer.total("serve.state.build"),
        "query.engine.execute_s": tracer.total("query.engine.execute"),
        "query.engine.executes": executes,
        "serve.query_memo_hit_ratio": 1.0 - executes / max(queries, 1),
    }
    layers.update({f"serve.handle.{ep}_s": s for ep, s in handle_s.items()})
    out["trace"] = {
        "untraced_wall_s": reps[-1]["wall_s"],
        "wall_s": tracer.wall_s,
        "unattributed_s": tracer.unattributed_s,
        "table": tracer.table(),
        "layers": layers,
        "handle_mean_s": sum(handle_s.values()) / max(handled, 1),
    }
    return out
