"""The repository benchmark: three workloads, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload stream-catchup --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run that reports the per-layer
metrics, the span table with its ``unattributed`` row and the tracing
overhead.  Metric names and units come from ``BENCHMARK.json``.  Every
workload runs ``jobs=0`` in fresh single-threaded processes; fixtures
are generated from ``--seed`` outside every timed region.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness gate passed; a checkout without the program's
``src/`` exits 2 without a result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    CACHE,
    ROOT,
    SRC,
    child_env,
    digest,
    fingerprint,
    median,
    percentile,
    slowdown,
    unit_median,
    use_src,
    write_json,
)

WORKLOADS = ("stream-catchup", "paper-batch", "serve-mixed")
#: Cold starts measured per run for ``setup_s`` (stream and batch).
SETUP_REPS = 3
WORKER_TIMEOUT_S = 150
#: Shape-check outcomes of every experiment on one fixed campaign
#: (``paper_batch.CHECKS_SEED``), committed with the benchmark.
EXPECTED_CHECKS = BENCH_DIR / "expected_checks.json"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _scale(workload: str) -> float:
    if workload == "stream-catchup":
        import stream_catchup as mod
    elif workload == "paper-batch":
        import paper_batch as mod
    else:
        import serve_mixed as mod
    return mod.SCALE


def _worker(workload, fx, scratch, seconds, trace, seed, scale) -> dict:
    out = scratch / f"{workload}.json"
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(fx),
         str(scratch), str(out), str(seconds), str(int(trace)), str(seed),
         str(scale)],
        env=child_env(), check=True, timeout=WORKER_TIMEOUT_S,
    )
    return json.loads(out.read_text())


def _setup_probes(workload: str, fx: Path,
                  scratch: Path) -> tuple[list[float], list[float]]:
    """Nominal-speed CPU seconds and wall seconds from spawn to ready of
    ``SETUP_REPS`` cold interpreters."""
    cpu, wall = [], []
    for _ in range(SETUP_REPS):
        shutil.rmtree(scratch / "probe-state", ignore_errors=True)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(fx),
             str(scratch)],
            stdout=subprocess.PIPE, env=child_env(), text=True,
        )
        ready = proc.stdout.readline().split()
        wall.append(time.perf_counter() - t0)
        slow = proc.stdout.readline().split()
        proc.stdout.close()
        if (proc.wait(timeout=60) != 0 or len(ready) != 2
                or ready[0] != "ready" or slow[:1] != ["slowdown"]):
            raise RuntimeError(f"{workload} set-up probe failed")
        cpu.append(float(ready[1]) / float(slow[1]))
    return cpu, wall


# -- per-workload evaluation: gates, metrics ------------------------------
def _op_latency(prefix: str, ops_s: list[float]) -> dict:
    """p50/p90/p99 of per-operation seconds, as named ms metrics."""
    ms = [x * 1e3 for x in ops_s]
    out = {f"{prefix}_p{q}_ms": (percentile(ms, q), "ms") for q in (50, 90, 99)}
    out[f"{prefix}_samples"] = (len(ms), "count")
    return out


def _stream(fx, scratch, seconds, trace, seed, scale) -> dict:
    import numpy as np

    res = _worker("stream-catchup", fx, scratch, seconds, trace, seed, scale)
    expected_faults = digest(np.load(fx / "expected" / "faults.npy"))
    expected_ingest = json.loads((fx / "expected" / "ingest.json").read_text())
    failures, attempted, failed = [], 0, 0
    for k, rep in enumerate(res["reps"]):
        bad = []
        if rep["faults_sha"] != expected_faults:
            bad.append("faults_snapshot differs from coalesce(ingest_ce_log)")
        for family, want in expected_ingest.items():
            got = dict(rep["ingest"][family], source=want["source"])
            if got != want:
                bad.append(f"{family} ingest stats {got} != batch {want}")
        if rep["rollup_errors_seen"] != rep["ce_lines"]:
            bad.append(f"rollups.errors_seen {rep['rollup_errors_seen']} != "
                       f"{rep['ce_lines']} CE lines")
        failures += [f"rep {k}: {b}" for b in bad]
        attempted += rep["lines"]
        failed += rep["lines"] if bad else rep["bad_lines"]
    timed = res["reps"] if not trace else res["reps"][:-1]
    drain = median([r["drain_s"] for r in timed])
    return {
        "rss_mb": res["rss_mb"],
        "units": [r["units"] for r in timed],
        "samples": "work_s sums each step's median over "
                   f"{len(timed)} backlog drains",
        "named": {
            "stream_drain_wall_s": (drain, "s"),
            "stream_lines_per_s": (timed[0]["lines"] / drain, "1/s"),
            **_op_latency("stream_step",
                          [s for r in timed for s in r["step_s"]]),
        },
        "attempted": attempted, "failed": failed, "failures": failures,
        "trace": res.get("trace"),
    }


def statuses_record(seed: int, scale: float) -> Path:
    """Where the first run's experiment statuses for (seed, scale) live."""
    return CACHE / "statuses" / f"s{seed}-x{scale:g}.json"


def _batch(fx, scratch, seconds, trace, seed, scale) -> dict:
    import numpy as np

    import fixtures
    import paper_batch

    from repro.faults.types import ERROR_DTYPE
    from repro.logs.store import load_records

    res = _worker("paper-batch", fx, scratch, seconds, trace, seed, scale)
    # The text log carries whole seconds; the mirror keeps the fraction.
    mirror = load_records(fx / "camp" / "errors.npy", ERROR_DTYPE)
    mirror["time"] = np.floor(mirror["time"])
    expected_errors = digest(mirror)
    # The first run for (seed, scale) is kept outside the program-keyed
    # fixture and never rewritten, so a later program is held to it.
    statuses_path = statuses_record(seed, scale)
    if not statuses_path.exists():
        statuses_path.parent.mkdir(parents=True, exist_ok=True)
        write_json(statuses_path, res["reps"][0]["statuses"])
    expected_statuses = json.loads(statuses_path.read_text())
    failures = [f"what-if reference: {m}" for m in res["reference"]]
    # The committed check outcomes of one fixed campaign hold in any
    # checkout, whatever seed this run measures.
    committed = json.loads(EXPECTED_CHECKS.read_text())
    checks_fx, _ = fixtures.ensure("paper-batch", committed["seed"],
                                   committed["scale"])
    # The outcomes depend only on the program, which keys the fixture,
    # so one derivation serves every run of a checkout.
    outcomes = checks_fx / "check_outcomes.json"
    if not outcomes.exists():
        write_json(outcomes, paper_batch.check_outcomes(
            checks_fx, committed["seed"], committed["scale"]))
    mismatches = paper_batch.check_mismatches(
        committed["checks"], json.loads(outcomes.read_text())
    )
    failures += [f"committed checks: {m}" for m in mismatches]
    attempted = len(committed["checks"])
    failed = len({m.split(" ", 1)[0] for m in mismatches})
    for k, rep in enumerate(res["reps"]):
        attempted += len(expected_statuses) + 2
        failed += len(rep["raised"]) + bool(res["reference"])
        failures += [f"rep {k}: {e} raised {msg}"
                     for e, msg in rep["raised"].items()]
        if rep["errors_sha"] != expected_errors:
            failed += 1
            failures.append(f"rep {k}: text-ingested errors differ from "
                            "errors.npy")
        for exp_id, want in expected_statuses.items():
            got = rep["statuses"].get(exp_id)
            if got != want and exp_id not in rep["raised"]:
                failed += 1
                failures.append(f"rep {k}: {exp_id} status {got!r} != "
                                f"first run's {want!r}")
    timed = res["reps"] if not trace else res["reps"][:-1]
    return {
        "rss_mb": res["rss_mb"],
        "units": [r["units"] for r in timed],
        "samples": "work_s sums each stage's median over "
                   f"{len(timed)} regenerations",
        "named": {
            "analyze_s": (median([r["analyze_s"] for r in timed]), "s"),
            "whatif_s": (median([r["whatif_s"] for r in timed]), "s"),
            **_op_latency("experiment",
                          [s for r in timed for s in r["exp_s"].values()]),
            "whatif_reference_events": (res["reference_events"], "count"),
        },
        "attempted": attempted, "failed": failed, "failures": failures,
        "trace": res.get("trace"),
    }


def _serve(fx, scratch, seconds, trace, seed, scale) -> dict:
    import serve_mixed

    def replay():
        return _worker("serve-replay", fx, scratch, seconds, trace, seed,
                       scale)

    res = serve_mixed.run(fx, scratch, seconds, trace, seed, replay)
    failures = list(res["failures"])
    attempted = failed = 0
    # The ladder rungs overload the server on purpose; they feed
    # ``serve.max_rps``, not the gate.
    for ph in (res["phases"]["warm"], res["phases"]["nominal"]):
        attempted += ph["attempted"]
        failed += len(ph["failed"])
        failures += [f"{ph['name']}#{i}: {why}" for i, why in ph["failed"]]
    replay = res["replay"]
    attempted += replay["requests"] * len(replay["work_s"])
    failed += len(replay["non200"])
    failures += [f"replay#{i}: status {status}"
                 for i, status in replay["non200"]]
    failed += len(res["failures"])
    nominal = res["phases"]["nominal"]
    lat, windows = serve_mixed.windowed_latency_ms(nominal)
    timed = replay["work_s"] if not trace else replay["work_s"][:-1]
    n = len(nominal["latency_s"])
    return {
        "rss_mb": res["rss_mb"], "setup_s": res["setup_s"],
        "setup_wall_s": res["setup_wall_s"],
        "units": replay["units"],
        "samples": "work_s sums each block's median over "
                   f"{len(timed)} in-process replays of "
                   f"{replay['requests']} requests (memo full from "
                   f"request {replay['memo_full_at']}, "
                   f"{len(replay['bodies'])} replies checked by the "
                   f"rescan oracle); serve_p*_ms are medians over {windows} "
                   f"one-second windows of {n} requests at "
                   f"{serve_mixed.NOMINAL_RPS}/s open loop",
        "named": {
            "serve_p50_ms": (lat[50], "ms"),
            "serve_p90_ms": (lat[90], "ms"),
            "serve_p99_ms": (lat[99], "ms"),
            "serve_p99_whole_phase_ms": (
                percentile(nominal["latency_s"], 99) * 1e3, "ms"),
            "serve_latency_samples": (n, "count"),
            "serve_nominal_rps": (serve_mixed.NOMINAL_RPS, "1/s"),
            "serve_replay_rps": (replay["requests"] / median(timed), "1/s"),
        },
        "env": {"serve_connections": res["connections"],
                "serve_generator_processes": 1},
        "attempted": attempted, "failed": failed, "failures": failures,
        "trace": res.get("trace"), "ladder": res.get("ladder", ()),
    }


EVALUATE = {
    "stream-catchup": _stream, "paper-batch": _batch, "serve-mixed": _serve,
}


# -- report ---------------------------------------------------------------
def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<42}{value:>16.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=None,
                    help="campaign scale override (the self-test's tiny runs)")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    use_src()
    spec = _spec()
    env = fingerprint()
    import fixtures

    scale = args.scale if args.scale is not None else _scale(args.workload)
    fx, build_s = fixtures.ensure(args.workload, args.seed, scale)
    scratch = CACHE / "run" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        r = EVALUATE[args.workload](
            fx, scratch, args.seconds, bool(args.trace), args.seed, scale
        )
        setup, setup_wall = (
            (r["setup_s"], r["setup_wall_s"]) if "setup_s" in r
            else _setup_probes(args.workload, fx, scratch)
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env.update(r.get("env", {}))
    e2e = {
        "setup_s": median(setup),
        "peak_rss_mb": r["rss_mb"],
        "work_s": unit_median(r["units"]),
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace} scale={scale:g}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"fixture: {fx.name} ({'built in %.2f s' % build_s if build_s else 'cached'})")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    _print_table("end-to-end (tracing off):",
                 [(k, v, units[k]) for k, v in e2e.items()])
    print(f"  samples: setup_s is the median CPU time of {len(setup)} cold "
          f"starts; {r['samples']}; setup_s and work_s are CPU seconds "
          "at nominal host speed (common.reference)")
    failed_ratio = r["failed"] / max(r["attempted"], 1)
    _print_table("workload metrics:", [(k, v, u) for k, (v, u) in
                 r["named"].items()] + [
        ("setup_wall_s", median(setup_wall), "s"),
        ("work_cpu_s", median([sum(u["cpu"]) for u in r["units"]]), "s"),
        ("host_slowdown", median([slowdown(u["ref"]) for u in r["units"]]),
         "ratio"),
        ("failed_ratio", failed_ratio, "ratio"),
    ])

    if args.trace:
        tr = r["trace"]
        layers = dict(tr["layers"])
        layers.update({
            "unattributed_s": tr["unattributed_s"],
            "unattributed_ratio": tr["unattributed_s"] / tr["wall_s"],
            "trace.overhead_s": tr["wall_s"] - tr["untraced_wall_s"],
            "failed_ratio": failed_ratio,
        })
        from tracing import render_table

        print(f"traced run: wall {tr['wall_s']:.4f} s, untraced "
              f"{tr['untraced_wall_s']:.4f} s, overhead "
              f"{layers['trace.overhead_s']:+.4f} s; unattributed "
              f"{layers['unattributed_ratio']:.1%} of wall")
        print(render_table(tr["table"]))
        for rate, p99_ms, tail_ms, ok in r.get("ladder", ()):
            print(f"  ladder {rate:>6}/s: p99 {p99_ms:8.3f} ms, last-tenth "
                  f"median {tail_ms:8.3f} ms -> {'pass' if ok else 'FAIL'}")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {n: {"value": float(layers.get(n, 0.0)), "unit": u}
                   for n, u in units.items()}
        _print_table("per-layer:", [(n, m["value"], m["unit"])
                                    for n, m in metrics.items()])
    else:
        metrics = {n: {"value": float(v), "unit": units[n]}
                   for n, v in e2e.items()}

    report = {"workload": args.workload, "seed": args.seed, "scale": scale,
              "environment": env, "failures": r["failures"],
              "metrics": metrics, "setup_s": setup,
              "setup_wall_s": setup_wall,
              "units": r["units"],
              "named": {k: v for k, (v, _u) in r["named"].items()},
              "spans": r["trace"]["table"] if args.trace else None}
    (CACHE / "reports").mkdir(parents=True, exist_ok=True)
    write_json(CACHE / "reports" /
               f"{args.workload}-s{args.seed}-trace{args.trace}.json", report)
    correct = not r["failures"] and r["failed"] == 0
    if r["failures"]:
        print("CORRECTNESS GATE FAILED:", file=sys.stderr)
        for f in r["failures"][:50]:
            print(f"  - {f}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": int(r["attempted"]),
                      "failed": int(r["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
