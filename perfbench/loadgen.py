"""The serve-mixed load generator: one process, a few keep-alive sockets.

Usage::

    python3 perfbench/loadgen.py SPEC.json OUT.json

``SPEC.json`` names the server address, the connection count and a list
of phases, each with its request paths:

- ``closed``: every connection sends its next request only after the
  previous reply (the warm-up);
- ``open``: requests go out at their seeded Poisson due times whatever
  the server does, pipelined over the connections, so a stall queues
  later requests instead of slowing the generator.  Latency is taken
  from each request's *due* time; ``late`` is how far behind schedule
  the generator sent it.

During the nominal open phase the generator also appends the stream's recorded
alerts to the server's alerts JSONL at a fixed rate: writes beside the
reads.  Every reply is checked for a 200 status and a JSON body after
the phase, outside the timed loop; the bodies of the requests a phase
lists under ``keep`` are returned for the oracle checks.
"""

from __future__ import annotations

import asyncio
import gc
import json
import sys
import time
from pathlib import Path

#: Seconds to wait for stragglers after an open phase's last due time,
#: and for a whole closed phase.
DRAIN_TIMEOUT_S = 5.0
CLOSED_TIMEOUT_S = 60.0


async def _read_reply(reader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n"):
        if line[:15].lower() == b"content-length:":
            length = int(line.split(b":", 1)[1])
    return status, await reader.readexactly(length)


def _request(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()


class Phase:
    """Per-request send/receive stamps and replies of one phase."""

    def __init__(self, paths: list[str]):
        n = len(paths)
        self.paths = paths
        self.due = [0.0] * n
        self.sent = [0.0] * n
        self.recv = [None] * n
        self.status = [0] * n
        self.body = [b""] * n

    def summary(self, name: str, wall_s: float, keep) -> dict:
        """Stamps, failures, and the parsed bodies of requests in ``keep``."""
        keep = set(keep)
        failed, bodies = [], {}
        for i, (status, body) in enumerate(zip(self.status, self.body)):
            doc = None
            if self.recv[i] is None:
                failed.append([i, "timeout"])
            elif status != 200:
                failed.append([i, f"status {status}"])
            else:
                try:
                    doc = json.loads(body)
                except ValueError:
                    failed.append([i, "malformed JSON body"])
            if i in keep:
                bodies[i] = doc
        done = [i for i in range(len(self.paths)) if self.recv[i] is not None]
        t0 = min(self.due) if self.due else 0.0
        return {
            "name": name,
            "wall_s": wall_s,
            "attempted": len(self.paths),
            "failed": failed,
            "due_s": [self.due[i] - t0 for i in done],
            "latency_s": [self.recv[i] - self.due[i] for i in done],
            "service_s": [self.recv[i] - self.sent[i] for i in done],
            "late_s": [self.sent[i] - self.due[i] for i in done],
            "bodies": bodies,
        }


async def _receiver(reader, fifo: asyncio.Queue, ph: Phase) -> None:
    while True:
        i = await fifo.get()
        if i is None:
            return
        try:
            status, body = await _read_reply(reader)
        except (asyncio.IncompleteReadError, ConnectionError):
            return  # the rest of this connection's requests time out
        ph.recv[i] = time.perf_counter()
        ph.status[i] = status
        ph.body[i] = body


async def _append_alerts(spec: dict, duration: float) -> None:
    """Append recorded alert lines at a fixed rate for ``duration``."""
    lines = Path(spec["alerts_pending"]).read_bytes().splitlines(True)
    if not lines:
        return
    tick = 0.05
    ticks = max(int(duration / tick), 1)
    per_tick = len(lines) / ticks
    done = 0
    t0 = time.perf_counter()
    with open(spec["alerts_path"], "ab") as fh:
        for k in range(1, ticks + 1):
            target = min(int(round(k * per_tick)), len(lines))
            if target > done:
                fh.write(b"".join(lines[done:target]))
                fh.flush()
                done = target
            await asyncio.sleep(max(t0 + k * tick - time.perf_counter(), 0))


async def _open_phase(
    conns, ph: Phase, gaps: list[float], spec: dict, append: bool
) -> float:
    fifos = [asyncio.Queue() for _ in conns]
    receivers = [
        asyncio.create_task(_receiver(r, q, ph))
        for (r, _w), q in zip(conns, fifos)
    ]
    t0 = time.perf_counter() + 0.05
    due = t0
    for i, gap in enumerate(gaps):
        due += gap
        ph.due[i] = due
    duration = ph.due[-1] - t0 if gaps else 0.0
    appender = asyncio.create_task(
        _append_alerts(spec, duration) if append else asyncio.sleep(0)
    )
    n = len(conns)
    for i, path in enumerate(ph.paths):
        # Always yield, even when behind schedule, so replies are
        # stamped as they arrive rather than after the send loop.
        await asyncio.sleep(max(ph.due[i] - time.perf_counter(), 0))
        _r, writer = conns[i % n]
        writer.write(_request(path))
        ph.sent[i] = time.perf_counter()
        fifos[i % n].put_nowait(i)
    for q in fifos:
        q.put_nowait(None)
    await appender
    await _settle(receivers, DRAIN_TIMEOUT_S)
    return time.perf_counter() - t0


async def _closed_phase(conns, ph: Phase) -> float:
    async def one(k, reader, writer):
        for i in range(k, len(ph.paths), len(conns)):
            ph.due[i] = ph.sent[i] = time.perf_counter()
            writer.write(_request(ph.paths[i]))
            try:
                status, body = await _read_reply(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            ph.recv[i] = time.perf_counter()
            ph.status[i] = status
            ph.body[i] = body

    t0 = time.perf_counter()
    await _settle([
        asyncio.create_task(one(k, r, w)) for k, (r, w) in enumerate(conns)
    ], CLOSED_TIMEOUT_S)
    return time.perf_counter() - t0


async def _settle(tasks, timeout: float) -> None:
    """Wait for the phase's tasks; stragglers past the timeout fail."""
    done, pending = await asyncio.wait(tasks, timeout=timeout)
    for task in pending:
        task.cancel()
    for task in done:
        task.result()


async def _main(spec: dict) -> list[dict]:
    out = []
    for phase in spec["phases"]:
        # The generator's own collector pauses would stamp replies late
        # and show up as server latency; collect between phases instead.
        gc.collect()
        gc.disable()
        conns = [
            await asyncio.open_connection(spec["host"], spec["port"])
            for _ in range(spec["connections"])
        ]
        ph = Phase(phase["paths"])
        try:
            if phase["kind"] == "open":
                wall = await _open_phase(
                    conns, ph, phase["gaps"], spec,
                    phase.get("append_alerts", False),
                )
            else:
                wall = await _closed_phase(conns, ph)
        finally:
            for _r, writer in conns:
                writer.close()
            gc.enable()
        out.append(ph.summary(phase["name"], wall, phase.get("keep", ())))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads(Path(argv[0]).read_text())
    phases = asyncio.run(_main(spec))
    Path(argv[1]).write_text(json.dumps({"phases": phases}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
