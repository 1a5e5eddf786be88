"""``serve_match``: batch ``POST /match`` against a live
``repro serve STORE --workers 2`` while a writer publishes new runs.

Set-up mines three Adult depth-2 runs (from seeds ``seed``, ``seed+1``
and ``seed+2``), puts the first into a ``PatternStore`` and starts the
server until ``/healthz`` answers with that run.  The load has two
phases on the same keep-alive connections, one per worker:

- capacity: a closed loop, each connection sending the next distinct
  64-row batch as soon as its previous answer is in.  Its rows answered
  per second is the gated ``rows_per_s``;
- latency: an open loop at a fixed rate, every latency timed from the
  request's due time (printed in the ``# info`` line, not gated).

A writer thread puts the three runs round-robin every 0.5 s during both
phases, so workers hot-swap under load.  Every response's per-row ranks
are checked against a brute-force ``Itemset.cover`` reference for the
run the response names.

The load generator uses one event-loop thread driving at most ``nproc``
keep-alive connections, plus the writer thread.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import itertools
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, sleep
from typing import Any

import numpy as np

import mining
import tracer as btracer

BATCH_ROWS = 64
WRITER_INTERVAL_S = 0.5
#: Share of the run's seconds spent in the closed-loop capacity phase;
#: the open-loop latency phase takes the rest.
CAPACITY_SHARE = 0.6
#: Capacity is the median of the rows answered per window of this length.
WINDOW_S = 1.0
N_RUNS = 3
#: Timed rounds of mining the three runs: before the load (set-up) and
#: after it, so that ``mine_s`` samples the whole run, not one block.
MINE_ROUNDS_BEFORE = 4
MINE_ROUNDS_AFTER = 4
SERVER_STARTS = 3
SERVE_DEPTH = 2


@dataclass(frozen=True)
class Load:
    #: Rows per second of the open-loop latency phase.
    latency_rate: int
    #: Distinct batches drawn for the capacity phase (reused in turn if
    #: the phase outruns them; the query cache holds 256 answers and
    #: every hot swap changes its key, so a reuse would still miss).
    capacity_batches: int
    #: Batches of a traced run's capacity phases, which stop at a count,
    #: not a time, so that every count metric repeats between runs.
    traced_batches: int
    adult_scale: float


LOADS = {
    "full": Load(4000, 16384, 1024, 1.0),
    "tiny": Load(2000, 512, 64, 0.15),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- the server process ---------------------------------------------------


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _running(pid: int) -> bool:
    """The process exists and has not exited (zombies count as ended)."""
    return _stat(pid) not in (None, b"Z")


def _stat(pid: int, field: int = 0):
    """One field of ``/proc/<pid>/stat`` after the command name (0 is the
    state, 2 the process group); None when the process is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()[field]
    except (OSError, IndexError):
        return None


def _group_members(pgid: int) -> list[int]:
    """Running processes of a process group, from ``/proc``."""
    return [
        int(entry)
        for entry in os.listdir("/proc")
        if entry.isdigit()
        and _stat(int(entry), 2) == str(pgid).encode()
        and _running(int(entry))
    ]


def _port_refuses(port: int) -> bool:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=0.5):
            return False
    except OSError:
        return True


def http_get(port: int, path: str, timeout: float = 5.0) -> tuple[int, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


class ServerProcess:
    """``repro serve`` in its own session; :meth:`stop` kills the whole
    process group and waits until the port refuses connections.

    Killing the group, not the parent, is deliberate: SIGTERM to the
    ``--workers 2`` parent alone leaves both workers running as orphans
    that still answer on the port (see NOTES.md).
    """

    def __init__(self, root: Path, store: Path, work: Path,
                 trace_dir: Path | None) -> None:
        self.port = free_port()
        serve_args = [
            "serve", str(store), "--port", str(self.port),
            "--workers", "2",
        ]
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            argv = [
                sys.executable, str(Path(__file__).with_name(
                    "serve_launcher.py")),
                str(trace_dir), *serve_args,
            ]
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   TMPDIR=str(work))
        self.log = open(work / f"serve-{self.port}.log", "wb")
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdout=self.log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )

    def wait_ready(self, run_id: str, timeout: float = 60.0) -> float:
        """Seconds from launch until ``/healthz`` names ``run_id``."""
        deadline = self.started + timeout
        while perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited {self.proc.returncode} at start"
                )
            try:
                status, body = http_get(self.port, "/healthz", timeout=1.0)
            except OSError:
                status, body = 0, None
            if status == 200 and body.get("active_run") == run_id:
                return perf_counter() - self.started
            sleep(0.01)
        raise RuntimeError("repro serve not ready in time")

    def peak_rss_mb(self) -> float:
        """Largest ``VmHWM`` over the server's processes."""
        peak = 0
        for pid in _group_members(self.proc.pid):
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]))
            except OSError:
                continue
        return peak / 1024.0

    def worker_of(self, client_port: int) -> int | None:
        """Pid of the worker holding the accepted end of the connection
        from ``client_port``: the kernel spreads ``SO_REUSEPORT``
        connections by a hash of their ports, so it can only be looked
        up, in ``/proc/net/tcp`` and the workers' descriptors."""
        inode = None
        local = f":{self.port:04X}"
        remote = f":{client_port:04X}"
        with open("/proc/net/tcp", encoding="ascii") as table:
            next(table)
            for line in table:
                fields = line.split()
                if fields[1].endswith(local) and fields[2].endswith(remote):
                    inode = f"socket:[{fields[9]}]"
        for pid in _group_members(self.proc.pid):
            try:
                fds = os.listdir(f"/proc/{pid}/fd")
            except OSError:
                continue
            for fd in fds:
                try:
                    if os.readlink(f"/proc/{pid}/fd/{fd}") == inode:
                        return pid
                except OSError:
                    continue
        return None

    def stop(self) -> None:
        """Workers first, so the parent reaps them, then the whole group;
        SIGKILL whatever outlives its grace period."""
        pgid = self.proc.pid
        try:
            workers = [p for p in _group_members(pgid) if p != pgid]
            _signal_and_wait(workers, signal.SIGTERM, 10.0)
            for sig in (signal.SIGTERM, signal.SIGKILL):
                try:
                    os.killpg(pgid, sig)
                except ProcessLookupError:
                    break
                if _wait_gone(lambda: _group_members(pgid), 10.0):
                    break
            self.proc.wait(timeout=10)
            if not _wait_gone(lambda: not _port_refuses(self.port), 10.0):
                raise RuntimeError(
                    f"port {self.port} still accepts after teardown"
                )
        finally:
            self.log.close()


def _wait_gone(alive, timeout: float) -> bool:
    """Poll ``alive()`` until falsy; False if it outlasts ``timeout``."""
    deadline = perf_counter() + timeout
    while alive():
        if perf_counter() > deadline:
            return False
        sleep(0.02)
    return True


def _signal_and_wait(pids: list[int], sig: int, timeout: float) -> None:
    for pid in pids:
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            pass
    # Gone, not merely exited: the parent has reaped them.
    _wait_gone(lambda: any(_stat(pid) is not None for pid in pids), timeout)


# -- load generation ------------------------------------------------------


class Batches:
    """``n`` seeded 64-row batches, each built into a ``POST /match``
    request when it is sent.

    Each row is encoded once; a batch joins its rows' encodings, which
    is byte for byte what ``json.dumps(..., separators=(",", ":"))``
    gives for the whole body.
    """

    def __init__(self, encoded: list[bytes], rng: np.random.Generator,
                 n: int) -> None:
        self.encoded = encoded
        self.indices = rng.integers(0, len(encoded), (n, BATCH_ROWS))

    def __len__(self) -> int:
        return len(self.indices)

    def request(self, i: int) -> bytes:
        return _request(
            b'{"rows":['
            + b",".join([self.encoded[k] for k in self.indices[i].tolist()])
            + b"]}"
        )


def encode_rows(dataset) -> list[bytes]:
    """Every row of ``dataset`` as the JSON of one ``/match`` row; a
    missing value leaves its key out."""
    rows: list[dict[str, Any]] = [{} for _ in range(dataset.n_rows)]
    for attr in dataset.schema:
        values = dataset.column(attr.name).tolist()
        if attr.is_categorical:
            for row, code in zip(rows, values):
                if code >= 0:
                    row[attr.name] = attr.categories[code]
        else:
            for row, value in zip(rows, values):
                if value == value:  # not NaN
                    row[attr.name] = value
    return [json.dumps(row, separators=(",", ":")).encode() for row in rows]


def reference_ranks(patterns, dataset) -> list[list[int]]:
    """Per row of ``dataset``, the ranks of the patterns that match it,
    by brute force through ``Itemset.cover``."""
    if not patterns:
        return [[] for _ in range(dataset.n_rows)]
    covers = np.stack([p.itemset.cover(dataset) for p in patterns])
    return [np.flatnonzero(column).tolist() for column in covers.T]


def _request(body: bytes) -> bytes:
    return (
        b"POST /match HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body)
    ) + body


class Phase:
    """Per request of a load phase: its batch, when it was due and sent,
    when it was answered, and the answer.  ``late`` is how far behind
    schedule the generator itself was when the request fell due."""

    def __init__(self, name: str, batches: Batches) -> None:
        self.name = name
        self.batches = batches
        self.batch: list[int] = []
        self.due: list[float] = []
        self.sent: list[float] = []
        self.done: list[float] = []
        self.status: list[int] = []
        self.bodies: list[bytes | None] = []
        self.late: list[float] = []
        self.started = self.ended = 0.0

    def record(self, batch: int, due: float, sent: float, status: int,
               body: bytes | None) -> None:
        self.batch.append(batch)
        self.due.append(due)
        self.sent.append(sent)
        self.done.append(perf_counter())
        self.status.append(status)
        self.bodies.append(body and _without_patterns(body))


def _without_patterns(body: bytes) -> bytes:
    """A batch answer without its ``"patterns"`` table, which the check
    does not read and which is most of its bytes (kept whole when the
    answer is laid out otherwise)."""
    start = body.find(b',"patterns":')
    end = body.rfind(b',"results":[')
    return body[:start] + body[end:] if 0 < start < end else body


class Connection:
    """One keep-alive connection; reopened after a failed exchange."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.streams = None

    async def open(self) -> int:
        """Connect; returns the local (client) port."""
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       self.port)
        sock = writer.get_extra_info("socket")
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.streams = reader, writer
        return sock.getsockname()[1]

    async def exchange(self, request: bytes) -> tuple[int, bytes | None]:
        """Status and body; status 0 when the exchange failed."""
        try:
            if self.streams is None:
                await self.open()
            reader, writer = self.streams
            writer.write(request)
            head = await reader.readuntil(b"\r\n\r\n")
            status = int(head.split(b" ", 2)[1])
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            return status, await reader.readexactly(length)
        except (OSError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ValueError, IndexError):
            await self.close()
            return 0, None

    async def close(self) -> None:
        if self.streams is not None:
            writer = self.streams[1]
            self.streams = None
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def _connect_one_per_worker(server: "ServerProcess", n: int,
                                  attempts: int = 64) -> list[Connection]:
    """``n`` connections, each answered by a different worker.

    Without this, two connections land on one worker half the time and
    the capacity reads bimodal.
    """
    conns: dict[int, Connection] = {}
    for _ in range(attempts):
        if len(conns) == n:
            return list(conns.values())
        conn = Connection(server.port)
        client_port = await conn.open()
        # The worker accepts before it answers, so after one exchange
        # the connection's server end sits in that worker's descriptors.
        status, _ = await conn.exchange(
            b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
        )
        pid = server.worker_of(client_port) if status == 200 else None
        if pid is None or pid in conns:
            await conn.close()
        else:
            conns[pid] = conn
    for conn in conns.values():
        await conn.close()
    raise RuntimeError(f"no {n} connections on distinct workers")


async def _closed_loop(conns: list[Connection], phase: Phase,
                       seconds: float, count: int | None) -> None:
    """Each connection sends the next batch as soon as it has an answer,
    for ``seconds`` or, given a ``count``, until that many are sent."""
    batches = phase.batches
    order = itertools.count()
    phase.started = perf_counter()
    deadline = phase.started + seconds

    async def drive(conn: Connection) -> None:
        while perf_counter() < deadline:
            k = next(order)
            if count is not None and k >= count:
                return
            i = k % len(batches)
            request = batches.request(i)
            sent = perf_counter()
            status, body = await conn.exchange(request)
            phase.record(i, sent, sent, status, body)

    await asyncio.gather(*(drive(conn) for conn in conns))
    phase.ended = perf_counter()


async def _open_loop(conns: list[Connection], phase: Phase,
                     rate: int) -> None:
    """Every batch falls due on a fixed schedule at ``rate`` rows/s and
    goes out on the first free connection."""
    interval = BATCH_ROWS / rate
    queue: asyncio.Queue = asyncio.Queue()
    requests = [phase.batches.request(i) for i in range(len(phase.batches))]

    async def drive(conn: Connection) -> None:
        while (item := await queue.get()) is not None:
            i, due = item
            sent = perf_counter()
            status, body = await conn.exchange(requests[i])
            phase.record(i, due, sent, status, body)

    drivers = [asyncio.create_task(drive(conn)) for conn in conns]
    phase.started = perf_counter() + 0.02
    for i in range(len(requests)):
        due = phase.started + i * interval
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.late.append(perf_counter() - due)
        queue.put_nowait((i, due))
    for _ in drivers:
        queue.put_nowait(None)
    await asyncio.gather(*drivers)
    phase.ended = perf_counter()


class Writer(threading.Thread):
    """Puts the mined runs round-robin every 0.5 s until stopped."""

    def __init__(self, store, results: list, runs: dict[str, int]) -> None:
        super().__init__(name="perfbench-writer", daemon=True)
        self.store = store
        self.results = results
        self.runs = runs
        self.puts: list[tuple[str, float, float]] = []
        self.error: BaseException | None = None
        self._stop_event = threading.Event()

    def run(self) -> None:
        k = 1
        try:
            while not self._stop_event.wait(WRITER_INTERVAL_S):
                started = perf_counter()
                run_id = self.store.put(self.results[k % len(self.results)])
                done = perf_counter()
                self.runs[run_id] = k % len(self.results)
                self.puts.append((run_id, done, done - started))
                k += 1
        except Exception as exc:  # reported as a failed put
            self.error = exc

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=30)


# -- the workload ---------------------------------------------------------


def _verify(phase: Phase, runs: dict[str, int],
            expected: list[list[list[int]]], seen: dict[str, float]) -> int:
    """Failed requests of a phase; records when each run was first seen."""
    failed = 0
    for k, body in enumerate(phase.bodies):
        if phase.status[k] != 200 or body is None:
            failed += 1
            continue
        try:
            payload = json.loads(body)
            run_id = payload["run"]
            got = [row["matches"] for row in payload["results"]]
        except (ValueError, KeyError, TypeError):
            failed += 1
            continue
        if run_id not in runs:
            failed += 1
            continue
        done = phase.done[k]
        seen[run_id] = min(seen.get(run_id, done), done)
        ranks = expected[runs[run_id]]
        failed += got != [
            ranks[i] for i in phase.batches.indices[phase.batch[k]].tolist()
        ]
    phase.bodies = []
    return failed


def capacity_windows(phase: Phase) -> list[float]:
    """Rows answered per second in each whole window of the phase after
    the first, which warms the connections and workers up; the phase's
    mean rate alone when it is shorter than three windows."""
    answered = [d for d, s in zip(phase.done, phase.status) if s == 200]
    n_windows = int((phase.ended - phase.started) // WINDOW_S)
    if n_windows < 3:
        return [BATCH_ROWS * len(answered) / (phase.ended - phase.started)]
    per_window = np.histogram(
        answered, bins=n_windows,
        range=(phase.started, phase.started + n_windows * WINDOW_S),
    )[0]
    return [float(n) * BATCH_ROWS / WINDOW_S for n in per_window[1:]]


def _service_ms(phase: Phase) -> list[float]:
    return [(d - s) * 1e3 for d, s in zip(phase.done, phase.sent)]


def run(seed: int, seconds: float, trace: bool, size_name: str,
        root: Path, work: Path) -> dict[str, Any]:
    """Set up, serve, load, tear down; the run's figures."""
    from repro import ContrastSetMiner, MinerConfig
    from repro.serve.store import PatternStore

    load = LOADS[size_name]
    config = MinerConfig(max_tree_depth=SERVE_DEPTH,
                         counting_backend="bitmap")
    datasets = [
        mining.adult_dataset(load.adult_scale, seed + k)
        for k in range(N_RUNS)
    ]
    # mine_s is the median round divided by the runs mined in a round:
    # averaging the three datasets damps how much one seed's data moves it.
    rounds: list[float] = []

    def mine_round() -> list:
        started = perf_counter()
        mined = [ContrastSetMiner(config).mine(d) for d in datasets]
        rounds.append(perf_counter() - started)
        return mined

    for _ in range(MINE_ROUNDS_BEFORE):
        results = mine_round()
    setup_rounds = list(rounds)
    expected = [
        reference_ranks(r.patterns, datasets[0]) for r in results
    ]
    failed = sum(
        mining.recount_failures(r.patterns, d) > 0
        for r, d in zip(results, datasets)
    )

    put_times = []
    store = PatternStore(work / "pstore")
    runs: dict[str, int] = {}
    for _ in range(SERVER_STARTS):
        started = perf_counter()
        run_id = store.put(results[0])
        put_times.append(perf_counter() - started)
        runs[run_id] = 0

    rng = np.random.default_rng(seed)
    encoded = encode_rows(datasets[0])
    capacity_batches = Batches(encoded, rng, load.capacity_batches)
    latency_seconds = seconds * (1 - CAPACITY_SHARE)
    latency_batches = Batches(
        encoded, rng,
        max(1, int(load.latency_rate * latency_seconds / BATCH_ROWS)),
    )

    def serve_load(server: ServerProcess,
                   with_latency: bool) -> dict[str, Any]:
        return _load(
            server, store, results, runs, expected,
            capacity_batches, latency_batches if with_latency else None,
            load.latency_rate, seconds * CAPACITY_SHARE,
            load.traced_batches if trace else None,
        )

    trace_dir = work / "serve-trace" if trace else None
    start_times = []
    servers: list[ServerProcess] = []
    try:
        if trace:
            trace_dir.mkdir()
            # An untraced server's capacity first: the traced server's
            # against it is the tracing overhead.
            plain = _serve_once(root, store, work, None, servers,
                                start_times)
            base = serve_load(plain, False)
            _stop(servers)
            server = _serve_once(root, store, work, trace_dir, servers,
                                 start_times)
        else:
            for _ in range(SERVER_STARTS):
                server = _serve_once(root, store, work, None, servers,
                                     start_times)
                if len(start_times) < SERVER_STARTS:
                    _stop(servers)
        out = serve_load(server, True)
        status, metrics = http_get(server.port, "/metrics")
        peak_rss = server.peak_rss_mb()
    finally:
        _stop(servers)

    want = [mining.patterns_digest(r.patterns) for r in results]
    for _ in range(MINE_ROUNDS_AFTER):
        failed += sum(
            mining.patterns_digest(r.patterns) != w
            for r, w in zip(mine_round(), want)
        )
    failed += out["failed"] + (status != 200)
    attempted = out["attempted"] + len(results) * len(rounds) + len(put_times)
    figures_out: dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "info": {
            "input_digest": _input_digest(
                datasets,
                capacity_batches.request(0) + latency_batches.request(0),
            ),
            "phases": out["phases"],
            "capacity_windows_rows_per_s": out["capacity_windows"],
            "puts": out["puts"],
            "swaps_seen": out["swaps_seen"],
            "connections": out["connections"],
            "threads": 2,
        },
    }
    if not trace:
        figures_out["metrics"] = {
            "mine_s": statistics.median(rounds) / N_RUNS,
            "peak_rss_mb": peak_rss,
            "setup_s": (
                statistics.median(setup_rounds)
                + statistics.median(put_times)
                + statistics.median(start_times)
            ),
            "rows_per_s": statistics.median(out["capacity_windows"]),
        }
        figures_out["info"]["match_p50_ms"] = out["latency"]["p50_ms"]
        figures_out["info"]["match_p99_ms"] = out["latency"]["p99_ms"]
    else:
        figures_out["attempted"] += base["attempted"]
        figures_out["failed"] += base["failed"]
        figures_out["layers"] = _serve_layers(
            trace_dir, metrics, out,
            statistics.median(base["capacity_windows"]),
        )
    return figures_out


def _serve_once(root, store, work, trace_dir, servers,
                start_times) -> ServerProcess:
    """Start a server; ready once ``/healthz`` names the latest run."""
    server = ServerProcess(root, store.root, work, trace_dir)
    servers.append(server)
    start_times.append(server.wait_ready(store.latest()))
    return server


def _stop(servers: list[ServerProcess]) -> None:
    while servers:
        servers.pop().stop()


def _input_digest(datasets, bodies: bytes) -> str:
    digest = hashlib.sha256(bodies)
    for dataset in datasets:
        digest.update(mining.dataset_digest(dataset).encode())
    return digest.hexdigest()


def _load(server: ServerProcess, store, results, runs, expected,
          capacity_batches: Batches, latency_batches: Batches | None,
          rate: int, capacity_s: float,
          capacity_count: int | None) -> dict[str, Any]:
    """The capacity phase, then (optionally) the latency phase, on one
    set of connections, with the writer putting runs throughout."""
    n_conns = max(1, min(2, nproc()))
    if capacity_count is not None:
        capacity_s = float("inf")
    capacity = Phase("capacity", capacity_batches)
    phases = [capacity]
    if latency_batches is not None:
        phases.append(Phase("latency", latency_batches))

    async def drive() -> None:
        conns = await _connect_one_per_worker(server, n_conns)
        try:
            await _closed_loop(conns, capacity, capacity_s, capacity_count)
            if len(phases) > 1:
                await _open_loop(conns, phases[1], rate)
        finally:
            for conn in conns:
                await conn.close()

    writer = Writer(store, results, runs)
    writer.start()
    try:
        asyncio.run(drive())
    finally:
        writer.stop()
    failed = 0 if writer.error is None else 1
    seen: dict[str, float] = {}
    summary = []
    for phase in phases:
        phase_failed = _verify(phase, runs, expected, seen)
        failed += phase_failed
        service = _service_ms(phase)
        # A failed request counts as very late.
        latency = [
            (d - due) * 1e3 if s == 200 else float("inf")
            for due, d, s in zip(phase.due, phase.done, phase.status)
        ]
        summary.append({
            "phase": phase.name,
            "requests": len(phase.done),
            "failed": phase_failed,
            "p50_ms": float(np.percentile(latency, 50)),
            "p99_ms": float(np.percentile(latency, 99)),
            "service_p50_ms": float(np.percentile(service, 50)),
            "rows_per_s": (
                BATCH_ROWS * len(phase.done)
                / (max(phase.done) - phase.started)
            ),
        })
    lags = [
        seen[run_id] - put_done
        for run_id, put_done, _ in writer.puts
        if run_id in seen
    ]
    late = [x for phase in phases for x in phase.late] or [0.0]
    return {
        "attempted": sum(len(p.done) for p in phases) + len(writer.puts),
        "failed": failed,
        "phases": summary,
        "capacity_windows": capacity_windows(capacity),
        "latency": summary[-1],
        "puts": len(writer.puts),
        "put_s": sum(p[2] for p in writer.puts),
        "swaps_seen": len(lags),
        "swap_lag_ms": statistics.median(lags) * 1e3 if lags else 0.0,
        "late_p99_ms": float(np.percentile(late, 99)) * 1e3,
        "sent": sum(len(p.done) for p in phases),
        "client_service_p50_ms": float(np.percentile(
            [x for p in phases for x in _service_ms(p)], 50
        )),
        "connections": n_conns,
    }


def _serve_layers(trace_dir: Path, metrics: dict, out: dict,
                  untraced_capacity: float) -> dict[str, float]:
    merged = btracer.merge_snapshots(btracer.read_dumps(trace_dir))
    self_s, counts = merged["self_s"], merged["counts"]
    cache = metrics.get("query_cache", {})
    match = metrics.get("endpoints", {}).get("match", {})
    return {
        "server.handle_self_s": self_s.get("server.handle", 0.0),
        "server.cache_hit_ratio": mining.ratio(
            cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)
        ),
        "index.match_batch_self_s": self_s.get("index.match_batch", 0.0),
        "plan.validate_s": self_s.get("plan.validate", 0.0),
        "plan.match_mask_s": self_s.get("plan.match_mask", 0.0),
        "plan.rows": counts.get("plan.rows", 0),
        "store.put_s": out["put_s"],
        "store.get_s": self_s.get("store.get", 0.0),
        "workers.index_build_s": self_s.get("workers.index_build", 0.0),
        "workers.swap_lag_ms": out["swap_lag_ms"],
        "loadgen.late_p99_ms": out["late_p99_ms"],
        "loadgen.sent": out["sent"],
        "loadgen.failed": out["failed"],
        "transport.gap_ms": (
            out["client_service_p50_ms"] - float(match.get("p50_ms", 0.0))
        ),
        # Time per row traced over untraced, minus 1.
        "trace.overhead_ratio": (
            untraced_capacity / statistics.median(out["capacity_windows"])
            - 1.0
        ),
    }
