"""Multi-worker serving: SO_REUSEPORT pool under concurrent load + swaps.

The pool's guarantees under test:

* concurrent batch clients against ``workers=2`` see **zero 5xx** while
  a writer keeps publishing new runs into the store;
* every response is consistent with a single store epoch: the epoch it
  names is exactly ``run_seq(run)`` of the run it names, and its matches
  equal what that stored run's index produces for the same rows;
* the merged ``/metrics`` view sums per-worker match counters to exactly
  the number of requests the clients sent;
* platforms without ``SO_REUSEPORT`` degrade to the single-socket
  fallback rather than failing;
* SIGTERM to a ``repro serve --workers N`` parent stops every worker
  and closes the port instead of orphaning the workers.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import http.client
from pathlib import Path

import numpy as np
import pytest

from repro import Attribute, ContrastSetMiner, Dataset, MinerConfig, Schema
from repro.serve import (
    PatternServer,
    PatternStore,
    ServeConfig,
    reuseport_available,
)
from repro.serve.index import PatternIndex, row_from_dataset
from repro.serve.workers import run_seq

needs_reuseport = pytest.mark.skipif(
    not reuseport_available(), reason="platform lacks SO_REUSEPORT"
)


@pytest.fixture(scope="module")
def mined():
    rng = np.random.default_rng(4242)
    n = 500
    group = rng.integers(0, 2, n)
    x = np.where(
        group == 0, rng.uniform(0, 0.5, n), rng.uniform(0.5, 1.0, n)
    )
    color = rng.integers(0, 3, n)
    schema = Schema.of(
        [
            Attribute.continuous("x"),
            Attribute.categorical("color", ["red", "green", "blue"]),
        ]
    )
    dataset = Dataset(schema, {"x": x, "color": color}, group, ["A", "B"])
    result = ContrastSetMiner(MinerConfig(max_tree_depth=2)).mine(dataset)
    assert result.patterns
    return dataset, result


@pytest.fixture
def pool(tmp_path, mined):
    dataset, result = mined
    store = PatternStore(tmp_path / "store")
    first = store.put(result, tags=("seed",))
    server = PatternServer(
        store,
        ServeConfig(port=0, workers=2, store_poll_interval=0.05),
    )
    host, port = server.start()
    yield dataset, result, store, first, server, host, port
    server.stop()


def _post(host, port, path, body):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("POST", path, body=json.dumps(body))
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _get(host, port, path):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@needs_reuseport
class TestMultiWorkerPool:
    N_CLIENT_THREADS = 4
    REQUESTS_PER_THREAD = 40
    BATCH = 8

    def test_pool_mode_and_basic_traffic(self, pool):
        dataset, result, _, first, server, host, port = pool
        assert server.mode == "multi-worker"
        row = row_from_dataset(dataset, 0)
        status, body = _post(host, port, "/match", {"row": row})
        assert status == 200, body
        payload = json.loads(body)
        assert payload["run"] == first
        assert payload["epoch"] == run_seq(first)

    def test_hammer_zero_5xx_epoch_consistent_metrics_sum(self, pool):
        dataset, result, store, first, server, host, port = pool
        rows = [row_from_dataset(dataset, i) for i in range(64)]
        # per stored run: the exact matches its index yields per row,
        # rendered through the same encoder the server uses
        expected_cache: dict[str, list] = {}

        def expected_for(run_id):
            if run_id not in expected_cache:
                stored = store.get(run_id)
                index = PatternIndex(stored.patterns, stored.interests)
                expected_cache[run_id] = [
                    [e.rank for e in index.match(row)] for row in rows
                ]
            return expected_cache[run_id]

        failures: list = []
        sent = [0] * self.N_CLIENT_THREADS
        stop_writer = threading.Event()
        swaps = []

        def writer():
            # Publish before the first wait: the clients can finish
            # inside one 0.15 s interval, and the hammer must overlap at
            # least one swap.
            while True:
                swaps.append(store.put(result, tags=("swap",)))
                if stop_writer.wait(0.15):
                    break

        def client(slot):
            for i in range(self.REQUESTS_PER_THREAD):
                start = (slot * 7 + i) % (len(rows) - self.BATCH)
                batch = rows[start : start + self.BATCH]
                status, body = _post(host, port, "/match", {"rows": batch})
                sent[slot] += 1
                if status != 200:
                    failures.append(("status", status, body))
                    return
                payload = json.loads(body)
                run_id = payload["run"]
                if payload["epoch"] != run_seq(run_id):
                    failures.append(("epoch", payload["epoch"], run_id))
                    return
                expected = expected_for(run_id)
                for k, res in enumerate(payload["results"]):
                    if res["matches"] != expected[start + k]:
                        failures.append(("matches", run_id, start + k))
                        return

        writer_thread = threading.Thread(target=writer, daemon=True)
        writer_thread.start()
        clients = [
            threading.Thread(target=client, args=(slot,))
            for slot in range(self.N_CLIENT_THREADS)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        stop_writer.set()
        writer_thread.join()

        assert not failures, failures[:5]
        assert swaps, "writer never published a run"

        # merged /metrics: per-worker match counters sum to client totals
        status, body = _get(host, port, "/metrics")
        assert status == 200, body
        metrics = json.loads(body)
        assert metrics["mode"] == "multi-worker"
        workers = metrics["workers"]
        assert len(workers) == 2
        assert not any(w.get("unreachable") for w in workers)
        merged_match = metrics["endpoints"]["match"]["requests"]
        per_worker = sum(
            w["endpoints"].get("match", {}).get("requests", 0)
            for w in workers
        )
        assert merged_match == per_worker
        # >= because test_pool_mode runs on a fresh pool; this pool only
        # saw this test's traffic plus the /metrics scrape itself
        assert merged_match == sum(sent)
        assert metrics["endpoints"]["match"]["errors"] == 0

    def test_workers_converge_on_new_run(self, pool):
        dataset, result, store, first, server, host, port = pool
        import time

        second = store.put(result, tags=("later",))
        row = row_from_dataset(dataset, 3)
        deadline = time.monotonic() + 10
        seen = set()
        while time.monotonic() < deadline:
            status, body = _post(host, port, "/match", {"row": row})
            assert status == 200, body
            payload = json.loads(body)
            seen.add(payload["run"])
            if payload["run"] == second:
                assert payload["epoch"] == run_seq(second)
                break
            time.sleep(0.05)
        else:
            pytest.fail(f"pool never converged on {second}; saw {seen}")

    def test_pool_requires_store(self, mined):
        dataset, result = mined
        server = PatternServer(config=ServeConfig(port=0, workers=2))
        server.publish_patterns(result.patterns, result.interests)
        with pytest.raises(RuntimeError, match="store"):
            server.start()

    def test_publish_forbidden_while_pooled(self, pool):
        _, result, _, _, server, _, _ = pool
        with pytest.raises(RuntimeError):
            server.publish_patterns(result.patterns, result.interests)


class TestSingleSocketFallback:
    """workers > 1 without SO_REUSEPORT serves in-process, one socket."""

    def test_fallback_serves(self, tmp_path, mined, monkeypatch):
        dataset, result = mined
        import repro.serve.workers as workers_mod

        monkeypatch.setattr(
            workers_mod, "reuseport_available", lambda: False
        )
        store = PatternStore(tmp_path / "store")
        run_id = store.put(result)
        server = PatternServer(
            store, ServeConfig(port=0, workers=2)
        )
        server.publish_run(run_id)
        host, port = server.start()
        try:
            assert server.mode == "single-socket-fallback"
            row = row_from_dataset(dataset, 0)
            status, body = _post(host, port, "/match", {"row": row})
            assert status == 200, body
            status, body = _get(host, port, "/metrics")
            assert json.loads(body)["mode"] == "single-socket-fallback"
        finally:
            server.stop()


def _child_pids(pid: int) -> list[int]:
    """Live, non-zombie children of ``pid``, read from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # state and ppid follow the parenthesised command name
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == pid and state != "Z":
            found.append(int(entry))
    return found


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _refuses(port: int) -> bool:
    try:
        socket.create_connection(("127.0.0.1", port), timeout=1).close()
    except ConnectionRefusedError:
        return True
    except OSError:
        return False
    return False


@needs_reuseport
@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="needs /proc to find the workers"
)
class TestSigterm:
    """Regression: the ``repro serve`` parent had no SIGTERM handler, so
    the default action killed it before ``stop()`` and both daemon
    workers kept serving as orphans."""

    def test_sigterm_stops_workers_and_closes_port(self, tmp_path, mined):
        _, result = mined
        PatternStore(tmp_path / "store").put(result)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                str(tmp_path / "store"), "--host", "127.0.0.1",
                "--port", str(port), "--workers", "2",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        workers: list[int] = []
        try:
            deadline = time.monotonic() + 60
            while True:
                assert proc.poll() is None, "serve exited during startup"
                try:
                    status, _ = _get("127.0.0.1", port, "/healthz")
                    if status == 200:
                        break
                except OSError:
                    pass
                assert time.monotonic() < deadline, "serve never came up"
                time.sleep(0.1)
            workers = _child_pids(proc.pid)
            assert len(workers) == 2, workers

            proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 10
            while any(map(_alive, workers)) or not _refuses(port):
                assert time.monotonic() < deadline, (
                    f"after SIGTERM: workers alive "
                    f"{[p for p in workers if _alive(p)]}, "
                    f"port refusing {_refuses(port)}"
                )
                time.sleep(0.05)
            proc.wait(timeout=10)
        finally:
            for pid in [proc.pid] + workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.wait(timeout=10)
