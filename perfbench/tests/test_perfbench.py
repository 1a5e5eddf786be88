"""Self-tests of the benchmark, at tiny input sizes.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import mining  # noqa: E402
import run  # noqa: E402  (the benchmark's entry module)
import serving  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
COUNT_UNITS = {"count", "rows", "bytes"}


def bench(workload: str, seed: int, trace: int, seconds: float = 1.0):
    """Run one tiny benchmark invocation; returns (info, result)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("# info ")
    return json.loads(lines[-2][len("# info "):]), json.loads(lines[-1])


@lru_cache(maxsize=None)
def cached(workload: str, seed: int, trace: int):
    return bench(workload, seed, trace)


def _bench_processes() -> list[str]:
    """Command lines of live processes working in the scratch area."""
    found = []
    marker = str(ROOT / ".bench_work")
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            raw = Path(f"/proc/{entry}/cmdline").read_bytes()
            state = Path(f"/proc/{entry}/stat").read_bytes()
        except OSError:
            continue
        if marker in raw.decode(errors="replace") and b") Z" not in state:
            found.append(raw.replace(b"\0", b" ").decode(errors="replace"))
    return found


def test_metric_names_units_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == table
        for name, unit in table.items():
            assert NAME.fullmatch(name) and len(name) <= 64
            assert UNIT.fullmatch(unit)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke(workload):
    info, result = cached(workload, 3, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name
    assert info["nproc"] >= 1 and info["cpu_count"] >= 1
    assert not _bench_processes()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_is_honoured(workload):
    first, _ = cached(workload, 3, 0)
    again, _ = cached(workload, 3, 1)
    other, _ = cached(workload, 4, 0)
    assert first["input_digest"] == again["input_digest"]
    assert first["input_digest"] != other["input_digest"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    _, first = cached(workload, 3, 1)
    _, second = bench(workload, 3, 1)
    assert list(first["metrics"]) == list(run.PER_LAYER)
    assert first["correct"] and second["correct"]
    for name, metric in first["metrics"].items():
        if metric["unit"] in COUNT_UNITS:
            assert metric["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", ["adult_mine", "chunked_mine"])
def test_named_layers_account_for_the_mine(workload):
    _, result = cached(workload, 3, 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # The spans nest: their self times add up to the traced mine.
    assert 0.9 <= metrics["trace.self_sum_ratio"] <= 1.1
    # And the named layers below the miner hold nearly all of it.
    assert metrics["miner.self_s"] <= 0.1 * metrics["miner.mine_s"]
    assert metrics["partition.median_calls"] > 0
    assert metrics["counting.count_calls"] > 0
    assert (metrics["dataset.chunk_reads"] > 0) == (workload ==
                                                    "chunked_mine")


def test_pinned_adult_digest_at_full_size():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adult_mine",
         "--seed", str(mining.ADULT_PINNED_SEED), "--seconds", "1",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2][len("# info "):])
    assert json.loads(lines[-1])["correct"] is True
    assert info["pinned_oracle"] is True
    assert info["patterns_digest"] == mining.ADULT_PINNED_DIGEST


def test_batch_answer_keeps_run_and_results_without_patterns():
    # A pattern string that reads like the results key must not confuse it.
    body = (
        rb'{"run":"r1","epoch":2,"count":2,"patterns":{"0":{"x":'
        rb'",\"results\":["}},"results":[{"count":1,"matches":[0]},'
        rb'{"count":0,"matches":[]}]}' + b"\n"
    )
    full = json.loads(body)
    short = json.loads(serving._without_patterns(body))
    assert "patterns" not in short
    assert short == {k: v for k, v in full.items() if k != "patterns"}
    assert serving._without_patterns(b'{"error":"x"}') == b'{"error":"x"}'


def _running() -> dict[int, int]:
    """Parent pid of every process that has not exited, from ``/proc``."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = Path(f"/proc/{entry}/stat").read_bytes().rsplit(
                b")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != b"Z":
            parents[int(entry)] = int(fields[1])
    return parents


def _descendants(pid: int) -> set[int]:
    parents = _running()
    found, frontier = set(), {pid}
    while frontier:
        frontier = {p for p, pp in parents.items() if pp in frontier}
        found |= frontier
    return found


@pytest.mark.parametrize("workload, expected", [
    ("serve_match", 3),       # repro serve and its two workers
    ("chunked_mine_par", 3),  # the mining process and its two pool workers
])
def test_nothing_outlives_a_run_stopped_partway(workload, expected):
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "30", "--trace", "0",
         "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        while len(started := _descendants(proc.pid)) < expected:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    out = proc.stdout.read().decode()
    proc.stdout.close()
    assert proc.returncode != 0
    assert '"correct"' not in out
    deadline = time.monotonic() + 10
    while started & set(_running()) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not started & set(_running())
    assert not _bench_processes()


def _in_session(sid: int) -> list[int]:
    """Processes of session ``sid``, zombies included."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_bytes()
        except OSError:
            continue
        if int(stat.rsplit(b")", 1)[1].split()[3]) == sid:
            found.append(int(entry))
    return found


@pytest.mark.parametrize("workload", ["adult_mine", "chunked_mine_par"])
def test_nothing_outlives_a_finished_run(workload):
    # Checked the moment the run exits, with no grace period: a helper
    # such as multiprocessing's resource tracker must already be gone.
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=300) == 0
    assert not _in_session(proc.pid)
    assert not _bench_processes()


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes()
    )
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adult_mine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
