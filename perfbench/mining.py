"""Mining workloads: ``adult_mine``, ``chunked_mine``, ``chunked_mine_par``.

The bench process builds the inputs (timed, several times), then runs
every mine in one fresh child process so that ``peak_rss_mb`` measures
the mining process alone, not the generator.  The child warms up with
one untimed mine, then mines repeatedly for the run's seconds.  It
reads its peak RSS before the output oracles, whose memory is not the
miner's.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, sleep
from typing import Any

import numpy as np

import tracer as btracer

#: ``BENCH_batch.json`` scale 1.0 digest: Adult at its default seed,
#: depth 3, bitmap backend.
ADULT_PINNED_SEED = 101
ADULT_PINNED_DIGEST = (
    "c854b42be06a17603a71c7f8c27f04a6f7ea392ab15b124e9568b7a14ee530ab"
)

#: Timed mines made however long they take.
MIN_MINES = 2


@dataclass(frozen=True)
class Size:
    adult_scale: float
    adult_depth: int
    chunk_rows: int
    n_chunks: int
    chunk_depth: int


SIZES = {
    "full": Size(1.0, 3, 262_144, 4, 2),
    "tiny": Size(0.15, 2, 4_096, 4, 2),
}


# -- inputs ---------------------------------------------------------------


def adult_dataset(scale: float, seed: int):
    from repro.dataset import uci

    return uci.adult(scale=scale, seed=seed)


def dataset_digest(dataset) -> str:
    """sha256 over a dataset's columns and group codes."""
    digest = hashlib.sha256()
    for name in dataset.schema.names:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(dataset.column(name)).tobytes())
    digest.update(np.ascontiguousarray(dataset.group_codes).tobytes())
    return digest.hexdigest()


def _telemetry_schema():
    from repro import Attribute, Schema

    return Schema.of(
        [Attribute.continuous(f"metric_{i}") for i in range(8)]
        + [Attribute.categorical("region", ["us-east", "us-west", "eu",
                                            "apac"])]
    )


def _telemetry_chunk(schema, rng: np.random.Generator, n: int):
    """One chunk of the telemetry stream: 8 continuous metrics and a
    region, with contrasts planted on ``metric_0`` and ``region``."""
    from repro import Dataset

    group = rng.integers(0, 2, n)
    columns: dict[str, np.ndarray] = {
        "metric_0": rng.gamma(2.0, 1.0, n) + np.where(group == 1, 1.5, 0.0)
    }
    for i in range(1, 8):
        columns[f"metric_{i}"] = rng.uniform(0.0, 100.0, n)
    columns["region"] = np.where(
        group == 1,
        rng.choice(4, n, p=[0.1, 0.2, 0.6, 0.1]),
        rng.choice(4, n, p=[0.3, 0.3, 0.1, 0.3]),
    )
    return Dataset(schema, columns, group, ["ok", "degraded"])


def pack_telemetry_store(path: Path, size: Size, seed: int) -> str:
    """Generate the telemetry rows chunk by chunk into a new store at
    ``path``; returns the digest of the generated input."""
    from repro import ChunkedDataset

    schema = _telemetry_schema()
    rng = np.random.default_rng(seed)
    store = ChunkedDataset.create(path, schema, ["ok", "degraded"])
    for _ in range(size.n_chunks):
        store.append(
            _telemetry_chunk(schema, rng, size.chunk_rows),
            chunk_size=size.chunk_rows,
        )
    return hashlib.sha256(
        "\n".join(store.chunk_digests()).encode()
    ).hexdigest()


# -- mining ---------------------------------------------------------------


def miner_config(workload: str, size: Size):
    from repro import MinerConfig

    if workload == "adult_mine":
        return MinerConfig(max_tree_depth=size.adult_depth,
                           counting_backend="bitmap")
    return MinerConfig(max_tree_depth=size.chunk_depth)


def patterns_digest(patterns) -> str:
    from repro.core.serialize import patterns_to_dicts

    payload = json.dumps(patterns_to_dicts(patterns), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of its finished children (the pool
    workers).  ``VmHWM``, not ``RUSAGE_SELF``: Linux carries ``ru_maxrss``
    across exec, so a spawned child would report the bench's own peak."""
    with open("/proc/self/status", encoding="ascii") as status:
        own = next(int(line.split()[1]) for line in status
                   if line.startswith("VmHWM:"))
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _settle(timeout: float = 30.0) -> None:
    """Wait for the pool workers of a finished ``n_jobs > 1`` mine.

    The program shuts its pool down without waiting, so workers are
    still exiting when ``mine`` returns; waiting here keeps their exit
    out of whatever is measured next (and reaps them, so their peak RSS
    is counted)."""
    deadline = perf_counter() + timeout
    while multiprocessing.active_children() and perf_counter() < deadline:
        sleep(0.01)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0


def recount_failures(patterns, dataset) -> int:
    """Patterns whose per-group counts differ from a brute-force recount
    through ``Itemset.cover`` and ``Dataset.group_counts``."""
    bad = 0
    for pattern in patterns:
        counts = dataset.group_counts(pattern.itemset.cover(dataset))
        if tuple(int(c) for c in counts) != tuple(pattern.counts):
            bad += 1
    return bad


def _child(conn, spec: dict[str, Any]) -> None:
    """Mining process body; reports over ``conn``."""
    from repro import ChunkedDataset, ContrastSetMiner

    # A spawned child inherits "spawn" as its default start method; put
    # back the platform default so the program's process pool starts
    # its workers as it would in a user's own process.
    multiprocessing.set_start_method(None, force=True)
    os.setpgrp()
    size = SIZES[spec["size"]]
    workload = spec["workload"]
    config = miner_config(workload, size)
    data = (
        adult_dataset(size.adult_scale, spec["seed"])
        if workload == "adult_mine"
        else ChunkedDataset(spec["store"])
    )
    n_jobs = 2 if workload == "chunked_mine_par" else 1
    miner = ContrastSetMiner(config)

    def mine(jobs: int):
        started = perf_counter()
        result = miner.mine(data, n_jobs=jobs)
        elapsed = perf_counter() - started
        _settle()
        return result, elapsed

    # The warm-up is serial on every workload: on chunked_mine_par it is
    # also the serial reference the 2-job patterns must equal byte for byte.
    reference, warm_s = mine(1)
    want = patterns_digest(reference.patterns)
    conn.send({"warm_s": warm_s})

    times: list[float] = []
    attempted, failed = 1, 0
    layers: dict[str, Any] = {}

    def check(result) -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += patterns_digest(result.patterns) != want

    def timed(jobs: int) -> float:
        result, elapsed = mine(jobs)
        check(result)
        return elapsed

    if not spec["trace"]:
        started = perf_counter()
        # Mine while the next mine is expected to end within the run's
        # seconds (at least MIN_MINES mines).
        while True:
            times.append(timed(n_jobs))
            elapsed = perf_counter() - started
            if len(times) >= MIN_MINES and (
                elapsed * (len(times) + 1) / len(times) > spec["seconds"]
            ):
                break
    else:
        layers = _traced_mines(spec, miner, data, n_jobs, timed, check)
        times = layers["untraced"]
    peak_rss_mb = _peak_rss_mb()

    pinned = (
        workload == "adult_mine"
        and spec["size"] == "full" and spec["seed"] == ADULT_PINNED_SEED
    )
    failed += pinned and want != ADULT_PINNED_DIGEST
    if workload == "adult_mine":
        full = data
    else:
        full = data.to_dataset()
    failed += recount_failures(reference.patterns, full) > 0
    conn.send({
        "times": times,
        "peak_rss_mb": peak_rss_mb,
        "n_rows": reference.dataset.n_rows,
        "n_jobs": n_jobs,
        "n_patterns": len(reference.patterns),
        "digest": want,
        "pinned_oracle": pinned,
        "attempted": attempted,
        "failed": failed,
        "layers": layers,
    })


def _traced_mines(spec, miner, data, n_jobs: int, timed, check
                  ) -> dict[str, Any]:
    """Fixed sequence of untraced and traced mines (never time-boxed, so
    every count repeats exactly between runs with one seed)."""
    rounds = 5 if spec["workload"] == "adult_mine" else 2
    work = Path(spec["work"])
    worker_dir = work / "trace-workers"
    worker_dir.mkdir(exist_ok=True)
    tracer = btracer.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    serial: list[float] = []
    stats = None
    for _ in range(rounds):
        if n_jobs > 1:
            serial.append(timed(1))
        untraced.append(timed(n_jobs))
        with btracer.install_mining(tracer, worker_dir):
            started = perf_counter()
            result = miner.mine(data, n_jobs=n_jobs)
            traced.append(perf_counter() - started)
        _settle()
        check(result)
        stats = result.stats
    tracer.dump(work)
    merged = btracer.merge_snapshots(
        [tracer.snapshot()] + btracer.read_dumps(worker_dir)
    )
    return {
        "untraced": untraced,
        "traced_mines": rounds,
        "traced": traced,
        "serial": serial,
        "aggregates": {k: dict(v) for k, v in merged.items()},
        "parent_self_s": dict(tracer.self_s),
        "stats": _stats_fields(stats),
        "n_patterns": len(result.patterns),
    }


def _stats_fields(stats) -> dict[str, Any]:
    return {
        "count_calls": stats.count_calls,
        "batch_calls": stats.batch_calls,
        "cache_hit_rate": stats.cache_hit_rate,
        "prune_seconds": sum(stats.prune_rule_seconds.values()),
        "prune_checks": sum(stats.prune_rule_checks.values()),
        "prune_hits": sum(stats.prune_rule_hits.values()),
        "sdad_calls": stats.sdad_calls,
        "merges": stats.merges_performed,
        "partitions_evaluated": stats.partitions_evaluated,
        "candidates_generated": stats.candidates_generated,
        "retries": stats.tasks_retried,
        "failures": (
            stats.task_errors + stats.task_timeouts + stats.worker_crashes
            + stats.serial_fallbacks
        ),
    }


# -- the workload ---------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool,
        size_name: str, work: Path) -> dict[str, Any]:
    """Build inputs, mine in a child process, return the run's figures."""
    size = SIZES[size_name]
    builds: list[float] = []
    store = work / "store"
    for _ in range(3):
        shutil.rmtree(store, ignore_errors=True)
        started = perf_counter()
        if workload == "adult_mine":
            input_digest = dataset_digest(adult_dataset(size.adult_scale,
                                                         seed))
        else:
            input_digest = pack_telemetry_store(store, size, seed)
        builds.append(perf_counter() - started)

    spec = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "size": size_name, "store": str(store),
        "work": str(work),
    }
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_child, args=(child_conn, spec),
                          name=f"perfbench-{workload}")
    started = perf_counter()
    process.start()
    child_conn.close()
    try:
        warm = parent_conn.recv()
        warm_wall = perf_counter() - started
        out = parent_conn.recv()
    except BaseException:
        # The child leads its own process group: this also stops the
        # pool workers of an n_jobs=2 mine.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:  # not yet its own group leader
            process.kill()
        raise
    finally:
        process.join()
    if process.exitcode != 0:
        raise RuntimeError(f"{workload}: mining process exited "
                           f"{process.exitcode}")

    report: dict[str, Any] = {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "info": {
            "input_digest": input_digest,
            "patterns_digest": out["digest"],
            "pinned_oracle": out["pinned_oracle"],
            "n_patterns": out["n_patterns"],
            "n_rows": out["n_rows"],
            "n_jobs": out["n_jobs"],
            "warmup_mine_s": warm["warm_s"],
            "mines": len(out["times"]),
        },
    }
    mine_s = statistics.median(out["times"])
    report["info"]["rows_per_s_per_core"] = (
        out["n_rows"] / mine_s / out["n_jobs"]
    )
    if not trace:
        report["metrics"] = {
            "mine_s": mine_s,
            "peak_rss_mb": out["peak_rss_mb"],
            "setup_s": statistics.median(builds) + warm_wall,
            "rows_per_s": out["n_rows"] / mine_s,
        }
    else:
        report["layers"] = mining_layers(out["layers"])
    return report


def mining_layers(layers: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of the traced mines, per traced mine."""
    n = layers["traced_mines"]
    agg = layers["aggregates"]
    self_s = agg["self_s"]
    counts = agg["counts"]
    calls = agg["calls"]
    st = layers["stats"]
    traced_s = statistics.mean(layers["traced"])
    untraced_s = statistics.mean(layers["untraced"])
    parent_sum = sum(layers["parent_self_s"].values()) / n

    def per(value: float) -> float:
        return value / n

    out = {
        "dataset.chunk_reads": per(calls.get("dataset.read", 0)),
        "dataset.bytes_read": per(counts.get("dataset.bytes_read", 0)),
        "dataset.read_s": per(self_s.get("dataset.read", 0.0)),
        "partition.median_calls": per(calls.get("partition.median", 0)),
        "partition.median_rows": per(counts.get("partition.median_rows", 0)),
        "partition.median_s": per(self_s.get("partition.median", 0.0)),
        "partition.combos_s": per(self_s.get("partition.combos", 0.0)),
        "partition.children": per(counts.get("partition.children", 0)),
        "partition.full_space_s": per(
            self_s.get("partition.full_space", 0.0)
        ),
        "counting.cover_of_s": per(self_s.get("counting.cover_of", 0.0)),
        "counting.group_counts_batch_s": per(
            self_s.get("counting.group_counts_batch", 0.0)
        ),
        "counting.cover_group_counts_s": per(
            self_s.get("counting.cover_group_counts", 0.0)
        ),
        "counting.count_calls": st["count_calls"],
        "counting.batch_calls": st["batch_calls"],
        "counting.cache_hit_ratio": st["cache_hit_rate"],
        "batch.score_s": per(self_s.get("batch.score", 0.0)),
        "batch.categorical_s": per(self_s.get("batch.categorical", 0.0)),
        "pipeline.prune_s": st["prune_seconds"],
        "pipeline.checks": st["prune_checks"],
        "pipeline.hits": st["prune_hits"],
        "pipeline.hit_ratio": ratio(st["prune_hits"],
                                           st["prune_checks"]),
        "sdad.calls": st["sdad_calls"],
        "sdad.merges": st["merges"],
        "sdad.self_s": per(self_s.get("sdad.sdad_cs", 0.0)),
        "search.self_s": per(self_s.get("search.run", 0.0)),
        "search.partitions_evaluated": st["partitions_evaluated"],
        "search.candidates_generated": st["candidates_generated"],
        "search.yield": ratio(layers["n_patterns"],
                                     st["partitions_evaluated"]),
        "miner.self_s": per(self_s.get("miner.mine", 0.0)),
        "miner.mine_s": traced_s,
        "parallel.search_s": per(self_s.get("parallel.search", 0.0)),
        "parallel.tasks": per(counts.get("parallel.tasks", 0)),
        "parallel.retries": st["retries"],
        "parallel.failures": st["failures"],
        "parallel.efficiency": (
            statistics.mean(layers["serial"]) / (2 * untraced_s)
            if layers["serial"]
            else 0.0
        ),
        "trace.self_sum_ratio": parent_sum / traced_s,
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
    }
    return out
