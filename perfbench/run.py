"""The repository benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload adult_mine --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The program under ``src/`` is imported
from that checkout (nothing needs installing).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The line before it starts
with ``# info`` and carries the environment (``nproc``,
``os.cpu_count()``), the input digest and derived figures.  Scratch
files live under ``.bench_work/`` and are removed at exit; a traced run
leaves its spans in ``.bench_out/``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from time import monotonic, sleep

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("adult_mine", "chunked_mine", "chunked_mine_par", "serve_match")

#: name -> unit, printed with ``--trace 0``.
END_TO_END = {
    "mine_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "rows_per_s": "rows/s",
}

#: name -> unit, printed with ``--trace 1``.
PER_LAYER = {
    "dataset.chunk_reads": "count",
    "dataset.bytes_read": "bytes",
    "dataset.read_s": "s",
    "partition.median_calls": "count",
    "partition.median_rows": "rows",
    "partition.median_s": "s",
    "partition.combos_s": "s",
    "partition.children": "count",
    "partition.full_space_s": "s",
    "counting.cover_of_s": "s",
    "counting.group_counts_batch_s": "s",
    "counting.cover_group_counts_s": "s",
    "counting.count_calls": "count",
    "counting.batch_calls": "count",
    "counting.cache_hit_ratio": "ratio",
    "batch.score_s": "s",
    "batch.categorical_s": "s",
    "pipeline.prune_s": "s",
    "pipeline.checks": "count",
    "pipeline.hits": "count",
    "pipeline.hit_ratio": "ratio",
    "sdad.calls": "count",
    "sdad.merges": "count",
    "sdad.self_s": "s",
    "search.self_s": "s",
    "search.partitions_evaluated": "count",
    "search.candidates_generated": "count",
    "search.yield": "ratio",
    "miner.self_s": "s",
    "miner.mine_s": "s",
    "parallel.search_s": "s",
    "parallel.tasks": "count",
    "parallel.retries": "count",
    "parallel.failures": "count",
    "parallel.efficiency": "ratio",
    "server.handle_self_s": "s",
    "server.cache_hit_ratio": "ratio",
    "index.match_batch_self_s": "s",
    "plan.validate_s": "s",
    "plan.match_mask_s": "s",
    "plan.rows": "rows",
    "store.put_s": "s",
    "store.get_s": "s",
    "workers.index_build_s": "s",
    "workers.swap_lag_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.failed": "count",
    "transport.gap_ms": "ms",
    "trace.self_sum_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or fail loudly."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    where = Path(repro.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"repro imported from {where}, not {ROOT / 'src'}")


#: ``prctl`` option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans() -> None:
    """Become the reaper of this run's orphaned descendants, so that
    ``_reap_descendants`` can wait for every process the run started,
    even one whose own parent has already exited."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me = str(os.getpid()).encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            found.append(int(entry))
    return found


def _reap_descendants(grace: float = 5.0) -> None:
    """Wait until no process started by this run is left.

    multiprocessing's resource tracker (started by the ``spawn`` context)
    is told to stop and is waited for; it would otherwise outlive the
    run by a few milliseconds.  Anything else still alive is a teardown
    slip: it gets SIGTERM at once and SIGKILL after ``grace`` seconds.
    Orphans come back here as children (``_adopt_orphans``), so the loop
    ends only when the whole tree is gone and reaped."""
    from multiprocessing import resource_tracker

    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    resource_tracker._resource_tracker._stop()
    deadline = monotonic() + grace
    sig = signal.SIGTERM
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        for child in _children():
            try:
                os.kill(child, sig)
            except ProcessLookupError:
                pass
        if monotonic() > deadline:
            sig = signal.SIGKILL
        sleep(0.01)


def _terminate(signum, frame) -> None:
    # Turn SIGTERM into an exception so every ``finally`` (server
    # teardown, child joins, scratch removal) still runs.
    raise SystemExit(128 + signum)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' is for the benchmark's own smoke tests",
    )
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    import mining
    import serving

    bench_work = ROOT / ".bench_work"
    bench_work.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=bench_work))
    # Temporary files of the program (the serve worker rendezvous) stay
    # inside the checkout too.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    try:
        if args.workload == "serve_match":
            figures = serving.run(args.seed, args.seconds, bool(args.trace),
                                  args.size, ROOT, work)
        else:
            figures = mining.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.size, work)
        if args.trace:
            _keep_spans(work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return figures


def _keep_spans(work: Path, args: argparse.Namespace) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    target = out / f"{args.workload}-seed{args.seed}.spans.jsonl"
    with open(target, "wb") as sink:
        for path in sorted(work.rglob("spans-*.jsonl")):
            sink.write(path.read_bytes())


def result_line(figures: dict, trace: bool) -> dict:
    units = PER_LAYER if trace else END_TO_END
    values = figures["layers" if trace else "metrics"]
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics without a unit: {sorted(unknown)}")
    # A layer the workload never reaches reads 0.
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return {
        "correct": figures["failed"] == 0 and finite,
        "attempted": int(figures["attempted"]),
        "failed": int(figures["failed"]),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    _adopt_orphans()
    try:
        _import_program()
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        figures = run(args)
    finally:
        _reap_descendants()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **figures["info"],
    }
    print("# info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result_line(figures, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
