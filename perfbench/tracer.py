"""Span recorder and the wrappers that put spans at layer boundaries.

Spans come only from this directory: each layer's public functions are
replaced, for the duration of a traced run, at the name the caller looks
them up under (``repro.core.sdad.partition_median``, not the defining
module, because ``sdad.py`` imports it by name).  Every span records its
name, start, end and parent; spans stay in memory and are written out
when the run ends.  A layer's self time is its span time minus the time
of the spans nested inside it, so the self times of one thread's spans
add up to the duration of its outermost span.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


class Tracer:
    """In-memory span recorder, safe to share between threads."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded (a forked child starts afresh)."""
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()  # server handler threads share it
        self._ids = itertools.count()
        self._flushed = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        frame = [next(self._ids), parent, name, perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, parent, name, start, child = frame
        duration = end - start
        if stack:
            stack[-1][4] += duration
        with self._lock:
            self.self_s[name] += duration - child
            self.calls[name] += 1
        self.spans.append(
            (span_id, parent, name, start, end, threading.get_ident())
        )

    def wrap(
        self,
        fn: Callable,
        name: str,
        count: Callable[[Counter, tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """``fn`` with a span around every call; ``count`` sees the call's
        arguments and result and adds to :attr:`counts`."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if count is not None:
                with tracer._lock:
                    count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def snapshot(self) -> dict[str, Any]:
        """Aggregates so far: self seconds, calls and counts per name."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def append_spans(self, path: Path) -> None:
        """Append the spans not yet written to a JSON-lines file."""
        pending = self.spans[self._flushed:]
        self._flushed = len(self.spans)
        with open(path, "a", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, thread in pending:
                handle.write(
                    json.dumps(
                        {
                            "pid": self.pid,
                            "thread": thread,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )

    def dump(self, directory: Path) -> None:
        """Write this process's spans and aggregates into ``directory``
        (one pair of files per process, so forked workers can share it)."""
        self.append_spans(directory / f"spans-{self.pid}.jsonl")
        (directory / f"agg-{self.pid}.json").write_text(
            json.dumps(self.snapshot())
        )


def merge_snapshots(snapshots: list[dict[str, Any]]) -> dict[str, Counter]:
    """Sum per-process aggregates into one ``{kind: Counter}`` view."""
    merged: dict[str, Counter] = {
        "self_s": Counter(), "calls": Counter(), "counts": Counter()
    }
    for snapshot in snapshots:
        for kind, values in snapshot.items():
            merged[kind].update(values)
    return merged


def read_dumps(directory: Path) -> list[dict[str, Any]]:
    """Every ``agg-<pid>.json`` written by :meth:`Tracer.dump`."""
    return [
        json.loads(path.read_text())
        for path in sorted(directory.glob("agg-*.json"))
    ]


class Patches:
    """Reversible ``setattr`` of wrappers; restores originals on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, new: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap(self, tracer: Tracer, owner: object, attr: str, name: str,
             count=None) -> None:
        self.replace(owner, attr, tracer.wrap(getattr(owner, attr), name,
                                              count))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


# -- counters read off wrapped calls -------------------------------------


def _median_rows(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    # partition_median(dataset, space, attribute, ...)
    counts["partition.median_rows"] += int(args[1].total_count)


def _children(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    counts["partition.children"] += len(result)


def _tasks(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    counts["parallel.tasks"] += len(result)


def _chunk_bytes(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    counts["dataset.bytes_read"] += int(result.nbytes)


def _plan_rows(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    # MatcherPlan.match_mask(self, rows)
    counts["plan.rows"] += len(args[1])


#: Counting-backend methods timed as the ``counting`` layer.
COUNTING_METHODS = ("cover_of", "group_counts_batch", "cover_group_counts")


def install_mining(tracer: Tracer, worker_dir: Path | None = None) -> Patches:
    """Wrap the mining layers; returns the patches to restore.

    With ``worker_dir``, process-pool workers forked during a traced
    ``n_jobs > 1`` mine reset their inherited copy of the tracer and dump
    their own spans and aggregates there after every task.
    """
    from repro.core import batch, miner, sdad, search
    from repro.counting import base, bitmap, chunked, mask
    from repro.dataset.chunked import ChunkedDataset
    from repro.parallel import scheduler

    patches = Patches()
    patches.wrap(tracer, miner.ContrastSetMiner, "mine", "miner.mine")
    patches.wrap(tracer, search.SearchEngine, "run", "search.run")
    for module in (search, scheduler):
        patches.wrap(tracer, module, "sdad_cs", "sdad.sdad_cs")
    patches.wrap(tracer, sdad, "partition_median", "partition.median",
                 _median_rows)
    patches.wrap(tracer, sdad, "find_combinations", "partition.combos",
                 _children)
    patches.wrap(tracer, sdad, "full_space", "partition.full_space")
    for attr in ("score_frames", "score_spaces"):
        patches.wrap(tracer, batch.BatchEvaluator, attr, "batch.score")
    patches.wrap(tracer, batch.BatchEvaluator, "process_categorical_combo",
                 "batch.categorical")
    for cls in (
        base.CountingBackendBase,
        mask.MaskBackend,
        bitmap.BitmapBackend,
        chunked.ChunkedBackend,
    ):
        for attr in COUNTING_METHODS:
            if attr in cls.__dict__:
                patches.wrap(tracer, cls, attr, f"counting.{attr}")
    # Every read of a chunk file, by the partition layer or the counting
    # backend, opens it here.
    patches.wrap(tracer, ChunkedDataset, "_mmap_file", "dataset.read",
                 _chunk_bytes)
    patches.wrap(tracer, scheduler, "parallel_search", "parallel.search")
    patches.wrap(tracer, scheduler, "mine_level_tasks", "parallel.plan",
                 _tasks)
    if worker_dir is not None:
        run_task = scheduler._run_task

        # functools.wraps keeps the name pickle resolves the task
        # function by, so the pool ships this wrapper to its workers.
        @functools.wraps(run_task)
        def traced_task(*args, **kwargs):
            if tracer.pid != os.getpid():
                tracer.reset()
            try:
                return run_task(*args, **kwargs)
            finally:
                tracer.dump(worker_dir)

        patches.replace(scheduler, "_run_task", traced_task)
    return patches


def install_serving(tracer: Tracer, dump_dir: Path) -> Patches:
    """Wrap the serving layers inside a ``repro serve`` process.

    Forked workers inherit the wrappers; each resets its inherited copy
    of the tracer when it starts and writes its spans and aggregates
    into ``dump_dir`` when it exits.
    """
    from repro.serve import index, plan, server, store, workers

    patches = Patches()
    patches.wrap(tracer, server.PatternServer, "handle", "server.handle")
    patches.wrap(tracer, server.PatternServer, "_index_of",
                 "workers.index_build")
    patches.wrap(tracer, store.PatternStore, "get", "store.get")
    patches.wrap(tracer, index.PatternIndex, "match_batch",
                 "index.match_batch")
    patches.wrap(tracer, plan.MatcherPlan, "validate_rows", "plan.validate")
    patches.wrap(tracer, plan.MatcherPlan, "match_mask", "plan.match_mask",
                 _plan_rows)
    worker_main = workers._worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(*args, **kwargs):
        tracer.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            tracer.dump(dump_dir)

    patches.replace(workers, "_worker_main", traced_worker_main)
    return patches
