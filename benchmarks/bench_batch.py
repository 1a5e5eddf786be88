"""Batch evaluation engine: end-to-end speed with pinned patterns.

Times the depth-3 Adult mining run (bitmap backend) through the miner's
one candidate lifecycle, the vectorized batch evaluator, and asserts
that each scale's pattern fingerprint (sha256 of the serialised pattern
list) equals the ``patterns_sha256`` committed in ``BENCH_batch.json``,
so a timing is only ever reported for the committed output.

``BENCH_batch.json`` is read, never rewritten.  Its ``batch_seconds``
are the baseline this bench compares against.  Its ``scalar_seconds`` and
``speedup_vs_scalar`` are history: they timed a per-candidate scalar
lifecycle the miner no longer has (DESIGN.md §12).

Run standalone:  PYTHONPATH=src python benchmarks/bench_batch.py
Under pytest the bench runs a reduced smoke check (fewer repeats, the
small scale only).
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter

from bench_artifacts import read_bench_artifact

from repro import ContrastSetMiner, MinerConfig
from repro.core.serialize import patterns_to_dicts
from repro.dataset import uci

DEPTH = 3
BACKEND = "bitmap"
SCALES = (0.15, 1.0)
REPEATS = 5


def _fingerprint(patterns) -> str:
    payload = json.dumps(patterns_to_dicts(patterns), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _scale_key(scale: float) -> str:
    return "scale_" + str(scale).replace(".", "_")


def _time_mining(dataset, repeats: int):
    config = MinerConfig(max_tree_depth=DEPTH, counting_backend=BACKEND)
    result = ContrastSetMiner(config).mine(dataset)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        result = ContrastSetMiner(config).mine(dataset)
        best = min(best, perf_counter() - start)
    return best, result


def run_bench(scales=SCALES, repeats=REPEATS) -> dict:
    committed = read_bench_artifact("batch")["results"]
    results: dict[str, object] = {
        "dataset": "adult",
        "depth": DEPTH,
        "backend": BACKEND,
        "repeats": repeats,
    }
    for scale in scales:
        dataset = uci.adult(scale=scale)
        seconds, result = _time_mining(dataset, repeats)
        key = _scale_key(scale)
        fingerprint = _fingerprint(result.patterns)
        assert fingerprint == committed[key]["patterns_sha256"], (
            f"patterns drifted from BENCH_batch.json at scale {scale}"
        )
        results[key] = {
            "n_rows": dataset.n_rows,
            "batch_seconds": round(seconds, 4),
            "committed_batch_seconds": committed[key]["batch_seconds"],
            "n_patterns": len(result.patterns),
            "patterns_sha256": fingerprint,
        }
    return results


def test_batch_engine_reproduces_committed_patterns():
    """Smoke: the committed fingerprint is reproduced (asserted inside
    ``run_bench``) and a timing is recorded."""
    results = run_bench(scales=(0.15,), repeats=2)
    assert results["scale_0_15"]["batch_seconds"] > 0


def main() -> None:
    for key, value in run_bench().items():
        print(f"{key}: {value}")


if __name__ == "__main__":
    main()
