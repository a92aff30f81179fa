"""Timing comparisons between the array engines (excluded from tier-1).

Run with ``python -m pytest -m bench`` (see pytest.ini).  The full engine
comparison — shard plans, thread mode and out-of-core rows on larger graphs —
is ``scripts/bench.py``; this in-suite variant uses a smaller graph so it
stays runnable anywhere.
"""

from __future__ import annotations

import time

import pytest

from repro.engine import get_engine
from repro.graph.generators.random_graphs import barabasi_albert


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.bench
def test_sharded_within_2x_of_vectorized():
    graph = barabasi_albert(30_000, 3, seed=77)
    rounds = 8
    vec = get_engine("vectorized")
    sharded = get_engine("sharded", num_shards=8)
    vec.run(graph, 2, track_kept=False)  # warm-up (CSR conversion dominates cold)
    vec_seconds = _best_of(lambda: vec.run(graph, rounds, track_kept=False))
    sharded_seconds = _best_of(lambda: sharded.run(graph, rounds, track_kept=False))
    assert sharded_seconds <= 2.0 * vec_seconds + 0.05, \
        f"sharded {sharded_seconds:.3f}s vs vectorized {vec_seconds:.3f}s"


@pytest.mark.bench
def test_batch_runner_amortises_csr_conversion():
    from repro.engine import BatchJob, BatchRunner

    graph = barabasi_albert(10_000, 3, seed=78)
    runner = BatchRunner("vectorized")
    start = time.perf_counter()
    runner.run_job(BatchJob(graph=graph, rounds=4))
    cold = time.perf_counter() - start
    start = time.perf_counter()
    runner.run_job(BatchJob(graph=graph, rounds=4))
    warm = time.perf_counter() - start
    assert warm <= cold  # second job reuses the cached CSR view
