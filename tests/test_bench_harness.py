"""The standing benchmark harness cannot silently rot (bench marker).

Runs ``scripts/bench.py --smoke`` end-to-end as a subprocess (the way CI and
operators invoke it) and validates the emitted ``BENCH_PR6.json``-style
document against the schema; also validates the committed bench documents
(``BENCH_PR3.json`` / ``BENCH_PR4.json`` legacy schemas, ``BENCH_PR5.json``
through ``BENCH_PR10.json``) at the repo root when present, so a schema change
cannot strand the persisted perf trajectory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "scripts" / "bench.py"


def _load_harness():
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        import bench
    finally:
        sys.path.pop(0)
    return bench


@pytest.mark.bench
def test_smoke_run_emits_valid_document(tmp_path):
    output = tmp_path / "bench_smoke.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--smoke", "--output", str(output)],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr or proc.stdout
    document = json.loads(output.read_text(encoding="utf-8"))

    bench = _load_harness()
    bench.validate_document(document)  # raises on any schema violation
    assert document["smoke"] is True
    assert {row["config"] for row in document["engines"]} >= {
        "vectorized", "sharded-seq", "sharded-thread"}
    assert {row["tie_break"] for row in document["kept_sets"]} == {
        "history", "stable", "naive"}
    # The vectorised kept-set path must beat the reference loop even on the
    # smoke graph (the full-run acceptance bar is >= 5x at 100k nodes).
    assert all(row["speedup"] > 1.0 for row in document["kept_sets"])
    # The store scenario restarted from disk, bit-identically.
    assert document["store"]
    assert all(row["identical"] and row["disk_hits"] >= 1
               for row in document["store"])
    # The out-of-core scenario ran over mapped files, bit-identically.
    assert document["out_of_core"]
    assert {row["config"] for row in document["out_of_core"]} == {
        "mmap-seq", "mmap-thread", "mmap-traj-seq", "mmap-traj-thread"}
    assert all(row["identical"] and row["csr_bytes_on_disk"] > 0
               for row in document["out_of_core"])
    # The spilled-trajectory configs wrote the .traj buffer and resumed from
    # the surviving prefix after a simulated torn write, bit-identically.
    traj_rows = [row for row in document["out_of_core"]
                 if "traj" in row["config"]]
    assert traj_rows
    assert all(row["traj_bytes_on_disk"] > 0 and row["resumed_identical"]
               and row["resume_from_rounds"] >= 0 for row in traj_rows)
    # The serve scenario drove jobs over a real loopback socket,
    # bit-identically, and measured client-observed latency.
    assert document["serve"]
    assert all(row["identical"] and row["requests"] >= row["clients"]
               and row["p99_latency_seconds"] >= row["p50_latency_seconds"] > 0
               for row in document["serve"])
    # The densest fast path ran bit-identically against the simulator
    # reference and beat it even on the smoke graph (the full-run acceptance
    # bar is >= 5x at 100k nodes).
    assert document["densest"]
    assert all("reference_seconds" in row and row["identical"]
               and row["speedup_vs_reference"] > 1.0
               for row in document["densest"])
    # The observability tax: traced solves stayed bit-identical and a traced
    # solve recorded the hot path end to end (the ≤2% disabled-overhead bar
    # is asserted on the full run's 100k row, not the smoke graph).
    assert document["obs_overhead"]
    assert all(row["identical"] and row["spans_complete"]
               and row["spans_recorded"] >= 1
               and row["noop_span_seconds_per_call"] < 1e-5
               for row in document["obs_overhead"])
    # The streaming scenario chained deltas through the frontier path,
    # stayed bit-identical to cold solves on the mutated graphs, and
    # exercised the fallback threshold (the >1x speedup bar applies to the
    # full run's 200k graph, not the smoke graph).
    assert document["streaming"]
    assert all(row["identical"] and row["fallback_exercised"]
               and row["incremental_runs"] >= 1
               and row["incremental_fallbacks"] >= 1
               and row["updates_per_second"] > 0
               and row["apply_seconds_mean"] > 0
               for row in document["streaming"])


@pytest.mark.bench
@pytest.mark.parametrize("name", ["BENCH_PR3.json", "BENCH_PR4.json",
                                  "BENCH_PR5.json", "BENCH_PR6.json",
                                  "BENCH_PR7.json", "BENCH_PR8.json",
                                  "BENCH_PR9.json", "BENCH_PR10.json"])
def test_committed_bench_documents_match_schema(name):
    committed = REPO_ROOT / name
    if not committed.exists():
        pytest.skip(f"no committed {name}")
    document = json.loads(committed.read_text(encoding="utf-8"))
    bench = _load_harness()
    bench.validate_document(document)
    assert document["smoke"] is False  # committed trajectories are full runs


def test_validate_document_rejects_missing_sections():
    bench = _load_harness()
    with pytest.raises(ValueError, match="missing"):
        bench.validate_document({"schema": bench.SCHEMA})
