"""Small-size self-test of the benchmark; run from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload at a small scale in both modes and checks the output
contract against ``BENCHMARK.json``, that every layer a workload measures
reads above 0 in its traced run, that no process a run starts outlives it,
the self-time arithmetic of ``layers.breakdown``, the delta source, and
that the benchmark refuses to run without the program's sources.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

#: Per-layer metrics, besides ``<layer>_s`` of each name in a workload's
#: ``LAYERS``, that a workload's traced run measures and that must read
#: above 0.  A metric reading 0 means a layer call went unobserved.
MEASURED = {
    "cold-solve": ("engine.ns_per_node_round", "engine.rounds_thread_s",
                   "store.write_bytes", "store.disk_hits",
                   "trace.unattributed_s"),
    "edge-stream": ("graph.ingest_s", "store.read_s", "store.write_bytes",
                    "store.disk_hits", "engine.frontier_nodes",
                    "engine.frontier_peak_nodes", "engine.frontier_hit_rate",
                    "trace.unattributed_s"),
    "serve-mixed": ("serve.roundtrip_s", "serve.result_bytes",
                    "serve.upload_bytes", "engine.frontier_nodes",
                    "engine.frontier_peak_nodes", "engine.frontier_hit_rate",
                    "trace.unattributed_s"),
}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]


def run(*args, cwd=ROOT):
    """Run the benchmark in a session of its own; fail if any process it
    started is still running once it has exited."""
    proc = subprocess.Popen([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=600)
    finally:
        proc.kill()
        proc.wait()
    left = leftovers(proc.pid)
    assert not left, f"processes left running after {args}: {left}"
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def leftovers(session: int) -> list:
    """Pids of processes in ``session``.  Zombies count too: the benchmark
    waits for each child it starts, so any left over outlived it."""
    left = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            sid = stat.read_text().rsplit(")", 1)[1].split()[3]
        except OSError:
            continue
        if int(sid) == session:
            left.append(int(stat.parent.name))
    return left


def check_workloads(spec: dict) -> None:
    for workload in spec["workloads"]:
        module = importlib.import_module(workload["name"].replace("-", "_"))
        measured = [f"{name}_s" for name in module.LAYERS]
        measured += MEASURED[workload["name"]]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run("--workload", workload["name"], "--seed", "3",
                       "--seconds", "2", "--trace", str(trace), "--scale", "0.05")
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, done.stderr
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload["name"], trace, set(got) ^ set(want))
            for name, metric in result["metrics"].items():
                assert math.isfinite(metric["value"]), name
                if key == "end_to_end" or name in measured:
                    assert metric["value"] > 0, (workload["name"], name)
            print(f"selftest: {workload['name']} --trace {trace} ok")


def check_breakdown() -> None:
    from layers import PREFIX, ROOT as SAMPLE, breakdown

    def span(name, span_id, parent, dur):
        return {"name": name, "trace": "t", "span": span_id, "parent": parent,
                "dur": dur, "attrs": {}}

    records = [span(SAMPLE, "r", None, 10.0),
               span(PREFIX + "graph.delta", "a", "r", 4.0),
               span("session.solve", "p", "a", 3.0),     # a program span
               span(PREFIX + "graph.csr", "b", "p", 2.5),
               span(PREFIX + "engine.rounds", "c", "r", 3.0),
               dict(span(PREFIX + "graph.csr", "x", None, 9.0), trace="other")]
    out = breakdown(records, "t")
    assert out["self"] == {"graph.delta": 1.5, "graph.csr": 2.5,
                           "engine.rounds": 3.0}, out
    assert out["total"]["graph.delta"] == 4.0
    assert abs(out["unattributed"] - 3.0) < 1e-12, out
    print("selftest: layer self times ok")


def check_deltas() -> None:
    import inputs

    data = inputs.chung_lu(500, 7)
    assert data.describe("x") == inputs.chung_lu(500, 7).describe("x")
    source = inputs.DeltaSource(data, 8)
    touched = set()
    for _ in range(20):
        delta = source.next()
        pairs = [frozenset(e[:2]) for e in
                 delta.remove_edges + delta.set_weights + delta.add_edges]
        assert not touched & set(pairs), "an edge was touched twice"
        touched |= set(pairs)
    print("selftest: inputs and deltas ok")


def check_refuses_bare_directory() -> None:
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run("--workload", "cold-solve", "--seed", "1", "--seconds", "1",
                   cwd=bare)
        assert done.returncode != 0 and not done.stdout.strip(), done.stdout
    finally:
        shutil.rmtree(bare)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print("selftest: refuses a checkout without sources ok")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_breakdown()
    check_deltas()
    check_refuses_bare_directory()
    check_workloads(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
