"""The repo benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 30 --trace 0

Workloads, metrics and the reasons for both are in ``perfbench/README.md``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's inputs, machine and raw figures.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
Exits with 2, printing no result, when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: (name, unit, better) of every end-to-end metric; every workload reports each.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("answer_p50_s", "s", "lower"),
    ("cached_p50_s", "s", "lower"),
    ("answers_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: (name, unit) of every per-layer metric of a traced run.  A workload that
#: never calls a layer reports 0 for it.
PER_LAYER = (
    ("graph.ingest_s", "s"), ("graph.csr_s", "s"), ("graph.fingerprint_s", "s"),
    ("graph.delta_s", "s"), ("grid.build_s", "s"),
    ("engine.rounds_s", "s"), ("engine.ns_per_node_round", "ns"),
    ("engine.rounds_thread_s", "s"), ("engine.assemble_s", "s"),
    ("engine.frontier_s", "s"), ("engine.frontier_nodes", "count"),
    ("engine.frontier_peak_nodes", "count"), ("engine.frontier_hit_rate", "ratio"),
    ("orientation.kept_s", "s"), ("orientation.assign_s", "s"),
    ("densest.ranks_s", "s"), ("densest.forest_s", "s"), ("densest.local_s", "s"),
    ("densest.aggregate_s", "s"), ("densest.total_s", "s"),
    ("store.write_s", "s"), ("store.write_bytes", "bytes"), ("store.read_s", "s"),
    ("store.disk_hits", "count"),
    ("serve.roundtrip_s", "s"), ("serve.submit_s", "s"), ("serve.wait_s", "s"),
    ("serve.fetch_s", "s"), ("serve.result_bytes", "bytes"), ("serve.upload_s", "s"),
    ("serve.upload_bytes", "bytes"), ("serve.delta_s", "s"),
    ("serve.dedup_hit_rate", "ratio"), ("serve.rejected", "count"),
    ("trace.unattributed_s", "s"), ("trace.overhead_pct", "%"),
)

WORKLOADS = ("cold-solve", "edge-stream", "serve-mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every graph size (the self-test uses "
                             "a small scale; measurements use 1)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/repro; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The serve subprocess and the sample workers import the same sources.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    import numpy

    from common import RunConfig

    module = __import__(args.workload.replace("-", "_"))
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        outcome = module.run(RunConfig(
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            scale=args.scale, work_dir=work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    wanted = PER_LAYER if args.trace else END_TO_END
    measured = outcome.per_layer if args.trace else outcome.end_to_end
    missing = [name for name, *_ in END_TO_END if name not in outcome.end_to_end]
    if missing:
        outcome.failures.append(f"end-to-end metrics not measured: {missing}")
    metrics = {spec[0]: {"value": float(measured.get(spec[0], 0.0)),
                         "unit": spec[1]} for spec in wanted}
    failed = len(outcome.failures)
    for failure in outcome.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"perfbench: {args.workload:<12s} {name:<28s} "
              f"{metric['value']:14.6f} {metric['unit']}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": outcome.inputs, "details": outcome.details,
        "machine": {"cpu_count": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__}}))
    print(json.dumps({"correct": failed == 0,
                      "attempted": max(1, outcome.attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
