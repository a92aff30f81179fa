#!/usr/bin/env python
"""Standing benchmark harness — the repo's one perf trajectory.

Times, on seeded Barabási–Albert and Erdős–Rényi graphs:

* **engines** — cold trajectory runs for every engine × shard plan
  (``vectorized`` on its default plan, ``sharded`` — the same engine on an
  explicit plan — sequential / ``thread``, and the ``faithful`` simulator on
  graphs small enough to finish), with a bit-identical check against the
  vectorized trajectory and speedups relative to the sequential sharded
  baseline;
* **kept_sets** — the batched `kept_sets_from_trajectory` vs the per-node
  `_reference` Python loop, for all three tie-break rules;
* **sessions** — cold vs warm (request-cache) vs prefix-resumed
  `Session.coreness` requests per engine;
* **store** — a cold run against a fresh persistent artifact store vs a
  warm-*restart*-from-disk (a brand-new `Session(store=...)` on the same
  graph), with a bit-identical check — the perf trajectory of `repro.store`;
* **serve** — a load generator against a live ``repro serve`` HTTP server on
  loopback: the graph is shipped over the wire as a repro-graph-v1 document,
  then N client threads submit a mixed problem schedule (each thread walks
  the request matrix from a different offset) and long-poll every job to
  completion.  Reports p50/p99 submit-to-done latency, throughput, and the
  in-flight dedup hit-rate from ``/metrics``; one ``include=result`` fetch
  per distinct request is checked bit-identical against an in-process
  ``Session.solve`` on the same document — the perf trajectory of
  `repro.serve.http`;
* **densest** — the Theorem I.3 weak-densest pipeline end to end:
  ``weak_densest_subsets(engine="array")`` (phases 2-4 on the CSR kernels of
  `repro.engine.densest_kernels`, Phase 1 on the vectorised trajectory)
  against the faithful 4-phase simulator pipeline, with per-phase wall-times
  for the array path, a bit-identical check on the reported
  subsets/densities/assignment, and the end-to-end speedup (the simulator
  reference runs once per graph up to ``--densest-reference-max-nodes``; the
  acceptance bar is >= 5x at 100k nodes) — the perf trajectory of the
  densest fast path;
* **out_of_core** — the memory-mapped CSR mode (`sharded:storage=mmap`,
  sequential and threaded): cold (materialise the arrays on disk, then
  run over `np.memmap` views) vs warm (files revalidated by fingerprint, no
  rewrite), against the in-memory sharded baseline, with a bit-identical
  check and the on-disk array footprint — the perf trajectory of
  `repro.graph.mmap_csr`.  The ``mmap-traj-*`` configs additionally spill the
  *output* (`trajectory_storage=mmap`, sequential / thread) at a
  larger round budget ``--traj-rounds`` chosen so the full ``(T+1) × n``
  trajectory dwarfs the run's other allocations: the spilled run keeps only
  a two-row window resident, appends rounds to the on-disk ``.traj`` buffer,
  must stay bit-identical to the in-memory run — and, after the file is
  truncated mid-round to simulate a crash, a fresh engine must *resume* from
  the surviving prefix and still produce the bit-identical trajectory.

* **obs_overhead** — the observability tax: cold solves with tracing
  disabled (the default — instrumented call sites pay only a no-op guard)
  vs the same solves with a ring tracer installed, with a bit-identity
  check, the recorded span inventory of one traced solve, and the measured
  per-call cost of a disabled span — the perf trajectory of `repro.obs`.
* **streaming** — k small edge deltas chained against the largest graph:
  per-update staleness (delta application + frontier-restricted incremental
  re-solve), the incremental-vs-cold speedup with a bit-identity check, and
  a forced frontier-fraction-0 update exercising the cold-fallback
  threshold — the perf trajectory of ``Session.apply_delta``.

Results are written as machine-readable JSON (``--out``, default
``BENCH_PR10.json`` at the repo root) so future PRs have a baseline to regress
against::

    python scripts/bench.py                     # full run (10k-200k nodes)
    python scripts/bench.py --smoke             # seconds-long CI smoke run
    python scripts/bench.py --sizes 100000 --rounds 10 --workers 4
    python scripts/bench.py --out /tmp/b.json   # parameterised output path

The JSON schema (validated by ``tests/test_bench_harness.py``) is
``{"schema": "repro-bench/3", "machine": {...}, "params": {...},
"engines": [...], "kept_sets": [...], "sessions": [...], "store": [...],
"out_of_core": [...], "serve": [...]}``; every row carries its graph, timings
and speedups.  Legacy documents still validate minus the sections added later
(``repro-bench/1`` without ``store``, ``repro-bench/2`` without
``out_of_core``, and schema-3 documents written before the HTTP front-end,
the densest fast path or the observability layer without ``serve`` /
``densest`` / ``obs_overhead`` — all optional-but-validated within
schema 3), so the committed PR3-PR8 trajectories stay checkable.
Speedup claims are only meaningful relative to ``machine.cpu_count`` —
thread parallelism cannot beat the baseline on a single-CPU container, and
the JSON records that context instead of hiding it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.orientation import (  # noqa: E402
    kept_sets_from_trajectory,
    kept_sets_from_trajectory_reference,
)
from repro.engine import get_engine  # noqa: E402
from repro.engine.kernels import compact_trajectory  # noqa: E402
from repro.graph.csr import graph_to_csr  # noqa: E402
from repro.graph.generators.random_graphs import (  # noqa: E402
    barabasi_albert,
    erdos_renyi_gnp,
)
from repro.session import Session  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402

SCHEMA = "repro-bench/3"

#: Older schemas validate_document still accepts (minus the newer sections).
LEGACY_SCHEMAS = ("repro-bench/1", "repro-bench/2")

#: Keys every emitted document must carry (pinned by the bench smoke test);
#: ``store`` only exists from schema 2 on, ``out_of_core`` from schema 3.
REQUIRED_TOP_LEVEL = ("schema", "generated_by", "smoke", "machine", "params",
                      "engines", "kept_sets", "sessions", "store",
                      "out_of_core")

#: Sections every *new* document carries but older documents of the same
#: schema string may lack (added mid-schema): validated when present, never
#: required.  ``serve`` landed with the HTTP front-end and ``densest`` with
#: the array-path densest pipeline, after schema 3 documents had already
#: been committed.
OPTIONAL_TOP_LEVEL = ("serve", "densest", "obs_overhead", "streaming")

#: Sections absent from the legacy schemas (schema -> missing keys).
_LEGACY_MISSING = {"repro-bench/1": ("store", "out_of_core"),
                   "repro-bench/2": ("out_of_core",)}

#: Largest graph the faithful per-node simulator is timed on.
FAITHFUL_MAX_NODES = 20_000

#: Largest graph the faithful 4-phase densest reference (≈ ``5T + 6``
#: simulator rounds of per-node message objects) is run on for the speedup /
#: bit-identity check.  The default covers the 100k acceptance point; the
#: 200k row then reports the array path's timings only.
DENSEST_REFERENCE_MAX_NODES = 120_000


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _graphs(sizes, seed):
    for n in sizes:
        yield f"ba-{n}", barabasi_albert(n, 3, seed=seed)
        yield f"er-{n}", erdos_renyi_gnp(n, min(1.0, 6.0 / max(1, n)), seed=seed + 1)


def _engine_configs(shards, workers):
    """(label, spec dict) for every engine × parallel mode that is timed."""
    return [
        ("vectorized", {"engine": "vectorized"}),
        ("sharded-seq", {"engine": "sharded", "num_shards": shards}),
        ("sharded-thread", {"engine": "sharded", "num_shards": shards,
                            "max_workers": workers, "parallel": "thread"}),
        ("faithful", {"engine": "faithful"}),
    ]


def bench_engines(graphs, rounds, shards, workers, repeats, log, configs=None):
    """Time every engine config on every graph; ``configs`` filters by label."""
    rows = []
    for graph_name, graph in graphs:
        csr = graph_to_csr(graph)  # shared: time the engines, not the conversion
        reference = get_engine("vectorized").run(graph, rounds, track_kept=False,
                                                 csr=csr)
        baseline_seconds = None
        graph_rows = []
        for label, spec in _engine_configs(shards, workers):
            if configs is not None and label not in configs:
                continue
            if spec["engine"] == "faithful" and graph.num_nodes > FAITHFUL_MAX_NODES:
                continue
            engine = get_engine(spec["engine"],
                                **{k: v for k, v in spec.items() if k != "engine"})
            seconds = best_of(
                lambda: engine.run(graph, rounds, track_kept=False, csr=csr),
                repeats)
            result = engine.run(graph, rounds, track_kept=False, csr=csr)
            if result.trajectory is not None:
                identical = bool(np.array_equal(result.trajectory,
                                                reference.trajectory))
            else:  # the faithful simulator keeps no trajectory; compare values
                identical = result.values == reference.values
            if label == "sharded-seq":
                baseline_seconds = seconds
            graph_rows.append({
                "graph": graph_name, "n": graph.num_nodes, "m": graph.num_edges,
                "rounds": rounds, "config": label, **spec,
                "seconds": round(seconds, 6), "identical": identical,
            })
            log(f"  engines {graph_name:>12s} {label:<16s} {seconds:8.3f}s"
                f"  identical={identical}")
        if baseline_seconds is not None:
            # Backfilled after the loop so every row — including the ones
            # timed before the baseline — carries the ratio.
            for row in graph_rows:
                row["speedup_vs_sharded_seq"] = round(
                    baseline_seconds / row["seconds"], 4)
        rows.extend(graph_rows)
    return rows


def bench_kept_sets(graphs, rounds, repeats, log):
    rows = []
    for graph_name, graph in graphs:
        csr = graph_to_csr(graph)
        trajectory = compact_trajectory(csr, rounds)
        for tie_break in ("history", "stable", "naive"):
            reference_seconds = best_of(
                lambda: kept_sets_from_trajectory_reference(
                    csr, trajectory, tie_break=tie_break), max(1, repeats - 1))
            vectorized_seconds = best_of(
                lambda: kept_sets_from_trajectory(
                    csr, trajectory, tie_break=tie_break), repeats)
            identical = kept_sets_from_trajectory(
                csr, trajectory, tie_break=tie_break) == \
                kept_sets_from_trajectory_reference(
                    csr, trajectory, tie_break=tie_break)
            speedup = reference_seconds / vectorized_seconds
            rows.append({
                "graph": graph_name, "n": graph.num_nodes, "m": graph.num_edges,
                "rounds": rounds, "tie_break": tie_break,
                "reference_seconds": round(reference_seconds, 6),
                "vectorized_seconds": round(vectorized_seconds, 6),
                "speedup": round(speedup, 4), "identical": identical,
            })
            log(f"  kept    {graph_name:>12s} {tie_break:<8s} reference "
                f"{reference_seconds:7.3f}s vectorized {vectorized_seconds:7.3f}s "
                f"speedup {speedup:5.1f}x identical={identical}")
    return rows


def bench_sessions(graphs, rounds, shards, workers, log):
    rows = []
    for graph_name, graph in graphs:
        for label, spec in _engine_configs(shards, workers):
            if spec["engine"] == "faithful":
                continue  # the session layer adds nothing to replay per node
            options = {k: v for k, v in spec.items() if k != "engine"}

            session = Session(graph, engine=spec["engine"], **options)
            start = time.perf_counter()
            session.coreness(rounds=rounds)
            cold = time.perf_counter() - start
            start = time.perf_counter()
            session.coreness(rounds=rounds)
            warm = time.perf_counter() - start

            resumed_session = Session(graph, engine=spec["engine"], **options)
            resumed_session.coreness(rounds=max(1, rounds - 2))
            start = time.perf_counter()
            resumed_session.coreness(rounds=rounds)
            resumed = time.perf_counter() - start

            rows.append({
                "graph": graph_name, "n": graph.num_nodes, "m": graph.num_edges,
                "rounds": rounds, "config": label, **spec,
                "cold_seconds": round(cold, 6), "warm_seconds": round(warm, 6),
                "resumed_seconds": round(resumed, 6),
                "speedup_warm": round(cold / warm, 2) if warm > 0 else float("inf"),
            })
            log(f"  session {graph_name:>12s} {label:<16s} cold {cold:7.3f}s "
                f"warm {warm:9.6f}s resumed {resumed:7.3f}s")
    return rows


def bench_store(graphs, rounds, log):
    """Cold run against a fresh store vs warm restart of a brand-new session."""
    rows = []
    for graph_name, graph in graphs:
        with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
            store = ArtifactStore(tmp)
            cold_session = Session(graph, store=store)
            start = time.perf_counter()
            cold_result = cold_session.coreness(rounds=rounds)
            cold = time.perf_counter() - start

            restarted = Session(graph, store=store)  # fresh process stand-in
            start = time.perf_counter()
            restart_result = restarted.coreness(rounds=rounds)
            restart = time.perf_counter() - start

            identical = restart_result.values == cold_result.values and \
                bool(np.array_equal(restart_result.surviving.trajectory,
                                    cold_result.surviving.trajectory))
            rows.append({
                "graph": graph_name, "n": graph.num_nodes, "m": graph.num_edges,
                "rounds": rounds,
                "cold_seconds": round(cold, 6),
                "restart_seconds": round(restart, 6),
                "speedup_restart": round(cold / restart, 2)
                if restart > 0 else float("inf"),
                "disk_hits": restarted.stats.disk_hits,
                "store_bytes": store.info()["bytes"],
                "identical": identical,
            })
            log(f"  store   {graph_name:>12s} cold {cold:7.3f}s "
                f"restart {restart:9.6f}s identical={identical}")
    return rows


def bench_serve(graphs, rounds, serve_workers, clients, log):
    """N client threads of mixed problems against a live loopback server.

    The graph crosses the wire as a repro-graph-v1 document (so the reference
    session below consumes the *same* document — CSR fingerprints hash
    adjacency insertion order).  Each client thread owns one keep-alive
    connection and walks the request matrix (coreness / orientation × two
    round budgets) from its own offset, so distinct requests race and
    identical in-flight ones exercise the dedup path.  Latency is
    submit-to-done per request (summary polling, so the measurement is not
    dominated by shipping per-node JSON); one ``include=result`` fetch per
    distinct request is compared bit-for-bit against ``Session.solve``.
    """
    import threading

    from repro.graph import io as graph_io
    from repro.serve.client import ServeClient
    from repro.serve.http import ReproHTTPServer

    rows = []
    for graph_name, graph in graphs:
        payload = graph_io.to_dict(graph)
        requests = [{"problem": problem, "rounds": budget}
                    for problem in ("coreness", "orientation")
                    for budget in (max(1, rounds // 2), rounds)]
        with ReproHTTPServer(workers=serve_workers) as server:
            with ServeClient(server.host, server.port) as setup:
                fingerprint = setup.upload_graph(graph_io.from_dict(payload))
            latencies, failures = [], []
            lock = threading.Lock()

            def hammer(thread_index):
                try:
                    with ServeClient(server.host, server.port,
                                     tenant=f"bench-{thread_index}") as cli:
                        offset = thread_index % len(requests)
                        for request in (requests[offset:]
                                        + requests[:offset]):
                            start = time.perf_counter()
                            issued = cli.submit(fingerprint, **request)
                            cli.result(issued["job"])
                            elapsed = time.perf_counter() - start
                            with lock:
                                latencies.append(elapsed)
                except Exception as exc:  # pragma: no cover - diagnostics
                    with lock:
                        failures.append(f"client {thread_index}: {exc!r}")

            start_total = time.perf_counter()
            threads = [threading.Thread(target=hammer, args=(index,))
                       for index in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            total_seconds = time.perf_counter() - start_total
            if failures:
                raise RuntimeError(f"serve bench clients failed: {failures}")

            # Bit-identity: one full-result fetch per distinct request vs the
            # in-process session on the same document.
            reference = Session(graph_io.from_dict(payload))
            identical = True
            with ServeClient(server.host, server.port) as checker:
                for request in requests:
                    issued = checker.submit(fingerprint, **request)
                    doc = checker.result(issued["job"], include_result=True)
                    want = json.loads(json.dumps(reference.solve(
                        request["problem"],
                        rounds=request["rounds"]).to_dict()))
                    identical = identical and doc["result"] == want
                metrics = checker.metrics()
        serve_stats = metrics["serve"]
        observed = serve_stats["submitted"] + serve_stats["dedup_hits"]
        row = {
            "graph": graph_name, "n": graph.num_nodes, "m": graph.num_edges,
            "rounds": rounds, "config": f"serve-{clients}x{serve_workers}",
            "clients": clients, "serve_workers": serve_workers,
            "requests": len(latencies),
            "total_seconds": round(total_seconds, 6),
            "throughput_rps": round(len(latencies) / total_seconds, 4)
            if total_seconds > 0 else float("inf"),
            "p50_latency_seconds": round(
                float(np.percentile(latencies, 50)), 6),
            "p99_latency_seconds": round(
                float(np.percentile(latencies, 99)), 6),
            "submitted": serve_stats["submitted"],
            "dedup_hits": serve_stats["dedup_hits"],
            "dedup_hit_rate": round(serve_stats["dedup_hits"] / observed, 4)
            if observed else 0.0,
            "identical": identical,
        }
        rows.append(row)
        log(f"  serve   {graph_name:>12s} {row['config']:<14s} "
            f"p50 {row['p50_latency_seconds']:8.4f}s "
            f"p99 {row['p99_latency_seconds']:8.4f}s "
            f"{row['throughput_rps']:7.2f} req/s "
            f"dedup {row['dedup_hit_rate']:.0%} identical={identical}")
    return rows


def bench_densest(graphs, densest_rounds, repeats, log,
                  reference_max_nodes=DENSEST_REFERENCE_MAX_NODES):
    """The weak-densest fast path (phases 2-4 as CSR kernels) vs the simulator.

    Every row times the array path twice over: the four phases individually
    (Phase 1 as the vectorised λ=0 trajectory, then the ``densest_kernels``
    BFS forest / per-tree elimination / aggregation on exactly the inputs the
    end-to-end run feeds them) and the end-to-end
    ``weak_densest_subsets(engine="array")`` call including dict assembly.
    Graphs up to ``reference_max_nodes`` additionally run the faithful
    4-phase simulator pipeline once (far too slow for best-of repeats) for
    the speedup and the bit-identity check on ``subsets`` /
    ``reported_densities`` / ``node_assignment`` / ``best_leader``.
    """
    from repro.core.densest import weak_densest_subsets
    from repro.core.rounds import guarantee_after_rounds
    from repro.engine.densest_kernels import (
        aggregate_and_decide,
        bfs_forest,
        identity_ranks,
        local_elimination_rounds,
    )

    T = densest_rounds
    rows = []
    for graph_name, graph in graphs:
        csr = graph_to_csr(graph)

        phase1_seconds = best_of(lambda: compact_trajectory(csr, T), repeats)
        values = np.ascontiguousarray(compact_trajectory(csr, T)[T])
        ranks_seconds = best_of(lambda: identity_ranks(csr), repeats)
        ranks = identity_ranks(csr)
        phase2_seconds = best_of(
            lambda: bfs_forest(csr, values, T, ranks=ranks), repeats)
        forest = bfs_forest(csr, values, T, ranks=ranks)
        phase3_seconds = best_of(
            lambda: local_elimination_rounds(csr, forest, values, T), repeats)
        num, deg = local_elimination_rounds(csr, forest, values, T)
        factor = guarantee_after_rounds(graph.num_nodes, T)
        phase4_seconds = best_of(
            lambda: aggregate_and_decide(forest, num, deg, values, factor),
            repeats)

        fast_seconds = best_of(
            lambda: weak_densest_subsets(graph, rounds=T, engine="array",
                                         csr=csr),
            repeats)
        fast = weak_densest_subsets(graph, rounds=T, engine="array", csr=csr)

        row = {
            "graph": graph_name, "n": graph.num_nodes, "m": graph.num_edges,
            "rounds": T, "config": "densest-array",
            "fast_seconds": round(fast_seconds, 6),
            "phase_seconds": {
                "phase1_surviving": round(phase1_seconds, 6),
                "identity_ranks": round(ranks_seconds, 6),
                "phase2_bfs_forest": round(phase2_seconds, 6),
                "phase3_local_elimination": round(phase3_seconds, 6),
                "phase4_aggregation": round(phase4_seconds, 6),
            },
            "num_subsets": len(fast.subsets),
        }
        if graph.num_nodes <= reference_max_nodes:
            start = time.perf_counter()
            reference = weak_densest_subsets(graph, rounds=T)
            reference_seconds = time.perf_counter() - start
            identical = (
                fast.subsets == reference.subsets
                and fast.reported_densities == reference.reported_densities
                and fast.node_assignment == reference.node_assignment
                and fast.best_leader == reference.best_leader)
            row.update({
                "reference_seconds": round(reference_seconds, 6),
                "speedup_vs_reference": round(
                    reference_seconds / fast_seconds, 4)
                if fast_seconds > 0 else float("inf"),
                "identical": identical,
            })
            log(f"  densest {graph_name:>12s} fast {fast_seconds:8.3f}s "
                f"reference {reference_seconds:8.3f}s "
                f"speedup {row['speedup_vs_reference']:8.1f}x "
                f"identical={identical}")
        else:
            log(f"  densest {graph_name:>12s} fast {fast_seconds:8.3f}s "
                f"(reference skipped: n > {reference_max_nodes})")
        rows.append(row)
    return rows


def bench_obs_overhead(graphs, rounds, repeats, log):
    """Traced vs untraced cold solves: tracing must be free when off.

    Per graph: best-of cold ``Session.coreness`` with tracing disabled (the
    shipping default — every instrumented call site pays only its no-op
    guard), then the same cold solve with a ring tracer installed.  The two
    must be bit-identical; the row reports the enabled-tracing overhead, the
    spans a single traced solve records (the hot path end to end must
    appear), and the measured per-call cost of a disabled ``span()`` — the
    number that has to stay negligible for the ≤2% end-to-end budget.
    """
    from repro.obs import trace as obs_trace

    required_spans = ("session.solve", "session.surviving", "engine.run",
                      "kernel.round_range")
    rows = []
    for graph_name, graph in graphs:

        def cold_solve():
            return Session(graph).coreness(rounds=rounds)

        obs_trace.disable()
        untraced_seconds = best_of(cold_solve, repeats)
        untraced_values = cold_solve().values

        # Disabled-gate microcost: what every instrumented call site pays
        # per request when tracing is off.
        calls = 100_000
        start = time.perf_counter()
        for _ in range(calls):
            with obs_trace.span("noop.probe"):
                pass
        noop_span_seconds = (time.perf_counter() - start) / calls

        tracer = obs_trace.enable()
        try:
            traced_seconds = best_of(cold_solve, repeats)
            tracer.clear()
            traced_values = cold_solve().values
            span_names = sorted({record["name"] for record in tracer.spans()})
            spans_recorded = tracer.emitted
        finally:
            obs_trace.disable()

        identical = traced_values == untraced_values
        overhead = ((traced_seconds - untraced_seconds) / untraced_seconds
                    * 100.0) if untraced_seconds > 0 else 0.0
        row = {
            "graph": graph_name, "n": graph.num_nodes, "m": graph.num_edges,
            "rounds": rounds, "config": "obs-overhead",
            "untraced_seconds": round(untraced_seconds, 6),
            "traced_seconds": round(traced_seconds, 6),
            "overhead_percent": round(overhead, 4),
            "noop_span_seconds_per_call": round(noop_span_seconds, 10),
            "spans_recorded": int(spans_recorded),
            "span_names": span_names,
            "spans_complete": all(name in span_names
                                  for name in required_spans),
            "identical": identical,
        }
        rows.append(row)
        log(f"  obs     {graph_name:>12s} untraced {untraced_seconds:7.3f}s "
            f"traced {traced_seconds:7.3f}s overhead {overhead:+6.2f}% "
            f"spans {spans_recorded:>5d} identical={identical}")
    return rows


def bench_out_of_core(graphs, rounds, shards, workers, repeats, log,
                      traj_rounds=None):
    """The memory-mapped CSR mode against the in-memory sharded baseline.

    ``cold`` pays the one-time materialisation of the arrays under the
    store layout plus the mapped run; ``warm`` re-runs with the files already
    on disk (revalidated by fingerprint, not rewritten).  Both must be
    bit-identical to the in-memory trajectory.

    The ``mmap-traj-*`` configs additionally spill the trajectory itself
    (``trajectory_storage=mmap``) at a larger round budget ``traj_rounds``
    picked so the full ``(T+1) × n`` float64 trajectory dominates the
    in-memory engine's allocations: the spilled run appends rounds to the
    on-disk ``.traj`` buffer keeping only a two-row window resident.  Each
    such row also truncates the rows file mid-round (a simulated crash) and
    re-runs on a *fresh* engine, which must resume from the surviving
    published prefix and still match the in-memory trajectory bit for bit.
    """
    from repro.store import traj as traj_store

    traj_rounds = rounds if traj_rounds is None else traj_rounds
    rows = []
    for graph_name, graph in graphs:
        csr = graph_to_csr(graph)
        baseline_engine = get_engine("sharded", num_shards=shards)
        baselines = {}

        def baseline_for(budget):
            if budget not in baselines:
                seconds = best_of(
                    lambda: baseline_engine.run(graph, budget,
                                                track_kept=False, csr=csr),
                    repeats)
                reference = baseline_engine.run(graph, budget,
                                                track_kept=False, csr=csr)
                baselines[budget] = (seconds, reference)
            return baselines[budget]

        for label, run_rounds, options in (
                ("mmap-seq", rounds, {}),
                ("mmap-thread", rounds, {"max_workers": workers,
                                         "parallel": "thread"}),
                ("mmap-traj-seq", traj_rounds,
                 {"trajectory_storage": "mmap"}),
                ("mmap-traj-thread", traj_rounds,
                 {"max_workers": workers, "parallel": "thread",
                  "trajectory_storage": "mmap"})):
            baseline_seconds, reference = baseline_for(run_rounds)
            with tempfile.TemporaryDirectory(prefix="repro-bench-mmap-") as tmp:
                engine = get_engine("sharded", num_shards=shards,
                                    storage="mmap", storage_dir=tmp,
                                    **options)
                start = time.perf_counter()
                result = engine.run(graph, run_rounds, track_kept=False, csr=csr)
                cold = time.perf_counter() - start
                warm = best_of(
                    lambda: engine.run(graph, run_rounds, track_kept=False,
                                       csr=csr),
                    repeats)
                mapped = next(iter(engine._mapped_cache.values()))
                csr_bytes = sum(path.stat().st_size
                                for path in mapped.directory.glob("*.bin"))
                identical = bool(np.array_equal(result.trajectory,
                                                reference.trajectory))
                row = {
                    "graph": graph_name, "n": graph.num_nodes,
                    "m": graph.num_edges, "rounds": run_rounds, "config": label,
                    "cold_seconds": round(cold, 6),
                    "warm_seconds": round(warm, 6),
                    "in_memory_seconds": round(baseline_seconds, 6),
                    "slowdown_vs_memory": round(warm / baseline_seconds, 4)
                    if baseline_seconds > 0 else float("inf"),
                    "csr_bytes_on_disk": csr_bytes,
                    "identical": identical,
                }
                if options.get("trajectory_storage") == "mmap":
                    engine.close()
                    fingerprint = engine._fingerprint_of(csr)
                    rows_file = traj_store.rows_path(tmp, fingerprint, 0.0)
                    row["traj_bytes_on_disk"] = rows_file.stat().st_size
                    # Simulated crash: truncate to roughly half the rows plus
                    # a torn partial row; a fresh engine must resume from the
                    # surviving prefix and match the reference bit for bit.
                    keep_rows = max(1, run_rounds // 2)
                    with open(rows_file, "r+b") as handle:
                        handle.truncate(
                            keep_rows * graph.num_nodes * 8 + 123)
                    resumed_engine = get_engine(
                        "sharded", num_shards=shards, storage="mmap",
                        storage_dir=tmp, **options)
                    start = time.perf_counter()
                    resumed = resumed_engine.run(graph, run_rounds,
                                                 track_kept=False, csr=csr)
                    row["resume_seconds"] = round(
                        time.perf_counter() - start, 6)
                    row["resume_from_rounds"] = keep_rows - 1
                    row["resumed_identical"] = bool(np.array_equal(
                        resumed.trajectory, reference.trajectory))
                    resumed_engine.close()
                rows.append(row)
                extra = ""
                if "traj_bytes_on_disk" in row:
                    extra = (f" traj {row['traj_bytes_on_disk'] / 1e6:8.1f}MB"
                             f" resumed={row['resumed_identical']}")
                log(f"  mmap    {graph_name:>12s} {label:<18s} cold {cold:7.3f}s "
                    f"warm {warm:7.3f}s memory {baseline_seconds:7.3f}s "
                    f"disk {csr_bytes / 1e6:8.1f}MB identical={identical}"
                    + extra)
                engine.close()
    return rows


def bench_streaming(graphs, rounds, log, *, updates, ops_per_update, seed,
                    frontier_fraction=0.75):
    """Edge-stream scenario: k small deltas chained against the largest graph.

    Each update mutates a handful of edges (far below 1% of m), derives the
    child session with ``Session.apply_delta`` and re-solves through the
    frontier-restricted path; a cold solve on the mutated graph checks
    bit-identity (and provides the speedup baseline) at the first and last
    update.  One extra update runs with ``max_frontier_fraction=0`` so the
    fallback threshold is exercised in every benchmark run.  ``staleness`` is
    the wall-clock from an update's arrival to a fresh result (delta
    application + incremental re-solve).
    """
    from repro.graph import GraphDelta

    graph_name, graph = max(graphs, key=lambda item: item[1].num_nodes)
    rng = np.random.default_rng(seed)
    edges = [(u, v, w) for u, v, w in graph.edges(data=True) if u != v]
    order = rng.permutation(len(edges))
    nodes = list(graph.nodes())

    session = Session(graph)
    session.coreness(rounds=rounds)   # the live parent the stream mutates
    apply_seconds, solve_seconds = [], []
    cold_seconds = []
    runs = fallbacks = recomputed = peak = 0
    identical = True
    cursor = 0
    for update in range(updates):
        take = [edges[i] for i in order[cursor:cursor + ops_per_update]]
        cursor += ops_per_update
        half = max(1, len(take) // 2)
        remove = tuple((u, v) for u, v, _ in take[:half])
        reweight = tuple((u, v, w + 1.0) for u, v, w in take[half:])
        added = []
        while len(added) < 2:
            u = nodes[int(rng.integers(0, len(nodes)))]
            v = nodes[int(rng.integers(0, len(nodes)))]
            if u != v and not session.graph.has_edge(u, v) \
                    and all(a[:2] != (u, v) and a[:2] != (v, u) for a in added):
                added.append((u, v, 2.0))
        delta = GraphDelta(add_edges=tuple(added), remove_edges=remove,
                           set_weights=reweight)

        start = time.perf_counter()
        child = session.apply_delta(delta,
                                    max_frontier_fraction=frontier_fraction)
        apply_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        incremental = child.coreness(rounds=rounds)
        solve_seconds.append(time.perf_counter() - start)
        runs += child.stats.incremental_runs
        fallbacks += child.stats.incremental_fallbacks
        recomputed += child.stats.frontier_nodes_recomputed
        peak = max(peak, child.stats.frontier_peak_nodes)

        if update in (0, updates - 1):   # cold baseline + bit-identity check
            start = time.perf_counter()
            cold = Session(child.graph).coreness(rounds=rounds)
            cold_seconds.append(time.perf_counter() - start)
            identical = identical and incremental.values == cold.values and \
                bool(np.array_equal(incremental.surviving.trajectory,
                                    cold.surviving.trajectory))
        session = child

    # Fallback threshold: fraction 0 forces the cold path through the same
    # apply_delta API; the answer must stay identical.
    take = [edges[i] for i in order[cursor:cursor + 1]]
    forced = session.apply_delta(
        GraphDelta(set_weights=tuple((u, v, w + 1.0) for u, v, w in take)),
        max_frontier_fraction=0.0)
    forced_result = forced.coreness(rounds=rounds)
    fallback_exercised = forced.stats.incremental_fallbacks == 1
    fallbacks += forced.stats.incremental_fallbacks
    fallback_cold = Session(forced.graph).coreness(rounds=rounds)
    identical = identical and forced_result.values == fallback_cold.values

    staleness = [a + s for a, s in zip(apply_seconds, solve_seconds)]
    mean = lambda xs: sum(xs) / len(xs)  # noqa: E731 - local shorthand
    cold_best = min(cold_seconds)
    row = {
        "graph": graph_name, "n": graph.num_nodes, "m": graph.num_edges,
        "rounds": rounds, "updates": updates,
        "ops_per_update": ops_per_update + 2,   # edge ops + the 2 added edges
        "frontier_fraction": frontier_fraction,
        "apply_seconds_mean": round(mean(apply_seconds), 6),
        "incremental_seconds_mean": round(mean(solve_seconds), 6),
        "staleness_seconds_mean": round(mean(staleness), 6),
        "updates_per_second": round(1.0 / mean(staleness), 2),
        "cold_seconds": round(cold_best, 6),
        "speedup_vs_cold": round(cold_best / mean(solve_seconds), 2)
        if mean(solve_seconds) > 0 else float("inf"),
        "incremental_runs": runs,
        "incremental_fallbacks": fallbacks,
        "frontier_nodes_recomputed": recomputed,
        "frontier_peak_nodes": peak,
        "fallback_exercised": fallback_exercised,
        "identical": identical,
    }
    log(f"  stream  {graph_name:>12s} {updates} updates "
        f"staleness {row['staleness_seconds_mean']:9.6f}s "
        f"cold {cold_best:7.3f}s speedup x{row['speedup_vs_cold']:.1f} "
        f"identical={identical}")
    return [row]


def run_benchmarks(sizes, rounds, shards, workers, repeats, seed, smoke,
                   log=lambda line: None, traj_rounds=None,
                   serve_clients=4, serve_workers=2, densest_rounds=6,
                   densest_reference_max_nodes=DENSEST_REFERENCE_MAX_NODES,
                   stream_updates=None, stream_ops=8) -> dict:
    if stream_updates is None:
        stream_updates = 3 if smoke else 6
    graphs = list(_graphs(sizes, seed))
    document = {
        "schema": SCHEMA,
        "generated_by": "scripts/bench.py",
        "smoke": bool(smoke),
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "params": {"sizes": list(sizes), "rounds": rounds, "shards": shards,
                   "workers": workers, "repeats": repeats, "seed": seed,
                   "traj_rounds": traj_rounds if traj_rounds is not None
                   else rounds,
                   "serve_clients": serve_clients,
                   "serve_workers": serve_workers,
                   "densest_rounds": densest_rounds,
                   "densest_reference_max_nodes": densest_reference_max_nodes,
                   "stream_updates": stream_updates, "stream_ops": stream_ops},
        "engines": bench_engines(graphs, rounds, shards, workers, repeats, log),
        "kept_sets": bench_kept_sets(graphs, rounds, repeats, log),
        "sessions": bench_sessions(graphs, rounds, shards, workers, log),
        "store": bench_store(graphs, rounds, log),
        "serve": bench_serve(graphs, rounds, serve_workers, serve_clients, log),
        "densest": bench_densest(graphs, densest_rounds, repeats, log,
                                 reference_max_nodes=densest_reference_max_nodes),
        "obs_overhead": bench_obs_overhead(graphs, rounds, repeats, log),
        "streaming": bench_streaming(graphs, rounds, log,
                                     updates=stream_updates,
                                     ops_per_update=stream_ops, seed=seed),
        "out_of_core": bench_out_of_core(graphs, rounds, shards, workers,
                                         repeats, log,
                                         traj_rounds=traj_rounds),
    }
    return document


def validate_document(document: dict) -> None:
    """Raise ``ValueError`` unless ``document`` matches the bench schema.

    Accepts the current schema and the legacy ones (older documents simply
    lack the sections added later), so committed perf trajectories from past
    PRs stay checkable.
    """
    schema = document.get("schema")
    if schema != SCHEMA and schema not in LEGACY_SCHEMAS:
        raise ValueError(f"unknown bench schema {schema!r}")
    missing_ok = _LEGACY_MISSING.get(schema, ())
    required = tuple(key for key in REQUIRED_TOP_LEVEL if key not in missing_ok)
    for key in required:
        if key not in document:
            raise ValueError(f"bench document is missing the {key!r} key")
    if not isinstance(document["machine"].get("cpu_count"), int):
        raise ValueError("machine.cpu_count must be an integer")
    for row in document["engines"]:
        for key in ("graph", "n", "m", "rounds", "config", "engine",
                    "seconds", "identical"):
            if key not in row:
                raise ValueError(f"engines row is missing {key!r}: {row}")
        if not row["identical"]:
            raise ValueError(f"engines row is not bit-identical: {row}")
    for row in document["kept_sets"]:
        for key in ("graph", "tie_break", "reference_seconds",
                    "vectorized_seconds", "speedup", "identical"):
            if key not in row:
                raise ValueError(f"kept_sets row is missing {key!r}: {row}")
        if not row["identical"]:
            raise ValueError(f"kept_sets row is not identical: {row}")
    for row in document["sessions"]:
        for key in ("graph", "config", "cold_seconds", "warm_seconds",
                    "resumed_seconds", "speedup_warm"):
            if key not in row:
                raise ValueError(f"sessions row is missing {key!r}: {row}")
    for row in document.get("store", ()):
        for key in ("graph", "cold_seconds", "restart_seconds",
                    "speedup_restart", "disk_hits", "identical"):
            if key not in row:
                raise ValueError(f"store row is missing {key!r}: {row}")
        if not row["identical"]:
            raise ValueError(f"store row is not bit-identical: {row}")
        if row["disk_hits"] < 1:
            raise ValueError(f"store restart did not hit the disk: {row}")
    for row in document.get("serve", ()):
        for key in ("graph", "config", "clients", "serve_workers", "requests",
                    "total_seconds", "throughput_rps", "p50_latency_seconds",
                    "p99_latency_seconds", "submitted", "dedup_hits",
                    "dedup_hit_rate", "identical"):
            if key not in row:
                raise ValueError(f"serve row is missing {key!r}: {row}")
        if not row["identical"]:
            raise ValueError(f"serve row is not bit-identical: {row}")
        if row["requests"] < row["clients"]:
            raise ValueError(f"serve row lost client requests: {row}")
        if row["p99_latency_seconds"] < row["p50_latency_seconds"]:
            raise ValueError(f"serve row has inverted percentiles: {row}")
    for row in document.get("densest", ()):
        for key in ("graph", "n", "m", "rounds", "config", "fast_seconds",
                    "phase_seconds"):
            if key not in row:
                raise ValueError(f"densest row is missing {key!r}: {row}")
        for key in ("phase1_surviving", "phase2_bfs_forest",
                    "phase3_local_elimination", "phase4_aggregation"):
            if key not in row["phase_seconds"]:
                raise ValueError(
                    f"densest row is missing phase timing {key!r}: {row}")
        if "reference_seconds" in row:
            if not row.get("identical"):
                raise ValueError(f"densest row is not bit-identical: {row}")
            if "speedup_vs_reference" not in row:
                raise ValueError(
                    f"densest row has a reference but no speedup: {row}")
    for row in document.get("obs_overhead", ()):
        for key in ("graph", "n", "m", "rounds", "untraced_seconds",
                    "traced_seconds", "overhead_percent",
                    "noop_span_seconds_per_call", "spans_recorded",
                    "span_names", "spans_complete", "identical"):
            if key not in row:
                raise ValueError(f"obs_overhead row is missing {key!r}: {row}")
        if not row["identical"]:
            raise ValueError(f"obs_overhead row is not bit-identical: {row}")
        if not row["spans_complete"]:
            raise ValueError(f"obs_overhead traced solve is missing hot-path "
                             f"spans: {row}")
        if row["spans_recorded"] < 1:
            raise ValueError(f"obs_overhead traced solve recorded no spans: "
                             f"{row}")
    for row in document.get("streaming", ()):
        for key in ("graph", "n", "m", "rounds", "updates", "ops_per_update",
                    "frontier_fraction", "apply_seconds_mean",
                    "incremental_seconds_mean", "staleness_seconds_mean",
                    "updates_per_second", "cold_seconds", "speedup_vs_cold",
                    "incremental_runs", "incremental_fallbacks",
                    "frontier_peak_nodes", "fallback_exercised", "identical"):
            if key not in row:
                raise ValueError(f"streaming row is missing {key!r}: {row}")
        if not row["identical"]:
            raise ValueError(f"streaming row is not bit-identical: {row}")
        if row["updates"] < 1:
            raise ValueError(f"streaming row ran no updates: {row}")
        if not row["fallback_exercised"] or row["incremental_fallbacks"] < 1:
            raise ValueError(f"streaming row never exercised the fallback "
                             f"threshold: {row}")
        if row["incremental_runs"] < 1:
            raise ValueError(f"streaming row never took the frontier path: "
                             f"{row}")
        if not document.get("smoke") and row["speedup_vs_cold"] <= 1.0:
            raise ValueError(f"streaming re-solve is not faster than cold: "
                             f"{row}")
    for row in document.get("out_of_core", ()):
        for key in ("graph", "config", "cold_seconds", "warm_seconds",
                    "in_memory_seconds", "csr_bytes_on_disk", "identical"):
            if key not in row:
                raise ValueError(f"out_of_core row is missing {key!r}: {row}")
        if not row["identical"]:
            raise ValueError(f"out_of_core row is not bit-identical: {row}")
        if row["csr_bytes_on_disk"] <= 0:
            raise ValueError(f"out_of_core row mapped no bytes: {row}")
        if "traj" in row["config"]:
            for key in ("traj_bytes_on_disk", "resume_seconds",
                        "resume_from_rounds", "resumed_identical"):
                if key not in row:
                    raise ValueError(f"out_of_core traj row is missing "
                                     f"{key!r}: {row}")
            if row["traj_bytes_on_disk"] <= 0:
                raise ValueError(f"out_of_core traj row spilled no bytes: {row}")
            if not row["resumed_identical"]:
                raise ValueError(f"out_of_core traj row did not resume "
                                 f"bit-identically after the simulated "
                                 f"crash: {row}")
    if not all(document[key] for key in required
               if key not in ("schema", "generated_by", "smoke", "machine",
                              "params")):
        raise ValueError("bench document has an empty section")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[10_000, 100_000, 200_000],
                        help="graph sizes n (default: 10k 100k 200k)")
    parser.add_argument("--rounds", type=int, default=10, help="round budget T")
    parser.add_argument("--traj-rounds", type=int, default=60,
                        help="round budget for the spilled-trajectory "
                             "out-of-core configs (default: 60, sized so the "
                             "(T+1) x n trajectory dominates the run's "
                             "other allocations)")
    parser.add_argument("--shards", type=int, default=8, help="shard count")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size for the parallel modes (default: max(4, CPUs))")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument("--seed", type=int, default=99)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long run on one small graph (CI)")
    parser.add_argument("--serve-clients", type=int, default=4,
                        help="concurrent HTTP clients hammering the serve "
                             "scenario (default: 4)")
    parser.add_argument("--serve-workers", type=int, default=2,
                        help="queue workers behind the benchmarked HTTP "
                             "server (default: 2)")
    parser.add_argument("--densest-rounds", type=int, default=6,
                        help="round budget T for the densest scenario "
                             "(default: 6 — the faithful reference costs "
                             "~5T+6 simulator rounds per graph)")
    parser.add_argument("--densest-reference-max-nodes", type=int,
                        default=DENSEST_REFERENCE_MAX_NODES,
                        help="largest graph the faithful densest reference "
                             "pipeline is run on (larger rows report array "
                             "timings only)")
    parser.add_argument("--stream-updates", type=int, default=None,
                        help="edge-stream updates in the streaming scenario "
                             "(default: 6, smoke: 3)")
    parser.add_argument("--out", "--output", dest="output", type=Path,
                        default=REPO_ROOT / "BENCH_PR10.json",
                        help="where to write the JSON document "
                             "(default: BENCH_PR10.json at the repo root)")
    args = parser.parse_args()

    sizes = [2_000] if args.smoke else args.sizes
    repeats = 1 if args.smoke else args.repeats
    traj_rounds = 12 if args.smoke else args.traj_rounds
    densest_rounds = 3 if args.smoke else args.densest_rounds
    serve_clients = min(2, args.serve_clients) if args.smoke \
        else args.serve_clients
    workers = args.workers if args.workers is not None \
        else max(4, os.cpu_count() or 1)

    print(f"bench: sizes={sizes} rounds={args.rounds} "
          f"traj_rounds={traj_rounds} shards={args.shards} "
          f"workers={workers} repeats={repeats} "
          f"serve_clients={serve_clients} cpu_count={os.cpu_count()}")
    document = run_benchmarks(sizes, args.rounds, args.shards, workers, repeats,
                              args.seed, args.smoke, log=print,
                              traj_rounds=traj_rounds,
                              serve_clients=serve_clients,
                              serve_workers=args.serve_workers,
                              densest_rounds=densest_rounds,
                              densest_reference_max_nodes=(
                                  args.densest_reference_max_nodes),
                              stream_updates=args.stream_updates)
    validate_document(document)
    args.output.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"bench: results written to {args.output}")

    failures = [row for row in document["engines"] + document["kept_sets"]
                if not row["identical"]]
    if failures:  # pragma: no cover - validate_document already raises
        print("error: non-identical results", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
