"""edge-stream: a live session on a power-law graph receives chained small
deltas; each is applied with ``Session.apply_delta`` and answered with the
child's coreness.

A run is a sequence of chains, each in a fresh process with a fresh store:
set up the base (ingest and first solve), apply :data:`UPDATES` deltas one
after the other, then restart sessions on the stream's head from the store.
Fixed-length chains keep memory independent of how many updates fit in the
run, while each child still holds its ancestors alive.
"""

from __future__ import annotations

import contextlib
import gc
import time

import numpy as np

import inputs
from checks import check_coreness
from common import (EPSILON, Deadline, Outcome, RunConfig, calibrate,
                    layer_medians, median, overhead_pct, peak_rss_mb,
                    run_isolated, speed_factor)
from layers import LayerHooks, Tracing, layer, sample as traced_sample

NODES = 10_000
UPDATES = 8          #: deltas per chain
CHECKED_UPDATE = 2   #: the update of every chain compared with a cold solve
RESTARTS = 5         #: restarts at the head per chain; the chain reports their median
LAYERS = ("graph.csr", "graph.fingerprint", "graph.delta", "grid.build",
          "engine.assemble", "engine.frontier", "store.write")


def chain(n: int, seed: int, store_dir: str, traced: bool,
          forced_fallback: bool) -> dict:
    """One isolated chain (runs in a worker process)."""
    from repro import Session
    from repro.graph.io import parse_edge_list
    from repro.store import ArtifactStore

    data = inputs.chung_lu(n, seed)
    source = inputs.DeltaSource(data, seed + 1)
    tracing = Tracing() if traced else None

    cals = [calibrate()]
    with LayerHooks() if traced else contextlib.nullcontext():
        start = time.perf_counter()
        with traced_sample(tracing) as setup_spans:
            with layer("graph.ingest"):
                graph = parse_edge_list(data.text)
            head = Session(graph, store=ArtifactStore(store_dir))
            head.coreness(epsilon=EPSILON)
        setup = time.perf_counter() - start

        staleness, spans, stats = [], [], []
        checked = None
        for update in range(UPDATES):
            delta = source.next()
            cals.append(calibrate())
            start = time.perf_counter()
            with traced_sample(tracing) as update_spans:
                child = head.apply_delta(delta)
                answer = child.coreness(epsilon=EPSILON)
            staleness.append(time.perf_counter() - start)
            spans.append(update_spans)
            stats.append(child.stats.to_dict())
            if update == CHECKED_UPDATE:
                checked = (child, answer)
            head = child

        restarts, disk_hits, same = [], 0, True
        for _ in range(RESTARTS):
            gc.collect()
            cals.append(calibrate())
            start = time.perf_counter()
            with traced_sample(tracing) as restart_spans:
                restarted = Session(head.graph, store=head.store)
                again = restarted.coreness(epsilon=EPSILON)
            restarts.append(time.perf_counter() - start)
            disk_hits += restarted.stats.disk_hits
            same = same and again.values == answer.values
            del restarted, again
    rss = peak_rss_mb()
    if traced:
        tracing.close()

    checks = [_same_as_cold(*checked, "incremental answer"),
              (same, "restart at the head differs"),
              (disk_hits >= RESTARTS, "restart did not read the store")]
    if forced_fallback:
        from repro.baselines.exact_kcore import coreness as exact_coreness

        forced = head.apply_delta(source.next(), max_frontier_fraction=0.0)
        forced_answer = forced.coreness(epsilon=EPSILON)
        checks += [(forced.stats.incremental_fallbacks == 1,
                    "max_frontier_fraction=0 did not fall back"),
                   _same_as_cold(forced, forced_answer, "fallback answer"),
                   check_coreness(forced_answer, exact_coreness(forced.graph))]
    # Timings at the reference speed (see common.calibrate); raw ones too.
    factor = speed_factor(cals)
    return {"setup": setup * factor, "staleness": [x * factor for x in staleness],
            "restart": median(restarts) * factor, "speed": factor,
            "raw": {"setup": setup, "staleness": staleness, "restart": median(restarts)},
            "rss": rss, "stats": stats, "disk_hits": disk_hits,
            "rounds": answer.rounds, "input": data.describe(f"stream-{seed}"),
            "spans": {"setup": setup_spans, "updates": spans,
                      "restart": restart_spans} if traced else None,
            "checks": checks}


def _same_as_cold(child, answer, what: str) -> tuple:
    from repro import Session

    cold = Session(child.graph).coreness(epsilon=EPSILON)
    same = cold.values == answer.values and bool(np.array_equal(
        cold.surviving.trajectory, answer.surviving.trajectory))
    return same, f"{what} differs from a cold solve of the mutated graph"


def run(cfg: RunConfig) -> Outcome:
    out = Outcome()
    n = cfg.size(NODES)
    deadline = Deadline(cfg.seconds)
    plain, traced = [], []
    index = 0
    while deadline.more():
        seed = cfg.seed * 1000 + index
        began = time.perf_counter()
        for mode in ((False, True) if cfg.trace else (False,)):
            store_dir = cfg.work_dir / f"store-{index}-{int(mode)}"
            result = run_isolated(chain, n, seed, str(store_dir), mode, index == 0)
            (traced if mode else plain).append(result)
            for ok, what in result["checks"]:
                out.check(ok, f"{what} (seed {seed}, traced={mode})")
            out.attempted += UPDATES - 1   # the unchecked updates
        out.inputs.append(plain[-1]["input"])
        deadline.record(time.perf_counter() - began)
        index += 1

    staleness = [s for r in plain for s in r["staleness"]]
    out.end_to_end = {
        "setup_s": median(r["setup"] for r in plain),
        "answer_p50_s": median(staleness),
        "cached_p50_s": median(r["restart"] for r in plain),
        "answers_per_s": len(staleness) / sum(staleness),
        "peak_rss_mb": median(r["rss"] for r in plain),
    }
    out.details = {"chains": len(plain), "updates": len(staleness),
                   "rounds": plain[0]["rounds"],
                   "raw_staleness_s": [x for r in plain for x in r["raw"]["staleness"]],
                   "raw_restart_s": [r["raw"]["restart"] for r in plain],
                   "speed_factor": [r["speed"] for r in plain]}
    if cfg.trace:
        out.per_layer = _per_layer(traced, plain)
    return out


def _per_layer(traced: list, plain: list) -> dict:
    updates = [s for r in traced for s in r["spans"]["updates"]]
    stats = [s for r in traced for s in r["stats"]]
    runs = sum(s["incremental_runs"] for s in stats)
    fallbacks = sum(s["incremental_fallbacks"] for s in stats)
    metrics = layer_medians(updates, LAYERS)
    metrics.update({
        "graph.ingest_s": median(r["spans"]["setup"]["self"].get("graph.ingest", 0.0)
                                 for r in traced),
        "store.read_s": median(r["spans"]["restart"]["self"].get("store.read", 0.0)
                               for r in traced),
        "store.write_bytes": median(s["attrs"].get("store.write.bytes", 0)
                                    for s in updates),
        "store.disk_hits": sum(r["disk_hits"] for r in traced),
        "engine.frontier_nodes": sum(s["frontier_nodes_recomputed"] for s in stats),
        "engine.frontier_peak_nodes": max(s["frontier_peak_nodes"] for s in stats),
        "engine.frontier_hit_rate": runs / (runs + fallbacks) if runs + fallbacks else 0.0,
        "trace.unattributed_s": median(s["unattributed"] for s in updates),
        "trace.overhead_pct": overhead_pct(
            [s for r in traced for s in r["staleness"]],
            [s for r in plain for s in r["staleness"]]),
    })
    return metrics
