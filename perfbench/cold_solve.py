"""cold-solve: edge-list text to coreness, orientation and densest, then
restarts that answer coreness from the store.

Every sample runs in a fresh process on a fresh graph and a fresh store;
checks run after the timed regions and count towards ``failed``.
"""

from __future__ import annotations

import contextlib
import gc
import time

import numpy as np

import inputs
from common import (EPSILON, Deadline, Outcome, RunConfig, calibrate,
                    layer_medians, median, merge_breakdowns, overhead_pct,
                    peak_rss_mb, run_isolated, speed_factor)
from layers import LayerHooks, Tracing, layer, sample as traced_sample

NODES = 10_000
RESTARTS = 3   #: restarts per sample; the sample reports their median
LAYERS = ("graph.ingest", "graph.csr", "graph.fingerprint", "grid.build",
          "engine.rounds", "engine.assemble", "orientation.kept",
          "orientation.assign", "densest.ranks", "densest.forest",
          "densest.local", "densest.aggregate", "densest.total",
          "store.write", "store.read")


def sample(n: int, seed: int, store_dir: str, traced: bool) -> dict:
    """One isolated sample (runs in a worker process)."""
    start = time.perf_counter()
    from repro import Session
    from repro.graph.io import parse_edge_list
    from repro.store import ArtifactStore

    store = ArtifactStore(store_dir)
    setup = time.perf_counter() - start

    data = inputs.chung_lu(n, seed)
    tracing = Tracing() if traced else None

    with LayerHooks() if traced else contextlib.nullcontext():
        gc.collect()
        cals = [calibrate()]
        start = time.perf_counter()
        with traced_sample(tracing) as solve_spans:
            with layer("graph.ingest"):
                graph = parse_edge_list(data.text)
            session = Session(graph, store=store)
            core = session.coreness(epsilon=EPSILON)
            orient = session.orientation(epsilon=EPSILON)
            with layer("densest.total"):
                dense = session.densest(epsilon=EPSILON, engine="array")
        solve = time.perf_counter() - start
        rss = peak_rss_mb()
        checks = _checks(graph, core, orient, dense)
        result = {"setup": setup, "solve": solve, "rss": rss,
                  "rounds": core.rounds, "input": data.describe(f"cold-{seed}")}
        if traced:
            result.update(_thread_rounds(session, core))
        # A restart starts from a process that no longer holds the cold
        # session, so drop it before timing the restarts.
        values, trajectory = core.values, core.surviving.trajectory
        del graph, session, core, orient, dense

        restarts, restart_spans = [], []
        for _ in range(RESTARTS):
            gc.collect()
            cals.append(calibrate())
            start = time.perf_counter()
            with traced_sample(tracing) as spans:
                with layer("graph.ingest"):
                    graph = parse_edge_list(data.text)
                restarted = Session(graph, store=store)
                again = restarted.coreness(epsilon=EPSILON)
            restarts.append(time.perf_counter() - start)
            restart_spans.append(spans)
            checks += [(again.values == values and bool(np.array_equal(
                again.surviving.trajectory, trajectory)),
                "restart answer differs from the cold answer"),
                (restarted.stats.disk_hits >= 1, "restart did not read the store")]
            result["disk_hits"] = result.get("disk_hits", 0) + restarted.stats.disk_hits
            del graph, restarted, again
    if traced:
        tracing.close()
        result["spans"] = [solve_spans, restart_spans[0]]
    # Timings at the reference speed (see common.calibrate); raw ones too.
    factor = speed_factor(cals)
    result["raw"] = {"setup": setup, "solve": solve, "restart": median(restarts)}
    result.update({key: value * factor for key, value in result["raw"].items()})
    result.update(checks=checks, speed=factor)
    return result


def _thread_rounds(session, core) -> dict:
    """The same trajectory on the thread-sharded engine (2 workers)."""
    from repro import get_engine

    engine = get_engine("sharded:workers=2,parallel=thread")
    try:
        start = time.perf_counter()
        trajectory = engine.trajectory(session.csr, core.rounds)
        seconds = time.perf_counter() - start
    finally:
        engine.close()
    same = bool(np.array_equal(trajectory, core.surviving.trajectory))
    return {"rounds_thread": seconds, "thread_identical": same}


def _checks(graph, core, orient, dense) -> list:
    """``(ok, what)`` for every answer of the cold solve."""
    from checks import check_coreness, check_densest, check_orientation
    from repro.baselines.exact_kcore import coreness as exact_coreness

    exact = exact_coreness(graph)
    return [
        check_coreness(core, exact),
        check_orientation(graph, orient),
        check_densest(graph, dense, exact),
    ]


def run(cfg: RunConfig) -> Outcome:
    out = Outcome()
    n = cfg.size(NODES)
    deadline = Deadline(cfg.seconds)
    plain, traced = [], []
    index = 0
    while deadline.more():
        seed = cfg.seed * 1000 + index
        began = time.perf_counter()
        # A traced run measures each input twice, untraced then traced, so
        # the pair gives the tracing overhead on identical work.
        modes = (False, True) if cfg.trace else (False,)
        for mode in modes:
            store_dir = cfg.work_dir / f"store-{index}-{int(mode)}"
            result = run_isolated(sample, n, seed, str(store_dir), mode)
            (traced if mode else plain).append(result)
            for ok, what in result["checks"]:
                out.check(ok, f"{what} (seed {seed}, traced={mode})")
        out.inputs.append(plain[-1]["input"])
        deadline.record(time.perf_counter() - began)
        index += 1

    answers = 4 * len(plain)   # coreness, orientation, densest, restart
    out.end_to_end = {
        "setup_s": median(r["setup"] for r in plain),
        "answer_p50_s": median(r["solve"] for r in plain),
        "cached_p50_s": median(r["restart"] for r in plain),
        "answers_per_s": answers / sum(r["solve"] + r["restart"] for r in plain),
        "peak_rss_mb": median(r["rss"] for r in plain),
    }
    out.details = {"samples": len(plain), "rounds": plain[0]["rounds"],
                   "raw_solve_s": [r["raw"]["solve"] for r in plain],
                   "raw_restart_s": [r["raw"]["restart"] for r in plain],
                   "speed_factor": [r["speed"] for r in plain]}
    if cfg.trace:
        out.per_layer = _per_layer(traced, plain)
        for result in traced:
            out.check(result["thread_identical"],
                      "thread-sharded trajectory differs from vectorized")
    return out


def _per_layer(traced: list, plain: list) -> dict:
    # A sample's layer times add up its solve and its restart.
    samples = [merge_breakdowns(r["spans"]) for r in traced]
    metrics = layer_medians(samples, LAYERS)
    metrics["engine.ns_per_node_round"] = median(
        s["self"].get("engine.rounds", 0.0) / (r["input"]["n"] * r["rounds"]) * 1e9
        for s, r in zip(samples, traced))
    metrics["engine.rounds_thread_s"] = median(r["rounds_thread"] for r in traced)
    metrics["store.write_bytes"] = median(s["attrs"].get("store.write.bytes", 0)
                                          for s in samples)
    metrics["store.disk_hits"] = sum(r["disk_hits"] for r in traced)
    metrics["trace.unattributed_s"] = median(s["unattributed"] for s in samples)
    metrics["trace.overhead_pct"] = overhead_pct(
        [r["solve"] + r["restart"] for r in traced],
        [r["solve"] + r["restart"] for r in plain])
    return metrics
