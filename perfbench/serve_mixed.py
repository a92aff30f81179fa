"""serve-mixed: ``python -m repro serve`` in a subprocess, driven by two
closed-loop client threads with one keep-alive ``ServeClient`` each.

The reader repeats cache-served coreness and orientation requests at two
budgets on a hot graph and fetches the full result of every
:data:`FETCH_EVERY`-th one; the writer uploads a fresh graph, solves
coreness and orientation on it, posts one delta and solves the child.  A
run is a sequence of server lifetimes of fixed work: spawn and set up a
server, run the writer for :data:`WRITER_CYCLES` cycles while the reader
loops, stop the server with SIGTERM.  The server keeps every uploaded
graph, so fixed work per lifetime keeps its peak memory comparable.  In a
traced run lifetimes alternate untraced and traced (client-side spans),
which gives the tracing overhead.

The server runs through ``serve_host.py``, which times the calibration slice
in the server process; set-up and the writer's cold latency, which are the
server's CPU work, are reported at the reference speed (``common.calibrate``).
The reader's latency and the throughput are mostly network waits and are
reported raw.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
from common import (EPSILON, Deadline, Outcome, RunConfig, layer_medians,
                    median, overhead_pct, peak_rss_mb, percentile, speed_factor)
from layers import Tracing, layer, sample as traced_sample
from repro import Session
from repro.graph.io import parse_edge_list
from repro.serve.client import ServeClient

HOT_NODES = 10_000
WRITER_NODES = 10_000
WRITER_CYCLES = 2   #: writer cycles per server lifetime
FETCH_EVERY = 10    #: the reader fetches the 1st, 11th, 21st, ... result
#: The reader's request mix: two problems at two budgets, all cache-served.
HOT_REQUESTS = tuple({"problem": problem, "epsilon": epsilon}
                     for problem in ("coreness", "orientation")
                     for epsilon in (0.5, 1.0))
READER_LAYERS = ("serve.submit", "serve.wait", "serve.fetch")
WRITER_LAYERS = ("serve.upload", "serve.delta")
LAYERS = READER_LAYERS + WRITER_LAYERS
BANNER = re.compile(r"listening on http://([^:\s]+):(\d+)")


def _calibration(line: str):
    """``(median, spent)`` from a ``# calibration`` line of serve_host.py."""
    fields = line.split()
    if fields[:2] != ["#", "calibration"]:
        raise RuntimeError(f"serve_host printed {line!r}, not a calibration")
    return float(fields[2]), float(fields[3])


class Lifetime:
    """One server process and the two client loops run against it."""
    def __init__(self, cfg: RunConfig, index: int, hot, reference, out: Outcome,
                 tracing=None) -> None:
        self.cfg, self.index, self.hot = cfg, index, hot
        self.reference, self.out, self.tracing = reference, out, tracing
        self.lock = threading.Lock()
        self.stop = threading.Event()
        self.hot_latency, self.cold_latency = [], []
        self.reader_spans, self.writer_spans = [], []
        self.completed = 0
        self.result_bytes, self.upload_bytes = [], []

    # ------------------------------------------------------------ bookkeeping
    def _check(self, ok: bool, what: str) -> bool:
        with self.lock:
            return self.out.check(ok, f"{what} (lifetime {self.index})")

    # ------------------------------------------------------------------ server
    def start(self) -> float:
        """Spawn the server, upload the hot graph, warm its cache; set-up time."""
        store = self.cfg.work_dir / f"store-{self.index}"
        self.log = open(self.cfg.work_dir / f"serve-{self.index}.log", "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("serve_host.py")),
             "serve", "--port", "0", "--workers", "2", "--store", str(store)],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
            cwd=self.cfg.work_dir)
        calibration, spent = _calibration(self.proc.stdout.readline())
        self.calibrations = [calibration]
        match = BANNER.search(self.proc.stdout.readline())
        if match is None:
            raise RuntimeError("repro serve printed no banner")
        self.host, self.port = match.group(1), int(match.group(2))
        with ServeClient(self.host, self.port, tenant="setup") as client:
            self.fingerprint = client.upload_edge_list(self.hot.text)
            for request in HOT_REQUESTS:
                client.result(client.submit(self.fingerprint, **request)["job"])
        return time.perf_counter() - start - spent

    def finish(self) -> dict:
        """Scrape the counters, then SIGTERM and wait for the drain."""
        roundtrips = []
        try:
            with ServeClient(self.host, self.port, tenant="setup") as client:
                if self.tracing:
                    for _ in range(20):
                        start = time.perf_counter()
                        with layer("serve.roundtrip"):
                            client.health()
                        roundtrips.append(time.perf_counter() - start)
                metrics = client.metrics()
            rss = peak_rss_mb(self.proc.pid)
        finally:
            self.stop_server()
        return {"metrics": metrics, "rss": rss, "roundtrips": roundtrips}

    def stop_server(self) -> None:
        """SIGTERM, wait for the drain (kill after a minute), count its exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        last = self.proc.stdout.read().strip().splitlines()
        self.proc.stdout.close()
        self.log.close()
        self._check(code == 0, f"server drain exited with {code}")
        if code == 0 and last:
            self.calibrations.append(_calibration(last[-1])[0])

    # ----------------------------------------------------------------- clients
    def reader(self) -> None:
        count = 0
        with ServeClient(self.host, self.port, tenant="reader") as client:
            while not self.stop.is_set():
                which = count % len(HOT_REQUESTS)
                fetch = count % FETCH_EVERY == 0
                count += 1
                try:
                    start = time.perf_counter()
                    with traced_sample(self.tracing) as spans:
                        with layer("serve.submit"):
                            job = client.submit(self.fingerprint,
                                                **HOT_REQUESTS[which])["job"]
                        with layer("serve.wait"):
                            client.result(job)
                        if fetch:
                            with layer("serve.fetch"):
                                doc = client.poll(job, include_result=True)
                    elapsed = time.perf_counter() - start
                except Exception as exc:  # a failed request is counted, not fatal
                    self._check(False, f"hot request failed: {exc!r}")
                    continue
                ok = True
                if fetch:
                    body = json.dumps(doc["result"])
                    ok = json.loads(body) == self.reference[which]
                    with self.lock:
                        self.result_bytes.append(len(body))
                if self._check(ok, "served result differs from in-process Session"):
                    with self.lock:
                        self.hot_latency.append(elapsed)
                        self.reader_spans.append(spans)
                        self.completed += 1

    def writer(self) -> None:
        cycle = 0
        with ServeClient(self.host, self.port, tenant="writer") as client:
            while cycle < WRITER_CYCLES:
                seed = (self.cfg.seed * 1000 + self.index) * 100 + cycle
                cycle += 1
                data = inputs.chung_lu(self.cfg.size(WRITER_NODES), seed)
                delta = inputs.DeltaSource(data, seed + 1).next()
                try:
                    with traced_sample(self.tracing) as spans:
                        start = time.perf_counter()
                        with layer("serve.upload"):
                            fingerprint = client.upload_edge_list(data.text)
                        self._solve(client, fingerprint, "coreness")
                        cold = time.perf_counter() - start
                        self._solve(client, fingerprint, "orientation")
                        with layer("serve.delta"):
                            child = client.apply_delta(fingerprint, delta)
                        self._solve(client, child["fingerprint"], "coreness")
                except Exception as exc:  # a failed operation is counted, not fatal
                    self._check(False, f"writer cycle failed: {exc!r}")
                    continue
                self._check(True, "writer cycle")
                with self.lock:
                    self.cold_latency.append(cold)
                    self.writer_spans.append(spans)
                    self.completed += 3
                    self.upload_bytes.append(len(data.text))
                    self.out.inputs.append(data.describe(f"writer-{seed}"))

    @staticmethod
    def _solve(client, fingerprint: str, problem: str) -> None:
        with layer("serve.submit"):
            job = client.submit(fingerprint, problem=problem, epsilon=EPSILON)["job"]
        with layer("serve.wait"):
            client.result(job)

    def run(self) -> dict:
        """Set up, then load the server until the writer's cycles are done."""
        try:
            setup = self.start()
            reader = threading.Thread(target=self.reader)
            writer = threading.Thread(target=self.writer)
            began = time.perf_counter()
            reader.start()
            writer.start()
            writer.join()
            self.stop.set()
            reader.join()
            wall = time.perf_counter() - began
        except BaseException:
            if hasattr(self, "proc"):
                self.stop_server()
            raise
        finished = self.finish()
        # The server's CPU-bound timings at the reference speed, from the
        # calibration slices timed in the server process itself.
        factor = speed_factor(self.calibrations)
        self.raw_cold = self.cold_latency
        self.cold_latency = [x * factor for x in self.cold_latency]
        return {"setup": setup * factor, "raw_setup": setup, "wall": wall,
                "speed": factor, **finished}


def run(cfg: RunConfig) -> Outcome:
    out = Outcome()
    hot = inputs.chung_lu(cfg.size(HOT_NODES), cfg.seed * 1000)
    out.inputs.append(hot.describe("hot"))
    session = Session(parse_edge_list(hot.text))
    reference = [json.loads(json.dumps(session.solve(**request).to_dict()))
                 for request in HOT_REQUESTS]

    lifetimes = []
    deadline = Deadline(cfg.seconds)
    while deadline.more(minimum=2 if cfg.trace else 1):
        began = time.perf_counter()
        traced = cfg.trace and len(lifetimes) % 2 == 1
        tracing = Tracing() if traced else None
        lifetime = Lifetime(cfg, len(lifetimes), hot, reference, out, tracing)
        try:
            lifetimes.append((lifetime, lifetime.run()))
        finally:
            if tracing:
                tracing.close()
        deadline.record(time.perf_counter() - began)

    plain = [(life, res) for life, res in lifetimes if life.tracing is None]
    hot_latency = [x for life, _ in plain for x in life.hot_latency]
    cold_latency = [x for life, _ in plain for x in life.cold_latency]
    out.end_to_end = {
        "setup_s": median(res["setup"] for _, res in plain),
        "answer_p50_s": median(cold_latency),
        "cached_p50_s": median(hot_latency),
        "answers_per_s": sum(life.completed for life, _ in plain)
        / sum(res["wall"] for _, res in plain),
        "peak_rss_mb": median(res["rss"] for _, res in plain),
    }
    out.details = {"hot_requests": len(hot_latency),
                   "hot_p90_s": percentile(hot_latency, 90),
                   "writer_cycles": len(cold_latency),
                   "raw_cold_s": [x for life, _ in plain for x in life.raw_cold],
                   "raw_setup_s": [res["raw_setup"] for _, res in plain],
                   "speed_factor": [res["speed"] for _, res in plain]}
    if cfg.trace:
        out.per_layer = _per_layer(
            [(life, res) for life, res in lifetimes if life.tracing], plain)
    return out


def _per_layer(traced: list, plain: list) -> dict:
    def total(section: str, key: str) -> int:
        return sum(res["metrics"][section].get(key, 0) for _, res in traced)

    reader = [s for life, _ in traced for s in life.reader_spans]
    writer = [s for life, _ in traced for s in life.writer_spans]
    observed = total("serve", "submitted") + total("serve", "dedup_hits")
    runs = total("session", "incremental_runs")
    tries = runs + total("session", "incremental_fallbacks")
    metrics = layer_medians(reader, READER_LAYERS)
    metrics.update(layer_medians(writer, WRITER_LAYERS))
    metrics.update({
        "serve.roundtrip_s": median(x for _, res in traced for x in res["roundtrips"]),
        "serve.result_bytes": median(x for life, _ in traced for x in life.result_bytes),
        "serve.upload_bytes": median(x for life, _ in traced for x in life.upload_bytes),
        "serve.dedup_hit_rate": total("serve", "dedup_hits") / observed if observed else 0.0,
        "serve.rejected": total("server", "rejected_quota")
        + total("server", "rejected_backpressure"),
        "store.disk_hits": total("session", "disk_hits"),
        "engine.frontier_nodes": total("session", "frontier_nodes_recomputed"),
        "engine.frontier_peak_nodes": max(
            res["metrics"]["session"].get("frontier_peak_nodes", 0) for _, res in traced),
        "engine.frontier_hit_rate": runs / tries if tries else 0.0,
        "trace.unattributed_s": median(s["unattributed"] for s in reader),
        "trace.overhead_pct": overhead_pct(
            [x for life, _ in traced for x in life.hot_latency],
            [x for life, _ in plain for x in life.hot_latency]),
    })
    return metrics
