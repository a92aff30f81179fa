"""One metrics surface: the JSON ``/metrics`` document and its Prometheus
rendering are one snapshot, and the counters behind it are read safely.

The agreement test drives a store-backed server through every event the
document counts (uploads, jobs, a quota 429, a backpressure 429, the same
delta posted twice, an incremental solve) and checks every numeric JSON leaf
against its Prometheus sample.
"""

from __future__ import annotations

import re
import sys
import threading
import urllib.request

import pytest

import repro.problems as problems_module
from repro.engine.batch import BatchRunner
from repro.errors import QueueFullError, QuotaExceededError, WireFormatError
from repro.graph.datasets import load_dataset
from repro.problems import CorenessProblem, register_problem
from repro.serve.client import ServeClient
from repro.serve.http import ReproHTTPServer
from repro.session import SessionStats

#: JSON leaves that echo configuration rather than count anything.
CONFIG_LEAVES = {("server", "quota_rate"), ("server", "max_pending")}

DELTA = {"add_edges": [[0, 17, 1.0]]}


@pytest.fixture
def gated_problem():
    """A coreness twin registered as 'gated-metrics' that blocks until released."""

    class _Gated(CorenessProblem):
        name = "gated-metrics"
        started = threading.Event()
        release = threading.Event()

        def solve(self, session, **params):
            type(self).started.set()
            assert type(self).release.wait(timeout=10), "gate never released"
            return super().solve(session, **params)

    register_problem("gated-metrics", _Gated)
    try:
        yield _Gated
    finally:
        _Gated.release.set()
        problems_module._FACTORIES.pop("gated-metrics", None)


def _samples(text: str):
    """``[(name, labels, value)]`` of a Prometheus text exposition."""
    samples = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, value = line.rsplit(" ", 1)
        name, _, labels = head.partition("{")
        samples.append((name, dict(re.findall(r'(\w+)="([^"]*)"', labels)),
                        float(value)))
    return samples


def _leaves(document, path=()):
    """Every numeric (or boolean) leaf of the JSON document, by path."""
    if isinstance(document, dict):
        for key, value in document.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(document, (bool, int, float)):
        yield path, document


def _sample_for(path):
    """The ``(family, label filter)`` pairs a JSON leaf must equal; a filter
    sums every sample whose labels include it."""
    section, key = path[0], path[-1]
    if section == "server":
        if key == "applied_deltas":
            return [("repro_http_deltas_applied_total", {})]
        if key.startswith("rejected_"):
            reason = {"reason": key[len("rejected_"):]}
            return [("repro_http_tenant_rejected_total", reason),
                    ("repro_http_rejected_total", reason)]
        return [({"graphs": "repro_http_graphs",
                  "draining": "repro_http_draining",
                  "evicted_jobs": "repro_http_jobs_evicted_total"}[key], {})]
    if section == "serve":
        if path[1] == "per_problem":
            return [("repro_serve_requests_total", {"problem": key})]
        if key == "queue_depth":
            return [("repro_serve_queue_depth", {})]
        if key == "dedup_hits":
            return [("repro_serve_deduplicated_total", {})]
        return [(f"repro_serve_{key}_total", {})]
    if section == "session":
        if key == "frontier_peak_nodes":
            return [("repro_session_frontier_peak_nodes", {})]
        return [(f"repro_session_{key}_total", {})]
    if section == "jobs":
        if key == "total":
            return [("repro_http_jobs", {})]
        return [("repro_http_jobs_by_status", {"status": key})]
    if section == "store":
        return [(f"repro_store_{key}", {})]
    raise AssertionError(f"unmapped /metrics leaf {path}")


class TestOneSnapshot:
    def test_every_json_leaf_equals_its_prometheus_sample(
            self, tmp_path, gated_problem):
        with ReproHTTPServer(workers=1, max_pending=1, store=tmp_path,
                             quota_rate=0.001, quota_burst=9.0) as server:
            with ServeClient(server.host, server.port, tenant="a") as cli:
                fp = cli.upload_dataset("caveman")                 # token 1
                assert cli.upload_dataset("caveman") == fp         # token 2
                done = cli.submit(fp, problem="coreness", rounds=4)  # 3
                assert cli.result(done["job"])["status"] == "done"
                gated = cli.submit(fp, problem="gated-metrics", rounds=3)  # 4
                assert gated_problem.started.wait(timeout=10)
                with pytest.raises(QueueFullError):                 # 5
                    cli.submit(fp, problem="coreness", rounds=5)
                gated_problem.release.set()
                assert cli.result(gated["job"])["status"] == "done"
                child = cli.apply_delta(fp, DELTA)["fingerprint"]   # 6
                assert cli.apply_delta(fp, DELTA)["fingerprint"] == child  # 7
                issued = cli.submit(child, problem="coreness", rounds=4)  # 8
                assert cli.result(issued["job"])["status"] == "done"
                cli.submit(fp, problem="coreness", rounds=4)        # 9 (cached)
                with pytest.raises(QuotaExceededError):             # 10
                    cli.submit(fp, problem="coreness", rounds=6)
                for job in cli.jobs():
                    cli.result(job["job"])
                document = cli.metrics()
            url = (f"http://{server.host}:{server.port}"
                   f"/metrics?format=prometheus")
            with urllib.request.urlopen(url) as response:
                samples = _samples(response.read().decode("utf-8"))

        assert document["server"]["applied_deltas"] == 2
        assert document["server"]["rejected_quota"] == 1
        assert document["server"]["rejected_backpressure"] == 1
        assert document["session"]["incremental_runs"] == 1
        checked = set()
        for path, value in _leaves(document):
            if path in CONFIG_LEAVES:
                continue
            for name, wanted in _sample_for(path):
                matching = [v for n, labels, v in samples if n == name
                            and wanted.items() <= labels.items()]
                assert matching, f"{path}: no {name}{wanted} sample"
                assert sum(matching) == float(value), (path, name)
                checked.add(path[0])
        assert checked == {"server", "serve", "session", "jobs", "store"}


class TestCountedOnce:
    def test_a_refused_batch_admits_no_submissions(self):
        with ReproHTTPServer(workers=1) as server:
            with ServeClient(server.host, server.port) as cli:
                fp = cli.upload_dataset("caveman")
                with pytest.raises(WireFormatError):
                    list(cli.batch(fp, [{"problem": "coreness", "rounds": 3},
                                        {"bogus": 1}]))
                docs = list(cli.batch(fp, [{"problem": "coreness",
                                            "rounds": 3}]))
                assert docs[0]["status"] == "done"
        submitted = [value for name, _, value
                     in _samples(server.render_prometheus())
                     if name == "repro_http_jobs_submitted_total"]
        assert submitted == [1.0]


class TestAggregateStats:
    def test_peak_aggregates_as_max_not_sum(self):
        runner = BatchRunner()
        for peak in (29, 115):
            stats = runner.session(load_dataset("caveman")).stats
            stats.frontier_peak_nodes = peak
            stats.rounds_executed = peak
        totals = runner.aggregate_stats()
        assert totals["frontier_peak_nodes"] == 115
        assert totals["rounds_executed"] == 144

    def test_a_session_opened_mid_scrape_does_not_break_it(self):
        runner = BatchRunner()

        class _OpensSession(SessionStats):
            def to_dict(self):
                # What a worker thread (a first job on a new graph) or
                # adopt_session (a delta) can do while a scrape iterates.
                runner.session(load_dataset("caveman"))
                return super().to_dict()

        runner.session(load_dataset("caveman")).stats = _OpensSession()
        totals = runner.aggregate_stats()
        assert totals["csr_builds"] == 0
        assert runner.cached_graphs == 2


class TestUploadBuildsOnce:
    def test_one_csr_build_per_upload(self, tmp_path, monkeypatch):
        import repro.graph.csr as csr_module

        original = csr_module.graph_to_csr
        builds = []

        def counting(graph, *args, **kwargs):
            builds.append(graph)
            return original(graph, *args, **kwargs)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "graph_to_csr", None) is original):
                monkeypatch.setattr(module, "graph_to_csr", counting)

        with ReproHTTPServer(workers=1, store=tmp_path) as server:
            with ServeClient(server.host, server.port) as cli:
                fp = cli.upload_dataset("caveman")
                issued = cli.submit(fp, problem="coreness", rounds=4)
                assert cli.result(issued["job"])["status"] == "done"
                assert len(builds) == 1
                # A duplicate upload hashes its own copy once and pins no
                # extra session.
                assert cli.upload_dataset("caveman") == fp
                assert len(builds) == 2
                assert server.queue.runner.cached_graphs == 1
