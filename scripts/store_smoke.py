#!/usr/bin/env python
"""CI smoke check of the persistent artifact store (used by check.sh).

Runs the same workload twice against one temporary store with *fresh* sessions
(the second run stands in for a restarted process) and asserts the wire-level
contract of ``repro.store``:

* the second run is served from disk (``disk_hits`` counted, zero cold runs);
* its results are bit-identical to the first run's (values, kept sets and the
  full trajectory);
* a stored short trajectory warm-starts a longer budget (prefix reuse
  composes across restarts);
* the cold run leaves a ``trajectory-lam*.traj/`` directory and no
  ``trajectory-*.npz`` (``.traj`` is the store's only trajectory format).

Exits non-zero on any violation.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.graph.generators.random_graphs import barabasi_albert  # noqa: E402
from repro.session import Session  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402


def main() -> int:
    graph = barabasi_albert(3000, 3, seed=7)
    rounds = 8
    with tempfile.TemporaryDirectory(prefix="repro-store-smoke-") as tmp:
        store = ArtifactStore(tmp)

        cold_session = Session(graph, store=store)
        cold = cold_session.coreness(rounds=rounds)
        assert cold_session.stats.disk_writes >= 1, "cold run persisted nothing"
        graph_dir = store.graph_dir(cold_session.fingerprint)
        assert list(graph_dir.glob("trajectory-lam*.traj/rows.bin")), \
            "cold run left no .traj trajectory"
        assert not list(Path(tmp).rglob("trajectory-*.npz")), \
            "a second trajectory format (.npz) came back"

        restarted = Session(graph, store=store)
        served = restarted.coreness(rounds=rounds)
        assert restarted.stats.disk_hits == 1, \
            f"restart did not hit the disk: {restarted.stats.to_dict()}"
        assert restarted.stats.cold_runs == 0, "restart recomputed from scratch"
        assert served.values == cold.values, "restart values differ"
        assert np.array_equal(served.surviving.trajectory,
                              cold.surviving.trajectory), \
            "restart trajectory is not bit-identical"

        resumer = Session(graph, store=store)
        resumed = resumer.coreness(rounds=rounds * 2)
        assert resumer.stats.rounds_reused == rounds, "stored prefix unused"
        fresh = Session(graph).coreness(rounds=rounds * 2)
        assert resumed.values == fresh.values, "resumed values differ from cold"

        info = store.info()
        print(f"store smoke: ok (graph n={graph.num_nodes}, rounds={rounds}; "
              f"restart disk_hits=1, bit-identical; prefix resume reused "
              f"{rounds} rounds; store holds {info['files']} files / "
              f"{info['bytes']} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
