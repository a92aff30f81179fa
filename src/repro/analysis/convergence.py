"""Convergence analyses: approximation ratio as a function of the round budget.

This is the machinery behind the §V empirical claim ("the approximation ratio often
converges to 2 much quicker than what the worst-case analysis suggests") and the E1
and E2 experiment tables: run the vectorised compact elimination once, then compare
each round's surviving numbers against exact coreness values / maximal densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.ratios import RatioSummary, summarize_ratios
from repro.core.rounds import guarantee_after_rounds
from repro.engine.kernels import compact_trajectory
from repro.errors import AlgorithmError
from repro.graph.csr import graph_to_csr
from repro.graph.graph import Graph


@dataclass(frozen=True)
class ConvergenceRow:
    """One row of a convergence table (one round budget)."""

    rounds: int
    theoretical_guarantee: float     #: 2·n^(1/T)
    summary: RatioSummary            #: measured ratios against the chosen reference

    @property
    def max_ratio(self) -> float:
        """Worst-node measured ratio after this many rounds."""
        return self.summary.max

    @property
    def mean_ratio(self) -> float:
        """Mean measured ratio after this many rounds."""
        return self.summary.mean


@dataclass(frozen=True)
class ConvergenceTrace:
    """A full convergence table for one graph and one reference quantity."""

    reference_name: str              #: "coreness" or "maximal-density"
    rows: Tuple[ConvergenceRow, ...]

    def rounds_to_reach(self, factor: float) -> Optional[int]:
        """Smallest round budget whose worst-node ratio is within ``factor`` (or None)."""
        for row in self.rows:
            if row.max_ratio <= factor + 1e-9:
                return row.rounds
        return None


def _trajectory_and_labels(graph: Graph, rounds: int, session=None):
    """The ``(rounds + 1, n)`` trajectory plus node labels, via a session if given.

    Routing through a :class:`repro.session.Session` lets repeated analyses of
    the same graph share one CSR view and resume cached trajectory prefixes.
    A session whose engine produces no trajectory (the faithful simulator)
    falls back to the cold vectorized path.
    """
    if session is not None:
        if session.graph is not graph:
            raise AlgorithmError(
                "the given session was opened for a different graph object")
        # Only trajectory-capable engines can serve this — a faithful-engine
        # session would pay the full simulation just to be discarded below —
        # and sessions reject rounds < 1, which the cold path supports (the
        # round-0 row is the initial +inf state).
        if rounds >= 1 and session.supports_trajectories:
            # λ is pinned to 0 so the values match the cold path below (exact
            # surviving numbers) even on sessions whose default λ is non-zero.
            result = session.surviving(rounds=rounds, lam=0.0, track_kept=False)
            return result.trajectory, result.node_order
    # Fallback (no session, or one whose engine cannot serve trajectories):
    # still reuse the session's CSR view when there is one.
    csr = session.csr if session is not None else graph_to_csr(graph)
    return compact_trajectory(csr, rounds), csr.labels()


def convergence_trace(graph: Graph, exact: Mapping[Hashable, float], *,
                      max_rounds: int, reference_name: str = "coreness",
                      session=None) -> ConvergenceTrace:
    """Compute the ratio-vs-rounds table for ``graph`` against the ``exact`` map.

    The vectorised engine produces the surviving numbers of every round in one shot;
    round ``t``'s values are then summarised against ``exact``.  Pass the graph's
    :class:`repro.session.Session` as ``session`` to reuse its cached artifacts.
    """
    if max_rounds < 1:
        raise AlgorithmError(f"max_rounds must be >= 1, got {max_rounds}")
    trajectory, labels = _trajectory_and_labels(graph, max_rounds, session)
    rows: List[ConvergenceRow] = []
    n = graph.num_nodes
    for t in range(1, max_rounds + 1):
        estimates = {labels[i]: float(trajectory[t, i]) for i in range(len(labels))}
        summary = summarize_ratios(estimates, exact)
        rows.append(ConvergenceRow(rounds=t,
                                   theoretical_guarantee=guarantee_after_rounds(n, t),
                                   summary=summary))
    return ConvergenceTrace(reference_name=reference_name, rows=tuple(rows))


def values_at_round(graph: Graph, rounds: int, *, session=None) -> Dict[Hashable, float]:
    """Surviving numbers after exactly ``rounds`` rounds (vectorised engine).

    With a :class:`repro.session.Session`, a budget within an already-cached
    trajectory is served by slicing and a larger one resumes the cached prefix.
    """
    trajectory, labels = _trajectory_and_labels(graph, rounds, session)
    return {labels[i]: float(trajectory[rounds, i]) for i in range(len(labels))}
