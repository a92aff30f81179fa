"""Seeded inputs: Chung-Lu power-law graphs as edge-list text, and deltas.

The program under test only ever sees the text (and, on the stream, deltas
built from the edge arrays kept here), so its generators play no part.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

EXPONENT = 2.3      #: power-law exponent of the expected degree sequence
MEAN_DEGREE = 6.0   #: target mean degree
#: Edges each delta removes, reweights and adds.
REMOVALS, REWEIGHTS, ADDITIONS = 2, 2, 2


@dataclass
class EdgeListInput:
    """One generated graph: its text and the arrays it was written from."""

    text: str
    u: np.ndarray
    v: np.ndarray
    num_nodes: int

    @property
    def num_edges(self) -> int:
        return int(self.u.size)

    def describe(self, name: str) -> dict:
        data = self.text.encode("ascii")
        return {"name": name, "n": self.num_nodes, "m": self.num_edges,
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest()[:16]}


def chung_lu(n: int, seed: int) -> EdgeListInput:
    """A simple undirected Chung-Lu graph with a power-law degree sequence.

    Endpoints are drawn independently with probability proportional to
    ``(i + i0) ** (-1 / (EXPONENT - 1))``; loops and repeated pairs are
    dropped.  Labels are a random permutation of ``0..n-1`` and the lines
    are shuffled, so neither carries the degree order.  Nodes that draw no
    edge do not appear, so ``num_nodes`` is a little below ``n``.
    """
    rng = np.random.default_rng(seed)
    weights = (np.arange(n, dtype=np.float64) + 10.0) ** (-1.0 / (EXPONENT - 1.0))
    cdf = np.cumsum(weights)
    draws = int(n * MEAN_DEGREE / 2 * 1.05)   # repeats and loops get dropped
    a = np.minimum(np.searchsorted(cdf, rng.random(draws) * cdf[-1]), n - 1)
    b = np.minimum(np.searchsorted(cdf, rng.random(draws) * cdf[-1]), n - 1)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keys = np.unique(lo[lo != hi].astype(np.int64) * n + hi[lo != hi])
    labels = rng.permutation(n)
    order = rng.permutation(keys.size)
    u, v = labels[keys[order] // n], labels[keys[order] % n]
    text = "".join(f"{x} {y}\n" for x, y in zip(u.tolist(), v.tolist()))
    return EdgeListInput(text=text, u=u, v=v,
                         num_nodes=int(np.unique(np.concatenate([u, v])).size))


class DeltaSource:
    """Small chained deltas over one base graph, reproducible from a seed.

    Every base edge is touched at most once (a cursor walks a permutation),
    so a removed edge is never reweighted later; added edges join pairs that
    are not adjacent in the graph the previous deltas produced.
    """

    def __init__(self, base: EdgeListInput, seed: int) -> None:
        self.base = base
        self.rng = np.random.default_rng(seed)
        self.order = self.rng.permutation(base.num_edges)
        self.cursor = 0
        self.labels = np.unique(np.concatenate([base.u, base.v])).tolist()
        self.edges = {frozenset(pair) for pair in zip(base.u.tolist(), base.v.tolist())}

    def _take(self, count: int):
        picked = self.order[self.cursor:self.cursor + count]
        self.cursor += count
        return [(int(self.base.u[i]), int(self.base.v[i])) for i in picked]

    def next(self):
        """The next :class:`repro.graph.GraphDelta` of the chain."""
        from repro.graph import GraphDelta

        remove = self._take(REMOVALS)
        self.edges.difference_update(frozenset(pair) for pair in remove)
        reweight = [(u, v, float(self.rng.integers(2, 5)))
                    for u, v in self._take(REWEIGHTS)]
        added = []
        while len(added) < ADDITIONS:
            u, v = (self.labels[i] for i in
                    self.rng.integers(0, len(self.labels), size=2))
            if u != v and frozenset((u, v)) not in self.edges:
                self.edges.add(frozenset((u, v)))
                added.append((u, v, 2.0))
        return GraphDelta(add_edges=tuple(added), remove_edges=tuple(remove),
                          set_weights=tuple(reweight))
