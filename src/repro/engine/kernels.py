"""Per-round NumPy kernels shared by the vectorised execution engines.

These are the innermost loops of the library; every engine (see
:mod:`repro.engine.base`) composes the *same* kernels:

* :func:`compact_round_range` — one synchronous round of Algorithm 2 (the
  compact elimination / surviving-number update) for a *row range* of a CSR view;
* :func:`round_loop` — the one Algorithm 2 round loop.  A node's update reads
  only its neighbours' previous values, so round ``t`` recomputes only the
  dirty rows (split by the shard plan into kernel calls) and copies the rest
  from a baseline row; the next dirty set is a permanent seed plus the
  neighbours of the rows that changed — the notify-on-change rule of
  Montresor, De Pellegrini & Miorandi's distributed k-core protocol;
* :func:`compact_trajectory` (cold and prefix-resumed solves, in RAM or
  appended to a :mod:`repro.store.traj` file) and :func:`frontier_trajectory`
  (delta solves against a parent trajectory) — the seeds of that loop;
* :func:`threshold_round_range` — one round of Algorithm 1 for a row range.

Each kernel call, and each step of marking the next dirty set, materialises
per-edge arrays for one plan range of rows only, so with a shard plan of
``k`` ranges at most one range's frontier arrays exist at a time (one per
in-flight chunk under a concurrent executor).  A chunk of contiguous rows, or
one holding over half its range's entries, reads zero-copy CSR slices; any
other chunk a gathered sub-CSR, never larger than its range.

Numerical note: within a kernel call the per-row prefix sums come from a
single cumulative sum over the call's rows, so a row's value can depend on
which rows share its call.  Surviving numbers are bit-identical across *any*
shard plan, dirty set and resume point whenever the intermediate weight sums
are exactly representable — in particular for integer and dyadic-rational
edge weights, which is what the cross-engine equivalence suite pins down.
For arbitrary float weights they may differ in the last ulp (and so may the
faithful per-node protocol, which accumulates with Python floats); callers
compare with tolerances there.
"""

from __future__ import annotations

import time
from types import SimpleNamespace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.core.rounding import LambdaGrid
from repro.errors import AlgorithmError
from repro.graph.csr import CSRAdjacency
from repro.obs import trace as obs_trace
from repro.obs.metrics import get_registry

#: Always-on per-round kernel-time histogram (process-wide default registry).
#: One ``observe`` per round is ~µs against round costs of ms and up.
KERNEL_ROUND_SECONDS = get_registry().histogram(
    "repro_kernel_round_seconds",
    "Wall time of one synchronous elimination round (all shards)")

#: A shard plan: contiguous, disjoint ``[lo, hi)`` node ranges covering ``0..n``.
ShardPlan = Sequence[Tuple[int, int]]


def shard_plan(num_nodes: int, num_shards: int) -> Tuple[Tuple[int, int], ...]:
    """Split ``0..num_nodes`` into ``num_shards`` contiguous near-equal ranges.

    The first ``num_nodes % num_shards`` ranges get one extra node.  A plan for an
    empty graph is the single empty range ``(0, 0)`` so that round loops stay
    uniform.  ``num_shards`` larger than ``num_nodes`` is clamped (empty shards
    would only add overhead).
    """
    if num_shards < 1:
        raise AlgorithmError(f"num_shards must be >= 1, got {num_shards}")
    if num_nodes <= 0:
        return ((0, 0),)
    shards = min(num_shards, num_nodes)
    base, extra = divmod(num_nodes, shards)
    bounds = []
    lo = 0
    for s in range(shards):
        hi = lo + base + (1 if s < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return tuple(bounds)


def round_values(grid: LambdaGrid, values: np.ndarray) -> np.ndarray:
    """Λ-round every entry of ``values`` down onto the grid (identity when exact)."""
    if grid.is_exact:
        return values
    return np.array([grid.round_down(x) for x in values], dtype=np.float64)


def compact_round_range(csr: CSRAdjacency, current: np.ndarray, lo: int, hi: int,
                        grid: LambdaGrid) -> np.ndarray:
    """One round of Algorithm 2 for the nodes ``lo..hi-1`` of a CSR view.

    Implements the ``max_k min(S_k, b_(k))`` characterisation of Algorithm 3 (see
    :func:`repro.core.update.update_value_only`) with a single lexsort over the
    range's CSR slice.  ``current`` is the *full* surviving-number vector (a
    node's update reads all of its neighbours, which may live in other shards);
    the return value holds the new surviving numbers for the range only,
    Λ-rounded when the grid is not exact.
    """
    start, stop = int(csr.indptr[lo]), int(csr.indptr[hi])
    local_n = hi - lo
    loops = csr.loops[lo:hi]
    counts = np.diff(csr.indptr[lo:hi + 1])
    rows = np.repeat(np.arange(local_n), counts)
    vals = current[csr.indices[start:stop]]
    # Sort each row's entries by descending neighbour value.  ``lexsort`` sorts by
    # the last key first, so (−vals, rows) yields: primary = row, secondary = −val.
    order = np.lexsort((-vals, rows))
    sorted_vals = vals[order]
    sorted_w = csr.weights[start:stop][order]
    # Prefix sums of weights *within* each row, offset by the node's self-loop.
    flat_cs = np.cumsum(sorted_w)
    row_starts = csr.indptr[lo:hi] - start
    nonempty = counts > 0
    before_row = np.zeros(local_n, dtype=np.float64)
    before_row[nonempty] = flat_cs[row_starts[nonempty]] - sorted_w[row_starts[nonempty]]
    within_cs = flat_cs - np.repeat(before_row, counts) + np.repeat(loops, counts)
    candidates = np.minimum(within_cs, sorted_vals)
    new = loops.copy()  # a node with no neighbours keeps only its self-loop weight
    if len(candidates):
        seg_max = np.full(local_n, -np.inf, dtype=np.float64)
        seg_max[nonempty] = np.maximum.reduceat(candidates, row_starts[nonempty])
        new = np.maximum(new, np.where(nonempty, seg_max, loops))
    return round_values(grid, new)


def _row_positions(indptr, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(sub_indptr, positions)`` of the CSR entries of the rows ``ids``."""
    starts = np.asarray(indptr)[ids]
    counts = np.asarray(indptr)[ids + 1] - starts
    sub_indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(counts, out=sub_indptr[1:])
    positions = np.repeat(starts - sub_indptr[:-1], counts) \
        + np.arange(int(sub_indptr[-1]), dtype=np.int64)
    return sub_indptr, positions


def _gathered_sub_csr(csr: CSRAdjacency, ids: np.ndarray):
    """A CSR view of just the rows ``ids``, indices still in full node space.

    Per-row adjacency order is preserved, so the lexsort tie resolution
    inside :func:`compact_round_range` is identical to a full-range call —
    the gathered rows run through the *same shared kernel* as every other
    engine path.
    """
    sub_indptr, positions = _row_positions(csr.indptr, ids)
    return SimpleNamespace(indptr=sub_indptr,
                           indices=np.asarray(csr.indices)[positions],
                           weights=np.asarray(csr.weights)[positions],
                           loops=np.asarray(csr.loops)[ids])


def _rows_round(csr: CSRAdjacency, current: np.ndarray, span: Tuple[int, int],
                ids: np.ndarray, grid: LambdaGrid) -> np.ndarray:
    """Algorithm 2 for the sorted rows ``ids`` of the plan range ``span``.

    A run, or rows holding over half the range's entries (the whole range
    runs), reads zero-copy slices; other rows run on a gathered sub-CSR.
    """
    first, last = int(ids[0]), int(ids[-1]) + 1
    if last - first == ids.size:
        return compact_round_range(csr, current, first, last, grid)
    lo, hi = span
    indptr = np.asarray(csr.indptr)
    if 2 * int((indptr[ids + 1] - indptr[ids]).sum()) > indptr[hi] - indptr[lo]:
        return compact_round_range(csr, current, lo, hi, grid)[ids - lo]
    return compact_round_range(_gathered_sub_csr(csr, ids), current,
                               0, ids.size, grid)


def _chunks(ids: np.ndarray, bounds: ShardPlan):
    """``(range, ids)``: the sorted ``ids`` split by the plan, empties dropped."""
    cuts = np.searchsorted(ids, [hi for _, hi in bounds[:-1]])
    return [(span, c) for span, c in zip(bounds, np.split(ids, cuts)) if c.size]


def _dirty_after(csr: CSRAdjacency, diff: np.ndarray,
                 seed: Optional[np.ndarray], bounds: ShardPlan) -> np.ndarray:
    """``seed ∪ N(diff)`` as sorted ids: a boolean mask, one range at a time."""
    mask = np.zeros(csr.num_nodes, dtype=bool)
    for _, ids in _chunks(diff, bounds):
        mask[np.asarray(csr.indices)[_row_positions(csr.indptr, ids)[1]]] = True
    if seed is not None:
        mask[seed] = True
    return np.flatnonzero(mask)


def round_loop(csr: CSRAdjacency, rounds: int, grid: LambdaGrid, *,
               start: int, current: np.ndarray, dirty: np.ndarray, sink,
               plan: ShardPlan, shard_map: Optional[Callable] = None,
               seed: Optional[np.ndarray] = None, baseline=None,
               warm: Optional["FrontierWarmStart"] = None):
    """The one Algorithm 2 round loop: an active set over the shard plan.

    Round ``t`` recomputes the sorted rows ``dirty`` (split by ``plan``, the
    chunks mapped through ``shard_map`` when given) and copies every other
    row from ``B_t`` — ``baseline(t)`` when given, else the previous row.
    ``diff_t`` holds the dirty rows whose value differs from ``B_t``, and
    ``dirty_{t+1} = seed ∪ N(diff_t)`` (part of the timed round; skipped
    after the budget's last round).  ``sink(t, row)`` receives each row.

    Returns ``(stop, row)``: the round at which ``row`` repeated the previous
    row (a fixed point; None when the budget ran out first) and the last
    row.  With ``warm``, a dirty set wider than
    ``warm.max_frontier_fraction·n`` records the fallback and returns None.
    """
    n = csr.num_nodes
    bounds = tuple(plan)
    limit = int(warm.max_frontier_fraction * n) if warm is not None else n
    # One tracer/context fetch per call; per-round work stays a None-check
    # when tracing is disabled.  Shard spans recorded from pool threads pass
    # the caller's context explicitly (thread-local stacks don't cross).
    tracer = obs_trace.active()
    parent = obs_trace.current_context() if tracer is not None else None
    for t in range(start + 1, rounds + 1):
        if dirty.size > limit:
            warm._fallback(f"frontier of {dirty.size} nodes exceeds "
                           f"{warm.max_frontier_fraction:g} of n={n} "
                           f"at round {t}")
            return None
        if warm is not None:
            warm.peak_frontier = max(warm.peak_frontier, int(dirty.size))
            warm.nodes_recomputed += int(dirty.size)
        round_unix = time.time() if tracer is not None else 0.0
        round_perf = time.perf_counter()
        base = current if baseline is None else baseline(t)
        row = base.copy()
        chunks = _chunks(dirty, bounds)
        threaded = shard_map is not None and len(chunks) > 1

        def run_chunk(chunk, _cur=current, _t=t):
            span, ids = chunk
            shard_unix, shard_perf = time.time(), time.perf_counter()
            values = _rows_round(csr, _cur, span, ids, grid)
            if threaded and tracer is not None:
                tracer.record_span(
                    "kernel.shard", start_unix=shard_unix,
                    duration=time.perf_counter() - shard_perf, parent=parent,
                    attrs={"lo": int(ids[0]), "hi": int(ids[-1]) + 1,
                           "rows": int(ids.size), "round": _t})
            return values
        for (_, ids), values in zip(chunks, (shard_map if threaded else map)(
                run_chunk, chunks)):
            row[ids] = values
        recomputed = int(dirty.size)
        fixed = np.array_equal(row, current)
        if not fixed and t < rounds:
            diff = dirty[row[dirty] != base[dirty]]
            dirty = _dirty_after(csr, diff, seed, bounds)
        round_seconds = time.perf_counter() - round_perf
        KERNEL_ROUND_SECONDS.observe(round_seconds)
        if tracer is not None:
            tracer.record_span(
                "kernel.round_range", start_unix=round_unix,
                duration=round_seconds, parent=parent,
                attrs={"round": t, "shards": len(bounds), "n": n,
                       "dirty": recomputed})
        sink(t, row)
        if fixed:
            return t, row
        current = row
    return None, current


def compact_trajectory(csr: CSRAdjacency, rounds: int, *, lam: float = 0.0,
                       plan: Optional[ShardPlan] = None,
                       shard_map: Optional[Callable] = None,
                       prefix: Optional[np.ndarray] = None,
                       out=None) -> np.ndarray:
    """The full Algorithm 2 trajectory of surviving numbers over a shard plan.

    Returns an array of shape ``(rounds + 1, n)``: row 0 is the initial ``+inf``
    state, row ``t`` holds every node's surviving number after ``t`` rounds.
    Because the process is monotone, once a fixed point is reached the remaining
    rows simply repeat it.  The rounds run through :func:`round_loop`: a cold
    solve starts with every node dirty, so after the first round only the
    neighbours of nodes that changed are recomputed.

    Parameters
    ----------
    plan:
        Contiguous node ranges that split each round's dirty rows into kernel
        calls (default: a single range covering all nodes).  Synchronous-round
        semantics are preserved because every chunk reads the *previous*
        round's full vector and writes only its own rows.
    shard_map:
        Optional parallel map (e.g. ``concurrent.futures.Executor.map``) applied
        to the per-chunk kernel calls of one round; ``None`` runs the chunks
        sequentially, which caps peak memory at one chunk's frontier arrays.
    prefix:
        Optional previously computed trajectory of the *same* CSR view and λ (an
        output of this function).  Its rows are copied verbatim and the round
        loop resumes after the last one, seeded with the neighbours of the
        nodes its last round changed, so a request with a larger budget pays
        only for the missing rounds.  A prefix longer than ``rounds`` simply
        yields the sliced trajectory.
    out:
        Optional :class:`~repro.store.traj.AppendTrajectory`: completed rounds
        are appended (and published) to the mapped file instead of filling a
        RAM array, only a sliding window of two rows stays resident, and the
        return value is a read-only ``np.memmap`` over the published prefix —
        bit-identical rows, since each round runs the very same kernel calls
        on the very same previous-row vector.  Rows already published on disk
        are their own warm start: they resume exactly like a prefix, and a
        longer ``prefix`` has its missing rows appended first.
    """
    n = csr.num_nodes
    if rounds < 0:
        raise AlgorithmError(f"rounds must be non-negative, got {rounds}")
    if prefix is not None and (
            prefix.ndim != 2 or prefix.shape[1] != n or prefix.shape[0] < 1):
        raise AlgorithmError(
            f"trajectory prefix of shape {getattr(prefix, 'shape', None)} does not "
            f"match a {n}-node CSR view")
    if out is not None:
        start = min(out.ensure_prefix(prefix), rounds)
        row_of, sink = out.row, (lambda t, row: out.append_row(row))
    else:
        trajectory = np.full((rounds + 1, n), np.inf, dtype=np.float64)
        start = 0 if prefix is None else min(prefix.shape[0] - 1, rounds)
        if prefix is not None:
            trajectory[:start + 1] = prefix[:start + 1]
        row_of, sink = trajectory.__getitem__, trajectory.__setitem__
    current = row_of(start)
    bounds = tuple(plan) if plan is not None else ((0, n),)
    if start == 0:
        dirty = np.arange(n, dtype=np.int64)
    else:  # resume: only the neighbours of the nodes the last round changed
        dirty = _dirty_after(csr, np.flatnonzero(current != row_of(start - 1)),
                             None, bounds)
    stop, row = round_loop(csr, rounds, LambdaGrid(lam=lam), start=start,
                           current=current, dirty=dirty, sink=sink,
                           plan=bounds, shard_map=shard_map)
    if out is not None:
        if stop is not None:
            out.fill_to(rounds, row)
        return out.as_array(rounds)
    if stop is not None:
        trajectory[stop:] = row
    return trajectory


class FrontierWarmStart:
    """Warm start for a delta-derived graph: recompute only the dirty frontier.

    Carries everything :func:`frontier_trajectory` needs to re-solve a child
    graph incrementally against its parent's trajectory:

    * ``parent_trajectory`` — the parent's ``(P + 1, parent_n)`` trajectory
      for the same λ;
    * ``parent_ids`` — int64 ``(n,)``: the parent integer id of every child
      node, ``-1`` for nodes the delta introduced;
    * ``changed`` — sorted int64 child ids whose update rule differs from the
      parent (delta edge endpoints, re-weighted/removed edge endpoints, new
      nodes) — the permanent seed of the frontier;
    * ``max_frontier_fraction`` — the fallback policy: when the dirty set of
      any round exceeds this fraction of ``n``, the incremental path bails
      out (returns ``None``) and the caller runs a cold solve instead.

    After the attempt the object reports what happened: ``used`` (the
    incremental path produced the trajectory), ``fallback_reason`` (why it
    did not), ``peak_frontier`` and ``nodes_recomputed`` (the work actually
    done — the rest of the rows were copied from the parent).
    """

    __slots__ = ("parent_trajectory", "parent_ids", "changed",
                 "max_frontier_fraction", "used", "fallback_reason",
                 "peak_frontier", "nodes_recomputed")

    def __init__(self, parent_trajectory: np.ndarray, parent_ids: np.ndarray,
                 changed: np.ndarray, *,
                 max_frontier_fraction: float = 0.25) -> None:
        fraction = float(max_frontier_fraction)
        if not 0.0 <= fraction <= 1.0:
            raise AlgorithmError(f"max_frontier_fraction must be in [0, 1], "
                                 f"got {fraction!r}")
        self.parent_trajectory = np.asarray(parent_trajectory)
        self.parent_ids = np.asarray(parent_ids, dtype=np.int64)
        self.changed = np.unique(np.asarray(changed, dtype=np.int64))
        self.max_frontier_fraction = fraction
        self.used = False
        self.fallback_reason: Optional[str] = None
        self.peak_frontier = 0
        self.nodes_recomputed = 0

    def _fallback(self, reason: str) -> None:
        self.used = False
        self.fallback_reason = reason


def frontier_trajectory(csr: CSRAdjacency, rounds: int, *, lam: float = 0.0,
                        warm: FrontierWarmStart) -> Optional[np.ndarray]:
    """Incremental Algorithm 2 trajectory of a delta-derived graph.

    The seeds of :func:`round_loop` for a delta: ``warm.changed`` is both the
    first round's dirty set and the permanent seed, and the baseline row of
    round ``t`` is the parent's row ``min(t, P)`` mapped through
    ``warm.parent_ids`` (the fixed-point row once the parent converged —
    f(x) = x, so the copy stays exact).  Nodes the delta introduced have no
    parent row; they are always dirty.

    Returns the full ``(rounds + 1, n)`` trajectory, or ``None`` when the
    incremental path cannot (parent trajectory too short and not converged)
    or should not (frontier exceeded ``max_frontier_fraction·n``) run — the
    caller then falls back to a cold solve.  ``warm`` records the outcome.
    """
    if rounds < 0:
        raise AlgorithmError(f"rounds must be non-negative, got {rounds}")
    n = csr.num_nodes
    ptraj = warm.parent_trajectory
    parent_ids = warm.parent_ids
    if parent_ids.shape != (n,):
        raise AlgorithmError(f"parent_ids of shape {parent_ids.shape} does "
                             f"not match a {n}-node CSR view")
    P = ptraj.shape[0] - 1
    if P < 1:
        warm._fallback("parent trajectory has no computed rounds")
        return None
    if rounds > P and not np.array_equal(ptraj[P], ptraj[P - 1]):
        warm._fallback(f"parent trajectory covers {P} < {rounds} rounds "
                       f"and has not converged")
        return None
    changed = warm.changed
    if changed.size and (changed[0] < 0 or changed[-1] >= n):
        raise AlgorithmError("changed ids out of range")
    has_parent = parent_ids >= 0
    gather_ids = parent_ids[has_parent]

    def parent_row(t: int) -> np.ndarray:
        row = np.full(n, np.inf, dtype=np.float64)
        row[has_parent] = ptraj[min(t, P)][gather_ids]
        return row

    trajectory = np.full((rounds + 1, n), np.inf, dtype=np.float64)
    ran = round_loop(csr, rounds, LambdaGrid(lam=lam), start=0,
                     current=trajectory[0], dirty=changed,
                     sink=trajectory.__setitem__, plan=((0, n),),
                     seed=changed, baseline=parent_row, warm=warm)
    if ran is None:
        return None
    stop, row = ran
    if stop is not None:
        trajectory[stop:] = row  # child fixed point: remaining rows repeat
    warm.used = True
    return trajectory


def threshold_round_range(csr: CSRAdjacency, alive: np.ndarray, threshold: float,
                          lo: int, hi: int) -> np.ndarray:
    """One round of Algorithm 1 (single-threshold elimination) for ``lo..hi-1``.

    ``alive`` is the full survival mask after the previous round; the return value
    is the new mask restricted to the range: a node stays alive iff it was alive
    and its weighted degree towards surviving neighbours (plus its self-loop) is
    at least ``threshold``.
    """
    start, stop = int(csr.indptr[lo]), int(csr.indptr[hi])
    local_n = hi - lo
    counts = np.diff(csr.indptr[lo:hi + 1])
    rows = np.repeat(np.arange(local_n), counts)
    contrib = np.where(alive[csr.indices[start:stop]], csr.weights[start:stop], 0.0)
    deg = np.zeros(local_n, dtype=np.float64)
    np.add.at(deg, rows, contrib)
    deg += csr.loops[lo:hi]
    return alive[lo:hi] & (deg >= threshold)


def restricted_threshold_round_range(csr: CSRAdjacency, alive: np.ndarray,
                                     leaders: np.ndarray, thresholds: np.ndarray,
                                     lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """One round of Algorithm 5 (tree-restricted elimination) for ``lo..hi-1``.

    The per-tree variant of :func:`threshold_round_range`: a node's degree only
    counts surviving neighbours that adopted the *same leader* (``leaders`` is
    the full per-node leader-id vector from Phase 2), and the threshold is
    per-node (the leader's surviving number ``b_u``, gathered by the caller).
    Returns ``(new_alive, deg)`` for the range: the survival mask after the
    round and the restricted weighted degree that was compared against the
    threshold — the ``deg_v[t]`` record that Phase 4 aggregates.  Nodes that
    were already inactive record a degree of 0.0, matching the faithful
    protocol (inactive nodes never execute the round body).
    """
    start, stop = int(csr.indptr[lo]), int(csr.indptr[hi])
    local_n = hi - lo
    counts = np.diff(csr.indptr[lo:hi + 1])
    rows = np.repeat(np.arange(local_n), counts)
    src = csr.indices[start:stop]
    same = leaders[src] == leaders[lo:hi][rows]
    contrib = np.where(alive[src] & same, csr.weights[start:stop], 0.0)
    deg = np.zeros(local_n, dtype=np.float64)
    np.add.at(deg, rows, contrib)
    deg += csr.loops[lo:hi]
    alive_range = alive[lo:hi]
    deg = np.where(alive_range, deg, 0.0)
    return alive_range & (deg >= thresholds[lo:hi]), deg


def threshold_masks(csr: CSRAdjacency, threshold: float, rounds: int, *,
                    plan: Optional[ShardPlan] = None) -> np.ndarray:
    """Per-round survival masks of Algorithm 1 (shape ``(rounds + 1, n)``).

    Row ``t`` is the survival mask after ``t`` rounds (row 0 is all-True).  Stops
    early (repeating the last row) once the mask stops changing, since the
    process is monotone.
    """
    if rounds < 0:
        raise AlgorithmError(f"rounds must be non-negative, got {rounds}")
    n = csr.num_nodes
    bounds = tuple(plan) if plan is not None else ((0, n),)
    masks = np.ones((rounds + 1, n), dtype=bool)
    current = masks[0].copy()
    for t in range(1, rounds + 1):
        new = np.empty(n, dtype=bool)
        for lo, hi in bounds:
            new[lo:hi] = threshold_round_range(csr, current, threshold, lo, hi)
        masks[t] = new
        if np.array_equal(new, current):
            masks[t:] = new
            break
        current = new
    return masks
