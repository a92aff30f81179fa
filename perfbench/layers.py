"""Layer spans recorded from the benchmark's side of each layer boundary.

A traced sample enables the program's own ring tracer
(:mod:`repro.obs.trace`), opens one root span for the sample and one span
per call into a layer.  Calls the benchmark makes itself are wrapped where
they are made (:func:`layer`); calls the program makes internally are
wrapped by :class:`LayerHooks`, which swaps each layer's public function for
a spanned copy for the duration of the sample and puts the original back
afterwards.  Spans the program already emits (``session.solve``,
``engine.run``, ...) nest under these, and no file of the program changes.

A layer's self time is its span minus the layer spans nested in it, so the
self times of one sample add up to the part of the sample's wall time that
some layer covers; the rest is ``trace.unattributed_s``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from typing import Dict, List, Tuple

PREFIX = "layer:"
ROOT = "perfbench.sample"
RING_SIZE = 200_000   #: spans one traced process can hold; more is an error

#: Layer name -> ``module:qualname`` of the public call it times when the
#: program makes that call itself.
HOOKS: Tuple[Tuple[str, str], ...] = (
    ("graph.csr", "repro.graph.csr:graph_to_csr"),
    ("graph.fingerprint", "repro.graph.csr:csr_fingerprint"),
    ("graph.delta", "repro.session:Session.apply_delta"),
    ("grid.build", "repro.core.rounding:grid_for_graph"),
    ("engine.rounds", "repro.engine.vectorized:VectorizedEngine.trajectory"),
    ("engine.assemble", "repro.engine.vectorized:TrajectoryEngine.assemble"),
    ("engine.frontier", "repro.engine.kernels:frontier_trajectory"),
    ("orientation.kept", "repro.core.orientation:kept_sets_from_trajectory"),
    ("orientation.assign", "repro.core.orientation:orientation_from_kept"),
    ("densest.ranks", "repro.engine.densest_kernels:identity_ranks"),
    ("densest.forest", "repro.engine.densest_kernels:bfs_forest"),
    ("densest.local", "repro.engine.densest_kernels:local_elimination_rounds"),
    ("densest.aggregate", "repro.engine.densest_kernels:aggregate_and_decide"),
    ("store.write", "repro.store.store:ArtifactStore.save_trajectory"),
    ("store.read", "repro.store.store:ArtifactStore.load_trajectory"),
)

#: Calls run with the program's own spans suppressed while a sample is
#: traced.  ``ArtifactStore.record_lineage`` passes ``parent=`` as a span
#: attribute, which ``repro.obs.trace.span`` takes for its parent context:
#: with a tracer enabled, ``Session.apply_delta`` on a store-bound session
#: raises ValueError.  Untraced runs never reach that code path.
SHIELDED: Tuple[str, ...] = ("repro.store.store:ArtifactStore.record_lineage",)

#: Layers reported as the whole call rather than as self time.
INCLUSIVE = ("densest.total",)


def layer(name: str, **attrs):
    """A benchmark-side span around one call into layer ``name``."""
    from repro.obs import trace as obs_trace

    return obs_trace.span(PREFIX + name, **attrs)


def _shielded(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        from repro.obs import trace as obs_trace

        with obs_trace.SUPPRESSED_SPAN:
            return func(*args, **kwargs)
    return wrapper


def _spanned(name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with layer(name):
            return func(*args, **kwargs)
    return wrapper


class LayerHooks:
    """Swap every :data:`HOOKS` target for a spanned copy while active.

    A module-level function is replaced in every loaded ``repro`` module
    that binds it (``from x import f`` copies the reference); a method or
    static method is replaced on its class.  ``store.write`` also records
    the size of the artifact it wrote as the span's ``bytes`` attribute.
    """

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "LayerHooks":
        targets = [(name, target) for name, target in HOOKS]
        targets += [(None, target) for target in SHIELDED]
        for name, target in targets:
            module_name, _, qualname = target.partition(":")
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            func = raw.__func__ if isinstance(raw, staticmethod) else raw
            if name is None:
                wrapped = _shielded(func)
            elif name == "store.write":
                wrapped = _measure_write(func)
            else:
                wrapped = _spanned(name, func)
            if inspect.isclass(owner):
                self._swap(owner, attr, raw, staticmethod(wrapped)
                           if isinstance(raw, staticmethod) else wrapped)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro"):
                    for key, value in list(vars(module).items()):
                        if value is func:
                            self._swap(module, key, value, wrapped)
        return self

    def _swap(self, owner, attr, original, replacement) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _measure_write(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with layer("store.write") as sp:
            path = func(*args, **kwargs)
            sp.set(bytes=path.stat().st_size)
            return path
    return wrapper


def sample(tracing: "Tracing | None"):
    """``tracing.sample()``, or a no-op yielding an empty dict untraced.

    A traced sample's dict stays empty until ``tracing.close()``."""
    return tracing.sample() if tracing is not None else contextlib.nullcontext({})


class Tracing:
    """The ring tracer of one traced process, and the per-sample breakdowns.

    Breakdowns are computed in :meth:`close`, after every timed region of
    the process, so no sample's timing includes the benchmark's accounting.
    """

    def __init__(self) -> None:
        from repro.obs import trace as obs_trace

        self._trace = obs_trace
        self.tracer = obs_trace.enable(ring_size=RING_SIZE)
        self._samples: List[Tuple[dict, str]] = []

    @contextlib.contextmanager
    def sample(self):
        """Root span of one sample; yields a dict that :meth:`close` fills
        in with the sample's ``wall``, per-layer ``self`` times, inclusive
        ``total`` times and span ``attrs`` (see :func:`breakdown`)."""
        out: Dict[str, object] = {}
        with self._trace.span(ROOT) as root:
            yield out
        self._samples.append((out, root.trace_id))

    def close(self) -> None:
        """Disable the tracer and fill in every sample's breakdown."""
        self._trace.disable()
        if self.tracer.emitted > self.tracer.ring_size:
            raise RuntimeError("trace ring overflowed; spans were lost")
        records = self.tracer.spans()
        for out, trace_id in self._samples:
            out.update(breakdown(records, trace_id))


def breakdown(records, trace_id: str) -> dict:
    """Self time per layer, inclusive time per layer and the unattributed
    wall time of the sample whose root span has ``trace_id``."""
    from repro.obs.trace import summarize

    records = [r for r in records if r.get("trace") == trace_id]
    by_id = {r["span"]: r for r in records}
    layers = [r for r in records if r["name"].startswith(PREFIX)]
    nested: Dict[str, float] = {}
    for record in layers:
        parent = record.get("parent")
        while parent in by_id and not by_id[parent]["name"].startswith(PREFIX):
            parent = by_id[parent].get("parent")
        if parent in by_id:
            nested[parent] = nested.get(parent, 0.0) + record["dur"]
    self_rows = summarize(
        {"name": r["name"][len(PREFIX):],
         "dur": r["dur"] - nested.get(r["span"], 0.0)} for r in layers)
    total_rows = summarize(
        {"name": r["name"][len(PREFIX):], "dur": r["dur"]} for r in layers)
    wall = sum(r["dur"] for r in records if r["name"] == ROOT)
    covered = sum(row["total_seconds"] for row in self_rows)
    attrs: Dict[str, float] = {}
    for record in layers:
        for key, value in record.get("attrs", {}).items():
            if isinstance(value, (int, float)):
                name = f"{record['name'][len(PREFIX):]}.{key}"
                attrs[name] = attrs.get(name, 0) + value
    return {"wall": wall,
            "self": {row["name"]: row["total_seconds"] for row in self_rows},
            "total": {row["name"]: row["total_seconds"] for row in total_rows},
            "attrs": attrs,
            "unattributed": max(0.0, wall - covered)}
