"""Shared plumbing: run settings, results, isolated sample workers, stats."""

from __future__ import annotations

import gc
import os
import pickle
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: ε of every request: ratio 2(1+ε) = 3, the repo's quickstart setting.
EPSILON = 0.5


@dataclass
class RunConfig:
    seed: int
    seconds: float
    trace: bool
    scale: float          #: multiplies every graph size (the self-test shrinks it)
    work_dir: Path        #: scratch space inside the checkout, removed after the run

    def size(self, nodes: int) -> int:
        return max(200, int(nodes * self.scale))


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    inputs: List[dict] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(1, -(-len(values) * q // 100))
    return float(values[int(rank) - 1])


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    status = Path(f"/proc/{pid or os.getpid()}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def run_isolated(func: Callable, *args):
    """Run ``func(*args)`` in a fresh interpreter and return its result.

    Each sample gets its own process, so one sample's heap, caches and
    imports cannot slow the next, and its import time is a real cold import.
    The worker is a plain child process running ``worker.py``, not a
    multiprocessing one, so no helper process (such as multiprocessing's
    resource tracker) outlives the run.  The worker has exited when this
    returns, also when it fails or overruns ``WORKER_TIMEOUT_S``.
    """
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py"))],
        input=pickle.dumps((func.__module__, func.__name__, args)),
        stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{func.__module__}.{func.__name__} worker exited "
                           f"with {done.returncode}")
    return pickle.loads(done.stdout)


#: A sample or chain takes a few seconds; a worker still running after this
#: long is stuck, and is killed so the run ends within its time limit.
WORKER_TIMEOUT_S = 150


#: Seconds the calibration slice takes at the reference machine speed.
NOMINAL_CALIBRATION_S = 0.08


def calibrate() -> float:
    """Seconds for a fixed slice of interpreter and NumPy work, independent
    of the program: edge-list parsing into dicts, as ingest does, and an
    integer argsort, as the round kernels do.

    A shared virtual machine can run the same code up to 1.5x slower or
    faster from one moment to the next, and a process measures the same
    speed for the slice as for its own work around it.  Timings
    taken in the benchmark's processes are therefore reported at the
    reference speed: ``seconds * NOMINAL_CALIBRATION_S / calibration``.

    The slice runs with the cyclic garbage collector off, so the objects
    the program keeps alive around it do not change what it costs.
    """
    import numpy as np

    text = CALIBRATION_TEXT
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        adjacency: dict = {}
        for line in text.splitlines():
            u, v = line.split()
            adjacency.setdefault(int(u), {})[int(v)] = 1.0
            adjacency.setdefault(int(v), {})[int(u)] = 1.0
        np.argsort(CALIBRATION_KEYS, kind="stable")
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def speed_factor(calibrations: List[float]) -> float:
    """Multiplier taking this process's timings to the reference speed."""
    return NOMINAL_CALIBRATION_S / median(calibrations)


def _calibration_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    pairs = rng.integers(0, 5_000, size=(20_000, 2))
    text = "".join(f"{u} {v}\n" for u, v in pairs.tolist())
    return text, rng.integers(0, 1 << 30, size=300_000)


CALIBRATION_TEXT, CALIBRATION_KEYS = _calibration_inputs()


class Deadline:
    """Start another sample only if its expected length still fits."""

    def __init__(self, seconds: float) -> None:
        self.start = time.perf_counter()
        self.seconds = seconds
        self.lengths: List[float] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def more(self, minimum: int = 1) -> bool:
        if len(self.lengths) < minimum:
            return True
        return self.elapsed() + median(self.lengths) <= self.seconds

    def record(self, seconds: float) -> None:
        self.lengths.append(seconds)


def merge_breakdowns(parts: List[dict]) -> dict:
    """One breakdown (see :func:`layers.breakdown`) summing ``parts``."""
    merged: dict = {"wall": 0.0, "unattributed": 0.0,
                    "self": {}, "total": {}, "attrs": {}}
    for part in parts:
        merged["wall"] += part["wall"]
        merged["unattributed"] += part["unattributed"]
        for key in ("self", "total", "attrs"):
            for name, value in part[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
    return merged


def layer_medians(samples: List[dict], names) -> Dict[str, float]:
    """``<layer>_s``: median, over the traced samples that called the layer,
    of its self time per sample (whole calls for ``layers.INCLUSIVE``);
    0 when no sample called it."""
    from layers import INCLUSIVE

    out = {}
    for name in names:
        key = "total" if name in INCLUSIVE else "self"
        out[f"{name}_s"] = median(s[key][name] for s in samples if name in s[key])
    return out


def overhead_pct(traced: List[float], untraced: List[float]) -> float:
    """Traced over untraced median wall time, as a percentage above 100."""
    return 100.0 * (median(traced) / median(untraced) - 1.0)
