"""Timing, statistics and environment helpers shared by every workload."""

from __future__ import annotations

import importlib.util
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy

from repro.core.alphabet import encode
from repro.core.jit import jit_status
from repro.core.serial import DEFAULT_SERIAL_CHUNK
from repro.core.tiled import scan_tiled
from repro.kernels.segcache import enabled as segcache_enabled

#: Times each workload's set-up is repeated in an untraced run; the
#: reported ``setup_s`` is their median.
SETUP_REPS = 3


def nproc() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(int(os.cpu_count() or 1), 1)


def mt_workers() -> int:
    """``serial_mt`` worker count: 2, capped at :func:`nproc`."""
    return min(2, nproc())


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (0.0 for no values)."""
    return float(numpy.percentile(values, q)) if len(values) else 0.0


def median(values: Sequence[float]) -> float:
    """The 50th percentile (0.0 for no values)."""
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB (10^6 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


@dataclass
class Run:
    """What one measured phase of a workload did.

    ``latencies`` holds one wall-clock duration per request (the
    workload defines what a request is), ``input_bytes`` the bytes the
    requests carried, and ``elapsed`` the wall-clock length of the
    phase.  ``outputs`` keeps whatever the workload's checks need,
    ``details`` other objects its per-layer metrics read, and ``info``
    numbers that are printed but not gated.
    """

    latencies: List[float] = field(default_factory=list)
    input_bytes: int = 0
    elapsed: float = 0.0
    outputs: list = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)
    info: Dict[str, float] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        return len(self.latencies)

    def end_to_end(self) -> Dict[str, float]:
        """The request-level end-to-end metrics of this phase."""
        elapsed = max(self.elapsed, 1e-12)
        return {
            "throughput_MBps": self.input_bytes / 1e6 / elapsed,
            "req_p50_ms": median(self.latencies) * 1e3,
            "req_p95_ms": percentile(self.latencies, 95.0) * 1e3,
            "req_per_s": self.requests / elapsed,
        }


def environment(workload: str, seed: int) -> Dict[str, object]:
    """Host and configuration facts recorded with every result."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "serial_mt_workers": mt_workers(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "REPRO_JIT": os.environ.get("REPRO_JIT", "unset"),
        "jit_status": jit_status(),
        "REPRO_SEGCACHE": os.environ.get("REPRO_SEGCACHE", "unset"),
        "segcache_enabled": segcache_enabled(),
    }


class TiledReplay:
    """Replays texts through ``scan_tiled`` with the serial matcher's
    settings and accumulates the ``core.tiled`` per-layer metrics."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.lane_utils: List[float] = []
        self.bytes_per_step: List[float] = []
        self.raw_hits = 0
        self.matches = 0

    def scan(self, dfa, text):
        """Scan one text; returns ``(TiledScanResult, seconds)``."""
        t0 = time.perf_counter()
        res = scan_tiled(
            dfa,
            encode(text, name="text"),
            chunk_len=DEFAULT_SERIAL_CHUNK,
            compact=True,
        )
        seconds = time.perf_counter() - t0
        plan = res.plan
        self.seconds += seconds
        self.lane_utils.append(plan.n / (plan.window_len * plan.n_chunks))
        self.bytes_per_step.append(plan.n / plan.window_len)
        self.raw_hits += res.raw_hits
        self.matches += len(res.matches)
        return res, seconds

    def metrics(self) -> Dict[str, float]:
        """Busy time and hit counts summed; ratios as the median scan."""
        return {
            "core.tiled.busy_s": self.seconds,
            "core.tiled.lane_util": median(self.lane_utils),
            "core.tiled.bytes_per_step": median(self.bytes_per_step),
            "core.tiled.raw_hits": self.raw_hits,
            "core.tiled.matches": self.matches,
        }
