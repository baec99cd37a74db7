"""``paper_sim``: the paper's evaluation, run through the GPU simulator.

Dictionaries of 1k and 20k patterns are extracted from the prose
corpus (``DatasetFactory.patterns_for``), so matches are dense.  Each
request is one fresh 256 KiB prose text put through, for both
dictionaries, ``run_shared_kernel`` (diagonal scheme, then naive
scheme), ``run_global_kernel`` and ``run_pfac_kernel`` on a 64 KiB
slice, on one persistent simulated device per dictionary.  Fresh texts
keep the segment cache (``kernels.segcache``) from replaying whole
requests: only the naive pass re-prices the segment its diagonal pass
just computed.  ``ExperimentRunner``'s on-disk cell cache is not used.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.dfa import DFA
from repro.core.serial import match_serial
from repro.gpu.device import Device
from repro.kernels import segcache
from repro.kernels.global_only import run_global_kernel
from repro.kernels.pfac import run_pfac_kernel
from repro.kernels.shared_mem import run_shared_kernel
from repro.workload.datasets import DatasetFactory

from perfbench.checks import Tally
from perfbench.harness import Run, TiledReplay

DICT_SIZES = (1_000, 20_000)
TEXT_BYTES = 256 << 10
PFAC_BYTES = 64 << 10
#: Texts pre-generated: about twice what an 18 s run used on a 2-core
#: host.  A run that uses them all ends early.
POOL_TEXTS = 40

#: The kernel passes of one request, as (span name, pass label).
PASSES = (
    ("kernels.shared_mem", "shared_mem"),
    ("kernels.shared_mem.naive", "shared_mem_naive"),
    ("kernels.global_only", "global_only"),
    ("kernels.pfac", "pfac"),
)

#: Modeled counters reported exactly (summed over kernels and dictionaries).
GPU_COUNTERS = (
    "texture_accesses",
    "texture_misses",
    "global_transactions",
    "shared_serialized_accesses",
    "raw_match_writes",
)


@dataclass
class Inputs:
    patterns: Dict[int, object]
    warm: object
    texts: List[object]


@dataclass
class Dictionary:
    n_patterns: int
    dfa: DFA
    device: Device


@dataclass
class State:
    dicts: List[Dictionary]
    #: KernelResults of the warm-up text: {(n_patterns, pass label): result}.
    warm: Dict[tuple, object] = field(default_factory=dict)


def make_inputs(seed: int) -> Inputs:
    factory = DatasetFactory(seed=seed)
    patterns = {n: factory.patterns_for(n) for n in DICT_SIZES}
    base = seed * 1_000_003
    texts = [
        factory.corpus.generate_array(TEXT_BYTES, stream_seed=base + 1 + i)
        for i in range(POOL_TEXTS + 1)
    ]
    return Inputs(patterns, texts[0], texts[1:])


def run_passes(d: Dictionary, text, tracer) -> Dict[str, object]:
    """The four kernel passes of one text on one dictionary."""
    out = {}
    dfa, device = d.dfa, d.device
    for span, label in PASSES:
        with tracer.span(span, n_patterns=d.n_patterns):
            if label == "shared_mem":
                result = run_shared_kernel(dfa, text, device, tracer=tracer)
            elif label == "shared_mem_naive":
                result = run_shared_kernel(
                    dfa, text, device, scheme="naive", tracer=tracer
                )
            elif label == "global_only":
                result = run_global_kernel(dfa, text, device, tracer=tracer)
            else:
                result = run_pfac_kernel(
                    dfa, text[:PFAC_BYTES], device, tracer=tracer
                )
            out[label] = result
    return out


def setup(inputs: Inputs, tracer) -> State:
    # Every set-up starts from a cold segment cache, as a fresh process does.
    segcache.clear()
    state = State([])
    for n in DICT_SIZES:
        with tracer.span("core.dfa.build", n_patterns=n):
            dfa = DFA.build(inputs.patterns[n])
        with tracer.span("compress.backend.gather_table"):
            dfa.gather_table("compact")
        device = Device(tracer=tracer)
        with tracer.span("gpu.bind_texture"):
            device.bind_texture(dfa.stt)
        state.dicts.append(Dictionary(n, dfa, device))
    for d in state.dicts:
        for label, result in run_passes(d, inputs.warm, tracer).items():
            state.warm[(d.n_patterns, label)] = result
    return state


def measure(inputs: Inputs, state: State, seconds: float, tracer) -> Run:
    run = Run()
    start = time.perf_counter()
    deadline = start + seconds
    for i, text in enumerate(inputs.texts):
        t0 = time.perf_counter()
        matches = {}
        with tracer.span("bench.request", request_id=i):
            for d in state.dicts:
                passes = run_passes(d, text, tracer)
                matches[d.n_patterns] = {
                    label: r.matches for label, r in passes.items()
                }
        t1 = time.perf_counter()
        run.latencies.append(t1 - t0)
        run.input_bytes += int(text.size)
        run.outputs.append((text, matches))
        if t1 >= deadline:
            break
    run.elapsed = time.perf_counter() - start
    return run


def check(inputs: Inputs, state: State, run: Run, tally: Tally) -> None:
    """Every kernel's matches equal the serial matcher's on the same bytes."""
    warm = {
        d.n_patterns: {
            label: state.warm[(d.n_patterns, label)].matches
            for _, label in PASSES
        }
        for d in state.dicts
    }
    for i, (text, per_dict) in enumerate([(inputs.warm, warm)] + run.outputs):
        for d in state.dicts:
            full = match_serial(d.dfa, text)
            head = match_serial(d.dfa, text[:PFAC_BYTES])
            for label, matches in per_dict[d.n_patterns].items():
                want = head if label == "pfac" else full
                tally.expect_equal(
                    matches, want, f"text {i} {d.n_patterns} patterns {label}"
                )


def layer_metrics(
    inputs: Inputs, state: State, run: Run, tracer, tally: Tally
) -> dict:
    """Exact modeled counters of the warm-up text; ``scan_tiled`` replay."""
    totals = dict.fromkeys(GPU_COUNTERS, 0)
    modeled_s = 0.0
    for (n, label), result in sorted(state.warm.items()):
        c = result.counters
        values = {name: int(getattr(c, name)) for name in GPU_COUNTERS}
        for name, value in values.items():
            totals[name] += value
        modeled_s += result.seconds
        print(
            f"gpu {n:>6} patterns {label:<17} "
            + " ".join(f"{k}={v}" for k, v in values.items())
            + f" modeled_s={result.seconds!r}"
        )
    replay = TiledReplay()
    scans = len(run.outputs) * len(state.dicts)
    with tracer.span("core.tiled.scan_tiled", scans=scans):
        for text, per_dict in run.outputs:
            for d in state.dicts:
                res, _ = replay.scan(d.dfa, text)
                tally.expect_equal(
                    res.matches,
                    per_dict[d.n_patterns]["shared_mem"],
                    f"scan_tiled replay {d.n_patterns} patterns",
                )
    metrics = replay.metrics()
    metrics.update({f"gpu.{name}": value for name, value in totals.items()})
    metrics.update(
        {
            "gpu.modeled_s": modeled_s,
            "core.dfa.states": sum(d.dfa.n_states for d in state.dicts),
            "compress.backend.table_mb": sum(
                d.dfa.compact_stt().compact_bytes() for d in state.dicts
            ) / 1e6,
        }
    )
    return metrics
