"""``bulk``: large prose buffers through ``Matcher.scan``.

One seeded 4 MiB buffer of benign prose (``workload.corpus``) is
scanned back to back with the default ``serial`` backend, then with
``serial_mt``, against 20k synthetic Snort contents.  Matches are
sparse, so the time goes to ``core.tiled`` gathers over a transition
table far larger than any CPU cache.  A request is one ``scan`` call
over the whole buffer; the end-to-end metrics come from the ``serial``
phase.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.multicore import scan_multicore
from repro.matcher import Matcher
from repro.workload.corpus import MagazineCorpus
from repro.workload.snort import generate_pattern_set

from perfbench.checks import Tally, python_reference
from perfbench.harness import Run, TiledReplay, mt_workers

N_PATTERNS = 20_000
BUFFER_BYTES = 4 << 20
#: The warm-up scan that pays each matcher's lazy table builds.
WARMUP_BYTES = 64 << 10
#: Prefix of the buffer checked against the pure-Python reference.
PREFIX_CHECK_BYTES = 64 << 10
#: Share of the measured seconds spent on ``serial_mt``.
MT_SHARE = 0.3


@dataclass
class Inputs:
    patterns: object
    buffer: bytes


@dataclass
class State:
    serial: Matcher
    mt: Matcher


def make_inputs(seed: int) -> Inputs:
    patterns = generate_pattern_set(N_PATTERNS, seed=seed)
    corpus = MagazineCorpus(seed=seed)
    buffer = corpus.generate(BUFFER_BYTES, stream_seed=seed + 1)
    return Inputs(patterns, buffer)


def setup(inputs: Inputs, tracer) -> State:
    serial = Matcher(inputs.patterns, backend="serial", tracer=tracer)
    with tracer.span("compress.backend.gather_table"):
        serial.dfa.gather_table(serial.stt_backend)
    mt = Matcher.from_dfa(
        serial.dfa, backend="serial_mt", workers=mt_workers(), tracer=tracer
    )
    warm = inputs.buffer[:WARMUP_BYTES]
    with tracer.span("matcher.first_scan", backend="serial"):
        serial.scan(warm)
    with tracer.span("matcher.first_scan", backend="serial_mt"):
        mt.scan(warm)
    return State(serial, mt)


def _scan_loop(matcher, data, seconds, tracer, run, first_id):
    """Scan *data* back to back for *seconds*; at least once."""
    start = time.perf_counter()
    deadline = start + seconds
    rid = first_id
    while True:
        t0 = time.perf_counter()
        with tracer.span(
            "matcher.scan", request_id=rid, backend=matcher.backend
        ):
            result = matcher.scan(data)
        t1 = time.perf_counter()
        run.latencies.append(t1 - t0)
        run.outputs.append((matcher.backend, result))
        rid += 1
        if t1 >= deadline:
            return t1 - start


def measure(inputs: Inputs, state: State, seconds: float, tracer) -> Run:
    data = inputs.buffer
    run = Run()
    run.elapsed = _scan_loop(
        state.serial, data, seconds * (1 - MT_SHARE), tracer, run, 0
    )
    run.input_bytes = len(data) * run.requests
    mt_run = Run()
    mt_elapsed = _scan_loop(
        state.mt, data, seconds * MT_SHARE, tracer, mt_run, run.requests
    )
    run.outputs.extend(mt_run.outputs)
    run.info["mt_throughput_MBps"] = (
        len(data) * mt_run.requests / 1e6 / mt_elapsed
    )
    run.info["mt_requests"] = mt_run.requests
    return run


def check(inputs: Inputs, state: State, run: Run, tally: Tally) -> None:
    """Every scan equals the first serial one; a prefix equals the
    pure-Python reference."""
    canonical = run.outputs[0][1]
    for i, (backend, result) in enumerate(run.outputs):
        tally.expect_equal(result, canonical, f"bulk scan {i} ({backend})")
    prefix = inputs.buffer[:PREFIX_CHECK_BYTES]
    tally.expect_equal(
        canonical.restrict_to_range(0, len(prefix)),
        python_reference(state.serial.dfa, prefix),
        "bulk prefix vs pure-Python reference",
    )


def layer_metrics(
    inputs: Inputs, state: State, run: Run, tracer, tally: Tally
) -> dict:
    """Replay the buffer through ``scan_tiled`` and ``scan_multicore``."""
    dfa = state.serial.dfa
    canonical = run.outputs[0][1]
    replay = TiledReplay()
    with tracer.span("core.tiled.scan_tiled"):
        tiled, tiled_s = replay.scan(dfa, inputs.buffer)
    t0 = time.perf_counter()
    with tracer.span("core.multicore.scan_multicore"):
        mc = scan_multicore(
            dfa, inputs.buffer, workers=mt_workers(), compact=True
        )
    mc_s = time.perf_counter() - t0
    tally.expect_equal(tiled.matches, canonical, "bulk scan_tiled replay")
    tally.expect_equal(mc.matches, canonical, "bulk scan_multicore replay")
    worker_s = [w.seconds for w in mc.worker_stats]
    metrics = replay.metrics()
    metrics.update(
        {
            "core.dfa.states": dfa.n_states,
            "compress.backend.table_mb": dfa.compact_stt().compact_bytes()
            / 1e6,
            "core.multicore.busy_s": mc_s,
            "core.multicore.speedup": tiled_s / mc_s,
            "core.multicore.overlap_redundancy": mc.overlap_redundancy,
            "core.multicore.worker_skew": max(worker_s) / min(worker_s),
        }
    )
    return metrics
