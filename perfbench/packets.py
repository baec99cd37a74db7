"""``packets``: NIDS-style requests through ``ScanScheduler``.

One closed-loop client sends seeded bursts of 8 requests to a
``ScanScheduler(backend="serial")`` and drains after each burst, so it
sends the next burst only when the last one has completed.  Request
sizes follow the simple IMIX packet mix (64, 594 and 1518 bytes at
7:4:1) plus a 4 KiB class at weight 1, so they span 64 B to 4 KiB and
most are 64 B.  Three rule sets are in play:

* ``rules``, 20k synthetic Snort contents behind an ``EpochManager``
  and ``submit_named``.  Every ``SWAP_EVERY`` bursts it is swapped to a
  new version by a 1%-churn ``PatternDelta`` (a write); the next burst
  is served right after the swap.
* two smaller tenant dictionaries (5k and 1k contents) sent with
  ``submit``, so every batch of theirs goes through
  ``AutomatonCache.get``.

A request is one submitted scan; its latency runs from ``submit`` to
the result being available after the drain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.delta import PatternDelta
from repro.core.dfa import DFA
from repro.errors import ReproError
from repro.serve.cache import AutomatonCache
from repro.serve.epoch import EpochManager
from repro.serve.scheduler import ScanScheduler
from repro.workload.packets import generate_stream
from repro.workload.snort import generate_pattern_set

from perfbench.checks import Tally, naive_reference, python_reference
from perfbench.harness import Run, TiledReplay, median
from perfbench.tracing import wrap_method

RULES = "rules"
N_RULES = 20_000
TENANTS = (("tenant_a", 5_000), ("tenant_b", 1_000))
#: Request targets and their weights.
TARGET_MIX = ((RULES, 7), (TENANTS[0][0], 2), (TENANTS[1][0], 1))
#: Request sizes (bytes) and their weights: simple IMIX plus 4 KiB.
SIZE_CLASSES = ((64, 7), (594, 4), (1518, 1), (4096, 1))
BURST_SIZE = 8
#: Bursts pre-generated: about five times what an 18 s run used on a
#: 2-core host.  A run that uses them all ends early.
N_BURSTS = 400
#: A swap lands before every SWAP_EVERY-th burst.
SWAP_EVERY = 8
#: Patterns edited per swap, as a share of the rule set (added + removed).
CHURN = 0.01
CACHE_CAPACITY = 4
#: Every NAIVE_EVERY-th request is also checked by naive substring search.
NAIVE_EVERY = 10


@dataclass
class Inputs:
    rules: object
    tenants: Dict[str, object]
    warm: bytes
    bursts: List[List[Tuple[str, bytes]]]
    deltas: List[PatternDelta]


@dataclass
class State:
    epochs: EpochManager
    cache: AutomatonCache
    sched: ScanScheduler


def _delta_chain(rules, n: int, rng) -> List[PatternDelta]:
    """*n* successive 1%-churn deltas, each valid on the version before."""
    current = rules.as_bytes_list()
    present = set(current)
    half = max(int(round(len(current) * CHURN / 2)), 1)
    deltas = []
    for _ in range(n):
        picks = rng.choice(len(current), half, replace=False)
        removed = [current[i] for i in picks]
        added: List[bytes] = []
        while len(added) < half:
            length = int(rng.integers(4, 12))
            pat = bytes(rng.integers(97, 123, length, dtype=np.uint8))
            if pat not in present:
                present.add(pat)
                added.append(pat)
        gone = set(removed)
        present -= gone
        current = [p for p in current if p not in gone] + added
        deltas.append(PatternDelta(tuple(added), tuple(removed)))
    return deltas


def _shuffled_cycles(rng, weighted, n: int) -> list:
    """*n* items drawn in shuffled cycles of the exact weighted mix.

    Every cycle holds each item as many times as its weight, so any
    run of requests carries the mix's proportions, not a random
    sample of them.
    """
    cycle = [item for item, weight in weighted for _ in range(weight)]
    out: list = []
    while len(out) < n:
        out += [cycle[i] for i in rng.permutation(len(cycle))]
    return out[:n]


def make_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 0x5CA7])
    rules = generate_pattern_set(N_RULES, seed=seed)
    tenants = {
        name: generate_pattern_set(n, seed=seed * 31 + k + 1)
        for k, (name, n) in enumerate(TENANTS)
    }
    attacks = []
    for ps in (rules, *tenants.values()):
        pats = ps.as_bytes_list()
        attacks += [pats[i] for i in rng.choice(len(pats), 60, replace=False)]
    pool = generate_stream(8000, attacks, attack_rate=0.15, seed=seed).payload
    targets = _shuffled_cycles(rng, TARGET_MIX, N_BURSTS * BURST_SIZE)
    sizes = _shuffled_cycles(rng, SIZE_CLASSES, len(targets))
    bursts = []
    at = 0
    for _ in range(N_BURSTS):
        burst = []
        for _ in range(BURST_SIZE):
            size = sizes[at]
            offset = int(rng.integers(0, len(pool) - size))
            burst.append((targets[at], pool[offset : offset + size]))
            at += 1
        bursts.append(burst)
    deltas = _delta_chain(rules, N_BURSTS // SWAP_EVERY, rng)
    return Inputs(rules, tenants, pool[:594], bursts, deltas)


def setup(inputs: Inputs, tracer) -> State:
    epochs = EpochManager(tracer=tracer)
    cache = AutomatonCache(CACHE_CAPACITY, tracer=tracer)
    if tracer.enabled:
        wrap_method(tracer, cache, "get", "serve.cache.get")
        wrap_method(tracer, epochs, "admit", "serve.epoch.admit")
        wrap_method(tracer, epochs, "built_for", "serve.epoch.built_for")
    with tracer.span("core.dfa.build", rule_set=RULES):
        epochs.register(RULES, inputs.rules)
    with tracer.span("compress.backend.gather_table"):
        epochs.active(RULES).built.dfa.compact_stt()
    sched = ScanScheduler(
        backend="serial", cache=cache, epochs=epochs, tracer=tracer
    )
    with tracer.span("matcher.first_scan"):
        tickets = [sched.submit_named(RULES, inputs.warm)] + [
            sched.submit(ps, inputs.warm) for ps in inputs.tenants.values()
        ]
        sched.drain()
        for ticket in tickets:
            ticket.result()
    return State(epochs, cache, sched)


def measure(inputs: Inputs, state: State, seconds: float, tracer) -> Run:
    sched, epochs, cache = state.sched, state.epochs, state.cache
    run = Run()
    swaps = []  # (seconds, SwapReport or the exception the swap raised)
    post_swap = 0
    drains = {False: [], True: []}  # drain seconds, by "right after a swap"
    waits = []
    first_report = len(sched.reports)
    cache_before = (cache.hits, cache.misses, cache.evictions)
    rid = 0
    start = time.perf_counter()
    deadline = start + seconds
    for b, burst in enumerate(inputs.bursts):
        after_swap = b > 0 and b % SWAP_EVERY == 0
        if after_swap:
            t0 = time.perf_counter()
            try:
                with tracer.span("serve.epoch.swap"):
                    outcome = epochs.swap(RULES, inputs.deltas[len(swaps)])
            except ReproError as exc:
                outcome = exc
            swaps.append((time.perf_counter() - t0, outcome))
        ids = list(range(rid, rid + len(burst)))
        with tracer.span("bench.burst", burst=b, request_ids=ids):
            pending = []
            for target, text in burst:
                t0 = time.perf_counter()
                with tracer.span(
                    "serve.scheduler.submit", request_id=rid, target=target
                ):
                    if target == RULES:
                        ticket = sched.submit_named(RULES, text)
                    else:
                        ticket = sched.submit(inputs.tenants[target], text)
                pending.append((t0, target, ticket, text))
                rid += 1
            t0 = time.perf_counter()
            with tracer.span("serve.scheduler.drain"):
                sched.drain()
            drains[after_swap].append(time.perf_counter() - t0)
            for t0, target, ticket, text in pending:
                try:
                    result = ticket.result()
                except ReproError as exc:
                    result = exc
                run.latencies.append(time.perf_counter() - t0)
                run.input_bytes += len(text)
                run.outputs.append((target, ticket.request, text, result))
                waits.append(ticket.queue_wait_seconds)
        if after_swap:
            post_swap += len(burst)
        if time.perf_counter() >= deadline:
            break
    run.elapsed = time.perf_counter() - start
    run.details["swaps"] = swaps
    run.details["queue_waits"] = waits
    run.details["reports"] = sched.reports[first_report:]
    run.details["cache"] = tuple(
        now - before
        for now, before in zip(
            (cache.hits, cache.misses, cache.evictions), cache_before
        )
    )
    run.info["swaps"] = len(swaps)
    run.info["swap_p50_ms"] = median([s for s, _ in swaps]) * 1e3
    run.info["post_swap_request_frac"] = post_swap / max(run.requests, 1)
    run.info["burst_drain_p50_ms"] = median(drains[False]) * 1e3
    run.info["post_swap_drain_p50_ms"] = median(drains[True]) * 1e3
    return run


def check(inputs: Inputs, state: State, run: Run, tally: Tally) -> None:
    """Each result against a from-scratch automaton of its admitted
    version; every NAIVE_EVERY-th also against naive substring search."""
    groups: Dict[str, list] = {}
    for i, (_, request, _, _) in enumerate(run.outputs):
        groups.setdefault(request.digest, []).append(i)
    for idx in groups.values():
        patterns = run.outputs[idx[0]][1].patterns
        reference = DFA.build(patterns)
        plain = patterns.as_bytes_list()
        for i in idx:
            _, request, text, result = run.outputs[i]
            wants = [python_reference(reference, text)]
            if i % NAIVE_EVERY == 0:
                wants.append(naive_reference(plain, text))
            tally.expect_equal(result, wants, f"request {request.request_id}")
        del reference
    for _, outcome in run.details["swaps"]:
        tally.record(
            not isinstance(outcome, BaseException), f"swap raised {outcome!r}"
        )


def layer_metrics(
    inputs: Inputs, state: State, run: Run, tracer, tally: Tally
) -> dict:
    """Scheduler, cache and epoch counters; replay through ``scan_tiled``.

    The replay scans each request with the automaton now serving its
    target; versions differ by 1% of patterns, window geometry not at
    all.
    """
    epochs, cache = state.epochs, state.cache
    dfas = {RULES: epochs.active(RULES).built.dfa}
    for name, ps in inputs.tenants.items():
        entry, _ = cache.get_or_build(ps, stt_backend=state.sched.stt_backend)
        dfas[name] = entry.dfa
    replay = TiledReplay()
    by_size: Dict[int, List[float]] = {}
    with tracer.span("core.tiled.scan_tiled", scans=len(run.outputs)):
        for target, _, text, _ in run.outputs:
            _, seconds = replay.scan(dfas[target], text)
            by_size.setdefault(len(text), []).append(seconds)
    for size, times in sorted(by_size.items()):
        print(
            f"scan_tiled {size:>5} B: p50 {median(times) * 1e3:.1f} ms "
            f"over {len(times)} scans"
        )
    reports = run.details["reports"]
    n_requests = sum(r.n_requests for r in reports)
    hits, misses, evictions = run.details["cache"]
    outcomes = [o for _, o in run.details["swaps"]]
    swaps = [o for o in outcomes if not isinstance(o, BaseException)]
    reused = sum(s.reused_rows for s in swaps)
    dirty = sum(s.dirty_rows for s in swaps)
    waits = [w for w in run.details["queue_waits"] if w is not None]
    metrics = replay.metrics()
    metrics.update(
        {
            "core.dfa.states": sum(d.n_states for d in dfas.values()),
            "compress.backend.table_mb": sum(
                d.compact_stt().compact_bytes() for d in dfas.values()
            ) / 1e6,
            "serve.scheduler.batches": len(reports),
            "serve.scheduler.requests_per_batch": n_requests
            / max(len(reports), 1),
            "serve.scheduler.queue_wait_p50_ms": median(waits) * 1e3,
            "serve.cache.hits": hits,
            "serve.cache.misses": misses,
            "serve.cache.hit_ratio": hits / max(hits + misses, 1),
            "serve.cache.evictions": evictions,
            "serve.epoch.swap_p50_ms": run.info["swap_p50_ms"],
            "serve.epoch.rebuild_ms": median([s.rebuild_ms for s in swaps]),
            "serve.epoch.verify_ms": median([s.verify_ms for s in swaps]),
            # A swap that aborts re-raises its typed error.
            "serve.epoch.swaps_aborted": len(outcomes) - len(swaps),
            "core.delta.reused_row_ratio": reused / max(reused + dirty, 1),
            "resilience.fallback_requests": sum(
                len(r.fallback_request_ids) for r in reports
            ),
        }
    )
    return metrics
