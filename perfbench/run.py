#!/usr/bin/env python3
"""Run one workload of the measured host benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 18 --trace 0

``--trace 0`` repeats the workload's set-up, measures it for
``--seconds`` and prints every end-to-end metric of ``BENCHMARK.json``.
``--trace 1`` measures it untraced and then traced, for half the
seconds each, and prints every per-layer metric; the spans go to
``perfbench/out/<workload>-seed<seed>.json``.  Every output is checked
against a reference after the timed section.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every output was correct, 1 when one was not, and 2 when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOADS = ("bulk", "packets", "paper_sim")
#: Switches of the program that are run at their defaults: they are
#: removed from the environment before the program is imported.
PINNED_ENV = ("REPRO_JIT", "REPRO_SEGCACHE")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _untraced(wl, inputs, seconds, tally):
    """Set up SETUP_REPS times, measure once; end-to-end metrics."""
    from repro.obs import NULL_TRACER

    from perfbench.harness import SETUP_REPS, median, peak_rss_mb

    setups = []
    for _ in range(SETUP_REPS):
        state = None  # free the previous rep's objects before collecting
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(inputs, NULL_TRACER)
        setups.append(time.perf_counter() - t0)
    # Start the timed section without set-up garbage pending collection.
    gc.collect()
    run = wl.measure(inputs, state, seconds, NULL_TRACER)
    metrics = run.end_to_end()
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    wl.check(inputs, state, run, tally)
    print(f"setup runs: {', '.join(f'{s:.3f}' for s in setups)} s")
    print(f"requests: {run.requests} in {run.elapsed:.3f} s")
    for name, value in run.info.items():
        print(f"info {name} = {value!r}")
    return metrics


def _traced(wl, inputs, seconds, tally, header):
    """Untraced then traced halves; per-layer metrics and the span file."""
    from repro.kernels import segcache
    from repro.obs import NULL_TRACER, Tracer

    from perfbench import tracing
    from perfbench.harness import median

    state = wl.setup(inputs, NULL_TRACER)
    gc.collect()
    plain = wl.measure(inputs, state, seconds / 2, NULL_TRACER)
    wl.check(inputs, state, plain, tally)
    state = None
    gc.collect()

    tracer = Tracer()
    with tracer.span("bench.setup"):
        state = wl.setup(inputs, tracer)
    gc.collect()
    seg_before = segcache.CACHE.stats()
    with tracer.span("bench.measure"):
        traced = wl.measure(inputs, state, seconds / 2, tracer)
    seg_after = segcache.CACHE.stats()
    wl.check(inputs, state, traced, tally)
    with tracer.span("bench.replay"):
        metrics = wl.layer_metrics(inputs, state, traced, tracer, tally)

    records = tracing.flatten(tracer)
    setup = tracing.in_phase(records, "setup")
    meas = tracing.in_phase(records, "measure")
    busy = tracing.self_time_by_layer(meas)

    def total(recs, *names):
        return sum(tracing.durations(recs, *names))

    hits = seg_after["hits"] - seg_before["hits"]
    misses = seg_after["misses"] - seg_before["misses"]
    plain_p50 = plain.end_to_end()["req_p50_ms"]
    metrics.update(
        {
            "core.dfa.build_s": tracing.build_seconds(setup),
            "compress.backend.table_build_s": total(
                setup, "compress.backend.gather_table"
            ),
            "matcher.first_scan_s": total(setup, "matcher.first_scan")
            - tracing.build_seconds(setup, inside="matcher.first_scan"),
            "matcher.scan_busy_s": busy.get("matcher", 0.0),
            "kernels.shared_mem.busy_s": total(meas, "kernels.shared_mem"),
            "kernels.shared_mem.naive_busy_s": total(
                meas, "kernels.shared_mem.naive"
            ),
            "kernels.global_only.busy_s": total(meas, "kernels.global_only"),
            "kernels.pfac.busy_s": total(meas, "kernels.pfac"),
            "kernels.segcache.hits": hits,
            "kernels.segcache.misses": misses,
            "kernels.segcache.hit_ratio": hits / max(hits + misses, 1),
            "serve.scheduler.drain_busy_s": busy.get("serve.scheduler", 0.0),
            "serve.cache.get_ms_p50": median(
                tracing.durations(meas, "serve.cache.get")
            ) * 1e3,
            "serve.epoch.swap_busy_s": busy.get("serve.epoch", 0.0),
            "obs.trace_overhead_frac": (
                traced.end_to_end()["req_p50_ms"] / plain_p50 - 1.0
            ),
        }
    )
    print(
        f"requests: {plain.requests} untraced, {traced.requests} traced; "
        f"{len(records)} spans"
    )
    for layer, seconds_busy in sorted(busy.items(), key=lambda kv: -kv[1]):
        print(f"self time {layer:<20} {seconds_busy:.4f} s")
    path = OUT_DIR / f"{header['workload']}-seed{header['seed']}.json"
    tracing.write_trace(path, records, {"env": header})
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir() or not SPEC.is_file():
        print(
            "perfbench: src/repro or BENCHMARK.json is missing; run from the "
            "root of a full checkout",
            file=sys.stderr,
        )
        return 2
    for var in PINNED_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, str(ROOT / "src"))

    from perfbench.checks import Tally
    from perfbench.harness import environment

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wl = importlib.import_module(f"perfbench.{args.workload}")
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    inputs = wl.make_inputs(args.seed)
    tally = Tally()
    if args.trace:
        wanted = spec["per_layer"]
        values = dict.fromkeys((m["name"] for m in wanted), 0)
        measured = _traced(wl, inputs, args.seconds, tally, env)
    else:
        wanted = spec["end_to_end"]
        values = {}
        measured = _untraced(wl, inputs, args.seconds, tally)
    unknown = set(measured) - {m["name"] for m in wanted}
    if unknown:
        raise KeyError(f"not in BENCHMARK.json: {sorted(unknown)}")
    values.update(measured)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']}")
    print(
        f"ops_failed_frac = {tally.failed_frac!r} "
        f"({tally.failed} of {tally.attempted} operations)"
    )
    for note in tally.notes:
        print(f"FAILED {note}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
