#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Feeds each workload's ``check`` a small, correct run and the same run
with one wrong result injected, and requires the correct run to count
no failure and the injected one exactly one.  Run from the repository
root::

    python3 perfbench/selftest.py

Exit code 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def wrong(result):
    """*result* with one match dropped (or one bogus match added)."""
    from repro.core.match import MatchResult

    if len(result):
        return MatchResult(result.ends[1:], result.pattern_ids[1:])
    return MatchResult.from_pairs([(10**9, 0)])


def bulk_case(inject: bool):
    from repro.core.pattern_set import PatternSet
    from repro.matcher import Matcher

    from perfbench import bulk
    from perfbench.harness import Run

    patterns = PatternSet(["he", "she", "his", "hers"])
    text = b"ushers and she sells his hers; " * 40
    serial = Matcher(patterns)
    mt = Matcher.from_dfa(serial.dfa, backend="serial_mt", workers=2)
    mt_result = mt.scan(text)
    run = Run(
        outputs=[
            ("serial", serial.scan(text)),
            ("serial_mt", wrong(mt_result) if inject else mt_result),
        ]
    )
    return bulk, bulk.Inputs(patterns, text), bulk.State(serial, mt), run


def packets_case(inject: bool):
    from repro.core.pattern_set import PatternSet
    from repro.errors import ReproError
    from repro.serve.epoch import EpochManager
    from repro.serve.scheduler import ScanScheduler

    from perfbench import packets
    from perfbench.harness import Run

    rules = PatternSet(["GET", "Host", "attack", "tack"])
    tenant = PatternSet(["json", "son", "HTTP/1.1"])
    epochs = EpochManager()
    epochs.register(packets.RULES, rules)
    sched = ScanScheduler(backend="serial", epochs=epochs)
    texts = [
        b"GET /attack HTTP/1.1\r\nHost: x\r\n",
        b"POST /api HTTP/1.1 {json}",
    ]
    tickets = [
        ("rules", sched.submit_named(packets.RULES, texts[0])),
        ("tenant_a", sched.submit(tenant, texts[1])),
    ]
    sched.drain()
    run = Run()
    for (target, ticket), text in zip(tickets, texts):
        run.outputs.append((target, ticket.request, text, ticket.result()))
    if inject:
        target, request, text, result = run.outputs[1]
        run.outputs[1] = (target, request, text, wrong(result))
        # A request that raised instead of returning is failed too.
        target, request, text, _ = run.outputs[0]
        run.outputs.append((target, request, text, ReproError("injected")))
    run.details["swaps"] = []
    inputs = packets.Inputs(rules, {"tenant_a": tenant}, texts[0], [], [])
    return packets, inputs, None, run


def paper_sim_case(inject: bool):
    import numpy as np

    from repro.core.dfa import DFA
    from repro.core.pattern_set import PatternSet
    from repro.gpu.device import Device
    from repro.obs import NULL_TRACER

    from perfbench import paper_sim
    from perfbench.harness import Run

    patterns = PatternSet(["the", "he", "and", "sand"])
    text = np.frombuffer(b"the sand and the hand. " * 200, dtype=np.uint8)
    dfa = DFA.build(patterns)
    device = Device()
    device.bind_texture(dfa.stt)
    d = paper_sim.Dictionary(len(patterns), dfa, device)
    state = paper_sim.State([d])
    for label, result in paper_sim.run_passes(d, text, NULL_TRACER).items():
        state.warm[(d.n_patterns, label)] = result
    per_pass = {
        label: state.warm[(d.n_patterns, label)].matches
        for _, label in paper_sim.PASSES
    }
    if inject:
        per_pass["global_only"] = wrong(per_pass["global_only"])
    run = Run(outputs=[(text, {d.n_patterns: per_pass})])
    inputs = paper_sim.Inputs({d.n_patterns: patterns}, text, [])
    return paper_sim, inputs, state, run


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.checks import Tally

    expected_failures = {"bulk": 1, "packets": 2, "paper_sim": 1}
    ok = True
    for name, case in (
        ("bulk", bulk_case),
        ("packets", packets_case),
        ("paper_sim", paper_sim_case),
    ):
        for inject in (False, True):
            wl, inputs, state, run = case(inject)
            tally = Tally()
            wl.check(inputs, state, run, tally)
            want = expected_failures[name] if inject else 0
            good = tally.failed == want
            ok &= good
            print(
                f"{'ok  ' if good else 'FAIL'} {name:<9} "
                f"{'injected' if inject else 'clean   '} "
                f"failed {tally.failed} of {tally.attempted} (want {want})"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
