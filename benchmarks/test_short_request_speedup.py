"""Wall-clock speedup of input-sized serial chunks on short requests.

The acceptance bar of the right-sized serial scan: at 20k synthetic
Snort contents, ``match_serial`` on a 64 B and a 4 KiB request must be
>= 10x faster with its chunk sized to the text than with the fixed
``DEFAULT_SERIAL_CHUNK`` geometry (which runs a 4,107-step window on
one lane whatever the text length), with byte-identical matches.  Both
geometries run side by side in one process: one untimed warm-up each
(pays the fused-table build and buffer-pool population), then
min-of-N timed runs to reject scheduler noise.
"""

from __future__ import annotations

import time

import pytest

from repro.core import DFA
from repro.core.serial import DEFAULT_SERIAL_CHUNK, match_serial
from repro.workload.packets import generate_stream
from repro.workload.snort import generate_pattern_set

#: Dictionary size of the gate (the packets workload's rule set).
N_PATTERNS = 20_000

#: Request sizes under test: the smallest IMIX packet and a 4 KiB page.
SIZES = (64, 4096)

#: Timed repeats per geometry; min taken.
REPEATS = 3

#: The pinned speedup floor (acceptance criterion).
MIN_SPEEDUP = 10.0


@pytest.fixture(scope="module")
def snort_workload():
    patterns = generate_pattern_set(N_PATTERNS, seed=2013)
    dfa = DFA.build(patterns)
    pats = patterns.as_bytes_list()
    payload = generate_stream(
        64, pats[::500], attack_rate=0.5, seed=5
    ).payload
    # A known occurrence up front so the 64 B request matches too.
    text = pats[0] + payload
    return dfa, {n: text[:n] for n in SIZES}


def _best_of(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


@pytest.mark.parametrize("size", SIZES)
def test_sized_chunks_byte_identical_and_10x(snort_workload, size):
    dfa, texts = snort_workload
    text = texts[size]

    def run_sized():
        return match_serial(dfa, text)

    def run_fixed():
        return match_serial(dfa, text, chunk_len=DEFAULT_SERIAL_CHUNK)

    # Untimed warm-ups: fused tables, buffer pool, page faults.
    fixed = run_fixed()
    sized = run_sized()

    # Byte-identity first — a fast wrong scan is worthless.
    assert sized == fixed
    assert len(sized) > 0

    fixed_s = _best_of(run_fixed)
    sized_s = _best_of(run_sized)
    speedup = fixed_s / sized_s
    print(
        f"\n{size} B request: {fixed_s * 1e3:.2f} ms -> "
        f"{sized_s * 1e3:.2f} ms ({speedup:.1f}x) at {N_PATTERNS} patterns"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"sized-chunk speedup {speedup:.1f}x at {size} B fell below the "
        f"pinned {MIN_SPEEDUP}x floor ({fixed_s:.4f}s -> {sized_s:.4f}s)"
    )
