"""Ablation D — STT compression vs the dense texture table.

Prices the trade the paper's refs [18][19] explore on the Cell: a
compressed automaton shrinks the texture working set (better cache
residency as dictionaries grow) at the price of extra per-fetch work.
The bench reports compression ratios across the dictionary axis and
verifies every scheme stays bit-exact; the alphabet-class column is
``dfa.compact_stt()``, the table the kernels actually read.
"""

import pytest

from repro.compress import BandedSTT, BitmapDeltaSTT
from repro.core import AhoCorasickAutomaton


@pytest.mark.parametrize("n_patterns", [100, 1000, 5000])
def test_compression_sweep(benchmark, runner, n_patterns):
    patterns = runner.factory.patterns_for(n_patterns)
    dfa = runner.dfa_for(n_patterns)

    def build_and_verify():
        banded = BandedSTT.from_stt(dfa.stt)
        assert banded.verify_against(dfa.stt)
        ac = AhoCorasickAutomaton.build(patterns)
        bitmap = BitmapDeltaSTT.from_automaton(ac)
        assert bitmap.verify_against(dfa, sample=500)
        classes = dfa.compact_stt()
        assert classes.verify_against(dfa)
        return banded, bitmap, classes

    banded, bitmap, classes = benchmark.pedantic(
        build_and_verify, rounds=1, iterations=1
    )
    bs, ms = banded.stats(), bitmap.stats()
    cs_bytes = classes.compact_bytes()
    cs_ratio = classes.dense_bytes() / cs_bytes
    print(
        f"\n{n_patterns} patterns / {dfa.n_states} states: "
        f"dense {bs.dense_bytes / 2**20:.2f} MiB | "
        f"banded {bs.compressed_bytes / 2**20:.2f} MiB ({bs.ratio:.1f}x) | "
        f"bitmap {ms.compressed_bytes / 2**20:.2f} MiB ({ms.ratio:.1f}x) | "
        f"classes({classes.n_classes}) "
        f"{cs_bytes / 2**20:.2f} MiB ({cs_ratio:.1f}x)"
    )
    assert bs.ratio > 2.0
    assert ms.ratio > bs.ratio  # failure-delta compresses harder
    assert cs_ratio > 1.5       # prose distinguishes few byte classes
