"""Differential property harness: every backend, identical matches.

Hypothesis drives random dictionaries and request texts through the
scheduler and every scan backend — serial oracle, double-array, the
shared/global/PFAC kernels, and batched ``scan_many`` — asserting
byte-identical :class:`MatchResult`\\ s everywhere.  The scheduler's
batch concatenation and the kernels' internal ``+X`` chunk overlap are
the two places a wrong seam would silently corrupt results, so both
get dedicated deterministic cases alongside the random sweep.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DFA, PatternSet
from repro.core.serial import match_serial
from repro.kernels import (
    run_global_kernel,
    run_pfac_kernel,
    run_shared_kernel,
)
from repro.matcher import BACKENDS, Matcher
from repro.serve import ScanScheduler

ALPHABET = b"abcd"

patterns_strategy = st.lists(
    st.binary(min_size=1, max_size=5).map(
        lambda b: bytes(ALPHABET[c % len(ALPHABET)] for c in b)
    ),
    min_size=1,
    max_size=6,
    unique=True,
)

texts_strategy = st.lists(
    st.binary(min_size=0, max_size=120).map(
        lambda b: bytes(ALPHABET[c % len(ALPHABET)] for c in b)
    ),
    min_size=1,
    max_size=6,
)


def oracle_results(patterns, texts, case_insensitive=False):
    """Per-text serial-oracle results (the ground truth)."""
    ps = PatternSet(patterns)
    if case_insensitive:
        ps = PatternSet.from_bytes([p.lower() for p in ps.as_bytes_list()])
    dfa = DFA.build(ps)
    fold = (lambda t: bytes(t).lower()) if case_insensitive else bytes
    return [match_serial(dfa, fold(t)) for t in texts]


class TestSchedulerDifferential:
    @settings(max_examples=40, deadline=None)
    @given(patterns=patterns_strategy, texts=texts_strategy)
    def test_scheduler_gpu_matches_oracle(self, patterns, texts):
        expected = oracle_results(patterns, texts)
        sched = ScanScheduler(backend="gpu", max_batch=4)
        got = sched.scan_many(patterns, texts)
        assert got == expected

    @settings(max_examples=25, deadline=None)
    @given(
        patterns=patterns_strategy,
        texts=texts_strategy,
        backend=st.sampled_from(["serial", "double_array"]),
    )
    def test_scheduler_cpu_backends_match_oracle(
        self, patterns, texts, backend
    ):
        expected = oracle_results(patterns, texts)
        sched = ScanScheduler(backend=backend, max_batch=3)
        assert sched.scan_many(patterns, texts) == expected

    @settings(max_examples=25, deadline=None)
    @given(
        patterns=patterns_strategy,
        sizes=st.lists(
            st.sampled_from([0, 1, 3, 64, 594, 1518]), min_size=1, max_size=9
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        max_batch=st.integers(min_value=1, max_value=9),
    )
    def test_scheduler_serial_mixed_size_bursts(
        self, patterns, sizes, seed, max_batch
    ):
        """Bursts mixing empty, tiny and packet-sized requests batch
        into one serial pass each, byte-exact with the oracle."""
        rng = np.random.default_rng(seed)
        alphabet = np.frombuffer(ALPHABET, dtype=np.uint8)
        texts = [rng.choice(alphabet, size=n).tobytes() for n in sizes]
        expected = oracle_results(patterns, texts)
        sched = ScanScheduler(backend="serial", max_batch=max_batch)
        assert sched.scan_many(patterns, texts) == expected

    @settings(max_examples=25, deadline=None)
    @given(patterns=patterns_strategy, texts=texts_strategy)
    def test_scheduler_case_insensitive_matches_oracle(
        self, patterns, texts
    ):
        upper = [t.upper() for t in texts]
        expected = oracle_results(patterns, upper, case_insensitive=True)
        sched = ScanScheduler(backend="gpu", max_batch=4)
        tickets = [
            sched.submit(patterns, t, case_insensitive=True) for t in upper
        ]
        assert [t.result() for t in tickets] == expected

    @settings(max_examples=25, deadline=None)
    @given(
        patterns=patterns_strategy,
        texts=texts_strategy,
        max_batch=st.integers(min_value=1, max_value=7),
    )
    def test_batch_size_never_changes_results(
        self, patterns, texts, max_batch
    ):
        """Splitting the same requests into different batch sizes is
        invisible in the results."""
        expected = oracle_results(patterns, texts)
        sched = ScanScheduler(backend="gpu", max_batch=max_batch)
        assert sched.scan_many(patterns, texts) == expected


class TestBackendDifferential:
    @settings(max_examples=40, deadline=None)
    @given(patterns=patterns_strategy, texts=texts_strategy)
    def test_all_kernels_agree_with_oracle(self, patterns, texts):
        ps = PatternSet(patterns)
        dfa = DFA.build(ps)
        for text in texts:
            if not text:
                continue  # kernels reject empty launches by contract
            expected = match_serial(dfa, text)
            assert run_shared_kernel(dfa, text).matches == expected
            assert run_global_kernel(dfa, text).matches == expected
            assert run_pfac_kernel(dfa, text).matches == expected

    @settings(max_examples=25, deadline=None)
    @given(
        patterns=patterns_strategy,
        texts=texts_strategy,
        case_insensitive=st.booleans(),
    )
    def test_scan_many_equals_scan_loop(
        self, patterns, texts, case_insensitive
    ):
        """Every backend's one-pass batch is byte-exact with its own
        per-text loop and with the serial oracle."""
        if case_insensitive:
            texts = [t.upper() for t in texts]
        expected = oracle_results(patterns, texts, case_insensitive)
        for backend in BACKENDS:
            m = Matcher(
                patterns, backend=backend, case_insensitive=case_insensitive
            )
            batched = m.scan_many(texts)
            assert batched == [m.scan(t) for t in texts], backend
            assert batched == expected, backend


#: Degenerate batches: empty and 1-byte texts, texts shorter than the
#: longest pattern, and occurrences that would straddle a seam.
DEGENERATE_PATTERNS = [b"abcd", b"da", b"a"]
DEGENERATE_BATCHES = [
    [b""],
    [b"", b""],
    [b"a"],
    [b"", b"a", b"", b"d", b"a"],
    [b"ab", b"cd"],
    [b"abc", b"d", b"abcd"],
    [b"xd", b"ax", b"abcdabcd", b"", b"abc"],
]


class TestScanManyDegenerate:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("texts", DEGENERATE_BATCHES)
    def test_batch_equals_loop(self, backend, texts):
        m = Matcher(DEGENERATE_PATTERNS, backend=backend)
        expected = oracle_results(DEGENERATE_PATTERNS, texts)
        assert m.scan_many(texts) == [m.scan(t) for t in texts] == expected


class TestSeams:
    def test_seam_straddling_match_is_dropped(self):
        """A pattern spanning two adjacent requests in the batch buffer
        must not be reported for either request."""
        sched = ScanScheduler(backend="gpu", max_batch=2)
        results = sched.scan_many([b"ab"], [b"xa", b"bx"])
        assert all(len(r) == 0 for r in results)

    def test_seam_local_matches_survive(self):
        sched = ScanScheduler(backend="gpu", max_batch=3)
        results = sched.scan_many([b"ab"], [b"ab", b"aab", b"ba"])
        assert [len(r) for r in results] == [1, 1, 0]

    def test_chunk_boundary_overlap_inside_one_request(self):
        """A match straddling the kernel's internal 64 B chunk seam is
        found thanks to the +X overlap windows — batched or not."""
        pattern = b"abc"
        # Place the match across byte 64 (chunk_bytes=64 default).
        text = b"x" * 63 + pattern + b"x" * 40
        expected = oracle_results([pattern], [text])
        sched = ScanScheduler(backend="gpu")
        assert sched.scan_many([pattern], [text]) == expected
        assert len(expected[0]) == 1

    def test_chunk_boundary_overlap_at_batch_seams(self):
        """Batching shifts every request's chunk grid; matches near the
        new seams must be identical to scanning each text alone."""
        pattern = b"abcd"
        texts = [
            b"y" * 30 + pattern,          # match ending at a request tail
            pattern + b"y" * 61 + pattern,  # head + near-chunk-edge match
            b"y" * 62 + pattern + b"y" * 10,
        ]
        expected = oracle_results([pattern], texts)
        sched = ScanScheduler(backend="gpu", max_batch=3)
        assert sched.scan_many([pattern], texts) == expected
        assert [len(r) for r in expected] == [1, 2, 1]

    def test_empty_texts_batch_cleanly(self):
        """Empty requests ride along in a batch (the bare GPU kernel
        rejects empty launches; the batch path must not)."""
        sched = ScanScheduler(backend="gpu", max_batch=4)
        results = sched.scan_many([b"ab"], [b"", b"ab", b"", b""])
        assert [len(r) for r in results] == [0, 1, 0, 0]
