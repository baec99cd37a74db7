"""Unit tests for lockstep traces and the tiled engine's match extraction.

Traces come from the test-local oracle (``tests.conftest.
lockstep_oracle``: one dense ``next_states`` lookup per step over
``build_windows``); extraction is :func:`repro.core.tiled.scan_tiled`
on the same geometry, checked against hand-derived expectations.
"""

import numpy as np

from repro.core import encode
from repro.core.tiled import scan_tiled
from repro.core.trie import ROOT

from tests.conftest import lockstep_oracle


def run(dfa, text: bytes, chunk_len: int, overlap: int = None):
    plan, _, trace = lockstep_oracle(dfa, text, chunk_len, overlap)
    return plan, trace


def extract(dfa, text: bytes, chunk_len: int):
    res = scan_tiled(dfa, encode(text), chunk_len=chunk_len)
    return res.matches, res.raw_hits


class TestTraceGeometry:
    def test_shapes(self, paper_dfa):
        plan, trace = run(paper_dfa, b"ushers victim", 4)
        assert trace.states_after.shape == (plan.window_len, plan.n_chunks)
        assert trace.valid.shape == trace.states_after.shape
        assert trace.n_threads == plan.n_chunks
        assert trace.window_len == plan.window_len

    def test_valid_mask_respects_input_end(self, paper_dfa):
        _, trace = run(paper_dfa, b"abcde", 4)  # 2 chunks, window 7
        # Thread 0 scans positions 0..6 -> only 0..4 valid.
        assert trace.valid[:, 0].tolist() == [True] * 5 + [False] * 2
        # Thread 1 scans positions 4..10 -> only 4 valid.
        assert trace.valid[0, 1] and not trace.valid[1, 1]

    def test_states_fetched_shifts_by_one(self, paper_dfa):
        _, trace = run(paper_dfa, b"hers", 4)
        fetched = trace.states_fetched()
        assert np.all(fetched[0] == ROOT)
        assert np.array_equal(fetched[1:], trace.states_after[:-1])

    def test_total_fetches_equals_scanned_bytes(self, paper_dfa):
        plan, trace = run(paper_dfa, b"x" * 100, 8)
        assert trace.total_fetches() == plan.scan_bytes_total()


class TestVisitHistogram:
    def test_histogram_sums_to_fetches(self, paper_dfa):
        _, trace = run(paper_dfa, b"she sells seashells", 4)
        hist = trace.visit_histogram(paper_dfa.n_states)
        assert hist.sum() == trace.total_fetches()

    def test_root_dominates_on_non_matching_text(self, paper_dfa):
        _, trace = run(paper_dfa, b"zzzzzzzzzzzz", 4)
        hist = trace.visit_histogram(paper_dfa.n_states)
        assert hist[ROOT] == trace.total_fetches()

    def test_histogram_counts_specific_path(self, paper_dfa):
        # Single chunk over "he": fetch ROOT then the h-state.
        _, trace = run(paper_dfa, b"he", 8)
        hist = trace.visit_histogram(paper_dfa.n_states)
        assert hist[ROOT] == 1
        assert hist.sum() == 2


class TestExtractMatches:
    def test_paper_example(self, paper_dfa):
        matches, raw = extract(paper_dfa, b"ushers", 3)
        assert matches.as_pairs() == [(3, 0), (3, 1), (5, 3)]
        assert raw >= 2  # at least the two matched states, pre-dedup

    def test_no_matches(self, paper_dfa):
        matches, raw = extract(paper_dfa, b"qqqq", 2)
        assert len(matches) == 0 and raw == 0

    def test_raw_hits_count_overlap_duplicates(self, paper_dfa):
        # chunks: xh|ey, windows 5.  Thread 1 starts at 'e', so "he"
        # is seen once, by its owner.
        matches, raw = extract(paper_dfa, b"xhey", 2)
        assert matches.as_pairs() == [(2, 0)]
        assert raw == 1  # thread 1 starts at 'e', cannot see 'he'

    def test_duplicate_raw_hits_deduplicated(self, paper_dfa):
        # "hehe": chunk 0 owns [0,2), chunk 1 owns [2,4).
        # Window of chunk 0 = positions 0..4 -> sees both matches;
        # ownership keeps only the first for thread 0.
        matches, raw = extract(paper_dfa, b"hehe", 2)
        assert matches.as_pairs() == [(1, 0), (3, 0)]
        assert raw == 3  # thread 0 saw 2 hits, thread 1 saw 1

    def test_carry_in_lane_owns_the_seam_match(self, paper_dfa):
        # Lane 0 seeded with the state after "sh" completes "she" and
        # "he" at byte 0 of this input; their starts predate the
        # input, and lane 0 has no lower ownership bound.
        delta = paper_dfa.stt.next_states
        carry = int(delta[delta[ROOT, ord("s")], ord("h")])
        res = scan_tiled(
            paper_dfa, encode(b"ers he"), chunk_len=2, carry_in=carry
        )
        assert res.matches.as_pairs() == [(0, 0), (0, 1), (2, 3), (5, 0)]
