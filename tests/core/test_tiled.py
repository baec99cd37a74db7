"""Differential tests: tiled engine ≡ a whole-window lockstep oracle.

The tiled engine must be a pure implementation change — every
observable (matches, raw hit count, state traces, visit histograms) is
byte-identical to tracing the whole window at once, for *any* tile
size, including tile_len=1 (a seam between every step) and tile sizes
that straddle chunk-ownership boundaries.  The reference is
test-local: ``lockstep_oracle`` (one dense ``next_states`` lookup per
step over ``build_windows``) for traces and raw hits, and the Fig. 2
serial loop (``match_serial_python``) for matches.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DFA, MatchResult, PatternSet, encode, plan_chunks
from repro.core.chunking import required_overlap
from repro.core.lockstep import TraceRecorder
from repro.core.serial import match_serial_python, serial_chunk_len
from repro.core.streaming import StreamMatcher
from repro.core.tiled import (
    GatherKernel,
    StateVisitHistogram,
    iter_dfa_tiles,
    scan_tiled,
)
from repro.errors import ChunkingError

from tests.conftest import lockstep_oracle, oracle_raw_hits


def monolithic(dfa, data, chunk_len, overlap=None):
    """Whole-window reference: oracle trace, raw hits, serial matches."""
    plan, windows, trace = lockstep_oracle(dfa, data, chunk_len, overlap)
    matches = MatchResult.from_pairs(match_serial_python(dfa, data))
    return plan, windows, trace, matches, oracle_raw_hits(dfa, trace)


@pytest.fixture(scope="module")
def paper_case():
    dfa = DFA.build(PatternSet([b"he", b"she", b"his", b"hers"]))
    rng = np.random.default_rng(42)
    data = rng.choice(
        np.frombuffer(b"hers i x", dtype=np.uint8), size=3000
    ).astype(np.uint8)
    return dfa, data


class TestTiledEqualsMonolithic:
    @pytest.mark.parametrize("chunk_len", [1, 3, 64, 1000])
    @pytest.mark.parametrize("tile_len", [1, 2, 7, 256])
    @pytest.mark.parametrize("compact", [False, True])
    def test_matches_identical(self, paper_case, chunk_len, tile_len, compact):
        dfa, data = paper_case
        _, _, trace, want, want_raw = monolithic(dfa, data, chunk_len)
        got = scan_tiled(
            dfa, data, chunk_len=chunk_len, tile_len=tile_len, compact=compact
        )
        assert got.matches == want
        assert got.raw_hits == want_raw
        # bytes_scanned counts valid lockstep steps, overlap included.
        assert got.bytes_scanned == trace.total_fetches()

    def test_trace_recorder_rebuilds_exact_trace(self, paper_case):
        dfa, data = paper_case
        plan, _, want, _, _ = monolithic(dfa, data, 64)
        rec = TraceRecorder(plan)
        scan_tiled(dfa, data, plan=plan, tile_len=7, sinks=[rec])
        got = rec.trace()
        assert np.array_equal(got.states_after, want.states_after)
        assert np.array_equal(got.valid, want.valid)

    def test_visit_histogram_sink_matches_trace(self, paper_case):
        dfa, data = paper_case
        _, _, trace, _, _ = monolithic(dfa, data, 64)
        hist = StateVisitHistogram(dfa.n_states)
        scan_tiled(dfa, data, chunk_len=64, tile_len=5, sinks=[hist])
        assert np.array_equal(hist.hist, trace.visit_histogram(dfa.n_states))

    def test_tile_fields_concatenate_to_monolithic(self, paper_case):
        dfa, data = paper_case
        plan, windows, trace, _, _ = monolithic(dfa, data, 64)
        fetched_rows, window_rows = [], []
        for tile in iter_dfa_tiles(
            dfa, data, plan, tile_len=7, want_windows=True, want_fetched=True
        ):
            fetched_rows.append(tile.fetched.copy())
            window_rows.append(tile.windows.copy())
        assert np.array_equal(np.vstack(fetched_rows), trace.states_fetched())
        assert np.array_equal(np.vstack(window_rows), windows)

    def test_empty_input(self, paper_case):
        dfa, _ = paper_case
        got = scan_tiled(dfa, np.empty(0, dtype=np.uint8), chunk_len=64)
        assert len(got.matches) == 0
        assert got.raw_hits == 0
        assert got.bytes_scanned == 0

    def test_gather_kernel_rejects_bad_shapes(self, paper_case):
        # step() is the adapter path; the fused tables step via step_fused.
        dfa, _ = paper_case
        g = GatherKernel(dfa, dfa.gather_table("banded"))
        g.alloc(4)
        state = np.zeros(4, dtype=np.int64)
        out = np.empty(4, dtype=np.int32)
        g.step(state, np.zeros(4, dtype=np.uint8), out)
        assert np.array_equal(out, np.zeros(4, dtype=np.int32))

    def test_irregular_plan_rejected(self, paper_case):
        dfa, data = paper_case
        plan = plan_chunks(data.size, 64, 3)
        starts = plan.starts.copy()
        starts[1] += 1
        bad = type(plan)(
            n=plan.n,
            chunk_len=plan.chunk_len,
            overlap=plan.overlap,
            starts=starts,
            owned_ends=plan.owned_ends,
            window_len=plan.window_len,
        )
        with pytest.raises(ChunkingError, match="stride"):
            next(iter_dfa_tiles(dfa, data, bad))


class TestSeams:
    """Deterministic seam cases: matches crossing chunk/tile borders."""

    def test_match_straddles_chunk_seam(self):
        dfa = DFA.build(PatternSet([b"abcd"]))
        data = encode(b"xxabcdxx")
        for chunk_len in (2, 3, 4):
            got = scan_tiled(dfa, data, chunk_len=chunk_len, tile_len=2)
            assert got.matches.ends.tolist() == [5]

    def test_match_ends_exactly_on_tile_seam(self):
        dfa = DFA.build(PatternSet([b"ab"]))
        data = encode(b"ab" * 10)
        # tile_len=2 puts every second match-end on a tile boundary.
        got = scan_tiled(dfa, data, chunk_len=20, tile_len=2)
        assert got.matches.ends.tolist() == list(range(1, 20, 2))

    def test_overlap_longer_than_chunk(self):
        dfa = DFA.build(PatternSet([b"aaaaaaaa"]))  # overlap 7 > chunk 4
        data = encode(b"a" * 30)
        _, _, _, want, _ = monolithic(dfa, data, 4)
        got = scan_tiled(dfa, data, chunk_len=4, tile_len=3)
        assert got.matches == want


ALPHA = st.sampled_from(["ab", "abc", "he rs"])


@st.composite
def dict_text_geometry(draw):
    alpha = draw(ALPHA)
    patterns = draw(
        st.lists(
            st.text(alphabet=alpha, min_size=1, max_size=6),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    text = draw(st.text(alphabet=alpha, min_size=0, max_size=400))
    chunk_len = draw(st.integers(min_value=1, max_value=48))
    tile_len = draw(st.integers(min_value=1, max_value=8))
    return PatternSet.from_strings(patterns), text, chunk_len, tile_len


@settings(max_examples=80, deadline=None)
@given(dict_text_geometry(), st.booleans())
def test_tiled_equals_monolithic_property(case, compact):
    patterns, text, chunk_len, tile_len = case
    dfa = DFA.build(patterns)
    data = encode(text)
    _, _, _, want, want_raw = monolithic(dfa, data, chunk_len)
    got = scan_tiled(
        dfa, data, chunk_len=chunk_len, tile_len=tile_len, compact=compact
    )
    assert got.matches == want
    assert got.raw_hits == want_raw


@settings(max_examples=50, deadline=None)
@given(
    case=dict_text_geometry(),
    cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=6),
)
def test_streaming_split_feeds_equal_whole_scan(case, cuts):
    """Feeds split anywhere — including mid-pattern — match a one-shot
    scan, on both the small and the chunk-parallel feed paths.

    Besides the drawn cuts, the text is cut where a feed is exactly
    the ``serial_chunk_len`` floor ``4 (X + 1)`` long (one lane) and
    where the next feed is one byte longer (two lanes), and inside the
    first occurrence of a multi-byte pattern.
    """
    import repro.core.streaming as streaming

    patterns, text, _, _ = case
    dfa = DFA.build(patterns)
    data = encode(text)
    n = int(data.size)
    want = match_serial_python(dfa, data)
    overlap = required_overlap(dfa.patterns.max_length)
    floor = 4 * (overlap + 1)
    # A floor-long feed is one lane; one byte more makes two.
    assert serial_chunk_len(floor, overlap) == floor
    assert serial_chunk_len(floor + 1, overlap) == floor
    forced = {floor, 2 * floor + 1}
    lengths = dfa.pattern_lengths
    inside = [e - int(lengths[p]) + 2 for e, p in want if lengths[p] > 1]
    forced |= set(inside[:1])
    bounds = sorted({min(c, n) for c in set(cuts) | forced} | {0, n})
    # Force the parallel path so tiny feeds exercise it too.
    saved = streaming.VECTOR_THRESHOLD
    streaming.VECTOR_THRESHOLD = 4
    try:
        m = StreamMatcher(dfa)
        pairs = []
        for lo, hi in zip(bounds, bounds[1:]):
            pairs.extend(m.feed(data[lo:hi]))
    finally:
        streaming.VECTOR_THRESHOLD = saved
    assert sorted(pairs) == want
    assert m.position == n
