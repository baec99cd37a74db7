"""Unit tests for the serial matchers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PatternSet, DFA, match_serial, match_serial_python, naive_find_all
from repro.core.chunking import required_overlap
from repro.core.serial import (
    DEFAULT_SERIAL_CHUNK,
    serial_chunk_len,
    serial_state_histogram,
)


class TestPythonReference:
    def test_paper_example(self, paper_dfa):
        assert match_serial_python(paper_dfa, "ushers") == [(3, 0), (3, 1), (5, 3)]

    def test_empty(self, paper_dfa):
        assert match_serial_python(paper_dfa, "") == []

    def test_accepts_bytes_and_str(self, paper_dfa):
        assert match_serial_python(paper_dfa, b"ushers") == match_serial_python(
            paper_dfa, "ushers"
        )


class TestVectorizedSerial:
    def test_equals_python_reference(self, english_dfa):
        text = (
            "they say that she will make all of this work out fine, "
            "and there is not one thing about it that they would not do"
        )
        assert (
            match_serial(english_dfa, text).as_pairs()
            == match_serial_python(english_dfa, text)
        )

    def test_equals_naive(self, english_dfa, english_patterns):
        text = "when they have what you would, their say makes the out"
        assert match_serial(english_dfa, text).as_set() == set(
            naive_find_all(english_patterns, text)
        )

    def test_empty_text(self, paper_dfa):
        assert len(match_serial(paper_dfa, b"")) == 0

    def test_text_shorter_than_chunk(self, paper_dfa):
        assert match_serial(paper_dfa, "ushers", chunk_len=4096).as_pairs() == [
            (3, 0),
            (3, 1),
            (5, 3),
        ]

    def test_chunk_len_does_not_change_result(self, paper_dfa):
        text = "hershey sherhis hers" * 20
        baseline = match_serial(paper_dfa, text, chunk_len=4096)
        for chunk in (1, 3, 17, 100):
            assert match_serial(paper_dfa, text, chunk_len=chunk) == baseline

    def test_large_random_text_against_naive(self, rng):
        from tests.conftest import random_text

        ps = PatternSet.from_strings(["ab", "ba", "aba", "bbbb"])
        dfa = DFA.build(ps)
        text = random_text(rng, 20_000, alphabet=b"ab")
        assert match_serial(dfa, text).as_set() == set(naive_find_all(ps, text))


class TestChunkGeometry:
    def test_documented_sizes_at_snort_overlap(self):
        # X = 11 is the tight overlap of the 20k synthetic Snort set.
        assert serial_chunk_len(64, 11) == 48
        assert serial_chunk_len(4096, 11) == 48
        assert serial_chunk_len(4 << 20, 11) == 313

    def test_never_past_the_text(self):
        assert serial_chunk_len(0, 11) == 1
        assert serial_chunk_len(1, 11) == 1
        assert serial_chunk_len(30, 11) == 30

    @pytest.mark.parametrize("overlap", [0, 1, 11, 100, 5000])
    @pytest.mark.parametrize("n", [1, 64, 4096, 1 << 20, 1 << 30])
    def test_within_bounds(self, n, overlap):
        chunk = serial_chunk_len(n, overlap)
        assert 1 <= chunk <= min(n, DEFAULT_SERIAL_CHUNK)
        if n >= DEFAULT_SERIAL_CHUNK:
            assert chunk >= min(4 * (overlap + 1), DEFAULT_SERIAL_CHUNK)


#: Dictionary alphabet: NUL is the filler byte of padded windows.
GEOMETRY_ALPHABET = b"\x00ab"


@st.composite
def geometry_case(draw):
    """A dictionary (NUL bytes allowed) and a text whose length sits at
    a breakpoint of :func:`serial_chunk_len`."""
    patterns = draw(
        st.lists(
            st.binary(min_size=1, max_size=6).map(
                lambda b: bytes(
                    GEOMETRY_ALPHABET[c % len(GEOMETRY_ALPHABET)] for c in b
                )
            ),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    x = required_overlap(max(len(p) for p in patterns))
    unit = x + 1
    # Past ~8192 (X+1) bytes the rule leaves its lower clamp.
    big = draw(st.sampled_from([4096, 8192 * unit + 1, 40_000]))
    chunk = serial_chunk_len(big, x)
    k = big // chunk
    n = draw(
        st.sampled_from(
            [0, 1, x, x + 1, 4 * unit - 1, 4 * unit, 4 * unit + 1]
            + [k * chunk - 1, k * chunk, k * chunk + 1]
        )
    )
    if n <= 4 * unit + 1 and draw(st.booleans()):
        # A pattern longer than the text.
        patterns = patterns + [b"a" * (n + 1)]
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    alphabet = np.frombuffer(GEOMETRY_ALPHABET, dtype=np.uint8)
    text = rng.choice(alphabet, size=n).tobytes()
    return patterns, text


class TestAutoGeometryProperty:
    @settings(max_examples=40, deadline=None)
    @given(case=geometry_case())
    def test_auto_geometry_equals_reference_and_fixed_chunk(self, case):
        patterns, text = case
        dfa = DFA.build(PatternSet.from_bytes(patterns))
        auto = match_serial(dfa, text)
        assert auto.as_pairs() == match_serial_python(dfa, text)
        assert auto == match_serial(
            dfa, text, chunk_len=DEFAULT_SERIAL_CHUNK
        )


class TestStateHistogram:
    def test_sums_to_scanned_bytes(self, paper_dfa):
        text = b"she sells seashells by the seashore"
        hist = serial_state_histogram(paper_dfa, text, chunk_len=8)
        # Chunked scan re-reads overlap bytes; total fetches >= len(text).
        assert hist.sum() >= len(text)

    def test_empty_text(self, paper_dfa):
        hist = serial_state_histogram(paper_dfa, b"")
        assert hist.shape == (paper_dfa.n_states,)
        assert hist.sum() == 0

    def test_skewed_toward_shallow_states(self, english_dfa):
        # English-like text visits the root region overwhelmingly more
        # than deep states — the property both cache models exploit.
        text = b"the quick brown fox jumps over the lazy dog " * 50
        hist = serial_state_histogram(english_dfa, text)
        assert hist[0] > hist[10:].max()
