"""Alphabet-class compression: the ``compact`` backend's byte classes.

:class:`repro.core.compact.CompactSTT` is the one byte-class compaction
in the tree: a 256-entry byte→class LUT (class 0 is every byte no
pattern uses) and one table column per class.  These tests pin its
class partition and exhaustive equality with the dense STT on the
paper dictionary, prose and DNA.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DFA, PatternSet
from repro.core.alphabet import ALPHABET_SIZE
from repro.core.compact import ByteClassMap, CompactSTT


class TestComputeClasses:
    def test_paper_dictionary_classes(self, paper_dfa):
        classes = paper_dfa.compact_stt().class_map
        # {he, she, his, hers}: distinguished bytes are h,e,s,i,r plus
        # the "everything else" class -> exactly 6 classes.
        assert classes.n_classes == 6
        ids = {int(classes.class_of[ord(k)]) for k in "hesir"}
        assert len(ids) == 5  # each special letter its own class

    def test_default_class_holds_the_rest(self, paper_dfa):
        classes = paper_dfa.compact_stt().class_map
        other = classes.class_of[ord("z")]
        assert classes.class_of[ord("q")] == other
        assert classes.class_of[0] == other
        assert np.count_nonzero(classes.class_of == other) == 256 - 5

    def test_members_roundtrip(self, paper_dfa):
        classes = paper_dfa.compact_stt().class_map
        sizes = np.bincount(classes.class_of, minlength=classes.n_classes)
        assert sizes.size == classes.n_classes
        assert sizes.sum() == ALPHABET_SIZE

    def test_classes_deterministic(self, paper_patterns):
        a = ByteClassMap.from_patterns(paper_patterns)
        b = ByteClassMap.from_patterns(paper_patterns)
        assert np.array_equal(a.class_of, b.class_of)


class TestClassCompressedDfa:
    def test_exhaustive_equality(self, paper_dfa, english_dfa):
        assert CompactSTT.from_dfa(paper_dfa).verify_against(paper_dfa)
        assert CompactSTT.from_dfa(english_dfa).verify_against(english_dfa)

    def test_scalar_delta(self, paper_dfa):
        c = paper_dfa.compact_stt()
        for s in range(paper_dfa.n_states):
            for a in (ord("h"), ord("e"), ord("z"), 0, 255):
                got = c.next_states(np.array([s]), np.array([a]))[0]
                assert got == paper_dfa.delta(s, a)

    def test_symbol_range_check(self, paper_dfa):
        c = paper_dfa.compact_stt()
        with pytest.raises(IndexError):
            c.next_states(np.array([0]), np.array([256]))

    def test_compression_ratio_prose(self, english_dfa):
        c = english_dfa.compact_stt()
        # 30 English words: ~17 distinct letters + 1 default class.
        assert c.n_classes < 30
        assert c.dense_bytes() / c.compact_bytes() > 8.0

    def test_dna_compresses_to_five_classes(self):
        from repro.workload.dna import motif_dictionary

        dfa = DFA.build(motif_dictionary(200, seed=3))
        c = dfa.compact_stt()
        assert c.n_classes == 5  # A, C, G, T + everything else
        assert c.dense_bytes() / c.compact_bytes() > 30.0

    def test_match_flags_preserved(self, paper_dfa):
        # The fused gather carries the target state's match flag at the
        # same index as the transition: flag_flat[i] == flags[col_flat[i]].
        c = paper_dfa.compact_stt()
        col_flat, _, flag_flat = c.fused_tables(
            paper_dfa.stt.match_flags, np.int32
        )
        assert np.array_equal(
            flag_flat, paper_dfa.stt.match_flags[col_flat] != 0
        )


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.text(alphabet="abcdef", min_size=1, max_size=5),
        min_size=1,
        max_size=10,
        unique=True,
    )
)
def test_property_class_compression_exact(patterns):
    dfa = DFA.build(PatternSet.from_strings(patterns))
    assert CompactSTT.from_dfa(dfa).verify_against(dfa)
