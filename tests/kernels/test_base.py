"""Direct unit tests for kernels.base (texture traffic, helpers)."""

import numpy as np
import pytest

from repro.core import DFA, PatternSet
from repro.errors import MemoryModelError
from repro.gpu import gtx285
from repro.kernels.base import (
    CostParams,
    grouped_thread_addresses,
    hot_line_set,
    texture_traffic,
)

from tests.conftest import lockstep_oracle


def traced(dfa, text: bytes, chunk=32):
    _, windows, trace = lockstep_oracle(dfa, text, chunk)
    return trace, windows


class TestHotLineSet:
    def test_selects_most_frequent(self):
        ids = np.array([[5, 5, 5, 7, 9, 9]])
        valid = np.ones_like(ids, dtype=bool)
        hot = hot_line_set(ids, valid, capacity_lines=2)
        assert hot.tolist() == [5, 9]

    def test_everything_fits(self):
        ids = np.array([[1, 2, 3]])
        valid = np.ones_like(ids, dtype=bool)
        assert hot_line_set(ids, valid, 10).tolist() == [1, 2, 3]

    def test_invalid_entries_ignored(self):
        ids = np.array([[1, 2, 3]])
        valid = np.array([[True, False, False]])
        assert hot_line_set(ids, valid, 10).tolist() == [1]

    def test_empty(self):
        ids = np.zeros((0, 4), dtype=np.int64)
        valid = np.zeros((0, 4), dtype=bool)
        assert hot_line_set(ids, valid, 4).size == 0


class TestTextureTraffic:
    def test_tiny_dictionary_all_hits(self, paper_dfa):
        trace, windows = traced(paper_dfa, b"she sells seashells " * 50)
        t = texture_traffic(paper_dfa, trace, windows, gtx285(), CostParams())
        # A 10-state STT fits any cache level: no stalls, no DRAM.
        assert t.dram_line_requests == 0
        assert t.dependent_latency_cycles == 0.0
        assert t.lane_l1_hit_rate == 1.0
        assert t.dram_instr_rate == 0.0
        assert t.accesses > 0
        assert t.total_line_requests >= t.accesses  # >=1 line per instr

    def test_huge_dictionary_generates_dram_traffic(self):
        # Random 4-byte patterns spread fetches across many rows.
        rng = np.random.default_rng(3)
        pats = [bytes(rng.integers(1, 255, 4).tolist()) for _ in range(3000)]
        dfa = DFA.build(PatternSet.from_bytes(list(dict.fromkeys(pats))))
        text = bytes(rng.integers(1, 255, 60_000).tolist())
        trace, windows = traced(dfa, text)
        t = texture_traffic(dfa, trace, windows, gtx285(), CostParams())
        assert t.dram_line_requests > 0
        assert 0.0 < t.lane_l1_hit_rate < 1.0
        assert t.dependent_latency_cycles > 0
        assert t.dram_bytes == t.dram_line_requests * 32

    def test_miss_hierarchy_ordering(self):
        rng = np.random.default_rng(4)
        pats = [bytes(rng.integers(1, 255, 5).tolist()) for _ in range(1500)]
        dfa = DFA.build(PatternSet.from_bytes(list(dict.fromkeys(pats))))
        text = bytes(rng.integers(1, 255, 40_000).tolist())
        trace, windows = traced(dfa, text)
        t = texture_traffic(dfa, trace, windows, gtx285(), CostParams())
        # L2 is nested inside "all lines": DRAM <= L1-miss lines <= total.
        assert t.dram_line_requests <= t.l2_line_requests + t.dram_line_requests <= t.total_line_requests


class TestHelpers:
    def test_grouped_thread_addresses_shape(self):
        addr = np.arange(3 * 20).reshape(3, 20)
        valid = np.ones((3, 20), dtype=bool)
        rows, act = grouped_thread_addresses(addr, valid)
        # 20 threads pad to 32 -> 2 groups x 3 steps = 6 rows.
        assert rows.shape == (6, 16)
        assert act.shape == (6, 16)
        assert act[1, 4:].sum() == 0  # padded lanes inactive

    def test_grouped_mismatch_rejected(self):
        with pytest.raises(MemoryModelError):
            grouped_thread_addresses(
                np.zeros((2, 4)), np.ones((3, 4), dtype=bool)
            )

    def test_cost_params_frozen_defaults(self):
        p = CostParams()
        assert p.instr_per_iter_global > p.instr_per_iter_shared
        with pytest.raises(Exception):
            p.instr_per_iter_global = 99  # frozen
