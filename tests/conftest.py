"""Shared fixtures: the paper's running example and randomized inputs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DFA, AhoCorasickAutomaton, PatternSet, encode, plan_chunks
from repro.core.alphabet import STATE_DTYPE
from repro.core.chunking import build_windows, required_overlap
from repro.core.lockstep import LockstepTrace

try:
    from hypothesis import HealthCheck, settings

    # ``ci`` keeps the differential harness fast and deterministic in
    # CI (--hypothesis-profile=ci); ``dev`` digs deeper locally.
    settings.register_profile(
        "ci",
        max_examples=25,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile("dev", max_examples=200, deadline=None)
except ImportError:  # pragma: no cover - hypothesis is a test dep
    pass

#: The dictionary of paper Fig. 1/3: {he, she, his, hers}.
PAPER_PATTERNS = ["he", "she", "his", "hers"]


@pytest.fixture(scope="session")
def paper_patterns() -> PatternSet:
    return PatternSet.from_strings(PAPER_PATTERNS)


@pytest.fixture(scope="session")
def paper_automaton(paper_patterns) -> AhoCorasickAutomaton:
    return AhoCorasickAutomaton.build(paper_patterns)


@pytest.fixture(scope="session")
def paper_dfa(paper_automaton) -> DFA:
    return DFA.from_automaton(paper_automaton)


@pytest.fixture(scope="session")
def english_patterns() -> PatternSet:
    words = [
        "the", "and", "that", "have", "for", "not", "with", "you",
        "this", "but", "his", "from", "they", "say", "her", "she",
        "will", "one", "all", "would", "there", "their", "what",
        "out", "about", "who", "get", "which", "when", "make",
    ]
    return PatternSet.from_strings(words)


@pytest.fixture(scope="session")
def english_dfa(english_patterns) -> DFA:
    return DFA.build(english_patterns)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20130520)  # IPPS 2013 conference date


def random_text(rng: np.random.Generator, n: int, alphabet: bytes = b"abcdefgh ") -> bytes:
    """Uniform random text over a small alphabet (dense match rates)."""
    idx = rng.integers(0, len(alphabet), size=n)
    return bytes(bytearray(alphabet[i] for i in idx))


def lockstep_oracle(dfa: DFA, data, chunk_len: int, overlap: int = None):
    """Test-local lockstep run, independent of the tiled engine.

    Plans the chunks, builds the step-major window matrix, and advances
    every lane one byte per step with a plain dense lookup
    ``dfa.stt.next_states[state, windows[j]]``.  Returns ``(plan,
    windows, trace)``; the engine under test must reproduce ``trace``.
    """
    data = encode(data)
    if overlap is None:
        overlap = required_overlap(dfa.patterns.max_length)
    plan = plan_chunks(data.size, chunk_len, overlap)
    windows = build_windows(data, plan)
    states_after = np.empty(windows.shape, dtype=STATE_DTYPE)
    state = np.zeros(plan.n_chunks, dtype=np.int64)
    for j in range(plan.window_len):
        state = dfa.stt.next_states[state, windows[j]]
        states_after[j] = state
    steps = np.arange(plan.window_len, dtype=np.int64)
    valid = plan.starts[None, :] + steps[:, None] < plan.n
    trace = LockstepTrace(states_after=states_after, valid=valid, plan=plan)
    return plan, windows, trace


def oracle_raw_hits(dfa: DFA, trace: LockstepTrace) -> int:
    """Match-state cells of *trace* inside the input, before ownership."""
    flags = np.asarray(dfa.stt.match_flags) != 0
    return int(np.count_nonzero(flags[trace.states_after] & trace.valid))
