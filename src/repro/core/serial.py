"""Serial matchers — the paper's single-CPU-core baseline.

Two implementations of phase 2 on one core:

* :func:`match_serial_python` — the literal Fig. 2 pseudocode: one
  Python loop, one δ lookup per byte.  This is the semantic reference
  (slow; intended for tests and small inputs).
* :func:`match_serial` — a production serial matcher that runs the
  same DFA through the tiled lockstep engine
  (:func:`repro.core.tiled.scan_tiled`) with chunk overlap.
  Its match set is bit-identical to the Python loop (tested), while
  running at NumPy speed so the test/bench harness can process
  megabytes.

The serial *timing* reported in the paper's Figs. 13/16 is modeled in
:mod:`repro.bench.cpu_model` (a 2.2 GHz Core2 with a 4 MB L2); the
functional matchers here supply the state-visit histogram that model
needs.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.core.alphabet import BytesLike, MATCH_COLUMN, encode
from repro.core.chunking import required_overlap
from repro.core.dfa import DFA
from repro.core.match import MatchResult
from repro.core.tiled import StateVisitHistogram, scan_tiled
from repro.core.trie import ROOT

#: Largest chunk the vectorized serial matcher picks, and the fixed
#: chunk of the modeled serial scans (:func:`serial_state_histogram`,
#: the bench runner's CPU baseline).
DEFAULT_SERIAL_CHUNK = 4096

#: Fixed per-step dispatch cost of a lockstep scan, in lanes' worth of
#: per-lane gather cost (``c0 / c1``, measured; docs/MODEL.md §11).
STEP_COST_LANES = 512


def serial_chunk_len(n: int, overlap: int) -> int:
    """Owned bytes per lane for an *n*-byte serial scan.

    A lockstep step costs a fixed dispatch ``c0`` plus ``c1`` per lane,
    so a scan costs about ``(c + X)(c0 + c1·n/c)`` for chunk ``c`` and
    overlap ``X`` — smallest near ``c = sqrt(n·X·c1/c0)``.  The chunk
    is held to at least ``4(X+1)`` (overlap re-reads stay under a
    quarter of the window), at most :data:`DEFAULT_SERIAL_CHUNK`, and
    never past the text, so a 64 B request runs a ~60-step window
    instead of a 4,107-step one.
    """
    unit = overlap + 1
    ideal = math.isqrt(n * unit // STEP_COST_LANES)
    chunk = min(max(ideal, 4 * unit), DEFAULT_SERIAL_CHUNK)
    return max(min(chunk, n), 1)


def match_serial_python(dfa: DFA, text: BytesLike) -> List[Tuple[int, int]]:
    """Reference serial scan: paper Fig. 2, one transition per byte.

    Returns ``(end, pattern_id)`` tuples sorted canonically.  O(n)
    transitions but Python-loop constants — use for small inputs only.
    """
    data = encode(text, name="text")
    table = dfa.stt.table
    out: List[Tuple[int, int]] = []
    state = ROOT
    for pos, byte in enumerate(data.tolist()):
        state = int(table[state, byte])
        if table[state, MATCH_COLUMN]:
            for pid in dfa.outputs_of(state).tolist():
                out.append((pos, pid))
    out.sort()
    return out


def match_serial(
    dfa: DFA, text: BytesLike, chunk_len: Optional[int] = None
) -> MatchResult:
    """Production serial matcher (vectorized, exact).

    Semantically identical to :func:`match_serial_python`; implemented
    via chunked lockstep so a single CPU core processes megabytes per
    second in pure NumPy.  Without ``chunk_len`` the chunk is sized to
    the text (:func:`serial_chunk_len`); any chunk gives the same
    matches.  The chunking is an implementation detail of the
    *functional* scan — the serial *timing model* charges the run as
    one sequential pass (no parallel credit).
    """
    data = encode(text, name="text")
    if data.size == 0:
        return MatchResult.empty()
    overlap = required_overlap(dfa.patterns.max_length)
    if chunk_len is None:
        chunk_len = serial_chunk_len(int(data.size), overlap)
    return scan_tiled(dfa, data, chunk_len=chunk_len, overlap=overlap).matches


def serial_state_histogram(
    dfa: DFA, text: BytesLike, chunk_len: int = DEFAULT_SERIAL_CHUNK
) -> np.ndarray:
    """STT-row visit histogram of a serial scan over *text*.

    Input to the CPU L2 model: rows visited often stay L2-resident,
    rows in the long tail miss.  Chunked collection is statistically
    indistinguishable from a single pass for this purpose (each chunk
    restarts at the root, perturbing at most ``overlap`` fetches per
    chunk).
    """
    data = encode(text, name="text")
    if data.size == 0:
        return np.zeros(dfa.n_states, dtype=np.int64)
    hist = StateVisitHistogram(dfa.n_states)
    scan_tiled(dfa, data, chunk_len=chunk_len, sinks=[hist])
    return hist.hist
