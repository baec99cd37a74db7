"""Full state traces of a lockstep DFA run.

On the GPU, every thread of a warp executes the same instruction on its
own chunk (SIMD/SIMT, paper Section III); :mod:`repro.core.tiled` runs
that execution shape in NumPy, all threads advancing one input byte per
step, and turns the hits into owned matches.  Most consumers fold what
they need into per-tile sinks.  This module holds the explicit opt-in
for the few that need the *whole* trace — which STT rows were fetched
at each step (texture traffic) and which chunk bytes were read
(shared/global traffic): :class:`TraceRecorder` is a tile sink that
assembles a :class:`LockstepTrace`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.alphabet import STATE_DTYPE
from repro.core.chunking import ChunkPlan
from repro.core.trie import ROOT


@dataclass
class LockstepTrace:
    """Per-step state trace of a lockstep DFA run.

    Attributes
    ----------
    states_after:
        ``(window_len, n_threads)`` int32 — the DFA state *after*
        consuming step ``j``'s byte.  Row ``j-1`` (or the root for
        ``j == 0``) is therefore the STT row *fetched* at step ``j``.
    valid:
        ``(window_len, n_threads)`` bool — True where the scanned byte
        lies inside the real input (False in the zero-padded tail).
    plan:
        The chunk geometry that shaped the run.
    """

    states_after: np.ndarray
    valid: np.ndarray
    plan: ChunkPlan

    @property
    def n_threads(self) -> int:
        """Number of lockstep threads (chunks)."""
        return self.states_after.shape[1]

    @property
    def window_len(self) -> int:
        """Steps executed per thread."""
        return self.states_after.shape[0]

    def states_fetched(self) -> np.ndarray:
        """States whose STT row is read at each step (texture accesses).

        Shape ``(window_len, n_threads)``: row 0 is all-ROOT (every
        thread starts at state 0), row ``j`` is ``states_after[j-1]``.
        """
        fetched = np.empty_like(self.states_after)
        fetched[0, :] = ROOT
        fetched[1:, :] = self.states_after[:-1, :]
        return fetched

    def visit_histogram(self, n_states: int) -> np.ndarray:
        """How many times each STT row was fetched (valid steps only).

        This histogram drives the texture-cache and CPU-cache models:
        natural-language text concentrates fetches on a small set of
        shallow states, which is why the texture cache works at all.
        """
        fetched = self.states_fetched()[self.valid]
        return np.bincount(fetched, minlength=n_states).astype(np.int64)

    def total_fetches(self) -> int:
        """Number of valid STT fetches (== bytes actually scanned)."""
        return int(self.valid.sum())


class TraceRecorder:
    """Tile sink that rebuilds a full :class:`LockstepTrace`.

    The explicit opt-in path for callers that genuinely need the whole
    state trace (``KernelProfiler(retain_traces=True)``, the exact
    texture-cache simulator): it reintroduces the O(input) memory the
    tiled engine exists to avoid, so kernels only attach it behind
    their ``retain_trace`` flag.
    """

    needs_fetched = False
    needs_windows = False

    def __init__(self, plan: ChunkPlan):
        self.plan = plan
        self.states_after = np.empty(
            (plan.window_len, plan.n_chunks), dtype=STATE_DTYPE
        )
        self.valid = np.empty((plan.window_len, plan.n_chunks), dtype=bool)

    def on_tile(self, tile) -> None:
        """Copy one tile's rows into the full trace matrices."""
        self.states_after[tile.j0 : tile.j1] = tile.states_after
        self.valid[tile.j0 : tile.j1] = tile.valid

    def trace(self) -> LockstepTrace:
        """The assembled trace (call after the scan completes)."""
        return LockstepTrace(
            states_after=self.states_after, valid=self.valid, plan=self.plan
        )
