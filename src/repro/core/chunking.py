"""Chunk partitioning with the paper's +X overlap spanning.

Both GPU kernels split the input text into fixed-size per-thread chunks
(Section IV-B-3).  A pattern can straddle a chunk boundary, so "we span
each thread by adding X characters after the chunk that it is
assigned, where X is the maximum pattern length" — each thread *scans*
a window of ``chunk_len + overlap`` bytes but *owns* only matches that
**start** inside its own chunk.  Because an AC scan started at the
window head finds every occurrence that begins at or after it, the
union of owned matches equals the serial full-text match set exactly
(property-tested in ``tests/core/test_chunking.py``).

``overlap = max_pattern_length - 1`` suffices: a match starting on the
chunk's last byte extends at most ``max_len - 1`` bytes past the
boundary.  The paper uses ``X = max_len`` (one byte more than needed);
:func:`required_overlap` returns the tight value and callers may pass
the paper's looser one — correctness holds for any ``overlap >= tight``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ChunkingError


def required_overlap(max_pattern_length: int) -> int:
    """Tight overlap X for a dictionary whose longest pattern has this length."""
    if max_pattern_length < 1:
        raise ChunkingError(
            f"max_pattern_length must be >= 1, got {max_pattern_length}"
        )
    return max_pattern_length - 1


@dataclass(frozen=True)
class ChunkPlan:
    """Geometry of a chunked scan.

    Attributes
    ----------
    n:
        Total input length in bytes.
    chunk_len:
        Owned bytes per thread (last chunk may own fewer).
    overlap:
        Extra bytes scanned past the owned region (the paper's X).
    starts:
        ``starts[t]`` — first byte owned by thread ``t``.
    owned_ends:
        ``owned_ends[t]`` — one past the last owned byte.
    window_len:
        Bytes scanned per thread: ``chunk_len + overlap`` (clipped at
        the end of the input via masking, not via shorter windows, so
        the lockstep matcher runs a rectangular matrix).
    """

    n: int
    chunk_len: int
    overlap: int
    starts: np.ndarray
    owned_ends: np.ndarray
    window_len: int

    @property
    def n_chunks(self) -> int:
        """Number of chunks (== number of matching threads)."""
        return int(self.starts.size)

    def scan_bytes_total(self) -> int:
        """Total bytes scanned including overlap redundancy.

        The redundancy factor ``scan_bytes_total / n`` is the price of
        chunk-parallelism; the ablation bench sweeps ``chunk_len`` to
        show the trade-off against parallelism (DESIGN.md Abl. B).
        """
        window_ends = np.minimum(self.starts + self.window_len, self.n)
        return int(np.sum(window_ends - self.starts))


def plan_chunks(n: int, chunk_len: int, overlap: int) -> ChunkPlan:
    """Partition ``n`` bytes into chunks of ``chunk_len`` with ``overlap``.

    Raises
    ------
    ChunkingError
        If ``n < 0``, ``chunk_len <= 0`` or ``overlap < 0``.
    """
    if n < 0:
        raise ChunkingError(f"input length must be >= 0, got {n}")
    if chunk_len <= 0:
        raise ChunkingError(f"chunk_len must be > 0, got {chunk_len}")
    if overlap < 0:
        raise ChunkingError(f"overlap must be >= 0, got {overlap}")
    n_chunks = max((n + chunk_len - 1) // chunk_len, 1)
    starts = np.arange(n_chunks, dtype=np.int64) * chunk_len
    owned_ends = np.minimum(starts + chunk_len, n)
    return ChunkPlan(
        n=n,
        chunk_len=chunk_len,
        overlap=overlap,
        starts=starts,
        owned_ends=owned_ends,
        window_len=chunk_len + overlap,
    )


def build_windows(data: np.ndarray, plan: ChunkPlan) -> np.ndarray:
    """Gather the per-thread scan windows into a step-major matrix.

    Returns a ``(window_len, n_chunks)`` uint8 array ``W`` where
    ``W[j, t]`` is the ``j``-th byte scanned by thread ``t``.  Bytes
    past the end of the input are zero-filled; the lockstep matcher
    masks them out by position, so the filler value never produces a
    reported match (verified by tests with dictionaries containing
    NUL bytes).

    Step-major layout makes the hot loop read one contiguous row per
    step — the cache-friendly orientation the HPC guide recommends.
    """
    if data.dtype != np.uint8 or data.ndim != 1:
        raise ChunkingError("data must be a 1-D uint8 array (use alphabet.encode)")
    if data.size != plan.n:
        raise ChunkingError(
            f"data length {data.size} does not match plan.n {plan.n}"
        )
    pad_len = int(plan.starts[-1]) + plan.window_len
    padded = np.zeros(pad_len, dtype=np.uint8)
    padded[: plan.n] = data
    # Gather: rows are steps, columns are threads.
    idx = plan.starts[None, :] + np.arange(plan.window_len, dtype=np.int64)[:, None]
    return padded[idx]


def ownership_mask(
    plan: ChunkPlan,
    thread_ids: np.ndarray,
    ends: np.ndarray,
    pattern_lengths_by_match: np.ndarray,
) -> np.ndarray:
    """Filter raw window matches down to the matches each thread *owns*.

    Parameters
    ----------
    plan:
        The chunk geometry.
    thread_ids:
        Thread (chunk) index that produced each raw match.
    ends:
        Global end position of each raw match.
    pattern_lengths_by_match:
        Length of the matched pattern for each raw match.

    Returns
    -------
    Boolean mask: True where the match starts inside the thread's owned
    chunk *and* ends inside the real input (excludes zero-padding).

    Lane 0 has no lower bound on match starts.  A lane 0 that starts at
    the root cannot see a match starting before byte 0, so this changes
    nothing there; a lane 0 seeded with a carried stream state owns
    exactly the matches that straddle the seam into this input.
    """
    starts_of_match = ends - pattern_lengths_by_match + 1
    chunk_start = plan.starts[thread_ids]
    chunk_end = plan.owned_ends[thread_ids]
    return (
        ((starts_of_match >= chunk_start) | (thread_ids == 0))
        & (starts_of_match < chunk_end)
        & (ends < plan.n)
    )
